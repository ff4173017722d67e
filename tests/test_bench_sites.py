"""Every attribute the benchmark's tracer wraps still exists, and the
benchmark's reference route still runs.

bench/tracing.py patches functions at the module attributes their callers
look them up by; a refactor that renames or drops one of those imports
would make every traced benchmark invocation fail.  This resolves each
path in its SITES table, and checks that the calls the per-layer metrics
count really go through the wrapped names.  bench/reference.py reads the
model's Hamiltonian term by term, so a change to its coefficient type
shows up here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_sites_resolve():
    tracing = _load_tracing()
    paths = [path for _, paths, _ in tracing.SITES for path in paths]
    assert paths
    for path in paths:
        owner, attr = tracing.owner_of(path)
        assert callable(getattr(owner, attr, None)), path


def test_the_cli_calls_every_traced_cli_site(tmp_path, monkeypatch):
    # only the sites looked up through vortexcert.cli are wrapped, so a
    # span is recorded only for a call that goes through cli's own name;
    # one that goes around it would leave its per-layer metric at 0
    from vortexcert import cli

    tracing = _load_tracing()
    sites = [(name, tuple(p for p in paths if p.startswith("vortexcert.cli:")), count)
             for name, paths, count in tracing.SITES]
    monkeypatch.setattr(tracing, "SITES", [site for site in sites if site[1]])
    fast = ["--samples", "2", "--max-degree", "2"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["certify", *fast, "--out", str(tmp_path / "c.json")]) == 0
        assert cli.main(["sweep", "--lambda.from", "0.1", "--lambda.to", "0.2",
                         "--lambda.steps", "2", "--beta", "1", *fast,
                         "--out", str(tmp_path / "s.json")]) == 0
        # a lowered dense cap sends the diamond through Lanczos
        monkeypatch.setattr(cli, "DENSE_DIM_CAP", 128)
        assert cli.main(["certify", *fast,
                         "--out", str(tmp_path / "l.json")]) == 0
    finally:
        tracer.restore()
    recorded = {span[0] for span in tracer.spans}
    assert {name for name, _, _ in tracing.SITES} - recorded == set()


def test_every_tracer_only_import_is_a_traced_site():
    # an import that src/ keeps only for the tracer is marked
    # `# noqa: F401`; every name on such a line must be a SITES path, so a
    # tracer-only import cannot outlive its site
    tracing = _load_tracing()
    paths = {path for _, paths, _ in tracing.SITES for path in paths}
    marked = []
    for file in sorted((TRACING.parents[1] / "src" / "vortexcert").glob("*.py")):
        text = file.read_text()
        lines = text.splitlines()
        names: dict[int, list] = {}
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name
                    names.setdefault(alias.lineno, []).append(name)
        for number, line in enumerate(lines, 1):
            if "# noqa: F401" in line:
                assert names.get(number), f"{file.name}:{number} imports nothing"
                marked += [f"vortexcert.{file.stem}:{name}" for name in names[number]]
    assert marked
    assert [path for path in marked if path not in paths] == []


@pytest.mark.parametrize("floor", [None, 16])
def test_every_lanczos_product_is_a_traced_matvec(monkeypatch, diamond, floor):
    # fock.matvec wraps SparseOperator.apply; a block operator whose
    # products went around it would leave that metric below the count
    # the solver reports
    from vortexcert import spectral
    from vortexcert.fock import PauliSum
    from vortexcert.model import build_hamiltonian

    if floor is not None:  # more, smaller blocks than the two parities
        monkeypatch.setattr(spectral, "SYMMETRY_BLOCK_FLOOR", floor)
    tracing = _load_tracing()
    monkeypatch.setattr(tracing, "SITES", [
        site for site in tracing.SITES if site[0] == "fock.matvec"])
    op = PauliSum(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ground = spectral.lanczos_ground(op, k=9, seed=0)
    finally:
        tracer.restore()
    assert ground.blocks == ((2, 128) if floor is None else (16, 16))
    assert len(tracer.spans) == ground.matvecs > 0


def test_reference_agrees_with_ground_space(monkeypatch, diamond):
    from vortexcert.fock import to_matrix
    from vortexcert.model import build_hamiltonian
    from vortexcert.spectral import dense_spectrum, ground_space

    monkeypatch.syspath_prepend(str(TRACING.parent))
    reference = importlib.import_module("reference")
    out = reference.main({"argv": ["certify", "--lambda", "0.1"], "seed": 0})
    [(lam, e0, degeneracy, octagons)] = out["references"]
    ground = ground_space(dense_spectrum(
        to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)))
    assert (lam, octagons) == (0.1, len(diamond.octagons))
    assert abs(e0 - ground.e0) <= 1e-9 and degeneracy == ground.n
