"""Command line behavior: config resolution, exit codes, determinism.

Everything drives main(argv) in-process; output goes through --out so the
tests read files instead of scraping stdout.
"""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vortexcert
from vortexcert import cli
from vortexcert.cli import (
    ASSERTED_CHECKS,
    ConfigError,
    SWEEP_COLUMNS,
    build_parser,
    main,
    resolve_config,
)
from vortexcert.fock import to_matrix
from vortexcert.model import build_hamiltonian
from vortexcert.spectral import dense_spectrum

E0_DIAMOND_01 = -4.010037405062517

# small sampling plan so every certify in this file stays subsecond
FAST = ["--samples", "2", "--max-degree", "2"]


def _resolve(argv):
    return resolve_config(build_parser().parse_args(argv))


def _run_json(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def test_defaults_bundle_the_diamond():
    cfg = _resolve(["certify"])
    assert cfg["lattice"]["islands"] == [[0, 2], [1, 1], [1, 3], [2, 2]]
    assert cfg["lambda"] == 0.1 and cfg["beta"] == 1.0
    assert cfg["plane"] == {"axis": "x", "coordinate": 1}


def test_precedence_defaults_file_flags(tmp_path):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"lambda": 0.2, "beta": 2.5, "seed": 3}))
    cfg = _resolve(["certify", "--config", str(conf), "--lambda", "0.3"])
    assert cfg["lambda"] == 0.3  # flag beats file
    assert cfg["beta"] == 2.5    # file beats default
    assert cfg["seed"] == 3
    assert cfg["tolerances"]["rp"] == 1e-9  # untouched default


def test_dotted_aliases_hit_the_same_paths():
    a = _resolve(["certify", "--tol-rp", "1e-7", "--samples", "5"])
    b = _resolve(["certify", "--tolerances.rp", "1e-7", "--samples.count", "5"])
    assert a == b
    assert a["tolerances"]["rp"] == 1e-7 and a["samples"]["count"] == 5


# every flag spelling of the parser, the config path it sets, a value and
# the value it resolves to
FLAG_PATHS = [
    (("--lx", "--lattice.lx"), "lattice.lx", "5", 5),
    (("--ly", "--lattice.ly"), "lattice.ly", "6", 6),
    (("--boundary", "--lattice.boundary"), "lattice.boundary", "periodic", "periodic"),
    (("--plane-axis", "--plane.axis"), "plane.axis", "y", "y"),
    (("--plane-coord", "--plane.coordinate"), "plane.coordinate", "2", 2),
    (("--lambda", "--lam"), "lambda", "0.3", 0.3),
    (("--beta",), "beta", "2.5", 2.5),
    (("--seed",), "seed", "7", 7),
    (("--tol-rp", "--tolerances.rp"), "tolerances.rp", "1e-7", 1e-7),
    (("--tol-topo", "--tolerances.topo"), "tolerances.topo", "1e-6", 1e-6),
    (("--tol-pos", "--tolerances.pos"), "tolerances.pos", "1e-5", 1e-5),
    (("--gap-tol", "--tolerances.gap"), "tolerances.gap", "0.5", 0.5),
    (("--samples", "--samples.count"), "samples.count", "3", 3),
    (("--max-degree", "--samples.max_degree"), "samples.max_degree", "2", 2),
    (("--out", "--output.path"), "output.path", "o.json", "o.json"),
    (("--format", "--output.format"), "output.format", "csv", "csv"),
]


@pytest.mark.parametrize("flags,path,text,value", FLAG_PATHS,
                         ids=[row[1] for row in FLAG_PATHS])
def test_every_flag_spelling_sets_its_path(flags, path, text, value):
    for flag in flags:
        node = _resolve(["certify", flag, text])
        for key in path.split("."):
            node = node[key]
        assert node == value, flag


# a config file breaking one check, and the error it gets: every rule of
# the checks, then values that used to slip through or crash
CONFIG_ERRORS = [
    ({"lattice": {"lx": "3"}}, "lattice.lx: must be an integer"),
    ({"lattice": {"ly": True}}, "lattice.ly: must be an integer"),
    ({"lattice": {"lx": 1}}, "lattice.lx: region too small (need >= 2)"),
    ({"lattice": {"ly": 1}}, "lattice.ly: region too small (need >= 2)"),
    ({"lattice": {"boundary": "torus"}}, "lattice.boundary: must be 'open' or 'periodic'"),
    ({"lattice": {"islands": "abc"}}, "lattice.islands: must be a list of [x, y] pairs"),
    ({"plane": {"axis": "z"}}, "plane.axis: must be 'x' or 'y'"),
    ({"plane": {"coordinate": "1"}}, "plane.coordinate: must be a number"),
    ({"lambda": {"to": 1, "steps": 2}}, "lambda.from: missing from sweep range"),
    ({"lambda": {"from": 0, "steps": 2}}, "lambda.to: missing from sweep range"),
    ({"lambda": {"from": 0, "to": 1}}, "lambda.steps: missing from sweep range"),
    ({"lambda": {"from": 0, "to": 1, "steps": 0}}, "lambda.steps: must be an integer >= 1"),
    ({"lambda": {"from": 1, "to": 0, "steps": 2}}, "lambda.to: must be >= lambda.from"),
    ({"lambda": "0.1"}, "lambda: must be a number"),
    ({"beta": []}, "beta: empty list"),
    ({"beta": [1, -1]}, "beta: entries must be numbers >= 0"),
    ({"beta": -1}, "beta: must be a number >= 0"),
    ({"seed": 1.5}, "seed: must be an integer"),
    ({"tolerances": {"rp": 0}}, "tolerances.rp: must be > 0"),
    ({"tolerances": {"topo": "x"}}, "tolerances.topo: must be > 0"),
    ({"tolerances": {"pos": -1}}, "tolerances.pos: must be > 0"),
    ({"tolerances": {"gap": 0}},
     "tolerances.gap: must be > 0 (or null for the default rule)"),
    ({"samples": {"count": -1}}, "samples.count: must be an integer >= 0"),
    ({"samples": {"max_degree": 1.0}}, "samples.max_degree: must be an integer >= 0"),
    # sections FIELDS has no rows for, even holding their old defaults
    ({"solver": {"k": 4}}, "config: unknown keys ['solver']"),
    ({"solver": {"window": 64}}, "config: unknown keys ['solver']"),
    ({"output": {"format": "xml"}}, "output.format: must be 'json' or 'csv'"),
    # formerly a traceback or a silent run
    ({"lambda": {"from": "a", "to": 1, "steps": 2}}, "lambda.from: must be a number"),
    ({"lattice": {"islands": [[0]]}}, "lattice.islands: must be a list of [x, y] pairs"),
    ({"cache": {"dir": None}}, "config: unknown keys ['cache']"),
    ({"samples": {"count": True, "max_degree": 2}},
     "samples.count: must be an integer >= 0"),
    ({"seed": True}, "seed: must be an integer"),
    ({"lambda": {"from": 0, "to": 1, "steps": True}},
     "lambda.steps: must be an integer >= 1"),
    ({"beta": [True]}, "beta: entries must be numbers >= 0"),
    ({"tolerances": {"rp": float("inf")}}, "tolerances.rp: must be > 0"),
    ({"plane": {"coordinate": float("nan")}}, "plane.coordinate: must be a number"),
    ({"lattice": 5}, "lattice: must be an object"),
]


@pytest.mark.parametrize("data,message", CONFIG_ERRORS,
                         ids=[m.split(":")[0] + f"-{i}"
                              for i, (_, m) in enumerate(CONFIG_ERRORS)])
def test_config_file_errors_exit_2_with_the_field(tmp_path, capsys, data, message):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps(data))
    assert main(["certify", "--config", str(conf)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# inputs that used to run, crash or name the wrong piece: (command line,
# config file bytes or None, start of the error)
BAD_INPUTS = [
    (["certify"], b'{"lattice": {"lxx": 5}}', "config: unknown keys ['lattice.lxx']"),
    (["sweep"], b'{"lambda": {"from": 0, "to": 1, "steps": 2, "step": 1}}',
     "config: unknown keys ['lambda.step']"),
    (["lattice"], b"\xff\xfe\x00", "config: invalid JSON in "),
    (["sweep", "--lambda.to", "1"], None, "lambda.from: missing from sweep range"),
    (["sweep", "--lambda.from", "0", "--lambda.to", "1"], None,
     "lambda.steps: missing from sweep range"),
    # paths are relative to the test's working directory
    (["certify", "--samples", "2", "--max-degree", "2", "--out", "missing/x.json"],
     None, "output.path: cannot write missing/x.json: "),
    (["spectrum"], b'{"cache": {"dir": "d"}, "solver": {"k": 9}}',
     "config: unknown keys ['cache', 'solver']"),
]


@pytest.mark.parametrize("argv,content,message", BAD_INPUTS,
                         ids=["section-key", "range-key", "non-utf8",
                              "range-to-only", "range-no-steps",
                              "out-dir-missing", "removed-sections"])
def test_bad_input_exits_2_naming_it(tmp_path, monkeypatch, capsys, argv,
                                     content, message):
    monkeypatch.chdir(tmp_path)
    if content is not None:
        conf = tmp_path / "c.json"
        conf.write_bytes(content)
        argv = [*argv, "--config", str(conf)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


def test_unknown_config_key_rejected(tmp_path):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"lambada": 0.2}))
    with pytest.raises(ConfigError, match="unknown keys"):
        _resolve(["certify", "--config", str(conf)])


def test_size_flags_reset_the_island_list(tmp_path):
    # asking for an explicit region means the full even sublattice
    cfg = _resolve(["lattice", "--lx", "3", "--ly", "4"])
    assert cfg["lattice"]["islands"] is None
    # unless a config file pinned its own list
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"lattice": {"islands": [[0, 0], [1, 1]]}}))
    cfg = _resolve(["lattice", "--config", str(conf), "--lx", "4", "--ly", "4"])
    assert cfg["lattice"]["islands"] == [[0, 0], [1, 1]]


def test_beta_flag_accepts_comma_lists():
    assert _resolve(["sweep", "--beta", "2"])["beta"] == 2.0
    assert _resolve(["sweep", "--beta", "0.5,1,5"])["beta"] == [0.5, 1.0, 5.0]


def test_lambda_grid_flags_compose():
    cfg = _resolve(["sweep", "--lambda.from", "0", "--lambda.to", "0.5",
                    "--lambda.steps", "3"])
    assert cfg["lambda"] == {"from": 0.0, "to": 0.5, "steps": 3}
    from vortexcert.cli import _lambda_grid
    assert _lambda_grid(cfg) == [0.0, 0.25, 0.5]
    assert _lambda_grid({"lambda": 0.3}) == [0.3]


def test_usage_and_config_errors_exit_2(tmp_path, capsys):
    assert main([]) == 2                                  # missing subcommand
    assert main(["certify", "--boundary", "torus"]) == 2  # bad choice
    assert main(["certify", "--lx", "1", "--ly", "4"]) == 2
    assert "lattice.lx" in capsys.readouterr().err
    # no flag sets a Lanczos cluster size, a Krylov window or a cache
    for flag in ("--solver.k", "--solver.window", "--cache.dir"):
        assert main(["spectrum", flag, "9"]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    conf = tmp_path / "c.json"
    conf.write_text("{not json")
    assert main(["certify", "--config", str(conf)]) == 2
    # a non-bisecting half-integer plane is a config-level mistake
    assert main(["certify", "--plane-coord", "0.5"] + FAST) == 2


def test_lattice_command_payload(tmp_path):
    code, payload = _run_json(tmp_path, ["lattice"])
    assert code == 0
    assert payload["boundary"] == "open"
    assert payload["lx"] == 3 and payload["ly"] == 4
    assert sorted(map(tuple, payload["islands"])) == [(0, 2), (1, 1), (1, 3), (2, 2)]
    assert len(payload["octagons"]) == 1


def test_certify_bundle_and_exit(tmp_path):
    code, bundle = _run_json(tmp_path, ["certify"] + FAST)
    assert code == 0
    assert bundle["tool"] == "vortexcert"
    assert abs(bundle["ground"]["e0"] - E0_DIAMOND_01) <= 1e-12
    assert bundle["ground"]["degeneracy"] == 8
    reports = {r["check"]: r for r in bundle["reports"]}
    assert set(ASSERTED_CHECKS) <= set(reports)
    assert all(reports[c]["verdict"] == "pass" for c in ASSERTED_CHECKS)
    assert reports["rp_odd_observed"]["verdict"] in ("pass", "fail")
    for r in reports.values():
        assert r["timing_ms"] is None  # timings live in the sidecar only
    assert bundle["vortex_map"]["1,2"]["classification"] == "vortex-free"
    assert bundle["chain_violations"] == []
    assert "timestamp" in bundle["sidecar"]
    assert "output" not in bundle["config"] and "expect_fail" not in bundle["config"]


def test_certify_sidecar_carries_the_rp_gram_diagnostics(tmp_path):
    code, bundle = _run_json(tmp_path, ["certify"] + FAST)
    assert code == 0
    rp = bundle["sidecar"]["rp"]
    assert set(rp) == {"rp_even", "rp_odd_observed"}
    # degree <= 2 on the 8 Majoranas of one half: 1 + 28 even, 8 odd
    assert rp["rp_even"]["gram_size"] == 29
    assert rp["rp_odd_observed"]["gram_size"] == 8
    for diag in rp.values():
        assert diag["lambda_min"] >= -1e-9
        assert 0 <= diag["recheck_deviation"] <= 1e-10
    assert all("sidecar" not in r for r in bundle["reports"])


def test_certify_repeats_byte_identical(tmp_path):
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["certify"] + FAST + ["--out", str(out)]) == 0
        texts.append(out.read_text())
    stripped = []
    for t in texts:
        d = json.loads(t)
        d.pop("sidecar")
        stripped.append(json.dumps(d, indent=2, sort_keys=True))
    assert stripped[0] == stripped[1]


def test_expect_fail_set_semantics(tmp_path):
    # lambda = 0: sixteenfold degeneracy, no order, but RP and positivity hold
    base = ["certify", "--lambda", "0"] + FAST
    out = ["--out", str(tmp_path / "x.json")]
    assert main(base + out) == 1
    assert main(base + ["--expect-fail", "topological_order"] + out) == 0
    assert main(base + ["--expect-fail", "ground_positivity"] + out) == 1
    assert main(base + ["--expect-fail", "topological_order",
                        "--expect-fail", "ground_positivity"] + out) == 1
    assert main(base + ["--expect-fail", "rp_odd_observed"] + out) == 2  # not asserted
    assert main(base + ["--expect-fail", "no_such_check"] + out) == 2


def test_sweep_csv_shape_and_determinism(tmp_path):
    argv = ["sweep", "--lambda.from", "0.1", "--lambda.to", "0.25",
            "--lambda.steps", "2", "--beta", "1,0.5", "--format", "csv"] + FAST
    runs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        runs.append(out.read_text())
    assert runs[0] == runs[1]  # no sidecar in csv, repeat runs identical
    rows = list(csv.reader(io.StringIO(runs[0])))
    assert tuple(rows[0]) == SWEEP_COLUMNS
    grid = [(float(r[0]), float(r[1])) for r in rows[1:]]
    assert grid == [(0.1, 0.5), (0.1, 1.0), (0.25, 0.5), (0.25, 1.0)]
    for r in rows[1:]:
        assert r[8] == "rp:pass;topo:pass;pos:pass"
        assert int(r[3]) == 8
        float(r[2]), float(r[4])  # e0 / min_rp parse back


def test_sweep_rows_survive_row_errors(tmp_path):
    # a gap tolerance sitting on the first excitation gap (6.228e-5 at
    # lambda = 0.1) makes the cluster cut ambiguous; the row must report
    # the error instead of taking the whole sweep down
    out = tmp_path / "s.csv"
    code = main(["sweep", "--lambda", "0.1", "--beta", "1",
                 "--gap-tol", "6.228e-5", "--format", "csv"] + FAST
                + ["--out", str(out)])
    assert code == 1
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert len(rows) == 2
    assert rows[1][8].startswith("error:")
    assert rows[1][2] == ""  # no e0 claimed for a failed row


def test_sweep_sidecar_carries_rp_diagnostics_and_timings(tmp_path):
    argv = ["sweep", "--lambda.from", "0", "--lambda.to", "0.25",
            "--lambda.steps", "2", "--beta", "1,0.5"] + FAST
    code, payload = _run_json(tmp_path, argv)
    assert code == 0
    side = payload["sidecar"]
    # one RP entry per row, in row order
    assert len(side["rp"]) == len(payload["rows"]) == 4
    for diag in side["rp"]:
        assert diag["gram_size"] == 29
        assert diag["lambda_min"] >= -1e-9
        assert 0 <= diag["recheck_deviation"] <= 1e-10
    # stage timings of each lambda, keyed by its repr
    assert set(side["timings_ms"]) == {"0.0", "0.25"}
    for stages in side["timings_ms"].values():
        assert set(stages) == {"ground_space", "octagon_checks", "rp"}
        assert all(ms >= 0 for ms in stages.values())
    # the rows themselves carry none of it
    assert all(set(row) == set(SWEEP_COLUMNS) for row in payload["rows"])


def test_sweep_sidecar_of_an_error_row(tmp_path):
    code, payload = _run_json(tmp_path, [
        "sweep", "--lambda", "0.1", "--beta", "1", "--gap-tol", "6.228e-5"]
        + FAST)
    assert code == 1
    assert payload["sidecar"]["rp"] == [None]
    assert payload["sidecar"]["timings_ms"] == {"0.1": {}}


def test_lanczos_route_reports_cluster_values_and_diagnostics(
        tmp_path, monkeypatch, diamond):
    dense = dense_spectrum(to_matrix(build_hamiltonian(diamond, 0.1),
                                     diamond.n_modes)).eigenvalues
    # a lowered dense cap sends the diamond (dim 256) through Lanczos
    monkeypatch.setattr(cli, "DENSE_DIM_CAP", 128)
    code, spec = _run_json(tmp_path, ["spectrum"], "s.json")
    assert code == 0
    assert spec["source"] == "lanczos"
    assert "cache" not in spec["sidecar"] and "cache_key" not in spec
    assert spec["count"] == 8
    np.testing.assert_allclose(spec["eigenvalues"], dense[:8], rtol=0, atol=1e-9)

    code, bundle = _run_json(tmp_path, ["certify"] + FAST, "c.json")
    assert code == 0
    assert bundle["ground"]["degeneracy"] == 8
    lz = bundle["sidecar"]["lanczos"]
    assert len(lz["eigenvalues"]) == len(lz["residuals"]) == 9
    assert lz["eigenvalues"][:8] == spec["eigenvalues"]
    assert max(lz["residuals"]) <= 1e-7 * max(1.0, abs(bundle["ground"]["e0"]))
    assert lz["matvecs"] > 0
    # the diamond Hamiltonian is even, so Lanczos ran in the parity blocks
    assert len(lz["parities"]) == 9 and set(lz["parities"]) <= {0, 1}
    assert lz["blocks"] == {"count": 2, "dim": 128}
    # the odd block's floor lies above the cluster: it is never solved
    assert lz["closed_by_bound"] == 1

    # beyond the cap RP is skipped: a sweep row says so and claims no min_rp
    code, sweep = _run_json(tmp_path, ["sweep", "--beta", "1,2"] + FAST,
                            "w.json")
    assert code == 0
    assert [row["verdicts"] for row in sweep["rows"]] == [
        "rp:skipped;topo:pass;pos:pass"] * 2
    assert [row["min_rp"] for row in sweep["rows"]] == [None, None]
    assert sweep["sidecar"]["rp"] == [None, None]

    code, vmap = _run_json(tmp_path, ["vortex-map"], "v.json")
    assert code == 0
    assert vmap["sidecar"]["lanczos"] == spec["sidecar"]["lanczos"] == lz


def test_lanczos_route_closes_the_degenerate_control(tmp_path, monkeypatch):
    # lambda = 0 through Lanczos: the solver finds all 16 ground states by
    # itself, so the negative control fails only topological order
    monkeypatch.setattr(cli, "DENSE_DIM_CAP", 128)
    code, bundle = _run_json(tmp_path, ["certify", "--lambda", "0",
                                        "--expect-fail", "topological_order"]
                             + FAST)
    assert code == 0
    assert bundle["ground"]["degeneracy"] == 16
    assert len(bundle["sidecar"]["lanczos"]["eigenvalues"]) == 17


def test_certify_with_no_odd_trial_monomials(tmp_path):
    # degree 0 holds only the identity, which is even: the odd RP report
    # has nothing to measure and says so instead of crashing
    code, bundle = _run_json(tmp_path, ["certify", "--samples", "0",
                                        "--max-degree", "0"])
    assert code == 0
    reports = {r["check"]: r for r in bundle["reports"]}
    assert reports["rp_even"]["verdict"] == "pass"
    odd = reports["rp_odd_observed"]
    assert odd["verdict"] == "skipped"
    assert odd["worst"]["witness"] == "no odd monomials of degree <= 0 on Lambda_minus"
    assert set(bundle["sidecar"]["rp"]) == {"rp_even"}


def test_readme_config_example_is_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("Default config:\n\n```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(example) == cli.DEFAULTS


def test_python_dash_m_runs_the_cli():
    src = str(Path(vortexcert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-m", "vortexcert", "--version"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == vortexcert.__version__


_NO_SCIPY = """
import sys
from vortexcert import cli
code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(loaded)
sys.exit(code or bool(loaded))
"""


@pytest.mark.parametrize("argv", [
    ["certify"],
    ["certify", "--lx", "4", "--ly", "4", "--boundary", "periodic"]])
def test_certify_runs_without_importing_scipy(tmp_path, argv):
    # numpy is the only runtime dependency: neither the dense route nor
    # Lanczos may load scipy, which costs more to import than the run
    src = str(Path(vortexcert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, *argv, "--out", str(tmp_path / "c.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, (res.stdout, res.stderr)
    assert res.stdout.strip() == "[]"


def test_vortex_map_command(tmp_path):
    code, payload = _run_json(tmp_path, ["vortex-map"])
    assert code == 0
    assert payload["ground"]["degeneracy"] == 8
    rec = payload["octagons"]["1,2"]
    assert rec["classification"] == "vortex-free"
    assert rec["alpha"] >= 1 - 1e-6
    assert set(payload["sidecar"]["timings_ms"]) == {"ground_space", "octagon_checks",
                                                     "vortex_map"}
