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


def test_spectrum_cache_round_trip(tmp_path):
    cache = tmp_path / "cache"
    argv = ["spectrum", "--cache.dir", str(cache)]
    code, first = _run_json(tmp_path, argv, "s1.json")
    assert code == 0
    assert first["source"] == "dense"
    assert first["count"] == 256 and first["dim"] == 256
    assert abs(first["e0"] - E0_DIAMOND_01) <= 1e-12
    assert list(cache.glob("*.f8")) == [cache / f"{first['cache_key']}.f8"]
    code, second = _run_json(tmp_path, argv, "s2.json")
    assert code == 0
    assert second["source"] == "cache"
    assert second["eigenvalues"] == first["eigenvalues"]


def test_spectrum_cache_rejects_truncated_file(tmp_path):
    cache = tmp_path / "cache"
    argv = ["spectrum", "--cache.dir", str(cache)]
    code, first = _run_json(tmp_path, argv, "s1.json")
    assert code == 0
    path = cache / f"{first['cache_key']}.f8"
    full = path.read_bytes()
    # a write cut short, a non-finite value, values out of order
    for damaged in (full[: len(full) // 2],
                    full[:-8] + np.array([np.nan], "<f8").tobytes(),
                    np.frombuffer(full, "<f8")[::-1].tobytes()):
        path.write_bytes(damaged)
        code, again = _run_json(tmp_path, argv, "s2.json")
        assert code == 0
        assert again["source"] == "dense"
        assert again["eigenvalues"] == first["eigenvalues"]
        assert path.read_bytes() == full  # the miss rewrote the file
    assert list(cache.iterdir()) == [path]  # no temporary file left over


def test_lanczos_route_reports_cluster_values_and_diagnostics(
        tmp_path, monkeypatch, diamond):
    dense = dense_spectrum(to_matrix(build_hamiltonian(diamond, 0.1),
                                     diamond.n_modes)).eigenvalues
    # a lowered dense cap sends the diamond (dim 256) through Lanczos
    monkeypatch.setattr(cli, "DENSE_DIM_CAP", 128)
    code, spec = _run_json(tmp_path, ["spectrum", "--solver.k", "9"], "s.json")
    assert code == 0
    assert spec["source"] == "lanczos"
    assert spec["count"] == 8
    np.testing.assert_allclose(spec["eigenvalues"], dense[:8], rtol=0, atol=1e-9)

    code, bundle = _run_json(tmp_path, ["certify", "--solver.k", "9"] + FAST,
                             "c.json")
    assert code == 0
    assert bundle["ground"]["degeneracy"] == 8
    lz = bundle["sidecar"]["lanczos"]
    assert len(lz["eigenvalues"]) == len(lz["residuals"]) == 9
    assert lz["eigenvalues"][:8] == spec["eigenvalues"]
    assert max(lz["residuals"]) <= 1e-7 * max(1.0, abs(bundle["ground"]["e0"]))
    assert lz["matvecs"] > 0


def test_python_dash_m_runs_the_cli():
    src = str(Path(vortexcert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-m", "vortexcert", "--version"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == vortexcert.__version__


def test_vortex_map_command(tmp_path):
    code, payload = _run_json(tmp_path, ["vortex-map"])
    assert code == 0
    assert payload["ground"]["degeneracy"] == 8
    rec = payload["octagons"]["1,2"]
    assert rec["classification"] == "vortex-free"
    assert rec["alpha"] >= 1 - 1e-6
