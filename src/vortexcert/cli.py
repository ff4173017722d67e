"""Command-line frontend.

Configuration comes from defaults, then an optional JSON config file,
then flag overrides; every config value has a flag of the same dotted
name (plus short aliases for the common ones).  Exit codes: 0 all
asserted checks passed, 1 a check failed or a computation broke, 2 bad
usage or configuration.

Reports are deterministic byte-for-byte given the same config and seed:
anything wall-clock dependent (timestamp, per-check timings) lives in a
top-level "sidecar" object that consumers strip before hashing.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import itertools
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .fock import DENSE_DIM_CAP, to_matrix
from .lattice import (
    IslandLattice,
    LatticeError,
    build_lattice,
    reflection_data,
)
from .model import (
    ModelError,
    build_hamiltonian,
    model_manifest,
    verify_reflection_symmetry,
    vortex_operator,
)
from .spectral import (
    DenseCapError,
    SpectralError,
    dense_spectrum,
    ground_space,
    lanczos_ground,
    load_eigenvalues,
    save_eigenvalues,
    spectrum_cache_key,
)
from .verify import (
    CheckReport,
    RPSampleSpec,
    check_conservation,
    check_ground_positivity,
    check_rp,
    check_topological_order,
    theorem_chain_violations,
    vortex_map,
)


class ConfigError(ValueError):
    pass


DEFAULTS = {
    # default lattice is the bundled four-island diamond; an explicit
    # --lx/--ly without an islands list means the full even sublattice
    "lattice": {"lx": 3, "ly": 4, "boundary": "open",
                "islands": [[0, 2], [1, 1], [1, 3], [2, 2]]},
    "plane": {"axis": "x", "coordinate": 1},
    "lambda": 0.1,
    "beta": 1.0,
    "seed": 0,
    "tolerances": {"rp": 1e-9, "topo": 1e-8, "pos": 1e-8, "gap": None},
    "samples": {"count": 100, "max_degree": 4},
    "solver": {"k": 4, "window": 64},
    "cache": {"dir": None},
    "output": {"path": None, "format": "json"},
}

ASSERTED_CHECKS = (
    "reflection_symmetry",
    "conservation",
    "rp_even",
    "topological_order",
    "ground_positivity",
)
OBSERVATIONAL_CHECKS = ("rp_odd_observed", "vortex_map")


# ---------------------------------------------------------------------------
# config plumbing

def _deep_merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{field}: {message}")


def _validate(cfg: dict) -> dict:
    lat = cfg["lattice"]
    for side in ("lx", "ly"):
        _require(isinstance(lat.get(side), int) and not isinstance(lat[side], bool),
                 f"lattice.{side}", "must be an integer")
        _require(lat[side] >= 2, f"lattice.{side}", "region too small (need >= 2)")
    _require(lat.get("boundary") in ("open", "periodic"),
             "lattice.boundary", "must be 'open' or 'periodic'")
    if lat.get("islands") is not None:
        _require(isinstance(lat["islands"], (list, tuple)),
                 "lattice.islands", "must be a list of [x, y] pairs")

    plane = cfg["plane"]
    _require(plane.get("axis") in ("x", "y"), "plane.axis", "must be 'x' or 'y'")
    _require(isinstance(plane.get("coordinate"), (int, float)),
             "plane.coordinate", "must be a number")

    lam = cfg["lambda"]
    if isinstance(lam, dict):
        for key in ("from", "to", "steps"):
            _require(key in lam, f"lambda.{key}", "missing from sweep range")
        _require(isinstance(lam["steps"], int) and lam["steps"] >= 1,
                 "lambda.steps", "must be an integer >= 1")
        _require(float(lam["to"]) >= float(lam["from"]),
                 "lambda.to", "must be >= lambda.from")
    else:
        _require(isinstance(lam, (int, float)), "lambda", "must be a number")

    beta = cfg["beta"]
    if isinstance(beta, (list, tuple)):
        _require(len(beta) > 0, "beta", "empty list")
        for b in beta:
            _require(isinstance(b, (int, float)) and b >= 0,
                     "beta", "entries must be numbers >= 0")
    else:
        _require(isinstance(beta, (int, float)) and beta >= 0,
                 "beta", "must be a number >= 0")

    _require(isinstance(cfg["seed"], int), "seed", "must be an integer")

    tol = cfg["tolerances"]
    for name in ("rp", "topo", "pos"):
        _require(isinstance(tol.get(name), (int, float)) and tol[name] > 0,
                 f"tolerances.{name}", "must be > 0")
    if tol.get("gap") is not None:
        _require(isinstance(tol["gap"], (int, float)) and tol["gap"] > 0,
                 "tolerances.gap", "must be > 0 (or null for the default rule)")

    smp = cfg["samples"]
    _require(isinstance(smp.get("count"), int) and smp["count"] >= 0,
             "samples.count", "must be an integer >= 0")
    _require(isinstance(smp.get("max_degree"), int) and smp["max_degree"] >= 0,
             "samples.max_degree", "must be an integer >= 0")

    sol = cfg["solver"]
    _require(isinstance(sol.get("k"), int) and sol["k"] >= 1,
             "solver.k", "must be an integer >= 1")
    _require(isinstance(sol.get("window"), int) and sol["window"] >= 8,
             "solver.window", "must be an integer >= 8")

    _require(cfg["output"].get("format") in ("json", "csv"),
             "output.format", "must be 'json' or 'csv'")
    return cfg


def _parse_beta_flag(text: str):
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("beta: empty value")
    try:
        values = [float(p) for p in parts]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"beta: {e}") from None
    return values[0] if len(values) == 1 else values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexcert",
        description="Certify reflection positivity, topological order and "
                    "vortex freedom for the Majorana island model.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--lx", "--lattice.lx", dest="lattice_lx", type=int)
        p.add_argument("--ly", "--lattice.ly", dest="lattice_ly", type=int)
        p.add_argument("--boundary", "--lattice.boundary", dest="lattice_boundary",
                       choices=("open", "periodic"))
        p.add_argument("--plane-axis", "--plane.axis", dest="plane_axis",
                       choices=("x", "y"))
        p.add_argument("--plane-coord", "--plane.coordinate", dest="plane_coordinate",
                       type=float)
        p.add_argument("--lambda", "--lam", dest="lam", type=float)
        p.add_argument("--lambda.from", dest="lam_from", type=float)
        p.add_argument("--lambda.to", dest="lam_to", type=float)
        p.add_argument("--lambda.steps", dest="lam_steps", type=int)
        p.add_argument("--beta", dest="beta", type=_parse_beta_flag,
                       help="number or comma list")
        p.add_argument("--seed", dest="seed", type=int)
        p.add_argument("--tol-rp", "--tolerances.rp", dest="tol_rp", type=float)
        p.add_argument("--tol-topo", "--tolerances.topo", dest="tol_topo", type=float)
        p.add_argument("--tol-pos", "--tolerances.pos", dest="tol_pos", type=float)
        p.add_argument("--gap-tol", "--tolerances.gap", dest="tol_gap", type=float)
        p.add_argument("--samples", "--samples.count", dest="samples_count", type=int)
        p.add_argument("--max-degree", "--samples.max_degree",
                       dest="samples_max_degree", type=int)
        p.add_argument("--solver.k", dest="solver_k", type=int)
        p.add_argument("--solver.window", dest="solver_window", type=int)
        p.add_argument("--cache.dir", dest="cache_dir", type=Path)
        p.add_argument("--out", "--output.path", dest="output_path", type=Path)
        p.add_argument("--format", "--output.format", dest="output_format",
                       choices=("json", "csv"))
        p.add_argument("--expect-fail", dest="expect_fail", action="append",
                       default=None, metavar="CHECK",
                       help="assert that exactly these checks fail (repeatable)")

    for name in ("lattice", "certify", "sweep", "spectrum", "vortex-map"):
        add_common(sub.add_parser(name))
    return parser


_FLAG_PATHS = {
    "lattice_lx": ("lattice", "lx"),
    "lattice_ly": ("lattice", "ly"),
    "lattice_boundary": ("lattice", "boundary"),
    "plane_axis": ("plane", "axis"),
    "plane_coordinate": ("plane", "coordinate"),
    "lam": ("lambda",),
    "beta": ("beta",),
    "seed": ("seed",),
    "tol_rp": ("tolerances", "rp"),
    "tol_topo": ("tolerances", "topo"),
    "tol_pos": ("tolerances", "pos"),
    "tol_gap": ("tolerances", "gap"),
    "samples_count": ("samples", "count"),
    "samples_max_degree": ("samples", "max_degree"),
    "solver_k": ("solver", "k"),
    "solver_window": ("solver", "window"),
    "cache_dir": ("cache", "dir"),
    "output_path": ("output", "path"),
    "output_format": ("output", "format"),
}


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except OSError as e:
            raise ConfigError(f"config: cannot read {args.config}: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config: invalid JSON in {args.config}: {e}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config: top level must be a JSON object")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"config: unknown keys {sorted(unknown)}")
        cfg = _deep_merge(cfg, loaded)

    # region flags supersede the bundled island list: an explicit size
    # request means the full even sublattice unless a config file says
    # otherwise
    file_islands = None
    if args.config is not None:
        file_islands = (loaded.get("lattice") or {}).get("islands")
    if (getattr(args, "lattice_lx", None) is not None
            or getattr(args, "lattice_ly", None) is not None):
        cfg["lattice"]["islands"] = file_islands

    for attr, path in _FLAG_PATHS.items():
        val = getattr(args, attr, None)
        if val is None:
            continue
        node = cfg
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = val

    # sweep-range pieces compose a lambda grid
    pieces = {k: getattr(args, k, None) for k in ("lam_from", "lam_to", "lam_steps")}
    if any(v is not None for v in pieces.values()):
        base = cfg["lambda"] if isinstance(cfg["lambda"], dict) else {}
        grid = {
            "from": pieces["lam_from"] if pieces["lam_from"] is not None else base.get("from"),
            "to": pieces["lam_to"] if pieces["lam_to"] is not None else base.get("to"),
            "steps": pieces["lam_steps"] if pieces["lam_steps"] is not None else base.get("steps"),
        }
        cfg["lambda"] = grid

    # plane coordinate: keep integers as int so JSON round-trips cleanly
    coord = cfg["plane"]["coordinate"]
    if isinstance(coord, float) and coord == int(coord):
        cfg["plane"]["coordinate"] = int(coord)
    if isinstance(cfg["output"].get("path"), Path):
        cfg["output"]["path"] = str(cfg["output"]["path"])
    if isinstance(cfg["cache"].get("dir"), Path):
        cfg["cache"]["dir"] = str(cfg["cache"]["dir"])
    return _validate(cfg)


# ---------------------------------------------------------------------------
# shared pipeline pieces

def _build_lattice(cfg: dict) -> IslandLattice:
    lat = cfg["lattice"]
    islands = lat.get("islands")
    if islands is not None:
        islands = [tuple(p) for p in islands]
    return build_lattice(lat["lx"], lat["ly"], lat["boundary"], islands=islands)


def _scalar_lambda(cfg: dict) -> float:
    if isinstance(cfg["lambda"], dict):
        raise ConfigError("lambda: this command needs a scalar, not a sweep range")
    return float(cfg["lambda"])


def _scalar_beta(cfg: dict) -> float:
    if isinstance(cfg["beta"], (list, tuple)):
        raise ConfigError("beta: this command needs a scalar, not a list")
    return float(cfg["beta"])


def _rp_specs(cfg: dict, parity: str) -> tuple[RPSampleSpec, RPSampleSpec]:
    """The (exhaustive, random) RP sample families of one parity."""
    smp = cfg["samples"]
    return (
        RPSampleSpec("exhaustive-monomials", smp["max_degree"], parity=parity),
        RPSampleSpec("random-polynomials", smp["max_degree"], smp["count"],
                     cfg["seed"], parity),
    )


def _ground(lat: IslandLattice, lam: float, cfg: dict):
    """(ground space, dense Spectrum or None) by dimension."""
    op = to_matrix(build_hamiltonian(lat, lam), lat.n_modes)
    gap = cfg["tolerances"]["gap"]
    if op.dim <= DENSE_DIM_CAP:
        spectrum = dense_spectrum(op)
        return ground_space(spectrum, gap_tol=gap), spectrum
    sol = cfg["solver"]
    gs = lanczos_ground(op, k=sol["k"], seed=cfg["seed"], gap_tol=gap,
                        window=sol["window"])
    return gs, None


def _loop_operators(lat, refl) -> dict:
    """Each octagon's loop W as a matrix, keyed by centre in octagon order."""
    return {o.center: to_matrix(vortex_operator(lat, o, refl).W, lat.n_modes)
            for o in lat.octagons}


def _octagon_checks(loops, ground, cfg):
    """Aggregate per-octagon order/positivity into one report each."""
    tol_topo = cfg["tolerances"]["topo"]
    tol_pos = cfg["tolerances"]["pos"]
    topo_worst = None
    pos_worst = None
    alphas = []
    results = []
    for center, w_op in loops.items():
        topo = check_topological_order(ground, w_op, tol_topo)
        pos = check_ground_positivity(ground, w_op, tol_pos)
        alphas.append(topo.alpha)
        results.append((center, topo, pos))
        if topo_worst is None or topo.deviation > topo_worst[1].deviation:
            topo_worst = (center, topo)
        if pos_worst is None or pos.minimum < pos_worst[1].minimum:
            pos_worst = (center, pos)
    return results, topo_worst, pos_worst, alphas


def _report(check, lat, params, tolerances, verdict, worst, ms) -> CheckReport:
    return CheckReport(check=check, lattice=lat.content_hash(), params=params,
                       tolerances=tolerances, verdict=verdict, worst=worst,
                       timing_ms=ms, version=__version__)


# ---------------------------------------------------------------------------
# commands

def cmd_lattice(cfg: dict) -> int:
    lat = _build_lattice(cfg)
    _emit(cfg, lat.to_json_dict())
    return 0


def cmd_certify(cfg: dict) -> int:
    lat = _build_lattice(cfg)
    lam = _scalar_lambda(cfg)
    beta = _scalar_beta(cfg)
    seed = cfg["seed"]
    refl = reflection_data(lat, cfg["plane"]["axis"], cfg["plane"]["coordinate"])
    reports: list[CheckReport] = []
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    ok, dev = verify_reflection_symmetry(build_hamiltonian(lat, lam, exact=True), refl)
    reports.append(_report(
        "reflection_symmetry", lat,
        {"lambda": lam, "beta": None, "seed": None}, {},
        "pass" if ok else "fail",
        {"value_re": float(dev), "value_im": 0.0, "witness": "theta(H) - H"},
        1e3 * (time.perf_counter() - t0)))

    reports.append(check_conservation(lat, lam))

    t0 = time.perf_counter()
    ground, spectrum = _ground(lat, lam, cfg)
    timings["ground_space"] = 1e3 * (time.perf_counter() - t0)

    if spectrum is not None:
        for name, parity in (("rp_even", "even"), ("rp_odd_observed", "odd")):
            reports.append(check_rp(lat, refl, lam, beta,
                                    specs=_rp_specs(cfg, parity),
                                    tol=cfg["tolerances"]["rp"],
                                    spectrum=spectrum, name=name, seed=seed))
    else:
        for name in ("rp_even", "rp_odd_observed"):
            reports.append(_report(
                name, lat, {"lambda": lam, "beta": beta, "seed": seed},
                {"rp": cfg["tolerances"]["rp"]}, "skipped",
                {"value_re": 0.0, "value_im": 0.0,
                 "witness": f"dim {1 << lat.n_modes} exceeds dense cap"}, 0.0))

    t0 = time.perf_counter()
    loops = _loop_operators(lat, refl)
    results, topo_worst, pos_worst, alphas = _octagon_checks(loops, ground, cfg)
    octagon_ms = 1e3 * (time.perf_counter() - t0)

    topo_pass = all(t.verdict == "pass" for _, t, _ in results)
    pos_pass = all(p.verdict == "pass" for _, _, p in results)
    reports.append(_report(
        "topological_order", lat,
        {"lambda": lam, "beta": None, "seed": seed},
        {"topo": cfg["tolerances"]["topo"]},
        "pass" if topo_pass else "fail",
        None if topo_worst is None else {
            "value_re": topo_worst[1].deviation,
            "value_im": 0.0,
            "witness": f"octagon {topo_worst[0]}: alpha={topo_worst[1].alpha!r}, "
                       f"deviation={topo_worst[1].deviation!r}",
        }, octagon_ms / 2))
    reports.append(_report(
        "ground_positivity", lat,
        {"lambda": lam, "beta": None, "seed": seed},
        {"pos": cfg["tolerances"]["pos"]},
        "pass" if pos_pass else "fail",
        None if pos_worst is None else {
            "value_re": pos_worst[1].minimum,
            "value_im": pos_worst[1].max_imag,
            "witness": f"octagon {pos_worst[0]}: min={pos_worst[1].minimum!r}, "
                       f"spread={pos_worst[1].spread!r}",
        }, octagon_ms / 2))

    t0 = time.perf_counter()
    vmap = vortex_map(lat, ground, loops=loops)
    timings["vortex_map"] = 1e3 * (time.perf_counter() - t0)
    free = sum(1 for rec in vmap.values() if rec["classification"] == "vortex-free")
    reports.append(_report(
        "vortex_map", lat, {"lambda": lam, "beta": None, "seed": seed}, {},
        "pass",
        {"value_re": float(free), "value_im": 0.0,
         "witness": f"{free}/{len(vmap)} octagons vortex-free"}, None))

    by_name = {r.check: r for r in reports}
    rp_state = by_name["rp_even"]
    violations = theorem_chain_violations(
        rp_passed=None if rp_state.verdict == "skipped" else rp_state.passed,
        conservation_passed=by_name["conservation"].passed,
        topo=None if topo_worst is None else topo_worst[1],
        pos=None if pos_worst is None else pos_worst[1],
        topo_tol=cfg["tolerances"]["topo"],
        pos_tol=cfg["tolerances"]["pos"],
    )

    for r in reports:
        if r.timing_ms is not None:
            timings[r.check] = r.timing_ms
    bundle = {
        "tool": "vortexcert",
        "version": __version__,
        "config": _config_echo(cfg),
        "manifest": model_manifest(lat, lam),
        "ground": {"e0": ground.e0, "degeneracy": ground.n,
                   "gap_tol": ground.gap_tol},
        "reports": [r.to_dict(include_timing=False) for r in reports],
        "vortex_map": {f"{x},{y}": rec for (x, y), rec in sorted(vmap.items())},
        "chain_violations": violations,
        "sidecar": _sidecar(timings, ground, reports),
    }
    _emit(cfg, bundle)

    if violations:
        print("theorem-chain violation: " + "; ".join(violations), file=sys.stderr)
        return 1
    failures = {r.check for r in reports
                if r.check in ASSERTED_CHECKS and r.verdict == "fail"}
    return _exit_for(failures, cfg)


def _exit_for(failures: set, cfg: dict) -> int:
    expected = set(cfg.get("expect_fail") or ())
    if expected:
        return 0 if failures == expected else 1
    return 0 if not failures else 1


def _config_echo(cfg: dict) -> dict:
    # where the bundle was written is not part of what was computed, so
    # the echo drops the output block to keep reruns byte-comparable
    echo = copy.deepcopy(cfg)
    echo.pop("expect_fail", None)
    echo.pop("output", None)
    return echo


def _sidecar(timings: dict, ground=None, reports=()) -> dict:
    out = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "timings_ms": {k: round(v, 3) for k, v in timings.items()},
    }
    # solver diagnostics vary with BLAS round-off, so they stay here
    if ground is not None and ground.matvecs:
        out["lanczos"] = {"eigenvalues": list(ground.eigenvalues),
                          "residuals": list(ground.residuals),
                          "matvecs": ground.matvecs}
    rp = {r.check: r.sidecar for r in reports if r.sidecar is not None}
    if rp:
        out["rp"] = rp
    return out


SWEEP_COLUMNS = ("lambda", "beta", "e0", "degeneracy", "min_rp",
                 "alpha_min", "alpha_max", "topo_deviation", "verdicts")


def _lambda_grid(cfg: dict) -> list[float]:
    lam = cfg["lambda"]
    if not isinstance(lam, dict):
        return [float(lam)]
    steps = lam["steps"]
    lo, hi = float(lam["from"]), float(lam["to"])
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _beta_list(cfg: dict) -> list[float]:
    beta = cfg["beta"]
    if isinstance(beta, (list, tuple)):
        return [float(b) for b in beta]
    return [float(beta)]


def _sweep_rows(lat, refl, cfg, lam, betas) -> list[dict]:
    """The rows of one lambda, in beta order.

    The spectrum, ground space and octagon checks depend on lambda
    alone, so they are computed once and shared by every beta; only RP
    is evaluated per beta.  An error fails the rows it reaches.
    """
    errors = (SpectralError, ModelError, LatticeError)
    rows = [{"lambda": lam, "beta": beta, "e0": None, "degeneracy": None,
             "min_rp": None, "alpha_min": None, "alpha_max": None,
             "topo_deviation": None, "verdicts": ""} for beta in betas]
    try:
        ground, spectrum = _ground(lat, lam, cfg)
        results, topo_worst, _, alphas = _octagon_checks(
            _loop_operators(lat, refl), ground, cfg)
    except errors as e:
        for row in rows:
            row["verdicts"] = f"error:{e}"
        return rows
    shared = {"e0": ground.e0, "degeneracy": ground.n}
    order_verdicts = []
    if results:
        shared.update(alpha_min=min(alphas), alpha_max=max(alphas),
                      topo_deviation=topo_worst[1].deviation)
        topo_pass = all(t.verdict == "pass" for _, t, _ in results)
        pos_pass = all(p.verdict == "pass" for _, _, p in results)
        order_verdicts = [f"topo:{'pass' if topo_pass else 'fail'}",
                          f"pos:{'pass' if pos_pass else 'fail'}"]
    for row in rows:
        rp_verdict = "rp:skipped"
        if spectrum is not None:
            try:
                rp = check_rp(lat, refl, lam, row["beta"],
                              specs=_rp_specs(cfg, "even"),
                              tol=cfg["tolerances"]["rp"], spectrum=spectrum,
                              name="rp_even", seed=cfg["seed"])
            except errors as e:
                row["verdicts"] = f"error:{e}"
                continue
            row["min_rp"] = rp.worst["value_re"]
            rp_verdict = f"rp:{rp.verdict}"
        row.update(shared)
        row["verdicts"] = ";".join([rp_verdict, *order_verdicts])
    return rows


def cmd_sweep(cfg: dict) -> int:
    lat = _build_lattice(cfg)
    refl = reflection_data(lat, cfg["plane"]["axis"], cfg["plane"]["coordinate"])
    # rows in (lambda, beta) order; a lambda the grid repeats (from ==
    # to) gets each of its beta rows that many times, next to each other
    betas = _beta_list(cfg)
    rows = []
    for lam, same in itertools.groupby(sorted(_lambda_grid(cfg))):
        rows += _sweep_rows(lat, refl, cfg, lam,
                            sorted(betas * len(list(same))))

    if cfg["output"]["format"] == "csv":
        _emit_text(cfg, _rows_to_csv(rows))
    else:
        payload = {
            "tool": "vortexcert",
            "version": __version__,
            "config": _config_echo(cfg),
            "lattice": lat.to_json_dict(),
            "rows": rows,
            "sidecar": _sidecar({}),
        }
        _emit(cfg, payload)
    errored = any(r["verdicts"].startswith("error:") for r in rows)
    return 1 if errored else 0


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow(["" if row[c] is None else
                         (repr(row[c]) if isinstance(row[c], float) else row[c])
                         for c in SWEEP_COLUMNS])
    return buf.getvalue()


def cmd_spectrum(cfg: dict) -> int:
    lat = _build_lattice(cfg)
    lam = _scalar_lambda(cfg)
    key = spectrum_cache_key(lat.content_hash(), lam)
    cache_dir = cfg["cache"]["dir"]
    cache_path = Path(cache_dir) / f"{key}.f8" if cache_dir else None

    dim = 1 << lat.n_modes
    values = None
    if cache_path is not None and cache_path.exists():
        # a truncated or corrupt file is a miss and gets overwritten
        values = load_eigenvalues(cache_path, dim)
        source = "cache"
    if values is None:
        op = to_matrix(build_hamiltonian(lat, lam), lat.n_modes)
        if op.dim <= DENSE_DIM_CAP:
            values = dense_spectrum(op).eigenvalues
            source = "dense"
            if cache_path is not None:
                cache_path.parent.mkdir(parents=True, exist_ok=True)
                save_eigenvalues(cache_path, values)
        else:
            # partial spectra are not cached: the cache format means "full"
            sol = cfg["solver"]
            gs = lanczos_ground(op, k=sol["k"], seed=cfg["seed"],
                                gap_tol=cfg["tolerances"]["gap"],
                                window=sol["window"])
            values = np.array(gs.eigenvalues[:gs.n])
            source = "lanczos"
    payload = {
        "tool": "vortexcert",
        "version": __version__,
        "lattice_hash": lat.content_hash(),
        "lambda": lam,
        "cache_key": key,
        "source": source,
        "dim": dim,
        "count": int(len(values)),
        "e0": float(values[0]) if len(values) else None,
        "eigenvalues": [float(v) for v in values],
    }
    _emit(cfg, payload)
    return 0


def cmd_vortex_map(cfg: dict) -> int:
    lat = _build_lattice(cfg)
    lam = _scalar_lambda(cfg)
    ground, _ = _ground(lat, lam, cfg)
    vmap = vortex_map(lat, ground)
    payload = {
        "tool": "vortexcert",
        "version": __version__,
        "config": _config_echo(cfg),
        "ground": {"e0": ground.e0, "degeneracy": ground.n},
        "octagons": {f"{x},{y}": rec for (x, y), rec in sorted(vmap.items())},
        "sidecar": _sidecar({}, ground),
    }
    _emit(cfg, payload)
    return 0


# ---------------------------------------------------------------------------
# output + entry point

def _emit(cfg: dict, payload: dict) -> None:
    _emit_text(cfg, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_text(cfg: dict, text: str) -> None:
    path = cfg["output"]["path"]
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


COMMANDS = {
    "lattice": cmd_lattice,
    "certify": cmd_certify,
    "sweep": cmd_sweep,
    "spectrum": cmd_spectrum,
    "vortex-map": cmd_vortex_map,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = resolve_config(args)
        expected = args.expect_fail or []
        bad = [c for c in expected if c not in ASSERTED_CHECKS]
        if bad:
            raise ConfigError(
                f"expect-fail: unknown or non-asserted checks {bad}; "
                f"asserted checks are {list(ASSERTED_CHECKS)}")
        cfg["expect_fail"] = expected
        return COMMANDS[args.command](cfg)
    except (ConfigError, LatticeError, ModelError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DenseCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SpectralError as e:
        print(f"computation failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
