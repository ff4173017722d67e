"""Command-line frontend.

Configuration comes from defaults, then an optional JSON config file,
then flag overrides.  Each config value is one row of `FIELDS` (dotted
path, default, flag spellings, kind, check); the defaults, the flags and
the checks of file and flag values all come from it.  A boolean is not a
number, and a number must be finite.  Exit codes: 0 all asserted checks
passed, 1 a check failed or a computation broke, 2 bad usage or
configuration.

`certify`, `sweep` and `vortex-map` format the result of one `evaluate`.
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
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

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
    GroundSpace,
    SpectralError,
    Spectrum,
    dense_spectrum,
    ground_space,
    lanczos_ground,
)
from .verify import (
    CheckReport,
    PositivityResult,
    TopoResult,
    check_conservation,
    check_ground_positivity,
    check_rp,
    check_topological_order,
    default_rp_samples,
    theorem_chain_violations,
    vortex_map,
)


class ConfigError(ValueError):
    pass


ASSERTED_CHECKS = (
    "reflection_symmetry",
    "conservation",
    "rp_even",
    "topological_order",
    "ground_positivity",
)


# ---------------------------------------------------------------------------
# config table

def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{field}: {message}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _rule(test, message: str):
    """The check that `test(value)` holds."""
    def check(path, v):
        _require(test(v), path, message)
    return check


def _at_least(low: int):
    return _rule(lambda v: _is_int(v) and v >= low, f"must be an integer >= {low}")


def _region(path, v):
    _require(_is_int(v), path, "must be an integer")
    _require(v >= 2, path, "region too small (need >= 2)")


def _islands(path, islands):
    # null: the full even sublattice of the region
    _require(islands is None or isinstance(islands, (list, tuple)) and all(
        isinstance(p, (list, tuple)) and len(p) == 2 and all(map(_is_int, p))
        for p in islands), path, "must be a list of [x, y] pairs")


def _lambda(path, lam):
    """A number, or a sweep range: every piece present, an integer step
    count >= 1, then numeric ends in order."""
    if not isinstance(lam, dict):
        return _require(_is_number(lam), path, "must be a number")
    for key in ("from", "to", "steps"):
        _require(key in lam, f"lambda.{key}", "missing from sweep range")
    _at_least(1)("lambda.steps", lam["steps"])
    for key in ("from", "to"):
        _require(_is_number(lam[key]), f"lambda.{key}", "must be a number")
    _require(lam["to"] >= lam["from"], "lambda.to", "must be >= lambda.from")


def _beta(path, beta):
    if isinstance(beta, (list, tuple)):
        _require(len(beta) > 0, path, "empty list")
        for b in beta:
            _require(_is_number(b) and b >= 0, path, "entries must be numbers >= 0")
    else:
        _require(_is_number(beta) and beta >= 0, path, "must be a number >= 0")


def _parse_beta_flag(text: str):
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("beta: empty value")
    try:
        values = [float(p) for p in parts]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"beta: {e}") from None
    return values[0] if len(values) == 1 else values


class Field(NamedTuple):
    """One config value.  `kind` is what its flags parse with: int, float,
    Path, a parse function, or a tuple of choices, which is then also its
    check.  `check(path, value)` raises ConfigError; a value whose
    default is null may always be null.  `pieces` are the (key, kind)
    of the value's dict form, each with its own flag --<path>.<key>."""
    path: str
    default: object
    flags: tuple[str, ...]  # () for a value only a config file sets
    kind: object
    check: object = None
    help: str | None = None
    pieces: tuple = ()


_positive = _rule(lambda v: _is_number(v) and v > 0, "must be > 0")
_string = _rule(lambda v: isinstance(v, str), "must be a string (or null)")

# in validation order, which is also the parser's flag order
FIELDS = (
    # default lattice is the bundled four-island diamond; an explicit
    # --lx/--ly without an islands list means the full even sublattice
    Field("lattice.lx", 3, ("--lx", "--lattice.lx"), int, _region),
    Field("lattice.ly", 4, ("--ly", "--lattice.ly"), int, _region),
    Field("lattice.boundary", "open", ("--boundary", "--lattice.boundary"),
          ("open", "periodic")),
    Field("lattice.islands", [[0, 2], [1, 1], [1, 3], [2, 2]], (), None, _islands),
    Field("plane.axis", "x", ("--plane-axis", "--plane.axis"), ("x", "y")),
    Field("plane.coordinate", 1, ("--plane-coord", "--plane.coordinate"), float,
          _rule(_is_number, "must be a number")),
    Field("lambda", 0.1, ("--lambda", "--lam"), float, _lambda,
          pieces=(("from", float), ("to", float), ("steps", int))),
    Field("beta", 1.0, ("--beta",), _parse_beta_flag, _beta,
          help="number or comma list"),
    Field("seed", 0, ("--seed",), int, _rule(_is_int, "must be an integer")),
    Field("tolerances.rp", 1e-9, ("--tol-rp", "--tolerances.rp"), float, _positive),
    Field("tolerances.topo", 1e-8, ("--tol-topo", "--tolerances.topo"), float,
          _positive),
    Field("tolerances.pos", 1e-8, ("--tol-pos", "--tolerances.pos"), float,
          _positive),
    Field("tolerances.gap", None, ("--gap-tol", "--tolerances.gap"), float,
          _rule(lambda v: _is_number(v) and v > 0,
                "must be > 0 (or null for the default rule)")),
    Field("samples.count", 100, ("--samples", "--samples.count"), int, _at_least(0)),
    Field("samples.max_degree", 4, ("--max-degree", "--samples.max_degree"), int,
          _at_least(0)),
    Field("output.path", None, ("--out", "--output.path"), Path, _string),
    Field("output.format", "json", ("--format", "--output.format"), ("json", "csv")),
)


def _slot(cfg: dict, path: str) -> tuple[dict, str]:
    """The dict that holds `path` (its section made if missing) and the
    key there."""
    section, _, key = path.rpartition(".")
    return (cfg.setdefault(section, {}) if section else cfg), key


def _dest(path: str) -> str:
    """A row's argparse name; usage lines show it as the metavar."""
    return path.replace("lambda", "lam").replace("tolerances", "tol").replace(".", "_")


def _defaults() -> dict:
    out: dict = {}
    for field in FIELDS:
        node, key = _slot(out, field.path)
        node[key] = field.default
    return out


DEFAULTS = _defaults()
# every dotted path a config file may set: the values and the range pieces
_KNOWN_PATHS = {field.path for field in FIELDS} | {
    f"{field.path}.{key}" for field in FIELDS for key, _ in field.pieces}


def _deep_merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _validate(cfg: dict) -> None:
    for field in FIELDS:
        node, key = _slot(cfg, field.path)
        value = node.get(key)
        if value is None and field.default is None:
            continue
        if isinstance(field.kind, tuple):
            _require(value in field.kind, field.path,
                     "must be " + " or ".join(map(repr, field.kind)))
        else:
            field.check(field.path, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexcert",
        description="Certify reflection positivity, topological order and "
                    "vortex freedom for the Majorana island model.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("lattice", "certify", "sweep", "spectrum", "vortex-map"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, help="JSON config file")
        for field in FIELDS:
            if field.flags:
                parse = ({"choices": field.kind} if isinstance(field.kind, tuple)
                         else {"type": field.kind})
                p.add_argument(*field.flags, dest=_dest(field.path),
                               help=field.help, **parse)
            for key, kind in field.pieces:
                piece = f"{field.path}.{key}"
                p.add_argument(f"--{piece}", dest=_dest(piece), type=kind)
        p.add_argument("--expect-fail", dest="expect_fail", action="append",
                       default=None, metavar="CHECK",
                       help="assert that exactly these checks fail (repeatable)")
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    file_islands = None
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as e:
            raise ConfigError(f"config: cannot read {args.config}: {e}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ConfigError(f"config: invalid JSON in {args.config}: {e}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config: top level must be a JSON object")
        # a key inside an object (a section or a sweep range) is named by
        # its dotted path
        unknown = [key for key in loaded if key not in DEFAULTS] + [
            f"{key}.{sub}" for key, val in loaded.items()
            if key in DEFAULTS and isinstance(val, dict)
            for sub in val if f"{key}.{sub}" not in _KNOWN_PATHS]
        if unknown:
            raise ConfigError(f"config: unknown keys {sorted(unknown)}")
        for key, val in loaded.items():
            _require(isinstance(val, dict) or not isinstance(DEFAULTS[key], dict),
                     key, "must be an object")
        cfg = _deep_merge(cfg, loaded)
        file_islands = loaded.get("lattice", {}).get("islands")

    # region flags supersede the bundled island list: an explicit size
    # request means the full even sublattice unless a config file says
    # otherwise
    if (getattr(args, "lattice_lx", None) is not None
            or getattr(args, "lattice_ly", None) is not None):
        cfg["lattice"]["islands"] = file_islands

    for field in FIELDS:
        node, key = _slot(cfg, field.path)
        val = getattr(args, _dest(field.path), None)
        if val is not None:
            node[key] = str(val) if isinstance(val, Path) else val
        given = {k: getattr(args, _dest(f"{field.path}.{k}"), None)
                 for k, _ in field.pieces}
        given = {k: v for k, v in given.items() if v is not None}
        if given:
            # piece flags compose a range, over the file's range if any; a
            # piece set nowhere stays absent, for the check to name
            merged = {**(node[key] if isinstance(node[key], dict) else {}), **given}
            node[key] = {k: merged[k] for k, _ in field.pieces if k in merged}

    _validate(cfg)
    # plane coordinate: keep integers as int so JSON round-trips cleanly
    coord = cfg["plane"]["coordinate"]
    if isinstance(coord, float) and coord == int(coord):
        cfg["plane"]["coordinate"] = int(coord)
    return cfg


# ---------------------------------------------------------------------------
# the evaluation pipeline

# RP report of each sample parity; only the even one is asserted
RP_CHECKS = {"even": "rp_even", "odd": "rp_odd_observed"}

# the errors a sweep reports in its rows instead of stopping
_ROW_ERRORS = (SpectralError, ModelError, LatticeError)


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


def _report(check, lat, params, tolerances, verdict, worst, ms) -> CheckReport:
    return CheckReport(check=check, lattice=lat.content_hash(), params=params,
                       tolerances=tolerances, verdict=verdict, worst=worst,
                       timing_ms=ms, version=__version__)


def _solve(lat: IslandLattice, lam: float, cfg: dict):
    """(dense Spectrum, None) up to the dense cap, else (None, Lanczos
    GroundSpace): the one place a Hamiltonian is diagonalized."""
    op = to_matrix(build_hamiltonian(lat, lam), lat.n_modes)
    if op.dim <= DENSE_DIM_CAP:
        return dense_spectrum(op), None
    return None, lanczos_ground(op, seed=cfg["seed"],
                                gap_tol=cfg["tolerances"]["gap"])


class Evaluation(NamedTuple):
    """What `evaluate` computed at one lambda."""
    ground: GroundSpace
    spectrum: Spectrum | None  # the dense route only
    loops: dict  # octagon centre -> loop matrix W, in octagon order
    octagons: list  # (centre, TopoResult, PositivityResult) per octagon
    worst_topo: TopoResult | None  # largest deviation; None without octagons
    worst_pos: PositivityResult | None  # smallest minimum
    order: tuple  # the topological_order and ground_positivity reports
    rp: dict  # (beta, parity) -> CheckReport, or the error its check raised
    timings: dict  # stage -> ms


def evaluate(lat: IslandLattice, refl, lam: float, cfg: dict,
             betas=(), parities=()) -> Evaluation:
    """Ground space, octagon order and positivity, then RP at each beta
    and sample parity, at one lambda (`refl` None: no RP).

    An error in the ground space or the octagon checks propagates; one in
    an RP check takes the place of its report.  Beyond the dense cap
    every RP report is "skipped".
    """
    tol, smp, seed = cfg["tolerances"], cfg["samples"], cfg["seed"]
    timings = {}
    t0 = time.perf_counter()
    spectrum, ground = _solve(lat, lam, cfg)
    if ground is None:
        ground = ground_space(spectrum, gap_tol=tol["gap"])
    timings["ground_space"] = 1e3 * (time.perf_counter() - t0)

    t0 = time.perf_counter()
    loops = {o.center: to_matrix(vortex_operator(lat, o, refl).W, lat.n_modes)
             for o in lat.octagons}
    octagons = [(center, check_topological_order(ground, w, tol["topo"]),
                 check_ground_positivity(ground, w, tol["pos"]))
                for center, w in loops.items()]
    # the first of equals is the witness
    topo = max(octagons, key=lambda o: o[1].deviation, default=None)
    pos = min(octagons, key=lambda o: o[2].minimum, default=None)
    timings["octagon_checks"] = 1e3 * (time.perf_counter() - t0)
    params = {"lambda": lam, "beta": None, "seed": seed}
    order = (
        _report("topological_order", lat, params, {"topo": tol["topo"]},
                _all_pass(t for _, t, _ in octagons),
                None if topo is None else {
                    "value_re": topo[1].deviation,
                    "value_im": 0.0,
                    "witness": f"octagon {topo[0]}: alpha={topo[1].alpha!r}, "
                               f"deviation={topo[1].deviation!r}",
                }, timings["octagon_checks"] / 2),
        _report("ground_positivity", lat, params, {"pos": tol["pos"]},
                _all_pass(p for _, _, p in octagons),
                None if pos is None else {
                    "value_re": pos[2].minimum,
                    "value_im": pos[2].max_imag,
                    "witness": f"octagon {pos[0]}: min={pos[2].minimum!r}, "
                               f"spread={pos[2].spread!r}",
                }, timings["octagon_checks"] / 2),
    )

    rp = {}
    t0 = time.perf_counter()
    for beta, parity in itertools.product(betas, parities):
        if (beta, parity) in rp:  # a repeated beta shares its report
            continue
        if spectrum is None:
            rp[beta, parity] = _report(
                RP_CHECKS[parity], lat, {"lambda": lam, "beta": beta, "seed": seed},
                {"rp": tol["rp"]}, "skipped",
                {"value_re": 0.0, "value_im": 0.0,
                 "witness": f"dim {1 << lat.n_modes} exceeds dense cap"}, 0.0)
            continue
        specs = default_rp_samples(seed, parity=parity, count=smp["count"],
                                   max_degree=smp["max_degree"])
        try:
            rp[beta, parity] = check_rp(lat, refl, lam, beta, specs=specs,
                                        tol=tol["rp"], spectrum=spectrum,
                                        name=RP_CHECKS[parity], seed=seed)
        except _ROW_ERRORS as e:
            rp[beta, parity] = e
    if rp:
        timings["rp"] = 1e3 * (time.perf_counter() - t0)
    return Evaluation(ground, spectrum, loops, octagons,
                      None if topo is None else topo[1],
                      None if pos is None else pos[2], order, rp, timings)


def _all_pass(results) -> str:
    return "pass" if all(r.verdict == "pass" for r in results) else "fail"


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
    refl = reflection_data(lat, cfg["plane"]["axis"], cfg["plane"]["coordinate"])

    t0 = time.perf_counter()
    ok, dev = verify_reflection_symmetry(build_hamiltonian(lat, lam), refl)
    symmetry = _report(
        "reflection_symmetry", lat,
        {"lambda": lam, "beta": None, "seed": None}, {},
        "pass" if ok else "fail",
        {"value_re": float(dev), "value_im": 0.0, "witness": "theta(H) - H"},
        1e3 * (time.perf_counter() - t0))
    conservation = check_conservation(lat, lam)

    ev = evaluate(lat, refl, lam, cfg, [beta], RP_CHECKS)
    rp = [ev.rp[beta, parity] for parity in RP_CHECKS]
    for report in rp:
        if isinstance(report, Exception):
            raise report
    timings = dict(ev.timings)
    t0 = time.perf_counter()
    vmap = vortex_map(lat, ev.ground, loops=ev.loops)
    timings["vortex_map"] = 1e3 * (time.perf_counter() - t0)
    free = sum(1 for rec in vmap.values() if rec["classification"] == "vortex-free")
    vortex = _report(
        "vortex_map", lat, {"lambda": lam, "beta": None, "seed": cfg["seed"]}, {},
        "pass",
        {"value_re": float(free), "value_im": 0.0,
         "witness": f"{free}/{len(vmap)} octagons vortex-free"}, None)
    reports = [symmetry, conservation, *rp, *ev.order, vortex]

    violations = theorem_chain_violations(
        rp_passed=None if rp[0].verdict == "skipped" else rp[0].passed,
        conservation_passed=conservation.passed,
        topo=ev.worst_topo,
        pos=ev.worst_pos,
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
        "ground": {"e0": ev.ground.e0, "degeneracy": ev.ground.n,
                   "gap_tol": ev.ground.gap_tol},
        "reports": [r.to_dict(include_timing=False) for r in reports],
        "vortex_map": {f"{x},{y}": rec for (x, y), rec in sorted(vmap.items())},
        "chain_violations": violations,
        "sidecar": _sidecar(timings, ev.ground,
                            rp={r.check: r.sidecar for r in reports
                                if r.sidecar is not None}),
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


def _round_ms(timings: dict) -> dict:
    return {k: _round_ms(v) if isinstance(v, dict) else round(v, 3)
            for k, v in timings.items()}


def _sidecar(timings: dict, ground=None, **extra) -> dict:
    """Timestamp, timings (ms, nested dicts allowed), the Lanczos
    diagnostics of `ground`, if any, and every non-empty `extra` entry
    (RP diagnostics)."""
    out = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "timings_ms": _round_ms(timings),
    }
    # solver diagnostics vary with BLAS round-off, so they stay here
    if ground is not None and ground.matvecs:
        out["lanczos"] = {"eigenvalues": list(ground.eigenvalues),
                          "residuals": list(ground.residuals),
                          "parities": list(ground.parities),
                          "blocks": {"count": ground.blocks[0],
                                     "dim": ground.blocks[1]},
                          "closed_by_bound": ground.closed_by_bound,
                          "matvecs": ground.matvecs}
    out.update((key, val) for key, val in extra.items() if val)
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


def cmd_sweep(cfg: dict) -> int:
    lat = _build_lattice(cfg)
    refl = reflection_data(lat, cfg["plane"]["axis"], cfg["plane"]["coordinate"])
    # rows in (lambda, beta) order; a lambda the grid repeats (from ==
    # to) gets each of its beta rows that many times, next to each other.
    # One evaluate serves all rows of a lambda: an error in its ground
    # space or octagon checks fails them all, one in RP only its own row
    rows, diagnostics, timings = [], [], {}
    for lam, same in itertools.groupby(sorted(_lambda_grid(cfg))):
        betas = sorted(_beta_list(cfg) * len(list(same)))
        lam_rows = [dict.fromkeys(SWEEP_COLUMNS) | {"lambda": lam, "beta": beta}
                    for beta in betas]
        rows += lam_rows
        try:
            ev = evaluate(lat, refl, lam, cfg, betas, ["even"])
        except _ROW_ERRORS as e:
            for row in lam_rows:
                row["verdicts"] = f"error:{e}"
            diagnostics += [None] * len(lam_rows)
            timings[repr(lam)] = {}
            continue
        timings[repr(lam)] = ev.timings
        shared = {"e0": ev.ground.e0, "degeneracy": ev.ground.n}
        order_verdicts = []
        if ev.octagons:
            alphas = [t.alpha for _, t, _ in ev.octagons]
            shared.update(alpha_min=min(alphas), alpha_max=max(alphas),
                          topo_deviation=ev.worst_topo.deviation)
            order_verdicts = [f"topo:{ev.order[0].verdict}",
                              f"pos:{ev.order[1].verdict}"]
        for row in lam_rows:
            rp = ev.rp[row["beta"], "even"]
            if isinstance(rp, Exception):
                diagnostics.append(None)
                row["verdicts"] = f"error:{rp}"
                continue
            diagnostics.append(rp.sidecar)
            if rp.verdict != "skipped":
                row["min_rp"] = rp.worst["value_re"]
            row.update(shared)
            row["verdicts"] = ";".join([f"rp:{rp.verdict}", *order_verdicts])
        del ev  # one lambda's spectrum at a time

    if cfg["output"]["format"] == "csv":
        _emit_text(cfg, _rows_to_csv(rows))
    else:
        payload = {
            "tool": "vortexcert",
            "version": __version__,
            "config": _config_echo(cfg),
            "lattice": lat.to_json_dict(),
            "rows": rows,
            # timings keyed by repr(lambda); RP diagnostics one per row
            "sidecar": _sidecar(timings, rp=diagnostics),
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
    t0 = time.perf_counter()
    # no clustering here: the dense route reports every eigenvalue
    spectrum, ground = _solve(lat, lam, cfg)
    if spectrum is not None:
        values, source = spectrum.eigenvalues, "dense"
    else:
        values, source = ground.eigenvalues[:ground.n], "lanczos"
    payload = {
        "tool": "vortexcert",
        "version": __version__,
        "lattice_hash": lat.content_hash(),
        "lambda": lam,
        "source": source,
        "dim": 1 << lat.n_modes,
        "count": len(values),
        "e0": float(values[0]),
        "eigenvalues": [float(v) for v in values],
        "sidecar": _sidecar({"spectrum": 1e3 * (time.perf_counter() - t0)},
                            ground),
    }
    _emit(cfg, payload)
    return 0


def cmd_vortex_map(cfg: dict) -> int:
    lat = _build_lattice(cfg)
    ev = evaluate(lat, None, _scalar_lambda(cfg), cfg)
    timings = dict(ev.timings)
    t0 = time.perf_counter()
    vmap = vortex_map(lat, ev.ground, loops=ev.loops)
    timings["vortex_map"] = 1e3 * (time.perf_counter() - t0)
    payload = {
        "tool": "vortexcert",
        "version": __version__,
        "config": _config_echo(cfg),
        "ground": {"e0": ev.ground.e0, "degeneracy": ev.ground.n},
        "octagons": {f"{x},{y}": rec for (x, y), rec in sorted(vmap.items())},
        "sidecar": _sidecar(timings, ev.ground),
    }
    _emit(cfg, payload)
    return 0


# ---------------------------------------------------------------------------
# output + entry point

def _emit(cfg: dict, payload: dict) -> None:
    _emit_text(cfg, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_text(cfg: dict, text: str) -> None:
    path = cfg["output"]["path"]
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise ConfigError(f"output.path: cannot write {path}: "
                          f"{e.strerror or e}") from None


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
    except (ConfigError, LatticeError, ModelError, DenseCapError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SpectralError as e:
        print(f"computation failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
