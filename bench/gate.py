"""Correctness gate for benchmark invocations.

An invocation passes when it exits 0 and its payload holds what the
workload must produce:

* the expected verdict of every asserted check (``certify``) or of every
  grid point (``sweep``, where the lambda = 0 points fail topological
  order by design);
* no theorem-chain violation;
* the ground energy and degeneracy of the reference computed by
  bench/reference.py, which does not use vortexcert's Fock layer or
  eigensolvers;
* every octagon vortex-free at lambda > 0.

RP witnesses and minimum values are not pinned: a stronger RP certificate
changes them legitimately.  Invocations of one seed must also agree byte
for byte once the ``sidecar`` is stripped (`stripped`).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

VORTEX_FREE = 1 - 1e-6  # vortex_map's classification threshold
ASSERTED = ("reflection_symmetry", "conservation", "rp_even",
            "topological_order", "ground_positivity")


@dataclass(frozen=True)
class Reference:
    e0: float
    degeneracy: int
    octagons: int


def grid_key(value) -> float:
    """A lambda or beta as the gate compares it: the sweep prints the
    program's grid and the reference computes its own, so the two agree
    only to rounding."""
    return round(float(value), 9)


def gap_tol(e0: float) -> float:
    """vortexcert's default ground-cluster threshold."""
    return 1e-8 * max(1.0, abs(e0))


def stripped(payload: bytes) -> bytes:
    """The payload without its wall-clock ``sidecar`` (CSV has none)."""
    try:
        doc = json.loads(payload)
    except ValueError:
        return payload
    if isinstance(doc, dict):
        doc.pop("sidecar", None)
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def _ground_problems(where, e0, degeneracy, ref: Reference) -> list[str]:
    out = []
    if abs(e0 - ref.e0) > gap_tol(ref.e0):
        out.append(f"{where}: e0 {e0!r} but the reference gives {ref.e0!r}")
    if degeneracy != ref.degeneracy:
        out.append(f"{where}: degeneracy {degeneracy} but the reference "
                   f"gives {ref.degeneracy}")
    return out


def certify_problems(payload: bytes, lam: float, verdicts: dict,
                     ref: Reference) -> list[str]:
    doc = json.loads(payload)
    out = []
    found = {r["check"]: r["verdict"] for r in doc["reports"]}
    for check, want in verdicts.items():
        if found.get(check) != want:
            out.append(f"{check}: verdict {found.get(check)!r}, expected {want!r}")
    if doc["chain_violations"]:
        out.append(f"chain violations: {doc['chain_violations']}")
    ground = doc["ground"]
    out += _ground_problems("ground", ground["e0"], ground["degeneracy"], ref)
    vmap = doc["vortex_map"]
    if len(vmap) != ref.octagons:
        out.append(f"vortex map has {len(vmap)} octagons, lattice has {ref.octagons}")
    if lam > 0:
        out += [f"octagon {c}: {rec['classification']}"
                for c, rec in sorted(vmap.items())
                if rec["classification"] != "vortex-free"]
    return out


def sweep_problems(payload: bytes, lambdas, betas, refs: dict) -> list[str]:
    """`refs` maps the `grid_key` of each lambda to its `Reference`."""
    rows = list(csv.DictReader(io.StringIO(payload.decode())))
    grid = sorted((grid_key(r["lambda"]), grid_key(r["beta"])) for r in rows)
    want_grid = sorted((grid_key(lam), grid_key(beta))
                       for lam in lambdas for beta in betas)
    if grid != want_grid:
        return [f"sweep grid {grid}, expected {want_grid}"]
    out = []
    for r in rows:
        lam = grid_key(r["lambda"])
        where = f"lambda={r['lambda']} beta={r['beta']}"
        topo = "fail" if lam == 0 else "pass"
        want = f"rp:pass;topo:{topo};pos:pass"
        if r["verdicts"] != want:
            out.append(f"{where}: verdicts {r['verdicts']!r}, expected {want!r}")
            continue
        out += _ground_problems(where, float(r["e0"]), int(r["degeneracy"]),
                                refs[lam])
        if lam > 0 and float(r["alpha_min"]) < VORTEX_FREE:
            out.append(f"{where}: alpha_min {r['alpha_min']} is not vortex-free")
    return out
