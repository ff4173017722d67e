"""Self-test of the benchmark; it is not part of the repository's test suite.

    python3 bench/selftest.py

Checks that

1. tracing changes no result: while a `Tracer` is installed every traced
   attribute holds a wrapper, after `restore` it holds the original
   again, and a traced and an untraced invocation of each workload give
   byte-identical payloads once the sidecar is stripped, both passing the
   gate;
2. the gate counts corrupted payloads (a wrong e0, a flipped verdict) as
   failed, so they show in ``failed_ratio``;
3. wall-share attribution hands out exactly the command's span, on a
   synthetic set of overlapping spans from two threads, and spans that
   stick out of their parent or of the command are reported.

Prints one line per check and exits 0 when all hold.  Takes about two
minutes: each workload runs twice.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

import run
from tracing import SITES, Tracer, nesting_problems, owner_of, wall_shares

sys.path.insert(0, str(run.ROOT / "src"))

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def wrappers_are_removed() -> None:
    import vortexcert.cli  # noqa: F401  (loads every traced module)

    paths = [p for _, ps, _ in SITES for p in ps]
    originals = {p: getattr(*owner_of(p)) for p in paths}
    tracer = Tracer()
    tracer.install()
    try:
        check(all(getattr(*owner_of(p)) is not originals[p] for p in paths),
              f"all {len(paths)} traced attributes are wrapped while installed")
    finally:
        tracer.restore()
    check(all(getattr(*owner_of(p)) is originals[p] for p in paths),
          "restore puts every original function back")


def corrupted(payload: bytes, certify: bool) -> dict[str, bytes]:
    if certify:
        doc = json.loads(payload)
        wrong_e0 = json.loads(payload)
        wrong_e0["ground"]["e0"] += 1e-3
        for report in doc["reports"]:
            if report["check"] == "topological_order":
                report["verdict"] = "fail"
        return {"wrong e0": json.dumps(wrong_e0).encode(),
                "flipped verdict": json.dumps(doc).encode()}
    lines = payload.decode().splitlines(keepends=True)
    head, rows = lines[0], lines[1:]
    flipped = [r.replace("topo:fail", "topo:pass") for r in rows]
    e0_col = head.split(",").index("e0")
    cells = rows[-1].split(",")
    cells[e0_col] = repr(float(cells[e0_col]) + 1e-3)
    return {"wrong e0": "".join([head, *rows[:-1], ",".join(cells)]).encode(),
            "flipped verdict": "".join([head, *flipped]).encode()}


def workloads_agree_and_gate_counts(work) -> None:
    for name, w in run.WORKLOADS.items():
        deadline = time.perf_counter() + run.DEADLINE_S
        expected, _ = run.references(w, 0, deadline)
        _, runs = run.measure(w, 0, 0.0, True, work, deadline)
        failed = run.gate_runs(w, runs, expected)
        kinds = sorted(inv.traced for inv in runs)
        check(failed == 0 and kinds == [False, True],
              f"{name}: traced and untraced payloads identical and correct "
              f"({[p for inv in runs for p in inv.problems][:3]})")

        good = next(inv for inv in runs if not inv.traced)
        bad = {label: dataclasses.replace(good, payload=p, layers=None)
               for label, p in corrupted(good.payload,
                                         w.verdicts is not None).items()}
        for label, inv in bad.items():
            check(run.gate_runs(w, [inv], expected) == 1,
                  f"{name}: {label} is caught ({inv.problems[:1]})")
        batch = [dataclasses.replace(good), *bad.values()]
        failed = run.gate_runs(w, batch, expected)
        check(failed == 2, f"{name}: failed_ratio {failed}/{len(batch)} with "
                           f"two corrupted payloads of three")


def wall_shares_partition_the_command() -> None:
    # root 0..10 on the main thread; pool thread A 1..6 with a child 2..3,
    # pool thread B 4..9
    rows = [["cli.main", -1, True, 0.0, 10.0, 0.0, 0],
            ["verify.check_rp", -1, False, 1.0, 6.0, 0.0, 0],
            ["fock.to_matrix", 1, False, 2.0, 3.0, 0.0, 0],
            ["verify.check_rp", -1, False, 4.0, 9.0, 0.0, 0]]
    own, inclusive = wall_shares(rows)
    check(own == [2.0, 3.0, 1.0, 4.0] and inclusive[1] == 4.0,
          f"wall shares split overlap between threads (own {own})")
    check(nesting_problems(rows) == [], "nested spans pass the nesting check")
    rows[2][3] = 0.5  # the child starts before its parent
    rows[3][4] = 11.0  # the pool call outlives the command
    problems = nesting_problems(rows)
    check(len(problems) == 2, f"spans outside their parent are reported {problems}")


def main() -> int:
    wrappers_are_removed()
    wall_shares_partition_the_command()
    with run.work_dir("selftest") as work:
        workloads_agree_and_gate_counts(work)
    print(f"{len(failures)} check(s) failed" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
