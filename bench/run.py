"""The vortexcert benchmark.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Load shape: a closed loop with one client.  Each timed invocation is a
fresh interpreter running one ``vortexcert`` command (bench/invoke.py, the
console script's code path), because the import cost and the Fock action
cache are per process and every CLI user pays them cold.  Invocations run
one after another until the next one would end past ``--seconds``, and at
least twice, so repeats of one seed can be compared byte for byte.  The
seed goes to the program as ``--seed``; it drives the RP random
polynomials and the Lanczos start vector.  Thread counts stay at their
defaults.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
fresh processes that import vortexcert and build the lattice and mirror,
a few before each invocation so that they spread over the run), and the
median ``wall_s``, ``cpu_s`` (user + system) and ``peak_rss_mb`` of the
invocations.  ``--trace 1`` alternates traced and untraced invocations and
reports the per-layer metrics of bench/tracing.py (medians over the traced
invocations), the traced wall time and the tracing overhead (traced minus
untraced median wall).  A run of the default length holds one or two
invocations of each kind, so the overhead is the difference of single
samples; a longer ``--seconds`` gives more pairs.  Every invocation
passes through bench/gate.py; failures count in ``failed_ratio``.  The
last line of standard output is one JSON object {correct, attempted,
failed, metrics}; the lines before it give each metric with its unit and
sample count, and the machine facts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
from tracing import layer_metrics, nesting_problems

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_EACH = 3  # set-up samples before each untraced invocation
DEADLINE_S = 170.0  # an invocation still running then is killed

ALL_PASS = dict.fromkeys(gate.ASSERTED, "pass")


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    verdicts: dict | None = None  # certify: expected verdict of each asserted check


WORKLOADS = {
    "diamond-certify": Workload(
        ("certify", "--lambda", "0.1", "--beta", "1"), ALL_PASS),
    "torus-certify": Workload(
        ("certify", "--lx", "4", "--ly", "4", "--boundary", "periodic"),
        {**ALL_PASS, "rp_even": "skipped"}),
    "diamond-sweep": Workload(
        ("sweep", "--lambda.from", "0", "--lambda.to", "0.5",
         "--lambda.steps", "3", "--beta", "0.5,5", "--samples", "20",
         "--format", "csv")),
}


@dataclass(frozen=True)
class Expected:
    """What bench/reference.py derives from a workload's command line."""
    lambdas: list[float]
    betas: list[float]
    refs: dict  # gate.grid_key(lambda) -> gate.Reference


@dataclass
class Invocation:
    traced: bool
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    payload: bytes
    stderr: bytes
    layers: dict | None = None
    nesting: list[str] = field(default_factory=list)  # from tracing.nesting_problems
    problems: list[str] = field(default_factory=list)


@contextlib.contextmanager
def work_dir(name: str):
    """A directory under the checkout's .bench_work/, removed afterwards."""
    work = ROOT / ".bench_work" / name
    work.mkdir(parents=True, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def spawn(args: list[str], work: Path, timeout: float):
    """Run bench/invoke.py with `args`; (exit code, wall s, rusage, stdout, stderr)."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "invoke.py"), *args],
                                stdout=out, stderr=err, cwd=ROOT)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, out_path.read_bytes(), err_path.read_bytes()


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
            deadline: float) -> tuple[list[float], list[Invocation]]:
    """(set-up wall times, invocations); no set-up samples when traced."""
    argv = [*w.argv, "--seed", str(seed)]
    spans = work / "spans.json"
    setup: list[float] = []
    runs: list[Invocation] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 0
        for _ in range(0 if trace else SETUP_EACH):
            code, wall, _, _, err = spawn(["setup", *w.argv], work,
                                          deadline - time.perf_counter())
            if code != 0:
                raise SystemExit(f"set-up failed (exit {code}):\n"
                                 f"{err.decode()[-2000:]}")
            setup.append(wall)
        mode = ["trace", str(spans)] if traced else ["run"]
        code, wall, usage, out, err = spawn([*mode, *argv], work,
                                            deadline - time.perf_counter())
        inv = Invocation(traced, code, wall, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss / 1024, out, err)
        if traced and code == 0:
            rows = json.loads(spans.read_text())
            inv.layers = layer_metrics(rows)
            inv.nesting = nesting_problems(rows)
        runs.append(inv)
        now = time.perf_counter()
        typical = (now - start) / len(runs)
        if now + typical > deadline or (
                len(runs) >= 2 and now - start + typical > seconds):
            return setup, runs


def payload_problems(w: Workload, payload: bytes, exp: Expected) -> list[str]:
    if w.verdicts is not None:
        lam = exp.lambdas[0]
        return gate.certify_problems(payload, lam, w.verdicts,
                                     exp.refs[gate.grid_key(lam)])
    return gate.sweep_problems(payload, exp.lambdas, exp.betas, exp.refs)


def gate_runs(w: Workload, runs: list[Invocation], exp: Expected) -> int:
    """Set each invocation's problems; return how many have any."""
    first = None
    for inv in runs:
        problems = []
        if inv.code != 0:
            problems.append(f"exit code {inv.code}: {inv.stderr.decode()[-500:]}")
        else:
            try:
                problems += payload_problems(w, inv.payload, exp)
            except (ValueError, KeyError, TypeError) as e:
                problems.append(f"unreadable payload: {e!r}")
        body = gate.stripped(inv.payload)
        if first is None:
            first = body
        elif body != first:
            problems.append("payload differs from the first invocation's "
                            "with the sidecar stripped")
        inv.problems = problems + inv.nesting
    return sum(1 for inv in runs if inv.problems)


def metric_values(setup: list[float], runs: list[Invocation], trace: bool) -> dict:
    """{metric name: (value, sample count)}."""
    plain = [r for r in runs if not r.traced]
    if not trace:
        return {
            "setup_s": (statistics.median(setup), len(setup)),
            "wall_s": (statistics.median(r.wall_s for r in plain), len(plain)),
            "cpu_s": (statistics.median(r.cpu_s for r in plain), len(plain)),
            "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in plain),
                            len(plain)),
        }
    traced = [r for r in runs if r.layers is not None]
    if not traced or not plain:
        return {}
    out = {name: (statistics.median(r.layers[name] for r in traced), len(traced))
           for name in traced[0].layers}
    traced_wall = statistics.median(r.wall_s for r in traced)
    out["trace.wall_s"] = (traced_wall, len(traced))
    out["trace.overhead_s"] = (
        traced_wall - statistics.median(r.wall_s for r in plain), len(runs))
    return out


def references(w: Workload, seed: int, deadline: float) -> tuple[Expected, dict]:
    """(Expected, numerical stack versions) from bench/reference.py."""
    spec = json.dumps({"argv": w.argv, "seed": seed})
    res = subprocess.run([sys.executable, str(HERE / "reference.py"), spec],
                         capture_output=True, text=True, cwd=ROOT,
                         timeout=max(deadline - time.perf_counter(), 1.0))
    if res.returncode != 0:
        raise SystemExit(f"reference failed (exit {res.returncode}):\n"
                         f"{res.stderr[-2000:]}")
    doc = json.loads(res.stdout)
    refs = {gate.grid_key(lam): gate.Reference(e0, n, octagons)
            for lam, e0, n, octagons in doc["references"]}
    return Expected(doc["lambdas"], doc["betas"], refs), doc["stack"]


def machine_facts(seed: int, stack: dict) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                              "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "VORTEXCERT_THREADS")},
        "python": platform.python_version(),
        **stack,
        "commit": commit,
        "seed": seed,
    }


def run_workload(name: str, args, spec: dict, work: Path):
    """Measure one workload and print its report; return
    (metrics, attempted, failed, numerical stack versions)."""
    w = WORKLOADS[name]
    deadline = time.perf_counter() + DEADLINE_S
    expected, stack = references(w, args.seed, deadline)
    setup, runs = measure(w, args.seed, args.seconds, bool(args.trace), work,
                          deadline)
    failed = gate_runs(w, runs, expected)
    values = metric_values(setup, runs, bool(args.trace))

    print(f"# workload {name}  trace {args.trace}  seed {args.seed}")
    if setup:
        print("# setup s: " + " ".join(f"{t:.4f}" for t in setup))
    for inv in runs:
        print(f"# {'traced' if inv.traced else 'untraced'} invocation: exit "
              f"{inv.code}, wall {inv.wall_s:.4f} s, cpu {inv.cpu_s:.4f} s, "
              f"peak rss {inv.peak_rss_mb:.1f} MB")
        for p in inv.problems[:5]:
            print(f"# FAILED ({'traced' if inv.traced else 'untraced'}): {p}")
    metrics = {}
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if all(m["name"] in values for m in wanted):
        for m in wanted:
            value, n = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']:34s} {value:14.6g} {m['unit']:6s} n={n}")
    print(f"{'failed_ratio':34s} {failed / len(runs):14.6g} {'ratio':6s} "
          f"n={len(runs)}")
    return metrics, len(runs), failed, stack


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    metrics, attempted, failed = {}, 0, 0
    with work_dir(str(os.getpid())) as work:
        for name in names:
            m, a, f, stack = run_workload(name, args, spec, work)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    complete = len(metrics) == len(names) * len(wanted)
    print("# machine " + json.dumps(machine_facts(args.seed, stack), sort_keys=True))
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
