"""Span tracing of vortexcert's public functions, installed from outside the package.

`Tracer.install` replaces each traced function at every module attribute
its callers look it up by (``vortexcert.cli.check_rp``,
``vortexcert.verify.rp_functional``, ...) with a wrapper that records one
span per call: span name, enclosing span on the same thread, thread,
start and end on `time.perf_counter`, the thread's CPU seconds
(`time.thread_time`) and an optional work count.  Spans stay in memory
until `Tracer.dump`; `Tracer.restore` puts the original functions back.
`SparseOperator.apply` is wrapped on the class, because its instances use
``__slots__``.  No per-term helper is wrapped (``fock._cached_action``
runs about 700 000 times per ``check_rp`` on the diamond);
``monomial_action`` runs only on an action-cache miss.

`layer_metrics` turns the spans of one invocation into the per-layer
metrics.  Wall time is attributed by sharing: each instant of the command
is split equally between the threads that are inside a traced call at
that instant, the innermost call of each thread taking the share, and an
instant when no thread is inside one goes to ``cli.self_s``.  The self
times of all layers therefore add up to the command's span, never more.
Under the interpreter lock a call's share is the wall time it holds the
command up, including in the sweep's thread pool.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time


MODULES = ("clifford", "fock", "spectral", "verify", "model", "lattice", "cli")


def _terms(args, result):
    return len(args[0])


def _returned(args, result):
    return len(result)


# span name, the attributes it is looked up by, work count of one call
SITES = (
    ("cli.main", ("vortexcert.cli:main",), None),
    ("clifford.multiply", ("vortexcert.spectral:multiply",
                           "vortexcert.model:multiply"), None),
    ("clifford.reflect", ("vortexcert.spectral:reflect",
                          "vortexcert.model:reflect"), None),
    ("fock.to_matrix", ("vortexcert.cli:to_matrix",
                        "vortexcert.spectral:to_matrix",
                        "vortexcert.verify:to_matrix"), _terms),
    ("fock.monomial_action", ("vortexcert.fock:monomial_action",), None),
    ("fock.matvec", ("vortexcert.fock:SparseOperator.apply",), None),
    ("spectral.lanczos_ground", ("vortexcert.cli:lanczos_ground",), None),
    ("spectral.dense_spectrum", ("vortexcert.cli:dense_spectrum",
                                 "vortexcert.spectral:dense_spectrum",
                                 "vortexcert.verify:dense_spectrum"), None),
    ("spectral.ground_space", ("vortexcert.cli:ground_space",), None),
    ("spectral.rp_functional", ("vortexcert.verify:rp_functional",), None),
    ("spectral.thermal_expectation",
     ("vortexcert.spectral:thermal_expectation",), None),
    ("verify.check_rp", ("vortexcert.cli:check_rp",), None),
    ("verify.rp_sample_polynomials",
     ("vortexcert.verify:rp_sample_polynomials",), _returned),
    ("verify.check_topological_order",
     ("vortexcert.cli:check_topological_order",), None),
    ("verify.check_ground_positivity",
     ("vortexcert.cli:check_ground_positivity",), None),
    ("verify.vortex_map", ("vortexcert.cli:vortex_map",), None),
    ("verify.check_conservation", ("vortexcert.cli:check_conservation",), None),
    ("model.build_hamiltonian", ("vortexcert.cli:build_hamiltonian",
                                 "vortexcert.verify:build_hamiltonian",
                                 "vortexcert.model:build_hamiltonian"), None),
    ("model.vortex_operator", ("vortexcert.cli:vortex_operator",
                               "vortexcert.verify:vortex_operator"), None),
    ("model.verify_reflection_symmetry",
     ("vortexcert.cli:verify_reflection_symmetry",), None),
    ("lattice.build_lattice", ("vortexcert.cli:build_lattice",), None),
    ("lattice.reflection_data", ("vortexcert.cli:reflection_data",), None),
)


def owner_of(path: str):
    module, _, attr = path.partition(":")
    owner = importlib.import_module(module)
    *chain, name = attr.split(".")
    for part in chain:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        # [name, parent record or None, thread, start, end, cpu0, cpu1, count]
        self.spans: list[list] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, paths, count in SITES:
            wrappers: dict[int, object] = {}
            for path in paths:
                owner, attr = owner_of(path)
                original = getattr(owner, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original, count)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, count):
        spans, local = self.spans, self._local
        clock, cpu, ident = time.perf_counter, time.thread_time, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            rec = [name, stack[-1] if stack else None, ident(), clock(), 0.0,
                   cpu(), 0.0, 0]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                rec[6] = cpu()
                stack.pop()
            if count is not None:
                rec[7] = count(args, result)
            return result

        return traced

    def dump(self, path) -> None:
        """Write the spans as JSON rows [name, parent index or -1,
        on main thread, start, end, thread CPU seconds, count]."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        main = threading.main_thread().ident
        rows = [[name, -1 if parent is None else index[id(parent)],
                 thread == main, t0, t1, c1 - c0, n]
                for name, parent, thread, t0, t1, c0, c1, n in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def nesting_problems(rows) -> list[str]:
    """Spans that end before they start or stick out of their parent, or,
    for spans with no parent (the root and pool-thread calls), out of the
    root ``cli.main`` span.  `wall_shares` assumes there are none."""
    root = next(row for row in rows if row[0] == "cli.main")
    out = []
    for row in rows:
        if row is root:
            continue
        outer = rows[row[1]] if row[1] >= 0 else root
        if not outer[3] <= row[3] <= row[4] <= outer[4]:
            out.append(f"span {row[0]} [{row[3]:.6f}, {row[4]:.6f}] is not "
                       f"inside {outer[0]} [{outer[3]:.6f}, {outer[4]:.6f}]")
    return out


def wall_shares(rows) -> tuple[list[float], list[float]]:
    """Self and inclusive wall-clock shares of every span.

    The root span (``cli.main``) is charged every instant at which no
    other span is open on any thread.
    """
    n = len(rows)
    children: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        if row[1] >= 0:
            children[row[1]].append(i)
    root = next(i for i, row in enumerate(rows) if row[0] == "cli.main")

    events = []
    for i, row in enumerate(rows):
        if i == root:
            continue
        # the span minus its children: the intervals it runs its own code
        bounds = [row[3]]
        for c in sorted(children[i], key=lambda c: rows[c][3]):
            bounds += [rows[c][3], rows[c][4]]
        bounds.append(row[4])
        for t0, t1 in zip(bounds[::2], bounds[1::2]):
            if t1 > t0:
                events += [(t0, 1, i), (t1, 0, i)]
    events.sort()

    own = [0.0] * n
    active: set[int] = set()
    busy = 0.0
    prev = 0.0
    for t, opens, i in events:
        if active and t > prev:
            share = (t - prev) / len(active)
            for j in active:
                own[j] += share
            busy += t - prev
        prev = t
        if opens:
            active.add(i)
        else:
            active.discard(i)
    own[root] = rows[root][4] - rows[root][3] - busy

    inclusive = list(own)
    for i in range(n - 1, -1, -1):  # a child is recorded after its parent
        if rows[i][1] >= 0:
            inclusive[rows[i][1]] += inclusive[i]
    return own, inclusive


def _under(rows, i, name) -> bool:
    while rows[i][1] >= 0:
        i = rows[i][1]
        if rows[i][0] == name:
            return True
    return False


def layer_metrics(rows) -> dict[str, float]:
    """Per-layer metric values of one traced invocation, by metric name."""
    own, inclusive = wall_shares(rows)
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    self_by_module: dict[str, float] = {}
    for i, row in enumerate(rows):
        name = row[0]
        seconds[name] = seconds.get(name, 0.0) + inclusive[i]
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + row[6]
        module = name.split(".")[0]
        self_by_module[module] = self_by_module.get(module, 0.0) + own[i]

    def s(name):
        return seconds.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    lanczos_self = sum((own[i] for i, row in enumerate(rows)
                        if row[0] == "spectral.lanczos_ground"), 0.0)
    lanczos_matvecs = sum(1 for i, row in enumerate(rows)
                          if row[0] == "fock.matvec"
                          and _under(rows, i, "spectral.lanczos_ground"))
    root = next(row for row in rows if row[0] == "cli.main")
    pool_cpu = sum(row[5] for row in rows if not row[2] and row[1] < 0)
    terms = counts.get("fock.to_matrix", 0)
    builds = n("fock.monomial_action")

    out = {
        "clifford.multiply_s": s("clifford.multiply"),
        "clifford.multiply_calls": n("clifford.multiply"),
        "clifford.reflect_s": s("clifford.reflect"),
        "fock.to_matrix_s": s("fock.to_matrix"),
        "fock.to_matrix_calls": n("fock.to_matrix"),
        "fock.to_matrix_terms": terms,
        "fock.action_builds": builds,
        "fock.action_hit_ratio": 1.0 - builds / terms if terms else 0.0,
        "fock.matvec_calls": n("fock.matvec"),
        "fock.matvec_s": s("fock.matvec"),
        "spectral.lanczos_ground_s": s("spectral.lanczos_ground"),
        "spectral.lanczos_self_s": lanczos_self,
        "spectral.lanczos_matvecs": lanczos_matvecs,
        "spectral.dense_spectrum_s": s("spectral.dense_spectrum"),
        "spectral.dense_spectrum_calls": n("spectral.dense_spectrum"),
        "spectral.ground_space_s": s("spectral.ground_space"),
        "spectral.rp_functional_s": s("spectral.rp_functional"),
        "spectral.rp_functional_calls": n("spectral.rp_functional"),
        "spectral.thermal_expectation_s": s("spectral.thermal_expectation"),
        "verify.check_rp_s": s("verify.check_rp"),
        "verify.check_rp_calls": n("verify.check_rp"),
        "verify.rp_samples": counts.get("verify.rp_sample_polynomials", 0),
        "verify.rp_sample_gen_s": s("verify.rp_sample_polynomials"),
        "verify.octagon_checks_s": (s("verify.check_topological_order")
                                    + s("verify.check_ground_positivity")),
        "verify.vortex_map_s": s("verify.vortex_map"),
        "verify.conservation_s": s("verify.check_conservation"),
        "model.build_hamiltonian_s": s("model.build_hamiltonian"),
        "model.build_hamiltonian_calls": n("model.build_hamiltonian"),
        "model.vortex_operator_calls": n("model.vortex_operator"),
        "model.reflection_symmetry_s": s("model.verify_reflection_symmetry"),
        "lattice.build_s": (s("lattice.build_lattice")
                            + s("lattice.reflection_data")),
        "cli.sweep_concurrency": pool_cpu / (root[4] - root[3]),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = self_by_module.get(module, 0.0)
    return out
