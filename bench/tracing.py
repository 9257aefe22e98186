"""Per-layer accounting for the benchmark's traced runs.

Everything here acts on the benchmark process only: it replaces module
attributes of the ``mingap`` modules and the eigensolver entry points of
SciPy and NumPy with wrappers, and puts the originals back on exit.  The
library source is not touched.

* Stage functions get a span (name, start, end, parent).  A span's self
  time is its duration minus the durations of its child spans.
* Functions called once per matrix element (the projection identities,
  ~10^6 calls per op) only count calls, and time one call in
  ``SAMPLE_EVERY``, so that clock reads do not slow them.
* Every eigensolver call is recorded with its entry point, LAPACK driver,
  dimension and subset, and charged to the innermost open stage span.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

SAMPLE_EVERY = 64

# Stage functions that get spans, by module.
SPANS = {
    "mingap.anticrossing": (
        "build_report",
        "partition_final_levels",
        "compute_overlaps",
        "wilkinson_fit",
        "measure_choi",
        "measure_solution_swap",
        "gap_decomposition_residual",
        "rotation_residuals",
        "solution_derivative_residuals",
    ),
    "mingap.spectral": (
        "sweep",
        "min_gap",
        "eigenvalue_derivative",
        "eigenvector_derivative",
        "eigenvalue_second_derivative",
    ),
    "mingap.hamiltonian": ("clique_pair",),
    "mingap.clique": ("random_instance", "brute_force"),
}
# Hot functions that only count calls (and time a sample of them).
COUNTED = {
    "mingap.spectral": (
        "decompose_interpolated",
        "energy_identity_residual",
        "gap_identity_residual",
        "failure_condition_residual",
    ),
}
CLI_COMMANDS = ("scan", "verify")
EIGENSOLVERS = {
    "scipy.linalg": ("eigh", "eigvalsh"),
    "scipy.sparse.linalg": ("eigsh", "lobpcg"),
    "numpy.linalg": ("eigh", "eigvalsh"),
}
ANTICROSSING_STAGES = SPANS["mingap.anticrossing"][1:]
DERIVATIVES = SPANS["mingap.spectral"][2:]
IDENTITIES = COUNTED["mingap.spectral"][1:]
# Stages that eigensolver calls are charged to; anything else is "other".
LAPACK_STAGES = (
    "sweep",
    "min_gap",
    "wilkinson_fit",
    "measure_choi",
    "measure_solution_swap",
    "gap_decomposition_residual",
    "rotation_residuals",
    "solution_derivative_residuals",
    "derivative",
    "verify",
    "other",
)
_MODULES = (
    "mingap",
    "mingap.basis",
    "mingap.hamiltonian",
    "mingap.spectral",
    "mingap.anticrossing",
    "mingap.clique",
    "mingap.cli",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    child_s: float = 0.0


@dataclass(frozen=True)
class SolverCall:
    entry: str
    driver: str
    dim: int
    subset: int | None
    vectors: bool
    stage: str
    seconds: float
    fingerprint: bytes | None


def _fingerprint(a) -> bytes | None:
    """Digest of the diagonal and first row of a dense input.  Matrices of
    one interpolation differ on the diagonal, so this tells distinct H(s)
    apart in O(d).  Inputs that are not arrays count as distinct (None)."""
    if not isinstance(a, np.ndarray) or a.ndim != 2:
        return None
    h = hashlib.sha1(repr(a.shape).encode())
    h.update(np.ascontiguousarray(np.diagonal(a)).data)
    h.update(np.ascontiguousarray(a[0]).data)
    return h.digest()


def flops_computed(call: SolverCall) -> float:
    """Stated dense model, labelled computed: (4/3) d^3 for the reduction to
    tridiagonal form, plus 2 d^2 m for back-transforming m eigenvectors.
    Iterative solvers (eigsh, lobpcg) are not modelled and count 0."""
    if call.entry.endswith(("eigsh", "lobpcg")):
        return 0.0
    d = float(call.dim)
    m = 0 if not call.vectors else (call.subset if call.subset is not None else call.dim)
    return (4.0 / 3.0) * d**3 + 2.0 * d * d * m


class Tracer:
    """Context manager that installs the wrappers and collects spans,
    counters and eigensolver calls in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: list[SolverCall] = []
        self.counts: Counter = Counter()
        self.sampled_s: Counter = Counter()
        self.sampled_n: Counter = Counter()
        self.gauges: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        replacements = {}
        for modname, names in EIGENSOLVERS.items():
            module = importlib.import_module(modname)
            for name in names:
                replacements[getattr(module, name)] = self._solver(f"{modname}.{name}", getattr(module, name))
        for modname, names in SPANS.items():
            module = importlib.import_module(modname)
            for name in names:
                replacements[getattr(module, name)] = self._span(name, getattr(module, name))
        for modname, names in COUNTED.items():
            module = importlib.import_module(modname)
            for name in names:
                replacements[getattr(module, name)] = self._counted(name, getattr(module, name))
        # Patch every binding of an original, including names imported into
        # other modules (``from .spectral import min_gap``) and aliases.
        for modname in (*EIGENSOLVERS, *_MODULES):
            module = importlib.import_module(modname)
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = replacements.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._set(module, attr, wrapper)
        cli = importlib.import_module("mingap.cli")
        for name in CLI_COMMANDS:
            command = cli.main.commands[name]
            self._set(command, "callback", self._span(name, command.callback))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, parent)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.end - span.start
            self._gauge(name, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            if self.counts[name] % SAMPLE_EVERY:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.sampled_s[name] += time.perf_counter() - start
                self.sampled_n[name] += 1

        return wrapper

    def _solver(self, entry, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            start = time.perf_counter()
            result = fn(a, *args, **kwargs)
            seconds = time.perf_counter() - start
            self.calls.append(self._describe(entry, a, args, kwargs, seconds))
            return result

        return wrapper

    def _describe(self, entry, a, args, kwargs, seconds) -> SolverCall:
        name = entry.rsplit(".", 1)[1]
        dim = int(a.shape[0]) if hasattr(a, "shape") else 0
        subset = None
        if kwargs.get("subset_by_index") is not None:
            lo, hi = kwargs["subset_by_index"]
            subset = int(hi) - int(lo) + 1
        elif name == "eigsh":
            subset = int(kwargs.get("k", args[0] if args else 6))
        elif name == "lobpcg":
            block = kwargs.get("X", args[0] if args else None)
            subset = int(np.shape(block)[1]) if block is not None else None
        if entry.startswith("numpy"):
            driver = "numpy"
        elif name in ("eigsh", "lobpcg"):
            driver = name
        else:
            driver = kwargs.get("driver") or "evr"
        vectors = name != "eigvalsh" and not kwargs.get("eigvals_only", False)
        return SolverCall(
            entry=entry, driver=driver, dim=dim, subset=subset, vectors=vectors,
            stage=self._stage(), seconds=seconds, fingerprint=_fingerprint(a),
        )

    def _stage(self) -> str:
        for index in reversed(self._open):
            name = self.spans[index].name
            if name in DERIVATIVES:
                return "derivative"
            if name in LAPACK_STAGES:
                return name
            if name in ("build_report", "scan"):
                return "other"
        return "other"

    def _gauge(self, name, result) -> None:
        if name == "sweep":
            nbytes = result.energies.nbytes + result.vectors.nbytes
            self.gauges["sweep_bytes"] = max(self.gauges["sweep_bytes"], nbytes)
        elif name == "clique_pair":
            nbytes = result.h0.nbytes + result.h1_diag.nbytes
            self.gauges["operator_bytes"] = max(self.gauges["operator_bytes"], nbytes)
            self.gauges["dim"] = max(self.gauges["dim"], result.dim)

    # -- summaries -------------------------------------------------------

    def span_totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: total seconds, self seconds and call count."""
        total, self_s, count = Counter(), Counter(), Counter()
        for span in self.spans:
            duration = span.end - span.start
            total[span.name] += duration
            self_s[span.name] += duration - span.child_s
            count[span.name] += 1
        return total, self_s, count

    def sampled_estimate(self, name: str) -> float:
        """Seconds spent in a counted function, scaled up from the sampled
        calls (0 when no call was sampled)."""
        if not self.sampled_n[name]:
            return 0.0
        return self.sampled_s[name] * self.counts[name] / self.sampled_n[name]

    def solver_table(self) -> list[tuple[str, str, int, int | None, int, float]]:
        """(entry, driver, dim, subset, calls, seconds), one row per kind."""
        rows = defaultdict(lambda: [0, 0.0])
        for c in self.calls:
            row = rows[(c.entry, c.driver, c.dim, c.subset)]
            row[0] += 1
            row[1] += c.seconds
        return [(*key, n, s) for key, (n, s) in sorted(rows.items(), key=lambda kv: -kv[1][0])]

    def metrics(self, ops: int, op_wall_s: float) -> dict[str, float]:
        """Per-layer metrics, as totals per op over ``ops`` traced ops."""
        total, self_s, count = self.span_totals()
        calls = self.calls
        lapack_s = sum(c.seconds for c in calls)
        known = [c.fingerprint for c in calls if c.fingerprint is not None]
        distinct = len(set(known)) + (len(calls) - len(known))
        by_stage = Counter(c.stage for c in calls)
        per = 1.0 / ops
        out = {
            "lapack.calls": len(calls) * per,
            "lapack.eigh_calls": sum(c.entry.endswith(".eigh") for c in calls) * per,
            "lapack.eigvalsh_calls": sum(c.entry.endswith(".eigvalsh") for c in calls) * per,
            "lapack.other_calls": sum(c.entry.endswith(("eigsh", "lobpcg")) for c in calls) * per,
            "lapack.s": lapack_s * per,
            "lapack.share": lapack_s / op_wall_s,
            "lapack.dim_max": max((c.dim for c in calls), default=0),
            "lapack.flops_computed": sum(flops_computed(c) for c in calls) * per,
            "lapack.unique_input_frac": distinct / len(calls) if calls else 1.0,
        }
        for stage in LAPACK_STAGES:
            out[f"lapack.calls.{stage}"] = by_stage[stage] * per
        out.update({
            "spectral.sweep_s": total["sweep"] * per,
            "spectral.sweep_bytes": self.gauges["sweep_bytes"],
            "spectral.min_gap_s": total["min_gap"] * per,
            "spectral.min_gap_calls": count["min_gap"] * per,
            "spectral.decompose_interpolated_calls": self.counts["decompose_interpolated"] * per,
            "spectral.identity_calls": sum(self.counts[n] for n in IDENTITIES) * per,
            "spectral.identity_s": sum(self.sampled_estimate(n) for n in IDENTITIES) * per,
            "spectral.derivative_s": sum(total[n] for n in DERIVATIVES) * per,
            "anticrossing.build_report_s": total["build_report"] * per,
            "anticrossing.self_s": self_s["build_report"] * per,
        })
        for stage in ANTICROSSING_STAGES:
            out[f"anticrossing.{stage}_s"] = total[stage] * per
        out.update({
            "hamiltonian.clique_pair_s": total["clique_pair"] * per,
            "hamiltonian.operator_bytes": self.gauges["operator_bytes"],
            "basis.dim": self.gauges["dim"],
            "clique.brute_force_s": total["brute_force"] * per,
            "clique.random_instance_s": total["random_instance"],
            "cli.scan_s": total["scan"] * per,
            "cli.verify_s": total["verify"] * per,
            "cli.self_s": (self_s["scan"] + self_s["verify"]) * per,
        })
        return out
