"""The benchmark's workloads and the correctness gate on their outputs.

A workload says what one op is (``run``, the timed part), how its inputs
follow from the seed (``setup``), what the gate reads from an op's output
(``outcome``, untimed) and how that is checked against ``reference.json`` (written by
``make_reference.py`` from the commit that introduced the benchmark).

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses to run against any other copy of mingap.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "mingap" / "__init__.py").is_file():
    raise SystemExit(f"bench: no mingap source under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import mingap  # noqa: E402
from mingap import anticrossing, cli, clique, hamiltonian  # noqa: E402

if Path(mingap.__file__).resolve().parent != SRC / "mingap":
    raise SystemExit(f"bench: imported mingap from {mingap.__file__}, not from {SRC}")

REFERENCE = Path(__file__).with_name("reference.json")

# The gap is flat at its minimum, so float64 fixes s* only to about
# sqrt(eps |E| / Delta'') ~ 1e-8 on these instances, coarser than the
# refinement tolerance (1e-10).  Allow 1e4 refinement tolerances, so that a
# different but correct eigensolver passes.
S_STAR_TOL = 1e-6
DELTA_RTOL = 1e-7
# Output flags compared exactly when the gap is resolved.
FLAGS = ("choi_satisfied", "solution_swap_satisfied", "wilkinson_valid")
# random_instance seed of both d=C(n,k) workloads (see README.md for why it
# is pinned).
INSTANCE_SEED = 3
TOY_ALPHAS = ("0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.63", "0.66", "0.6666", "0.66666")


def resolution_floor(pair, s: float) -> float:
    """Smallest gap float64 resolves at s: p(d) eps ||H(s)||, the form of
    LAPACK's eigenvalue error bound, with a generous p(d) = d^2 and the norm
    bounded by (1-s) ||H0||_inf + s max|H1|.  p(d) = d is too small: on toy2
    at alpha=0.66666 float64 reports a gap of 4.2e-14 ~ 100 eps ||H|| (d=20)
    where 50-digit arithmetic gives 3.7e-19."""
    norm = (1.0 - s) * float(np.max(np.sum(np.abs(pair.h0), axis=1))) + s * float(
        np.max(np.abs(pair.h1_diag))
    )
    return pair.dim**2 * float(np.finfo(float).eps) * norm


def report_summary(report: dict) -> dict:
    """The gated fields of a report (``AntiCrossingReport.to_dict()``)."""
    return {
        "s_star": float(report["s_star"]),
        "delta_min": float(report["delta_min"]),
        "choi_satisfied": (report["choi"] or {}).get("satisfied"),
        "solution_swap_satisfied": (report["solution_swap"] or {}).get("satisfied"),
        "wilkinson_valid": (report["wilkinson"] or {}).get("valid"),
    }


def compare_report(got: dict, ref: dict) -> list[str]:
    """Mismatches of a report summary against its reference.  Below the
    resolution floor Delta_min is round-off, so only that it stays below
    the floor is checked."""
    if not ref["resolved"]:
        if abs(got["delta_min"]) > ref["floor"]:
            return [f"delta_min {got['delta_min']:.3e} above the resolution floor {ref['floor']:.3e}"]
        return []
    problems = []
    if abs(got["s_star"] - ref["s_star"]) > S_STAR_TOL:
        problems.append(f"s_star {got['s_star']!r} vs reference {ref['s_star']!r}")
    if abs(got["delta_min"] - ref["delta_min"]) > DELTA_RTOL * ref["delta_min"] + ref["floor"]:
        problems.append(f"delta_min {got['delta_min']!r} vs reference {ref['delta_min']!r}")
    for flag in FLAGS:
        if got[flag] != ref[flag]:
            problems.append(f"{flag} {got[flag]} vs reference {ref[flag]}")
    return problems


@dataclass
class Outcome:
    """What the gate reads from one op's output: the gated summary, a
    digest of the files it wrote (None when it writes none) and the bytes
    the CLI wrote."""

    summary: dict
    digest: str | None = None
    bytes_written: int = 0


@dataclass
class Verdict:
    """Gate result of one op.  ``attempted``/``failed`` count gated units
    (ops, or asserted checks for verify); ``asserted_failed`` counts checks
    the program itself reported as failing."""

    attempted: int
    failed: int
    asserted_failed: int
    problems: list[str] = field(default_factory=list)


def _run_cli(args: list[str]) -> tuple[int, str]:
    """Run a ``mingap`` command in this process; returns (exit code, stdout)."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main(args, standalone_mode=False)
        except SystemExit as err:
            code = err.code or 0
    return code, buf.getvalue()


def _reversed_labels(graph):
    """The instance with node i renamed n+1-i.  The swap chain is symmetric
    under this renaming, so H(s) is the same matrix up to a basis
    permutation: same spectrum, same analysis, different LAPACK input."""
    r = lambda i: graph.n + 1 - i  # noqa: E731
    edges = tuple(sorted((min(r(i), r(j)), max(r(i), r(j))) for i, j in graph.edges))
    return hamiltonian.ProblemGraph(
        n=graph.n, edges=edges, weights=tuple(reversed(graph.weights)), k=graph.k, alpha=graph.alpha
    )


@dataclass(frozen=True)
class ToyLadder:
    """``mingap scan`` on the bundled fixtures over an alpha ladder that
    ends in the exponentially-small-gap regime near alpha = 2/3.  One op
    is one (fixture, alpha) report with its CSV/JSON writes; a unit is the
    whole ladder, in an order shuffled by the seed."""

    name: str = "toy-ladder"
    fixtures: tuple[str, ...] = ("toy1", "toy2")
    alphas: tuple[str, ...] = TOY_ALPHAS
    grid: int = 1001

    def setup(self, seed: int, workdir: Path) -> list[tuple[str, str]]:
        specs = [(f, a) for f in self.fixtures for a in self.alphas]
        random.Random(seed).shuffle(specs)
        return specs

    def label(self, spec) -> str:
        return f"{spec[0]}@{spec[1]}"

    def run(self, spec, workdir: Path) -> str:
        fixture, alpha = spec
        code, stdout = _run_cli(["scan", "--fixture", fixture, "--alpha", alpha,
                                 "--grid", str(self.grid), "--out", str(workdir / "scan")])
        if code != 0:
            raise RuntimeError(f"mingap scan exited with {code}")
        return stdout

    def outcome(self, spec, stdout: str, workdir: Path) -> Outcome:
        adir = workdir / "scan" / f"alpha_{spec[1]}"
        digest = hashlib.sha256()
        written = len(stdout.encode())
        for path in sorted(adir.iterdir()):
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + data)
            written += len(data)
        report = json.loads((adir / "report.json").read_text())["report"]
        shutil.rmtree(adir)
        return Outcome(report_summary(report), digest.hexdigest(), written)

    def check(self, spec, outcome: Outcome, reference: dict, seen: dict) -> Verdict:
        key = self.label(spec)
        problems = compare_report(outcome.summary, reference[key])
        first = seen.setdefault(key, outcome.digest)
        if outcome.digest != first:
            problems.append("output files differ from the first scan of this config")
        return Verdict(1, int(bool(problems)), int(bool(problems)), problems)

    def warmup(self, specs) -> list:
        """Ops run untimed before measuring: lazy set-up in the process
        finishes, and the timed loop repeats this config, so every run
        checks that a repeated scan writes byte-identical files."""
        return specs[:1]


@dataclass(frozen=True)
class RandomInstance:
    """Shared inputs of the d=C(n,k) workloads: ``random_instance`` with the
    pinned INSTANCE_SEED; the benchmark seed picks one of the two node
    labellings the swap chain cannot tell apart."""

    name: str
    n: int
    k: int
    grid: int = 201

    def graph(self, seed: int):
        base = clique.random_instance(self.n, self.k, 0.5, 0.5, 1.5, seed=INSTANCE_SEED, alpha=0.3)
        if seed % 2:
            return "reversed", _reversed_labels(base.graph)
        return "identity", base.graph

    def label(self, spec) -> str:
        return spec[0]

    def warmup(self, specs) -> list:
        """No untimed op: one op takes ~20 s, it would double the run."""
        return []


@dataclass(frozen=True)
class Report(RandomInstance):
    """``build_report(clique_pair(graph), grid_points=grid)``: one op."""

    def setup(self, seed: int, workdir: Path):
        return [self.graph(seed)]

    def run(self, spec, workdir: Path):
        pair = hamiltonian.clique_pair(spec[1])
        return anticrossing.build_report(pair, grid_points=self.grid)[0]

    def outcome(self, spec, report, workdir: Path) -> Outcome:
        return Outcome(report_summary(report.to_dict()))

    def check(self, spec, outcome: Outcome, reference: dict, seen: dict) -> Verdict:
        problems = compare_report(outcome.summary, reference[spec[0]])
        return Verdict(1, int(bool(problems)), int(bool(problems)), problems)


@dataclass(frozen=True)
class Verify(RandomInstance):
    """``mingap verify --instance <file> --grid <grid>`` with every check
    group: one op.  Each asserted (pass/fail) check is a gated unit; a
    check that passed on the reference commit must still pass."""

    def setup(self, seed: int, workdir: Path):
        label, graph = self.graph(seed)
        path = workdir / f"instance-{label}.json"
        doc = cli.instance_document(clique.CliqueInstance(graph=graph, description=self.name))
        path.write_text(json.dumps(doc))
        return [(label, str(path))]

    def run(self, spec, workdir: Path) -> tuple[int, str]:
        return _run_cli(["verify", "--instance", spec[1], "--grid", str(self.grid)])

    def outcome(self, spec, result: tuple[int, str], workdir: Path) -> Outcome:
        code, stdout = result
        if code not in (0, 1):
            raise RuntimeError(f"mingap verify exited with {code}")
        checks = json.loads(stdout)["runs"][0]["checks"]
        statuses = {c["name"]: c["status"] for c in checks if c["status"] in ("pass", "fail")}
        return Outcome({"statuses": statuses}, None, len(stdout.encode()))

    def check(self, spec, outcome: Outcome, reference: dict, seen: dict) -> Verdict:
        expected = reference[spec[0]]["statuses"]
        got = outcome.summary["statuses"]
        problems = []
        for name, status in expected.items():
            if name not in got:
                problems.append(f"check {name} missing")
            elif status == "pass" and got[name] != "pass":
                problems.append(f"check {name}: {got[name]} (passed on the reference commit)")
        asserted_failed = sum(s == "fail" for s in got.values())
        return Verdict(len(expected), len(problems), asserted_failed, problems)


WORKLOADS = {
    w.name: w
    for w in (
        ToyLadder(),
        Report(name="report-d462", n=11, k=5),
        Verify(name="verify-d252", n=10, k=5),
    )
}


def failed_verdict(workload, spec, reference: dict, err: BaseException) -> Verdict:
    """Verdict for an op that raised: every gated unit counts as failed."""
    ref = reference.get(workload.label(spec), {})
    units = len(ref.get("statuses", {})) or 1
    return Verdict(units, units, units, [f"raised {type(err).__name__}: {err}"])


def load_reference(workload) -> dict:
    return json.loads(REFERENCE.read_text())[workload.name]
