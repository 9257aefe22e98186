"""Command-line front end.

``mingap scan`` runs the sweep/analysis pipeline on an instance and emits
the series behind the usual plots as CSV plus a JSON report; ``mingap
verify`` runs the identity suite and reports every residual with its
tolerance; ``mingap fixtures`` prints the bundled instances in the
instance-file format.

Instance files are JSON documents with keys ``n``, ``k``, ``alpha``,
``weights`` (n reals), ``edges`` (1-based [i, j] pairs) and an optional
``mixer`` of ``swap_chain`` (default), ``swap_cycle`` or
``transverse_field``.

CSV details are pinned for reproducibility: comma separator, header row,
LF line endings, 17 significant digits.  Exit codes: 0 ok, 1 check
failure, 2 usage or I/O error (with a JSON error object on stderr).
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import click
import numpy as np

from . import __version__
from .anticrossing import AntiCrossingPoint, AntiCrossingReport, build_report, min_gap_bounds
from .clique import CliqueInstance, brute_force, toy_example_1, toy_example_2
from .hamiltonian import HamiltonianPair, ProblemGraph, clique_pair
from .spectral import (
    _central_solves,
    _eigensolve,
    _final_ground_simple,
    decompose_interpolated,
    eigenvalue_derivative,
    eigenvalue_second_derivative,
    eigenvector_derivative,
    energy_identity_residuals,
    failure_condition_residual,
    gap_identity_residuals,
)

MIXERS = ("swap_chain", "swap_cycle", "transverse_field")
_FIXTURES = {"toy1": (toy_example_1, 0.5), "toy2": (toy_example_2, 0.2)}


class AppError(Exception):
    """User-facing error carrying the exit code."""

    def __init__(self, message: str, kind: str = "usage"):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class RunConfig:
    """Resolved command configuration (embedded in reports for provenance).
    ``levels`` and ``out_dir`` are options of ``scan`` only, ``checks`` of
    ``verify`` only; the other command leaves them None."""

    source: str
    mixer: str
    alphas: tuple[tuple[str, float], ...]
    grid_points: int
    refine_tol: float
    levels: int | None = None
    out_dir: str | None = None
    checks: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.grid_points < 51:
            raise AppError(f"grid must have at least 51 points, got {self.grid_points}")
        if self.refine_tol <= 0:
            raise AppError(f"refinement tolerance must be positive, got {self.refine_tol}")
        if self.levels is not None and self.levels < 1:
            raise AppError(f"levels must be positive, got {self.levels}")

    def to_dict(self) -> dict:
        """The options the command takes (None fields are left out)."""
        doc = {**asdict(self), "alphas": [t for t, _ in self.alphas]}
        return {k: v for k, v in doc.items() if v is not None}


def _fail(err: AppError) -> "SystemExit":
    sys.stderr.write(json.dumps({"error": str(err), "kind": err.kind}) + "\n")
    return SystemExit(2)


def instance_document(instance: CliqueInstance, mixer: str = "swap_chain") -> dict:
    g = instance.graph
    return {
        "n": g.n,
        "k": g.k,
        "alpha": float(g.alpha),
        "weights": list(g.weights),
        "edges": [list(e) for e in g.edges],
        "mixer": mixer,
    }


def load_instance(path: str | Path) -> tuple[ProblemGraph, str]:
    """Read an instance document; returns the graph and its mixer name."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise AppError(f"cannot read instance file {path}: {err}", kind="io") from err
    except json.JSONDecodeError as err:
        raise AppError(f"instance file {path} is not valid JSON: {err}", kind="io") from err
    missing = {"n", "k", "alpha", "weights", "edges"} - set(doc)
    if missing:
        raise AppError(f"instance file {path} lacks keys: {sorted(missing)}", kind="io")
    mixer = doc.get("mixer", "swap_chain")
    if mixer not in MIXERS:
        raise AppError(f"unknown mixer {mixer!r}; expected one of {MIXERS}", kind="io")
    try:
        graph = ProblemGraph(
            n=doc["n"],
            edges=tuple(tuple(e) for e in doc["edges"]),
            weights=tuple(doc["weights"]),
            k=doc["k"],
            alpha=doc["alpha"],
        )
    except (ValueError, TypeError) as err:
        raise AppError(f"invalid instance in {path}: {err}", kind="io") from err
    return graph, mixer


def _with_alpha(graph: ProblemGraph, alpha: float) -> ProblemGraph:
    return ProblemGraph(
        n=graph.n, edges=graph.edges, weights=graph.weights, k=graph.k, alpha=alpha
    )


def _parse_alphas(text: str | None, default: float) -> tuple[tuple[str, float], ...]:
    if text is None:
        token = format(default, ".17g")
        return ((token, float(default)),)
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append((tok, float(tok)))
        except ValueError as err:
            raise AppError(f"bad alpha value {tok!r}") from err
    if not out:
        raise AppError("empty alpha list")
    return tuple(out)


def _resolve_source(instance: str | None, fixture: str | None):
    """Returns (description, graph, mixer)."""
    if (instance is None) == (fixture is None):
        raise AppError("exactly one of --instance or --fixture is required")
    if instance is not None:
        graph, mixer = load_instance(instance)
        return str(instance), graph, mixer
    if fixture not in _FIXTURES:
        raise AppError(f"unknown fixture {fixture!r}; available: {sorted(_FIXTURES)}")
    builder, default_alpha = _FIXTURES[fixture]
    return f"fixture:{fixture}", builder(default_alpha).graph, "swap_chain"


# Rows formatted per write: bounds the Python floats and text held at once.
_CSV_BLOCK = 64


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """A header line, then a line per row of ``columns`` (float arrays of
    one length).  ``%.17g`` formats a whole row at once and gives the same
    bytes as ``format(x, ".17g")``, -0.0, nan and inf included."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            rows = zip(*(c[start:start + _CSV_BLOCK].tolist() for c in columns))
            fh.write("".join([line % row for row in rows]))


def _write_levels(path: Path, prefix: str, grid: np.ndarray, values: np.ndarray, count: int):
    """s and the first ``count`` columns of ``values``, headed prefix_k."""
    _write_csv(path, ["s"] + [f"{prefix}_{k}" for k in range(count)], [grid, *values[:, :count].T])


# ---------------------------------------------------------------------------
# verify checks


def _check(name, status, value=None, tolerance=None, detail=""):
    return dict(name=name, status=status, value=value, tolerance=tolerance, detail=detail)


def _bounded(name, value, tolerance, detail=""):
    """A check that passes when ``value`` is at most ``tolerance``."""
    return _check(name, "pass" if value <= tolerance else "fail", value, tolerance, detail)


def _report(name, result, fields, detail=""):
    """A reported (not asserted) check whose value holds ``fields`` of ``result``."""
    return _check(name, "report", {f: getattr(result, f) for f in fields}, None, detail)


def identity_checks(pair: HamiltonianPair, decompositions) -> list[dict]:
    """The energy and gap projection identities, relative to 1 + |E_k| and
    1 + Delta, and the smallest failure-condition ratio difference, over
    ``decompositions``: any iterable (a list, or a generator that solves
    each point on demand) of (s, (eigenvalues, eigenvectors)) pairs of full
    decompositions of H(s)."""
    worst5 = worst6 = 0.0
    best7 = None
    points = 0
    unique_gs = _final_ground_simple(pair)
    for s, dec in decompositions:
        points += 1
        w = dec[0]
        # fmax skips the NaN entries, whose components are guarded
        r5 = energy_identity_residuals(pair, s, decomposition=dec)
        np.divide(np.abs(r5, out=r5), 1.0 + np.abs(w), out=r5)
        worst5 = float(np.fmax.reduce(r5, None, initial=worst5))
        r6 = gap_identity_residuals(pair, s, decomposition=dec)
        delta = float(w[1] - w[0])
        worst6 = float(np.fmax.reduce(np.abs(r6) / (1.0 + delta), None, initial=worst6))
        if unique_gs and s < 1.0:
            r = failure_condition_residual(pair, s, decomposition=dec)
            if r is not None and (best7 is None or abs(r) < abs(best7)):
                best7 = r
        # the loop variables would otherwise hold them while the next
        # point is solved
        del dec, r5
    detail = f"max relative residual over {points} grid points"
    results = [_bounded("energy_identity", worst5, 1e-8, detail),
               _bounded("gap_identity", worst6, 1e-8, detail)]
    if best7 is not None:
        results.append(_check("failure_condition", "report", best7, None,
                              "smallest ratio difference over the grid"))
    else:
        results.append(_check("failure_condition", "skip", None, None,
                              "no unguarded grid point (or degenerate ground state)"))
    return results


def derivative_checks(pair: HamiltonianPair, points) -> list[dict]:
    """Perturbation-theory derivatives of the ground level at every s of
    ``points`` against finite differences of one-level solves.  Each point
    is decomposed in full once, since the perturbation sums read every
    level.  First derivatives take central differences with h=1e-5 (the
    vectors sign-aligned with the one at s).  The second derivative takes
    the Richardson extrapolation (4 D(h/2) - D(h)) / 3 of second central
    differences D with h=1e-3, whose truncation error is O(h^4): near a
    higher anti-crossing E0'' reaches tens (-34 at one d=252 sample),
    where D(1e-4) alone is off by 1.5e-5."""
    h = 1e-5
    worst1 = worst2 = worstv = 0.0

    def ground(x):
        return float(_eigensolve(pair, x, levels=1, vectors=False)[0])

    for s in points:
        dec = decompose_interpolated(pair, s)
        (wp, vp), (wm, vm) = _central_solves(pair, s, h, dec[1][:, :1])
        d1 = eigenvalue_derivative(pair, s, 0, decomposition=dec)
        worst1 = max(worst1, abs(d1 - (wp[0] - wm[0]) / (2 * h)))
        dv = eigenvector_derivative(pair, s, 0, decomposition=dec)
        worstv = max(worstv, float(np.linalg.norm(dv - (vp[:, 0] - vm[:, 0]) / (2 * h))))
        e0 = ground(s)
        wide, narrow = ((ground(s + k) + ground(s - k) - 2 * e0) / k**2 for k in (1e-3, 5e-4))
        d2 = eigenvalue_second_derivative(pair, s, 0, decomposition=dec)
        worst2 = max(worst2, abs(d2 - (4 * narrow - wide) / 3))
    return [
        _bounded("eigenvalue_derivative", worst1, 1e-6, "vs central difference, h=1e-5"),
        _bounded("eigenvalue_second_derivative", worst2, 1e-5,
                 "vs Richardson extrapolation of second central differences, h=1e-3 and 5e-4"),
        _bounded("eigenvector_derivative", worstv, 1e-6,
                 "norm difference vs central difference, h=1e-5"),
    ]


@dataclass
class _Run:
    """What the check groups of one verify run read."""

    graph: ProblemGraph
    pair: HamiltonianPair
    report: AntiCrossingReport
    point: AntiCrossingPoint | None
    checks: tuple[str, ...]

    @cached_property
    def full_pass(self) -> tuple[list[dict], float]:
        """One pass over 21 evenly spaced s for the groups that read every
        level: the identity checks (when that group runs) and the largest
        |v[gs] @ v[gs] - 1| of the solution state gs over all levels (0.0
        without one).  Each point is decomposed in full once and dropped
        before the next is solved, so one d x d decomposition is held at a
        time rather than 21."""
        gs = None if self.point is None else self.point.series.partition.unique_ground_index
        deviation = 0.0

        def points():
            nonlocal deviation
            for s in np.linspace(0.0, 1.0, 21):
                dec = decompose_interpolated(self.pair, s)
                if gs is not None:
                    deviation = max(deviation, abs(float(dec[1][gs] @ dec[1][gs]) - 1.0))
                yield s, dec
                del dec

        stream = points()
        identities = identity_checks(self.pair, stream) if "identities" in self.checks else []
        for _ in stream:  # the normalization group alone
            pass
        return identities, deviation


def _encoding_checks(run: _Run) -> list[dict]:
    table = brute_force(CliqueInstance(graph=run.graph, description="verify")).table
    bits = ("".join("1" if i + 1 in subset else "0" for i in range(run.graph.n))
            for subset, _ in table)
    got = run.pair.h1_diag[[run.pair.basis.index_of(b) for b in bits]]
    want = np.array([value for _, value in table])
    return [_check("encoding", "pass" if np.array_equal(got, want) else "fail",
                   float(np.max(np.abs(got - want), initial=0.0)), 0.0,
                   "solver table vs diagonal target, bit-exact per state")]


def _normalization_checks(run: _Run) -> list[dict]:
    if run.point is None:
        return [_check("normalization", "skip", detail="; ".join(run.report.warnings))]
    series = run.point.series
    dev = max(
        float(np.max(np.abs(series.in_ground.sum(axis=1) - 1.0))),
        float(np.max(np.abs(series.in_excited.sum(axis=1) - 1.0))),
    )
    if series.solution is None:
        return [_bounded("normalization", dev, 1e-10),
                _check("consistency", "skip",
                       detail="degenerate final ground state; no solution series")]
    dev = max(dev, run.full_pass[1])
    cons = max(
        float(np.max(np.abs(series.solution[:, 0] - series.in_ground[:, 0]))),
        float(np.max(np.abs(series.solution[:, 1] - series.in_excited[:, 0]))),
    )
    return [_bounded("normalization", dev, 1e-10),
            _bounded("consistency", cons, 1e-12,
                     "solution weights equal the level-0 weights of the two lowest vectors")]


def _derivative_samples(s_star: float) -> list[float]:
    return [s for s in np.linspace(0.05, 0.95, 12) if abs(s - s_star) > 0.02][:10]


def _decomposition_checks(run: _Run) -> list[dict]:
    if run.point is None:
        return [_check("gap_decomposition", "skip", detail="no interior gap minimum")]
    residual, tol = run.report.gap_decomposition_residual, 1e-6 * (1.0 + run.report.delta_min)
    if residual is None:
        return [_check("gap_decomposition", "fail", None, tol,
                       "stationarity rejected at the refined minimum")]
    return [_bounded("gap_decomposition", residual, tol)]


def _bound_checks(run: _Run) -> list[dict]:
    margin = run.report.epsilon_bound_margin
    if margin is None:
        return [_check("epsilon_bound", "skip", detail="four-quantity measurement not satisfied")]
    return [_check("epsilon_bound", "pass" if margin >= 0 else "fail", margin, 0.0,
                   "margin must be nonnegative")]


def _ratio_checks(run: _Run) -> list[dict]:
    gb = None
    if run.point is not None and not run.report.ground_degenerate:
        gb = min_gap_bounds(run.point, run.point.series.partition.unique_ground_index)
    if gb is None:
        return [_check("squared_gap_bounds", "skip", detail="needs an interior minimum, a unique "
                       "ground state and a nonvanishing component")]
    return [_report("squared_gap_bounds", gb, ("lower", "upper", "lower_holds", "upper_holds"),
                    "sign assumptions unstated; reported, not asserted")]


def _rotation_checks(run: _Run) -> list[dict]:
    report = run.report
    if report.rotation is None:
        rotation = _check("rotation", "skip", detail="; ".join(report.warnings))
    else:
        rotation = _report("rotation", report.rotation, ("residual_ground", "residual_excited",
                                                          "coupling_above_max", "beta"))
    if report.solution_derivative is None:
        derivative = _check("solution_derivative", "skip", detail="degenerate final ground state"
                            if report.ground_degenerate else "; ".join(report.warnings))
    else:
        derivative = _report("solution_derivative", report.solution_derivative,
                             ("sum_residual", "diff_residual", "g0_prime", "g1_prime"))
    return [rotation, derivative]


# Check groups in the order ``mingap verify`` runs and reports them.
CHECKS = {
    "encoding": _encoding_checks,
    "normalization": _normalization_checks,
    "identities": lambda run: run.full_pass[0],
    "derivatives": lambda run: derivative_checks(run.pair, _derivative_samples(run.report.s_star)),
    "decomposition": _decomposition_checks,
    "bound": _bound_checks,
    "ratios": _ratio_checks,
    "rotation": _rotation_checks,
}
CHECK_NAMES = tuple(CHECKS)


def _verify_one(graph: ProblemGraph, mixer: str, cfg: RunConfig) -> list[dict]:
    pair = clique_pair(graph, mixer)
    report, _, point = build_report(pair, grid_points=cfg.grid_points, refine_tol=cfg.refine_tol)
    run = _Run(graph, pair, report, point, cfg.checks)
    results = [c for name, group in CHECKS.items() if name in cfg.checks for c in group(run)]
    # the two swap measurements follow whatever groups ran
    for name, swap in (("choi_measurement", report.choi),
                       ("solution_swap_measurement", report.solution_swap)):
        if swap is not None:
            results.append(_report(name, swap, ("satisfied", "gamma", "epsilon")))
    return results


# ---------------------------------------------------------------------------
# commands


@click.group()
@click.version_option(version=__version__)
def main():
    """Spectral toolkit for adiabatic interpolations."""


_common = [
    click.option("--instance", type=click.Path(), default=None, help="Instance JSON file."),
    click.option("--fixture", default=None, help="Builtin fixture name (toy1, toy2)."),
    click.option("--alpha", "alpha_text", default=None,
                 help="Comma-separated weight-importance values (overrides the file value)."),
    click.option("--grid", "grid_points", type=int, default=1001, show_default=True,
                 help="Number of sweep grid points."),
    click.option("--refine", "refine_tol", type=float, default=1e-10, show_default=True,
                 help="s-uncertainty of the gap-minimum refinement."),
]


def _apply_options(*extra):
    def decorate(fn):
        for opt in reversed([*_common, *extra]):
            fn = opt(fn)
        return fn

    return decorate


def _build_config(instance, fixture, alpha_text, grid_points, refine_tol, **options):
    """The run configuration from the common options and the command's own
    ``options`` (RunConfig fields)."""
    source, graph, mixer = _resolve_source(instance, fixture)
    alphas = _parse_alphas(alpha_text, default=float(graph.alpha))
    cfg = RunConfig(source=source, mixer=mixer, alphas=alphas, grid_points=grid_points,
                    refine_tol=refine_tol, **options)
    return cfg, graph, mixer


def _parse_checks(text: str | None) -> tuple[str, ...]:
    if text is None:
        return CHECK_NAMES
    checks = tuple(c.strip() for c in text.split(",") if c.strip())
    unknown = set(checks) - set(CHECK_NAMES)
    if unknown:
        raise AppError(f"unknown checks: {sorted(unknown)}")
    return checks


@main.command()
@_apply_options(
    click.option("--levels", type=int, default=6, show_default=True,
                 help="How many levels/columns to sweep and export."),
    click.option("--out", "out_dir", type=click.Path(), default="mingap_out", show_default=True),
)
def scan(instance, fixture, alpha_text, grid_points, refine_tol, levels, out_dir):
    """Sweep the interpolation and emit per-alpha CSV series and a report."""
    try:
        cfg, graph, mixer = _build_config(
            instance, fixture, alpha_text, grid_points, refine_tol,
            levels=levels, out_dir=str(out_dir),
        )
        base = Path(cfg.out_dir)
        base.mkdir(parents=True, exist_ok=True)
        for token, alpha in cfg.alphas:
            pair = clique_pair(_with_alpha(graph, alpha), mixer)
            report, swp, point = build_report(
                pair, grid_points=cfg.grid_points, refine_tol=cfg.refine_tol, levels=cfg.levels
            )
            adir = base / f"alpha_{token}"
            adir.mkdir(parents=True, exist_ok=True)
            m = min(cfg.levels, pair.dim)
            _write_levels(adir / "energies.csv", "E", swp.grid, swp.energies, m)
            _write_csv(adir / "gap.csv", ["s", "delta"], [swp.grid, swp.gaps()])
            if point is not None:
                series = point.series
                la = min(cfg.levels, series.partition.level_count)
                _write_levels(adir / "overlaps_a.csv", "a", series.grid, series.in_ground, la)
                _write_levels(adir / "overlaps_b.csv", "b", series.grid, series.in_excited, la)
                if series.solution is not None:
                    _write_levels(adir / "overlaps_g.csv", "g", series.grid, series.solution, m)
            payload = {
                "version": __version__,
                "config": {**cfg.to_dict(), "alpha": token},
                "report": report.to_dict(),
            }
            with open(adir / "report.json", "w", encoding="utf-8", newline="\n") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            for name in sorted(p.name for p in adir.iterdir()):
                click.echo(str(adir / name))
    except AppError as err:
        raise _fail(err) from err


@main.command()
@_apply_options(
    click.option("--checks", "checks_text", default=None,
                 help=f"Comma-separated subset of {','.join(CHECK_NAMES)}."),
)
def verify(instance, fixture, alpha_text, grid_points, refine_tol, checks_text):
    """Run the identity and invariant suite; exit 1 on any failed check."""
    try:
        cfg, graph, mixer = _build_config(
            instance, fixture, alpha_text, grid_points, refine_tol,
            checks=_parse_checks(checks_text),
        )
        summary = {"version": __version__, "config": cfg.to_dict(), "runs": []}
        failed = False
        for token, alpha in cfg.alphas:
            checks = _verify_one(_with_alpha(graph, alpha), mixer, cfg)
            failed = failed or any(c["status"] == "fail" for c in checks)
            summary["runs"].append({"alpha": token, "checks": checks})
        summary["passed"] = not failed
        click.echo(json.dumps(summary, indent=2, sort_keys=True))
        raise SystemExit(1 if failed else 0)
    except AppError as err:
        raise _fail(err) from err


@main.command()
@click.argument("name", required=False)
def fixtures(name):
    """Print builtin fixtures as instance documents (all when NAME omitted)."""
    try:
        if name is not None and name not in _FIXTURES:
            raise AppError(f"unknown fixture {name!r}; available: {sorted(_FIXTURES)}")
        names = [name] if name else sorted(_FIXTURES)
        out = {}
        for nm in names:
            builder, default_alpha = _FIXTURES[nm]
            out[nm] = instance_document(builder(default_alpha))
        click.echo(json.dumps(out if name is None else out[name], indent=2, sort_keys=True))
    except AppError as err:
        raise _fail(err) from err


if __name__ == "__main__":
    main()
