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
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from . import __version__
from .anticrossing import build_report
from .clique import CliqueInstance, brute_force, toy_example_1, toy_example_2
from .hamiltonian import ProblemGraph, clique_pair
from .spectral import (
    decompose_interpolated,
    eigenvalue_derivative,
    eigenvalue_second_derivative,
    eigenvector_derivative,
    energy_identity_residuals,
    failure_condition_residual,
    gap_identity_residuals,
    min_gap_bounds,
)

MIXERS = ("swap_chain", "swap_cycle", "transverse_field")
CHECK_NAMES = (
    "encoding",
    "normalization",
    "identities",
    "derivatives",
    "decomposition",
    "bound",
    "ratios",
    "rotation",
)
_FIXTURES = {"toy1": (toy_example_1, 0.5), "toy2": (toy_example_2, 0.2)}


class AppError(Exception):
    """User-facing error carrying the exit code."""

    def __init__(self, message: str, kind: str = "usage"):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class RunConfig:
    """Resolved command configuration (embedded in reports for provenance)."""

    source: str
    mixer: str
    alphas: tuple[tuple[str, float], ...]
    grid_points: int
    refine_tol: float
    levels: int
    out_dir: str
    checks: tuple[str, ...]

    def __post_init__(self):
        if self.grid_points < 51:
            raise AppError(f"grid must have at least 51 points, got {self.grid_points}")
        if self.refine_tol <= 0:
            raise AppError(f"refinement tolerance must be positive, got {self.refine_tol}")
        if self.levels < 1:
            raise AppError(f"levels must be positive, got {self.levels}")

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "mixer": self.mixer,
            "alphas": [t for t, _ in self.alphas],
            "grid_points": self.grid_points,
            "refine_tol": self.refine_tol,
            "levels": self.levels,
            "out_dir": self.out_dir,
            "checks": list(self.checks),
        }


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
    """Returns (description, graph, mixer, fixture_name or None)."""
    if (instance is None) == (fixture is None):
        raise AppError("exactly one of --instance or --fixture is required")
    if instance is not None:
        graph, mixer = load_instance(instance)
        return str(instance), graph, mixer, None
    if fixture not in _FIXTURES:
        raise AppError(f"unknown fixture {fixture!r}; available: {sorted(_FIXTURES)}")
    builder, default_alpha = _FIXTURES[fixture]
    return f"fixture:{fixture}", builder(default_alpha).graph, "swap_chain", fixture


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    rows = zip(*columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


# ---------------------------------------------------------------------------
# verify checks


def _check(name, status, value=None, tolerance=None, detail=""):
    return {
        "name": name,
        "status": status,
        "value": value,
        "tolerance": tolerance,
        "detail": detail,
    }


def _verify_one(graph: ProblemGraph, mixer: str, cfg: RunConfig) -> list[dict]:
    results = []
    pair = clique_pair(graph, mixer)
    checks = set(cfg.checks)

    if "encoding" in checks:
        oracle = brute_force(CliqueInstance(graph=graph, description="verify"))
        worst = 0.0
        exact = True
        for subset, value in oracle.table:
            bits = "".join("1" if i + 1 in subset else "0" for i in range(graph.n))
            idx = pair.basis.index_of(bits)
            worst = max(worst, abs(pair.h1_diag[idx] - value))
            exact = exact and (pair.h1_diag[idx] == value)
        results.append(
            _check("encoding", "pass" if exact else "fail", worst, 0.0,
                   "solver table vs diagonal target, bit-exact per state")
        )

    report, swp, series = build_report(
        pair, grid_points=cfg.grid_points, refine_tol=cfg.refine_tol
    )
    analysable = series is not None
    unique_gs = not report.ground_degenerate
    # The sweep keeps two levels; the checks that read every level share
    # these.  All solves run before any check reads them: at d=252 the 21
    # solves took 0.26 s back to back and 0.6 s when alternated with the
    # identity products (2-core Xeon, OpenBLAS 0.3.31).
    dense = []
    if checks & {"normalization", "identities"}:
        dense = [(s, decompose_interpolated(pair, s)) for s in np.linspace(0.0, 1.0, 21)]

    if "normalization" in checks:
        if analysable:
            dev = max(
                float(np.max(np.abs(series.in_ground.sum(axis=1) - 1.0))),
                float(np.max(np.abs(series.in_excited.sum(axis=1) - 1.0))),
            )
            if series.solution is not None:
                gs = series.partition.unique_ground_index
                for _, (_, v) in dense:
                    dev = max(dev, abs(float(v[gs] @ v[gs]) - 1.0))
            results.append(_check("normalization", "pass" if dev <= 1e-10 else "fail", dev, 1e-10))
            if series.solution is not None:
                cons = max(
                    float(np.max(np.abs(series.solution[:, 0] - series.in_ground[:, 0]))),
                    float(np.max(np.abs(series.solution[:, 1] - series.in_excited[:, 0]))),
                )
                results.append(
                    _check("consistency", "pass" if cons <= 1e-12 else "fail", cons, 1e-12,
                           "solution weights equal the level-0 weights of the two lowest vectors")
                )
            else:
                results.append(_check("consistency", "skip", None, None,
                                      "degenerate final ground state; no solution series"))
        else:
            results.append(_check("normalization", "skip", None, None,
                                  "; ".join(report.warnings)))

    if "identities" in checks:
        worst5 = worst6 = 0.0
        best7 = None
        for s, dec in dense:
            w = dec[0]
            # fmax skips the NaN entries, whose components are guarded
            r5 = energy_identity_residuals(pair, s, decomposition=dec)
            worst5 = float(np.fmax.reduce(np.abs(r5) / (1.0 + np.abs(w)), None, initial=worst5))
            r6 = gap_identity_residuals(pair, s, decomposition=dec)
            delta = float(w[1] - w[0])
            worst6 = float(np.fmax.reduce(np.abs(r6) / (1.0 + delta), None, initial=worst6))
            if unique_gs and s < 1.0:
                r = failure_condition_residual(pair, s, decomposition=dec)
                if r is not None and (best7 is None or abs(r) < abs(best7)):
                    best7 = r
        results.append(_check("energy_identity", "pass" if worst5 <= 1e-8 else "fail",
                              worst5, 1e-8, "max relative residual over 21 grid points"))
        results.append(_check("gap_identity", "pass" if worst6 <= 1e-8 else "fail",
                              worst6, 1e-8, "max relative residual over 21 grid points"))
        if best7 is not None:
            results.append(_check("failure_condition", "report", best7, None,
                                  "smallest ratio difference over the grid"))
        else:
            results.append(_check("failure_condition", "skip", None, None,
                                  "no unguarded grid point (or degenerate ground state)"))

    if "derivatives" in checks:
        worst1 = worst2 = worstv = 0.0
        samples = [s for s in np.linspace(0.05, 0.95, 12) if abs(s - report.s_star) > 0.02][:10]
        h, h2 = 1e-5, 1e-4
        for s in samples:
            w0, v0 = decompose_interpolated(pair, s)
            wp, vp = decompose_interpolated(pair, s + h)
            wm, vm = decompose_interpolated(pair, s - h)
            wp2 = decompose_interpolated(pair, s + h2)[0]
            wm2 = decompose_interpolated(pair, s - h2)[0]
            d1 = eigenvalue_derivative(pair, s, 0, decomposition=(w0, v0))
            worst1 = max(worst1, abs(d1 - (wp[0] - wm[0]) / (2 * h)))
            d2 = eigenvalue_second_derivative(pair, s, 0, decomposition=(w0, v0))
            worst2 = max(worst2, abs(d2 - (wp2[0] + wm2[0] - 2 * w0[0]) / h2**2))
            dv = eigenvector_derivative(pair, s, 0, decomposition=(w0, v0))
            v, vp, vm = v0[:, 0], vp[:, 0], vm[:, 0]
            vp = vp if float(vp @ v) >= 0 else -vp
            vm = vm if float(vm @ v) >= 0 else -vm
            worstv = max(worstv, float(np.linalg.norm(dv - (vp - vm) / (2 * h))))
        results.append(_check("eigenvalue_derivative", "pass" if worst1 <= 1e-6 else "fail",
                              worst1, 1e-6, "vs central difference, h=1e-5"))
        results.append(_check("eigenvalue_second_derivative", "pass" if worst2 <= 1e-5 else "fail",
                              worst2, 1e-5, "vs second central difference, h=1e-4"))
        results.append(_check("eigenvector_derivative", "pass" if worstv <= 1e-6 else "fail",
                              worstv, 1e-6, "norm difference vs central difference, h=1e-5"))

    if "decomposition" in checks:
        if analysable:
            tol = 1e-6 * (1.0 + report.delta_min)
            if report.gap_decomposition_residual is not None:
                ok = report.gap_decomposition_residual <= tol
                results.append(_check("gap_decomposition", "pass" if ok else "fail",
                                      report.gap_decomposition_residual, tol))
            else:
                results.append(_check("gap_decomposition", "fail", None, tol,
                                      "stationarity rejected at the refined minimum"))
        else:
            results.append(_check("gap_decomposition", "skip", None, None,
                                  "no interior gap minimum"))

    if "bound" in checks:
        if report.epsilon_bound_margin is not None:
            ok = report.epsilon_bound_margin >= 0
            results.append(_check("epsilon_bound", "pass" if ok else "fail",
                                  report.epsilon_bound_margin, 0.0, "margin must be nonnegative"))
        else:
            results.append(_check("epsilon_bound", "skip", None, None,
                                  "four-quantity measurement not satisfied"))

    if "ratios" in checks:
        gb = None
        if analysable and unique_gs:
            gb = min_gap_bounds(pair, report.s_star, series.partition.unique_ground_index)
        if gb is None:
            results.append(_check("squared_gap_bounds", "skip", None, None,
                                  "needs an interior minimum, a unique ground state and a "
                                  "nonvanishing component"))
        else:
            results.append(_check("squared_gap_bounds", "report",
                                  {"lower": gb.lower, "upper": gb.upper,
                                   "lower_holds": gb.lower_holds, "upper_holds": gb.upper_holds},
                                  None, "sign assumptions unstated; reported, not asserted"))

    if "rotation" in checks:
        if report.rotation is not None:
            results.append(_check("rotation", "report",
                                  {"residual_ground": report.rotation.residual_ground,
                                   "residual_excited": report.rotation.residual_excited,
                                   "coupling_above_max": report.rotation.coupling_above_max,
                                   "beta": report.rotation.beta}, None))
        else:
            results.append(_check("rotation", "skip", None, None, "; ".join(report.warnings)))
        if report.solution_derivative is not None:
            sd = report.solution_derivative
            results.append(_check("solution_derivative", "report",
                                  {"sum_residual": sd.sum_residual,
                                   "diff_residual": sd.diff_residual,
                                   "g0_prime": sd.g0_prime, "g1_prime": sd.g1_prime}, None))
        else:
            results.append(_check("solution_derivative", "skip", None, None,
                                  "degenerate final ground state" if not unique_gs
                                  else "; ".join(report.warnings)))

    if report.choi is not None:
        results.append(_check("choi_measurement", "report",
                              {"satisfied": report.choi.satisfied,
                               "gamma": report.choi.gamma, "epsilon": report.choi.epsilon}, None))
    if report.solution_swap is not None:
        results.append(_check("solution_swap_measurement", "report",
                              {"satisfied": report.solution_swap.satisfied,
                               "gamma": report.solution_swap.gamma,
                               "epsilon": report.solution_swap.epsilon}, None))
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
    click.option("--levels", type=int, default=6, show_default=True,
                 help="How many levels/columns to sweep and export."),
    click.option("--out", "out_dir", type=click.Path(), default="mingap_out", show_default=True),
    click.option("--checks", "checks_text", default=None,
                 help=f"Comma-separated subset of {','.join(CHECK_NAMES)}."),
]


def _apply_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


def _build_config(instance, fixture, alpha_text, grid_points, refine_tol, levels,
                  out_dir, checks_text):
    source, graph, mixer, _ = _resolve_source(instance, fixture)
    alphas = _parse_alphas(alpha_text, default=float(graph.alpha))
    if checks_text is None:
        checks = CHECK_NAMES
    else:
        checks = tuple(c.strip() for c in checks_text.split(",") if c.strip())
        unknown = set(checks) - set(CHECK_NAMES)
        if unknown:
            raise AppError(f"unknown checks: {sorted(unknown)}")
    cfg = RunConfig(
        source=source, mixer=mixer, alphas=alphas, grid_points=grid_points,
        refine_tol=refine_tol, levels=levels, out_dir=str(out_dir), checks=checks,
    )
    return cfg, graph, mixer


@main.command()
@_apply_options
def scan(instance, fixture, alpha_text, grid_points, refine_tol, levels, out_dir, checks_text):
    """Sweep the interpolation and emit per-alpha CSV series and a report."""
    try:
        cfg, graph, mixer = _build_config(
            instance, fixture, alpha_text, grid_points, refine_tol, levels, out_dir, checks_text
        )
        base = Path(cfg.out_dir)
        base.mkdir(parents=True, exist_ok=True)
        for token, alpha in cfg.alphas:
            pair = clique_pair(_with_alpha(graph, alpha), mixer)
            report, swp, series = build_report(
                pair, grid_points=cfg.grid_points, refine_tol=cfg.refine_tol, levels=cfg.levels
            )
            adir = base / f"alpha_{token}"
            adir.mkdir(parents=True, exist_ok=True)
            m = min(cfg.levels, pair.dim)
            _write_csv(
                adir / "energies.csv",
                ["s"] + [f"E_{k}" for k in range(m)],
                [swp.grid] + [swp.energies[:, k] for k in range(m)],
            )
            _write_csv(adir / "gap.csv", ["s", "delta"], [swp.grid, swp.gaps()])
            if series is not None:
                la = min(cfg.levels, series.partition.level_count)
                _write_csv(
                    adir / "overlaps_a.csv",
                    ["s"] + [f"a_{k}" for k in range(la)],
                    [series.grid] + [series.in_ground[:, k] for k in range(la)],
                )
                _write_csv(
                    adir / "overlaps_b.csv",
                    ["s"] + [f"b_{k}" for k in range(la)],
                    [series.grid] + [series.in_excited[:, k] for k in range(la)],
                )
                if series.solution is not None:
                    lg = min(cfg.levels, pair.dim)
                    _write_csv(
                        adir / "overlaps_g.csv",
                        ["s"] + [f"g_{k}" for k in range(lg)],
                        [series.grid] + [series.solution[:, k] for k in range(lg)],
                    )
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
@_apply_options
def verify(instance, fixture, alpha_text, grid_points, refine_tol, levels, out_dir, checks_text):
    """Run the identity and invariant suite; exit 1 on any failed check."""
    try:
        cfg, graph, mixer = _build_config(
            instance, fixture, alpha_text, grid_points, refine_tol, levels, out_dir, checks_text
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
