"""Independent computation routes used only by the test suite.

Nothing here may call into the library's numerical paths: the Jacobi
solver diagonalizes from scratch, and the two-level formulas come from
direct closed-form algebra.  The two loop references (``threaded_gauge``,
``swap_window_scan``) take the library's per-point solves or its clause
evaluation as input and redo, one point or window at a time, only the
loop the library evaluates in one pass.
"""

from __future__ import annotations

import numpy as np


def jacobi_eigh(h, sweep_order: str = "rows", max_sweeps: int = 100, tol: float = 1e-15):
    """Cyclic two-sided Jacobi eigensolver for a real symmetric matrix.

    ``sweep_order`` picks the rotation schedule ("rows" walks p then q,
    "cols" walks q then p) so two runs take different round-off paths.
    """
    a = np.array(h, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    if sweep_order == "rows":
        schedule = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    elif sweep_order == "cols":
        schedule = [(p, q) for q in range(1, n) for p in range(q)]
    else:
        raise ValueError(f"unknown sweep order {sweep_order!r}")
    norm = max(1.0, float(np.max(np.abs(a))))
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * norm:
            break
        for p, q in schedule:
            apq = a[p, q]
            if abs(apq) <= 1e-30 * norm:
                continue
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            if theta == 0.0:
                t = 1.0
            else:
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            col_p = a[:, p].copy()
            col_q = a[:, q].copy()
            a[:, p] = c * col_p - s * col_q
            a[:, q] = s * col_p + c * col_q
            row_p = a[p, :].copy()
            row_q = a[q, :].copy()
            a[p, :] = c * row_p - s * row_q
            a[q, :] = s * row_p + c * row_q
            col_p = v[:, p].copy()
            col_q = v[:, q].copy()
            v[:, p] = c * col_p - s * col_q
            v[:, q] = s * col_p + c * col_q
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


class TwoLevelOracle:
    """Closed-form spectrum of H(s) = (1-s) [[0, -c], [-c, 0]] + s diag(e0, e1).

    Everything (values, vectors, their s-derivatives, the hyperbola
    parameters of the gap) follows from direct 2x2 algebra.
    """

    def __init__(self, e0: float, e1: float, coupling: float):
        self.e0, self.e1, self.c = float(e0), float(e1), float(coupling)

    def _entries(self, s):
        return s * self.e0, s * self.e1, -self.c * (1.0 - s)

    def values(self, s):
        a, b, w = self._entries(s)
        m, u = (a + b) / 2.0, (b - a) / 2.0
        r = np.hypot(u, w)
        return m - r, m + r

    def value_derivatives(self, s):
        a, b, w = self._entries(s)
        u = (b - a) / 2.0
        r = np.hypot(u, w)
        m_p = (self.e0 + self.e1) / 2.0
        u_p = (self.e1 - self.e0) / 2.0
        w_p = self.c
        r_p = (u * u_p + w * w_p) / r
        return m_p - r_p, m_p + r_p

    def value_second_derivatives(self, s):
        a, b, w = self._entries(s)
        u = (b - a) / 2.0
        r = np.hypot(u, w)
        u_p = (self.e1 - self.e0) / 2.0
        w_p = self.c
        r_p = (u * u_p + w * w_p) / r
        r_pp = (u_p**2 + w_p**2 - r_p**2) / r
        return -r_pp, r_pp

    def vectors(self, s):
        """Columns v0, v1 with v0 = (cos t, sin t), v1 = (-sin t, cos t)."""
        a, _, w = self._entries(s)
        lam0, _ = self.values(s)
        t = np.arctan2(lam0 - a, w)
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    def vector_derivative(self, s, k: int):
        """d v_k / ds in the gauge <v_k | dv_k/ds> = 0."""
        a, _, w = self._entries(s)
        lam0, _ = self.values(s)
        lam0_p, _ = self.value_derivatives(s)
        a_p, w_p = self.e0, self.c
        g = lam0 - a
        # t = atan2(g, w); t' = (g' w - g w') / (g^2 + w^2)
        t_p = ((lam0_p - a_p) * w - g * w_p) / (g * g + w * w)
        v = self.vectors(s)
        if k == 0:
            return t_p * v[:, 1]
        return -t_p * v[:, 0]

    def hyperbola(self):
        """Exact gap parameters: gap(s)^2 = dmin^2 + slope_diff^2 (s - s*)^2."""
        d = self.e1 - self.e0
        quad = d * d / 4.0 + self.c**2
        s_star = self.c**2 / quad
        dmin_sq = 4.0 * (self.c**2 - self.c**4 / quad)
        return {
            "s_star": s_star,
            "delta_min": np.sqrt(dmin_sq),
            "slope_difference": 2.0 * np.sqrt(quad),
            "slope_mean": (self.e0 + self.e1) / 2.0,
            "energy_center": s_star * (self.e0 + self.e1) / 2.0,
        }


def projection_identity_entries(h0, h1_diag, s: float, w, v, guard: float):
    """The projection identities entry by entry, from a dense H0 and a
    decomposition (w, v) of H(s): ``energy[i, k]`` is

        E_k - (s E_i(1) - (1-s) <x_i|(-H0)|v_k> / <x_i|v_k>)

    and ``gap[i]`` is Delta - (1-s) (r_i0 - r_i1), with r_ik the same
    neighbour ratio, each neighbour sum a product with one dense row of H0.
    NaN where a component divided by is at or below ``guard``."""
    d, m = v.shape
    energy = np.full((d, m), np.nan)
    gap = np.full(d, np.nan)
    for i in range(d):
        neigh = [-float(h0[i, :] @ v[:, k]) for k in range(m)]
        for k in range(m):
            if abs(v[i, k]) > guard:
                energy[i, k] = w[k] - (s * h1_diag[i] - (1.0 - s) * neigh[k] / v[i, k])
        if abs(v[i, 0]) > guard and abs(v[i, 1]) > guard:
            gap[i] = (w[1] - w[0]) - (1.0 - s) * (neigh[0] / v[i, 0] - neigh[1] / v[i, 1])
    return energy, gap


def _interpolated(h0, h1_diag, s: float) -> np.ndarray:
    """H(s) = (1-s) h0 + s diag(h1_diag), assembled directly."""
    return (1.0 - s) * np.asarray(h0, dtype=float) + s * np.diag(np.asarray(h1_diag, dtype=float))


def level_weights(h0, h1_diag, s: float, members):
    """Final-level weights (a_k, b_k) inside the two lowest vectors of H(s).

    ``members[k]`` lists the basis states of final level k; a_k is its
    squared weight in the ground vector and b_k in the first excited one,
    both from a Jacobi decomposition.
    """
    _, v = jacobi_eigh(_interpolated(h0, h1_diag, s))
    a = np.array([np.sum(v[list(m), 0] ** 2) for m in members])
    b = np.array([np.sum(v[list(m), 1] ** 2) for m in members])
    return a, b


def four_quantity_epsilon(a_star, b_star) -> float:
    """Smallest epsilon with |x - 1/2| <= epsilon for x in a0, a1, b0, b1 at s*."""
    return float(max(abs(x - 0.5) for x in (a_star[0], a_star[1], b_star[0], b_star[1])))


def four_quantity_gamma(a, b, a_star, b_star) -> float:
    """Smallest gamma for which the four-quantity swap clauses hold on a window.

    ``a``/``b`` are the (samples, levels) weight arrays on the window's grid
    points in ascending s.  Clause 1: a0+a1 >= 1-gamma and b0+b1 >= 1-gamma
    on the window and at s*.  Clause 3: at the left end a0, b1 <= gamma and
    a1, b0 >= 1-gamma; at the right end the roles swap.
    """
    sums = np.concatenate([a[:, 0] + a[:, 1], b[:, 0] + b[:, 1]])
    sums = np.append(sums, [a_star[0] + a_star[1], b_star[0] + b_star[1]])
    needed = [1.0 - float(np.min(sums))]
    needed += [a[0, 0], 1.0 - a[0, 1], 1.0 - b[0, 0], b[0, 1]]
    needed += [1.0 - a[-1, 0], a[-1, 1], b[-1, 0], 1.0 - b[-1, 1]]
    return float(max(0.0, max(needed)))


def choi_window_minimum(grid, in_ground, in_excited, s_star: float, a_star, b_star):
    """Brute-force minimum of the four-quantity gamma over symmetric windows.

    Every half-width that is a whole number of grid spacings and keeps the
    window inside the grid is tried; windows holding fewer than two grid
    points are skipped.  Returns (gamma, (lo, hi)) of the first window, in
    order of width, that attains the minimum.
    """
    grid = np.asarray(grid, dtype=float)
    spacing = float(np.median(np.diff(grid)))
    reach = min(s_star - grid[0], grid[-1] - s_star)
    gammas = []
    for m in range(1, int(np.floor(reach / spacing + 1e-9)) + 1):
        lo, hi = s_star - m * spacing, s_star + m * spacing
        inside = (grid >= lo - 1e-15) & (grid <= hi + 1e-15)
        if np.count_nonzero(inside) < 2:
            continue
        gamma = four_quantity_gamma(in_ground[inside], in_excited[inside], a_star, b_star)
        gammas.append((gamma, (lo, hi)))
    if not gammas:
        raise ValueError("no symmetric window holds two grid points")
    best = min(g for g, _ in gammas)
    return next((g, w) for g, w in gammas if g == best)


def first_order_rotation(h0, h1_diag, s: float, solution_index: int):
    """Rotation rate of the two lowest vectors of H(s) and its higher-level part.

    First-order perturbation theory gives
    dv_n/ds = sum_{k != n} <v_k|H1-H0|v_n> / (E_n - E_k) v_k.  The k=1 term of
    dv_0/ds is -beta v_1 and the k=0 term of dv_1/ds is +beta v_0 with
    beta = <v_0|H1-H0|v_1> / (E_1 - E_0); what is left, the sum over k >= 2,
    is returned as norms relative to |beta|.  Gauge: v_0 has positive entry
    sum and v_1 a nonpositive ``solution_index`` entry.

    Returns (beta, higher_ground, higher_excited).
    """
    w, v = jacobi_eigh(_interpolated(h0, h1_diag, s))
    if np.sum(v[:, 0]) < 0:
        v[:, 0] = -v[:, 0]
    if v[solution_index, 1] > 0:
        v[:, 1] = -v[:, 1]
    hdot = np.diag(np.asarray(h1_diag, dtype=float)) - np.asarray(h0, dtype=float)
    m = v.T @ hdot @ v
    beta = m[0, 1] / (w[1] - w[0])
    higher = []
    for n in (0, 1):
        terms = m[2:, n] / (w[n] - w[2:])
        higher.append(float(np.sqrt(np.sum(terms**2))) / abs(beta))
    return float(beta), higher[0], higher[1]


def dense_gap(h0, h1_diag, s: float) -> float:
    """E1 - E0 of H(s) from ``numpy.linalg.eigvalsh``."""
    w = np.linalg.eigvalsh(_interpolated(h0, h1_diag, s))
    return float(w[1] - w[0])


def fine_scan_min_gap(h0, h1_diag, points: int = 4001) -> tuple[float, float]:
    """Gap minimum from ``numpy.linalg.eigvalsh`` gaps on ``points`` evenly
    spaced s and on 1000 more s = 1 - u with u log-spaced from 1e-12 up to
    the even spacing, refined by bounded scalar minimization on the
    cells either side of every local minimum of that grid: the smallest
    gap, and every other one that lies below both neighbours by more than
    the round-off d^2 eps ||H||.  An endpoint wins when nothing inside is
    lower.

    The log-spaced tail is there for dips at s -> 1 narrower than the even
    spacing: where final levels lie within a small alpha, the gap can fall
    to a V far narrower than a cell and saturate at the final splitting
    beside it, a plateau in which a bounded search of the whole cell stops."""
    from scipy.optimize import minimize_scalar

    def gap(s):
        return dense_gap(h0, h1_diag, s)

    spacing = 1.0 / (points - 1)
    ss = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, points), 1.0 - np.geomspace(1e-12, spacing, 1000, endpoint=False)
    ]))
    gaps = np.array([gap(s) for s in ss])
    norm = np.max(np.abs(h0).sum(axis=1)) + np.max(np.abs(h1_diag))
    floor = len(h1_diag) ** 2 * np.finfo(float).eps * norm
    padded = np.concatenate([[np.inf], gaps, [np.inf]])
    below = np.minimum(padded[:-2], padded[2:]) - gaps
    # a tie goes to the last point, s = 1, where H is diagonal and the gap exact
    i_min = len(gaps) - 1 - int(np.argmin(gaps[::-1]))
    best_s, best_g = float(ss[i_min]), float(gaps[i_min])
    for i in sorted({i_min, *np.flatnonzero(below > floor)}):
        # Search the offset from ss[i]: the bounded method's tolerance grows
        # with |x|, so an offset near zero resolves s to about xatol.
        lo, hi = ss[max(i - 1, 0)] - ss[i], ss[min(i + 1, len(ss) - 1)] - ss[i]
        res = minimize_scalar(
            lambda u: gap(ss[i] + u), bounds=(lo, hi), method="bounded", options={"xatol": 1e-12}
        )
        if res.fun < best_g:
            best_s, best_g = float(ss[i] + res.x), float(res.fun)
    return best_s, best_g


def threaded_gauge(solves):
    """The sweep's gauge threaded point by point, from the raw (w, v)
    solves of each grid point in order: the first point's columns get their
    largest-magnitude entry positive; at each later point the columns are
    permuted inside degenerate clusters of w (consecutive values at most
    ``DEGENERACY_RTOL (1 + max|w|)`` apart) to the previous gauged columns
    they overlap most, greedily by |overlap|, and then flipped where their
    overlap with the previous column is negative.  Returns the stacked
    (energies, vectors)."""
    rtol = 1e-9  # spectral.DEGENERACY_RTOL
    energies, vectors, prev = [], [], None
    for w, v in solves:
        w, v = np.array(w, dtype=float), np.array(v, dtype=float)
        if prev is None:
            lead = np.abs(v).argmax(axis=0)
            signs = np.sign(v[lead, np.arange(v.shape[1])])
            signs[signs == 0] = 1.0
            v = v * signs
        else:
            tol = rtol * (1.0 + float(np.max(np.abs(w), initial=0.0)))
            starts = [0] + [i for i in range(1, len(w)) if w[i] - w[i - 1] > tol] + [len(w)]
            for lo, hi in zip(starts[:-1], starts[1:]):
                idx = list(range(lo, hi))
                if len(idx) < 2:
                    continue
                block = np.abs(prev[:, idx].T @ v[:, idx])
                perm, used_rows, used_cols = [-1] * len(idx), set(), set()
                for r, c in np.dstack(np.unravel_index(np.argsort(-block, axis=None), block.shape))[0]:
                    if r in used_rows or c in used_cols:
                        continue
                    perm[r] = c
                    used_rows.add(r)
                    used_cols.add(c)
                take = [idx[c] for c in perm]
                v[:, idx] = v[:, take]
                w[idx] = w[take]
            v[:, np.einsum("ik,ik->k", prev, v) < 0] *= -1.0
        energies.append(w)
        vectors.append(v)
        prev = v
    return np.array(energies), np.array(vectors)


def swap_window_scan(clauses, grid, s_star: float, pairs, extra_epsilon: float):
    """The swap measurement over symmetric windows, one window at a time:
    ``clauses(grid, pairs, lo, hi, extra_epsilon)`` (the library's clause
    evaluation, which raises ValueError on a window of fewer than two grid
    points) on every half-width m * spacing, m = 1, 2, ..., that stays
    inside the grid; the first window of the smallest gamma wins.  With no
    such window: unsatisfied, gamma 1, epsilon the largest of
    ``extra_epsilon`` and the distances of the weights at the point from
    1/2, and the window (s*, s*).  Returns the winning measurement, or the
    tuple (satisfied, gamma, epsilon, window, direction_ok) of the
    fallback."""
    grid = np.asarray(grid, dtype=float)
    spacing = float(np.median(np.diff(grid)))
    reach = min(s_star - grid[0], grid[-1] - s_star)
    best, m = None, 1
    while m * spacing <= reach + 1e-15:
        try:
            cand = clauses(grid, pairs, s_star - m * spacing, s_star + m * spacing, extra_epsilon)
        except ValueError:
            cand = None
        if cand is not None and (best is None or cand.gamma < best.gamma):
            best = cand
        m += 1
    if best is None:
        epsilon = max([extra_epsilon] + [abs(at - 0.5) for pair in pairs for _, at in pair])
        return False, 1.0, float(epsilon), (float(s_star), float(s_star)), False
    return best
