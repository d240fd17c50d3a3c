"""Pairwise reference implementations of the array metric kernels, and the
checks and readers that only the tests use.

These are the straightforward per-pair forms that ``emot`` replaced with
array code: the per-pair quantile W1, adapted W1 built from one pair of
kernel measures at a time, the convex-order minimum that intersects every
pair of affine pieces of the two potentials, the convex-order projection
that walks the running maxima point by point and joins them where they
cross, in exact rational arithmetic so that it carries no rounding atoms,
the quantile cell restriction one atom at a time, and the atom-merge rule
one row at a time.  Tests compare the array code against them.  The
convex-order minimum's oracle reads potentials through
``PiecewiseLinearConvex``, a potential held as breakpoint values with
slopes taken from their differences.
``product_coupling``, the independent coupling, gives tests a coupling to
start from.  ``block_rows_coo`` builds a matrix of row blocks through
scipy's COO-to-CSR conversion: it is the oracle of ``plan_rows``, whose
transport and barycentre rows it builds from their blocks, and the builder
of the reference LPs' matrices.  The VIX bin LP, which
``emot vix`` solved before its exact LP over two-point kernels, is the
bracket oracle: ``vix_bracket`` gives d_lo <= D_sub <= d_hi with gap one bin
width times mu(R), and ``vix_bin_primal_lp`` its portfolio LP.
``refit_lp`` is the CDF-gap LP that refit a cell's kernels before every
approximation cell held one lifted atom; the LP tests keep it as an LP with
both equality and inequality rows.  ``min_displacement`` is the LP over
the martingale polytope that gave the approximation its feasible coupling
and its rearrangement before the inverse-transform coupling; it is the
oracle that coupling's cost is checked against.  ``trim_cell`` and
``project_cell`` are the approximation's stage two one cell at a time,
through the hull-based ``convex_min`` and the window law ``window_kernel``,
as they were before the quantile-slice form; ``window_min`` is the
convex-order minimum of a measure with its window law in exact rational
arithmetic, the answer where the two disagree.  ``binary_kernel`` is the
two-point law the tests build martingale images from.

The tests' own checks follow: the quantile function, closed-form W1
between binary kernels, flat W1 between couplings (the lower bound on
adapted W1), the nesting of shadow barriers, the left-monotone support of
a coupling, and the reader of a stability CSV emission.
"""

import bisect
import csv
import io
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse

from emot import convex_order
from emot.convex_order import _lower_convex_hull, require_convex_order
from emot.couplings import DiscreteCoupling, _point_cost, disintegrate, martingale_polytope_lp
from emot.lp_core import CertificateError, LinearProgram, plan_rows, solve_lp, transport_plan
from emot.measures import MERGE_TOL, DiscreteMeasure, LiftedMeasure, cdf, potential_values
from emot.solvers import BarrierMaps, _log_contract, _support_ends


@dataclass(frozen=True)
class PiecewiseLinearConvex:
    """Convex piecewise-linear function given by breakpoints and values.

    ``left_slope`` and ``right_slope`` are the asymptotic slopes beyond the
    first and last breakpoint.  Slopes are nondecreasing across segments.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    left_slope: float
    right_slope: float

    def __call__(self, ys):
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        b, v = self.breakpoints, self.values
        out = np.empty_like(ys)
        idx = np.searchsorted(b, ys)
        left = idx == 0
        right = idx == len(b)
        out[left] = v[0] + self.left_slope * (ys[left] - b[0])
        out[right] = v[-1] + self.right_slope * (ys[right] - b[-1])
        mid = ~(left | right)
        i = idx[mid]
        frac = (ys[mid] - b[i - 1]) / (b[i] - b[i - 1])
        out[mid] = v[i - 1] + frac * (v[i] - v[i - 1])
        return out if out.size > 1 else float(out[0])

    def slopes(self) -> np.ndarray:
        """Slopes of the n+1 affine pieces, left tail first."""
        seg = np.diff(self.values) / np.diff(self.breakpoints) if len(self.breakpoints) > 1 else np.array([])
        return np.concatenate([[self.left_slope], seg, [self.right_slope]])

    def to_measure(self) -> DiscreteMeasure:
        """Measure whose potential this function is: weight = slope jump / 2."""
        s = self.slopes()
        return DiscreteMeasure(self.breakpoints, np.diff(s) / 2.0)


def potential(m: DiscreteMeasure) -> PiecewiseLinearConvex:
    """Exact piecewise-linear potential function of a discrete measure."""
    if m.is_zero:
        return PiecewiseLinearConvex(np.array([0.0]), np.array([0.0]), 0.0, 0.0)
    vals = potential_values(m, m.atoms)
    return PiecewiseLinearConvex(m.atoms.copy(), vals, -m.mass, m.mass)


def wasserstein_line(m1: DiscreteMeasure, m2: DiscreteMeasure) -> float:
    """Quantile W1 of two equal-mass measures, one pair at a time."""
    c1, c2 = m1.cumulative(), m2.cumulative()
    grid = np.union1d(c1, c2)
    grid = grid[grid <= min(c1[-1], c2[-1]) + 1e-12]
    seg = np.diff(np.concatenate([[0.0], grid]))
    q1 = m1.atoms[np.clip(np.searchsorted(c1, grid - 1e-15, side="left"), 0, len(m1) - 1)]
    q2 = m2.atoms[np.clip(np.searchsorted(c2, grid - 1e-15, side="left"), 0, len(m2) - 1)]
    return float(np.dot(np.abs(q1 - q2), seg))


def adapted_wasserstein(c1: DiscreteCoupling, c2: DiscreteCoupling) -> float:
    """Adapted W1 with the nested kernel cost filled one pair at a time."""
    n1, n2 = len(c1.first_marginal), len(c2.first_marginal)
    cost = np.zeros((n1, n2))
    for i in range(n1):
        ki = DiscreteMeasure(c1.y_support, c1.kernels[i])
        for j in range(n2):
            inner = wasserstein_line(ki, DiscreteMeasure(c2.y_support, c2.kernels[j]))
            dx = abs(c1.first_marginal.xs[i] - c2.first_marginal.xs[j])
            du = abs(c1.first_marginal.us[i] - c2.first_marginal.us[j])
            cost[i, j] = dx + du + inner
    _, value = transport_plan(cost, c1.first_marginal.weights, c2.first_marginal.weights)
    return float(value)


def product_coupling(mu_bar: LiftedMeasure, nu: DiscreteMeasure) -> DiscreteCoupling:
    nu = nu.scaled(1 / nu.mass) if abs(nu.mass - 1.0) > 1e-12 else nu
    K = np.tile(nu.weights / nu.mass, (len(mu_bar), 1))
    return DiscreteCoupling(mu_bar, nu.atoms, K)


def block_rows_coo(blocks, shape) -> sparse.csr_array:
    """CSR matrix of row blocks (coef, row0, steps) in one ``csr_array`` call
    from COO triplets: with ``coef`` of shape (k, r, m), row row0 + q*r + s
    carries coef[q, s, t] in column q*steps[0] + t*steps[1], steps None
    meaning (m, 1), block q's own m columns.  A cell written twice holds the
    sum, and zeros are not stored."""
    data, rows, cols = [], [], []
    for coef, row0, steps in blocks:
        coef = np.asarray(coef, dtype=float)
        k, r, m = coef.shape
        q_step, t_step = steps or (m, 1)
        at = q_step * np.arange(k)[:, None, None] + t_step * np.arange(m)
        data.append(coef.ravel())
        rows.append(np.repeat(row0 + np.arange(k * r), m))
        cols.append(np.broadcast_to(at, coef.shape).ravel())
    data, rows, cols = map(np.concatenate, (data, rows, cols))
    keep = data != 0
    return sparse.csr_array((data[keep], (rows[keep], cols[keep])), shape=shape)


def convex_min(rho: DiscreteMeasure, q: DiscreteMeasure) -> DiscreteMeasure:
    """Convex-order minimum with crossings found by intersecting every pair
    of affine pieces of the two potentials."""
    u1, u2 = potential(rho), potential(q)
    cand = set(np.concatenate([rho.atoms, q.atoms]).tolist())
    b1 = np.concatenate([[-np.inf], u1.breakpoints, [np.inf]])
    b2 = np.concatenate([[-np.inf], u2.breakpoints, [np.inf]])
    s1, s2 = u1.slopes(), u2.slopes()
    lo_all = min(rho.atoms[0], q.atoms[0])
    hi_all = max(rho.atoms[-1], q.atoms[-1])
    for i in range(len(s1)):
        for j in range(len(s2)):
            if s1[i] == s2[j]:
                continue
            y1 = u1.breakpoints[min(i, len(u1.breakpoints) - 1)]
            a1 = u1(y1) - s1[i] * y1
            y2 = u2.breakpoints[min(j, len(u2.breakpoints) - 1)]
            a2 = u2(y2) - s2[j] * y2
            y = (a2 - a1) / (s1[i] - s2[j])
            if (
                max(b1[i], b2[j]) - 1e-12 <= y <= min(b1[i + 1], b2[j + 1]) + 1e-12
                and lo_all - 1e-12 <= y <= hi_all + 1e-12
            ):
                cand.add(float(y))
    xs = np.array(sorted(cand))
    span = max(1.0, hi_all - lo_all)
    xs = xs[np.concatenate([[True], np.diff(xs) > 1e-11 * span])]
    h = np.minimum(potential_values(rho, xs), potential_values(q, xs))
    hx, hy = _lower_convex_hull(xs, h)
    m = rho.mass
    seg = np.diff(hy) / np.diff(hx) if len(hx) > 1 else np.array([])
    weights = np.diff(np.concatenate([[-m], seg, [m]])) / 2.0
    return DiscreteMeasure(hx, np.maximum(weights, 0.0))


def binary_kernel(x: float, l: float, r: float) -> DiscreteMeasure:
    """The unique probability on {l, r} with barycentre x; Dirac when degenerate."""
    if not (l <= x <= r):
        raise ValueError(f"need l <= x <= r, got l={l}, x={x}, r={r}")
    if l < x < r:
        return DiscreteMeasure([l, r], [(r - x) / (r - l), (x - l) / (r - l)])
    return DiscreteMeasure([x], [1.0])


def window_kernel(x: float, a: float, b: float) -> DiscreteMeasure:
    """Binary window measure q^m_x: B(x, a, b) when x is inside, else a Dirac."""
    if a < x < b:
        return binary_kernel(x, a, b)
    return DiscreteMeasure([x], [1.0])


def trim_cell(x: float, nu_j: DiscreteMeasure, am, bm) -> DiscreteMeasure:
    """Second marginal of the cell at base atom x after capping its kernel
    by the window kernel: inside the window its convex-order minimum with
    the two-point window law, outside a Dirac at x."""
    if am <= x <= bm:
        return convex_order.convex_min(nu_j, window_kernel(x, am, bm).scaled(nu_j.mass))
    return DiscreteMeasure([x], [nu_j.mass])


def project_cell(x, xp, q, t, am, bm, eps):
    """Stage-two mix for one cell, as unmerged (atoms, weights): move the
    trimmed base marginal t, which lies in the window, to mean xp, cap it
    with the window kernel, and blend with an eps share of q delta_xp.
    Every law of mean xp dominates delta_xp, so the moved kernel is the
    projection of delta_xp onto t.  A perturbed atom outside the window
    keeps q delta_xp, and a base atom outside it leaves delta_xp to blend."""
    if not am <= xp <= bm:
        return [xp], [q]
    if am <= x <= bm:
        moved = DiscreteMeasure(t.atoms + (xp - t.first_moment() / t.mass), t.weights / t.mass)
        hat = convex_order.convex_min(moved, window_kernel(xp, am, bm))
    else:
        hat = DiscreteMeasure([xp], [1.0])
    return np.append(hat.atoms, xp), np.append(hat.weights * q * (1.0 - eps), q * eps)


def window_min(rho: DiscreteMeasure, a: float, b: float) -> DiscreteMeasure:
    """Convex-order minimum of rho and m B(x, a, b), m and x rho's mass and
    mean, in exact rational arithmetic from the float inputs: the lower
    convex hull of min(u_rho, u_B) over rho's atoms and a, b, where its kinks
    lie, and half its slope jumps as the weights; only the returned atoms
    and weights are rounded."""
    ys, ws = [Fraction(y) for y in rho.atoms], [Fraction(w) for w in rho.weights]
    lo, hi = Fraction(a), Fraction(b)
    m = sum(ws)
    x = sum(y * w for y, w in zip(ys, ws)) / m
    grid = sorted(set(ys) | {lo, hi})
    law = _exact_potential([lo, hi], [m * (hi - x) / (hi - lo), m * (x - lo) / (hi - lo)], grid)
    pts = list(zip(grid, map(min, _exact_potential(ys, ws, grid), law)))
    hull = []
    for p in pts:
        while len(hull) >= 2 and (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1]) <= (
                p[0] - hull[-2][0]) * (hull[-1][1] - hull[-2][1]):
            hull.pop()
        hull.append(p)
    slopes = [-m] + [(v1 - v0) / (g1 - g0) for (g0, v0), (g1, v1) in zip(hull, hull[1:])] + [m]
    return DiscreteMeasure([float(g) for g, _ in hull], [float(s1 - s0) / 2 for s0, s1 in zip(slopes, slopes[1:])])


def _running_max_points(xs, gs) -> list:
    """Kink points (x, value) of y -> max_{z<=y} g(z), g piecewise linear
    through (xs, gs); exact when the inputs are ``Fraction``s."""
    pts = [(xs[0], gs[0])]
    m = gs[0]
    for i in range(len(xs) - 1):
        x0, x1, g0, g1 = xs[i], xs[i + 1], gs[i], gs[i + 1]
        if g1 > m:
            if g0 < m:  # the segment crosses the current running maximum
                xc = x0 + (m - g0) / (g1 - g0) * (x1 - x0)
                pts.append((xc, m))
            m = g1
        pts.append((x1, m))
    return pts


def _exact_potential(atoms, weights, ys) -> list:
    """y -> sum_i w_i |y - x_i| at each y, in the inputs' arithmetic."""
    return [sum(w * abs(y - x) for x, w in zip(atoms, weights)) for y in ys]


def _interp(pts, g):
    """Value at g of the piecewise-linear function through the increasing
    kink points ``pts``, constant beyond them."""
    k = bisect.bisect_right([p[0] for p in pts], g)
    if k in (0, len(pts)):
        return pts[min(k, len(pts) - 1)][1]
    (x0, v0), (x1, v1) = pts[k - 1], pts[k]
    return v0 + (g - x0) / (x1 - x0) * (v1 - v0)


def convex_order_projection(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """W1 projection of nu onto the measures dominating mu, in exact rational
    arithmetic from the float inputs; only the returned atoms and weights are
    rounded.  nu is scaled to mu's mass and shifted to its mean.  The clipped
    potential gap (u_mu - u_nu)^+ is interpolated between the atoms, and its
    envelope min(left running max, right running max) is evaluated on a grid
    that holds every kink of both and every crossing of the two; the weights
    are half the slope jumps of u_nu plus the envelope."""
    mu_x, mu_w = [Fraction(a) for a in mu.atoms], [Fraction(w) for w in mu.weights]
    nu_x, nu_w = [Fraction(a) for a in nu.atoms], [Fraction(w) for w in nu.weights]
    m, m_nu = sum(mu_w), sum(nu_w)
    shift = sum(x * w for x, w in zip(mu_x, mu_w)) / m - sum(y * w for y, w in zip(nu_x, nu_w)) / m_nu
    nu_x, nu_w = [y + shift for y in nu_x], [w * m / m_nu for w in nu_w]
    xs = sorted(set(mu_x) | set(nu_x))
    gap = [max(a - b, 0) for a, b in zip(_exact_potential(mu_x, mu_w, xs), _exact_potential(nu_x, nu_w, xs))]
    left = _running_max_points(xs, gap)
    right = [(-x, v) for x, v in _running_max_points([-x for x in xs[::-1]], gap[::-1])][::-1]
    grid = sorted(set(xs) | {p[0] for p in left + right})
    diff = [_interp(left, g) - _interp(right, g) for g in grid]
    cross = {g0 + d0 / (d0 - d1) * (g1 - g0)
             for g0, g1, d0, d1 in zip(grid, grid[1:], diff, diff[1:]) if d0 * d1 < 0}
    grid = sorted(set(grid) | cross)
    u = [p + min(_interp(left, g), _interp(right, g)) for p, g in zip(_exact_potential(nu_x, nu_w, grid), grid)]
    slopes = [-m] + [(u1 - u0) / (g1 - g0) for g0, g1, u0, u1 in zip(grid, grid[1:], u, u[1:])] + [m]
    weights = [(s1 - s0) / 2 for s0, s1 in zip(slopes, slopes[1:])]
    assert min(weights) >= 0, "the projected potential is not convex"
    keep = [k for k, w in enumerate(weights) if w > 0]
    return DiscreteMeasure([float(grid[k]) for k in keep], [float(weights[k]) for k in keep])


def cell_restriction(m: DiscreteMeasure, q_lo: float, q_hi: float) -> DiscreteMeasure:
    """Submeasure of m carrying the quantile mass of (q_lo, q_hi]."""
    cum = np.concatenate([[0.0], m.cumulative()])
    atoms, weights = [], []
    for i, a in enumerate(m.atoms):
        w = min(cum[i + 1], q_hi) - max(cum[i], q_lo)
        if w > 0:
            atoms.append(a)
            weights.append(w)
    return DiscreteMeasure(atoms, weights)


def _chains(values, weights, rows) -> list:
    """The rows, sorted by (value, weight), cut where a value is more than
    MERGE_TOL above the one before it."""
    chains, prev = [], None
    for i in sorted(rows, key=lambda i: (values[i], weights[i])):
        if prev is None or values[i] - prev > MERGE_TOL:
            chains.append([])
        chains[-1].append(i)
        prev = values[i]
    return chains


def _position(values, weights, chain) -> float:
    first = values[chain[0]]
    return first + sum(weights[i] * (values[i] - first) for i in chain) / sum(weights[i] for i in chain)


def merge_atoms(keys, weights):
    """Atoms and weights of the merge rule, one row at a time: points merge
    along chains, (x, u) rows by x first and then by u at each x."""
    keys, weights = np.asarray(keys, dtype=float), list(weights)
    xs = (keys if keys.ndim == 1 else keys[:, 0]).tolist()
    us = None if keys.ndim == 1 else keys[:, 1].tolist()
    atoms, masses = [], []
    for x_chain in _chains(xs, weights, range(len(xs))):
        x = _position(xs, weights, x_chain)
        if us is None:
            atoms.append(x)
            masses.append(sum(weights[i] for i in x_chain))
            continue
        for u_chain in _chains(us, weights, x_chain):
            atoms.append((x, _position(us, weights, u_chain)))
            masses.append(sum(weights[i] for i in u_chain))
    return np.array(atoms), np.array(masses)


def refit_lp(base_kernel: DiscreteMeasure, mu_bar_piece: LiftedMeasure, nu_piece: DiscreteMeasure) -> LinearProgram:
    """Kernels K over nu_piece for the lifted atoms of mu_bar_piece, with the
    marginal nu_piece, that minimise the weighted L1 gap t between each
    kernel's CDF and the base kernel's on the union grid.  Variables: K
    (n*m), then t (n*L); per i a unit-mass row and a barycentre row, then per
    (i, l) the pair +-(CDF of K_i at grid[l]) - t_il <= +-F_base(grid[l])."""
    ys = nu_piece.atoms
    n, m = len(mu_bar_piece), ys.size
    grid = np.unique(np.concatenate([base_kernel.atoms, ys]))
    gaps = np.diff(grid)
    L = gaps.size
    w, xs, sgn = mu_bar_piece.weights, mu_bar_piece.xs, np.array([1.0, -1.0])
    eq = [(np.stack([np.ones((n, m)), ys[None, :] - xs[:, None]], axis=1), 0, None),
          (np.broadcast_to(w, (m, 1, n)), 2 * n, (1, m))]
    k_cdf = sgn[None, :, None] * (ys[None, None, :] <= grid[:L, None, None] + 1e-12)
    k_rows = [(np.broadcast_to(k_cdf.reshape(2 * L, m), (n, 2 * L, m)), 0, None)]
    A_ub = sparse.hstack([block_rows_coo(k_rows, (2 * n * L, n * m)),
                          sparse.kron(sparse.eye_array(n * L), -np.ones((2, 1)))], format="csr")
    return LinearProgram(
        c=np.concatenate([np.zeros(n * m), (w[:, None] * gaps).ravel()]),
        A_eq=block_rows_coo(eq, (2 * n + m, n * m + n * L)),
        b_eq=np.concatenate([np.tile([1.0, 0.0], n), nu_piece.weights / nu_piece.mass * mu_bar_piece.mass]),
        A_ub=A_ub,
        b_ub=np.tile((cdf(base_kernel, grid)[:L, None] * sgn).ravel(), n),
    )


def min_displacement(mu_bar: LiftedMeasure, nu: DiscreteMeasure):
    """Plan, with rows aligned to mu_bar's atoms, and value of the minimal
    mean-displacement member of Pi_M(mu_bar, nu)."""
    cost = np.abs(nu.atoms[None, :] - mu_bar.xs[:, None])
    sol = solve_lp(martingale_polytope_lp(mu_bar, nu, cost=cost.ravel()))
    return sol.x.reshape(cost.shape), sol.value


# -- the VIX bin LP: a bracket [d_lo, d_hi] around the exact VIX value ------


def vix_bin_edges(mu: DiscreteMeasure, nu: DiscreteMeasure, tau: float, bins: int) -> np.ndarray:
    L = _log_contract(mu.atoms, nu.atoms, tau)
    u_max = float(np.sqrt(max(L.max(), 0.0)))
    return np.linspace(0.0, u_max, bins + 1)


def vix_bin_lp(mu, nu, tau, edges):
    """Martingale polytope over (i, bin, j) with two bin-range rows per (i, bin),
    pricing the label at the lower bin edge."""
    n, m, nb = len(mu), len(nu), len(edges) - 1
    L = _log_contract(mu.atoms, nu.atoms, tau)
    # float_power squares the edges with pow()'s rounding, which the bin rows use
    lo2, hi2 = np.float_power(edges[:-1], 2)[None, :, None], np.float_power(edges[1:], 2)[None, :, None]
    low_high = np.stack([lo2 - L[:, None, :], L[:, None, :] - hi2], axis=2).reshape(n * nb, 2, m)
    return LinearProgram(
        c=np.tile(np.repeat(edges[:-1], m), n),
        A_eq=plan_rows(n, m, nb, mart=nu.atoms[None, :] - mu.atoms[:, None]),
        b_eq=np.concatenate([mu.weights, nu.weights, np.zeros(n * nb)]),
        A_ub=block_rows_coo([(low_high, 0, None)], (2 * n * nb, n * nb * m)),
        b_ub=np.zeros(2 * n * nb),
    )


def vix_bracket(mu: DiscreteMeasure, nu: DiscreteMeasure, tau: float, bins: int):
    """Two-sided bracket of the VIX subreplication dual value, and its portfolio.

    The information label is the future VIX level u with the constraint
    that the conditional log-contract moment equals u^2.  Binning u into
    intervals relaxes the equality to the bin's square range; pricing the
    label at the lower (resp. upper) bin edge gives d_lo <= D_sub <= d_hi
    with gap at most one bin width.  Only the lower-edge LP is solved: the
    edges are equally spaced, so the upper-edge cost is the lower-edge cost
    plus the bin width on every variable, and every feasible plan has mass
    mu(R); the same plan is optimal for both, and d_hi = d_lo + width mu(R).

    The result also carries the subreplicating portfolio, with the keys of
    ``vix_bin_primal_lp`` (the bin LP's exact dual), read from this solve's duals:
    phi, psi, delta_s from the mass and barycentre rows, alpha, beta >= 0
    (delta_l = alpha - beta) from the bin-range rows, and its ``p_value``.  phi(x) is lowered by the worst excess of its inequalities,
    so that every one holds and ``p_value`` = mu(phi) + nu(psi) <= D_sub by
    weak duality; an excess above 1e-6 max(1, max cost) is a ``CertificateError``.
    """
    require_convex_order(mu, nu)
    edges = vix_bin_edges(mu, nu, tau, bins)
    n, m, nb = len(mu), len(nu), len(edges) - 1
    lp = vix_bin_lp(mu, nu, tau, edges)
    sol = solve_lp(lp)
    # HiGHS's duals are dual feasible to 1e-7 on its scaled LP, so a sign or an inequality may be
    # off (by up to 7.9e-8 seen); duals off by more than 1e-6 are not an optimal solve's
    y, z = sol.duals_eq, np.minimum(sol.duals_ub, 0.0)
    excess = (lp.A_eq.T @ y + lp.A_ub.T @ z - lp.c).reshape(n, nb * m).max(axis=1)
    if excess.max() > 1e-6 * max(1.0, float(lp.c.max())):
        raise CertificateError(f"VIX portfolio from the bin-LP duals breaks an inequality by {excess.max():.3g}")
    plan = sol.x.reshape(n, nb, m)
    i, b, j = np.nonzero(plan > 1e-14)
    mids = 0.5 * (edges[:-1] + edges[1:])
    coupling, _ = disintegrate(np.column_stack([mu.atoms[i], mids[b], nu.atoms[j], plan[i, b, j]]))
    d_hi = sol.value + (edges[-1] - edges[0]) / bins * mu.mass
    phi, psi, delta_s = np.split(y, [n, n + m])
    phi = phi - np.maximum(excess, 0.0)  # every column of atom x has coefficient 1 on phi(x)
    return {"d_lo": sol.value, "d_hi": d_hi, "edges": edges, "coupling": coupling,
            "p_value": float(mu.weights @ phi + nu.weights @ psi), "phi": phi, "psi": psi,
            "delta_s": delta_s.reshape(n, nb), "delta_l": (z[1::2] - z[0::2]).reshape(n, nb)}


def vix_bin_primal_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, tau: float, u_grid: np.ndarray):
    """Subreplicating-portfolio LP certificate for the VIX lower bound.

    ``u_grid`` holds the bin edges of the matching ``vix_bracket`` call.
    Maximizes mu(phi) + nu(psi) over static positions phi, psi, per-bin
    stock deltas Delta_S and nonnegative log-contract positions alpha,
    beta (net log delta Delta_L = alpha - beta) subject to the
    subreplication constraint at every (x, bin, y).  This is the exact LP
    dual of the lower-edge bin LP, so the value equals d_lo.  ``vix_bracket``
    reads this portfolio from its duals instead.
    """
    edges = np.asarray(u_grid, dtype=float)
    n, m, nb = len(mu), len(nu), edges.size - 1
    # variables: phi (n, free), psi (m, free), delta (n*nb, free),
    #            alpha (n*nb, >=0), beta (n*nb, >=0); one row per bin-LP variable
    dual = vix_bin_lp(mu, nu, tau, edges)
    A_ub = sparse.hstack([dual.A_eq.T, -dual.A_ub[0::2].T, -dual.A_ub[1::2].T], format="csr")
    c = np.concatenate([dual.b_eq, np.zeros(2 * n * nb)])
    bounds = [(None, None)] * (n + m + n * nb) + [(0, None)] * (2 * n * nb)
    sol = solve_lp(LinearProgram(c=c, A_ub=A_ub, b_ub=dual.c, bounds=bounds, sense="max"))
    phi, psi, delta_s, alpha, beta = np.split(sol.x, np.cumsum([n, m, n * nb, n * nb]))
    return {"p_value": sol.value, "phi": phi, "psi": psi, "delta_s": delta_s.reshape(n, nb),
            "delta_l": (alpha - beta).reshape(n, nb)}


# -- checks and readers only the tests use --------------------------------


def quantile(m: DiscreteMeasure, q):
    """Generalized inverse of the CDF of m: the right-continuous step function
    with Q(q) = atom_i for q in (c_{i-1}, c_i], c the cumulative weights."""
    idx = np.searchsorted(m.cumulative(), np.asarray(q, dtype=float), side="left")
    return m.atoms[np.clip(idx, 0, len(m) - 1)]


def w1_binary(x: float, y: float, z: float, yk: float, zk: float) -> float:
    """Closed-form W1 between the binary kernels B(x, yk, zk) and B(x, y, z)."""
    if not (y <= x <= z and yk <= x <= zk):
        raise ValueError("orderings y <= x <= z and yk <= x <= zk required")
    degenerate = (y == x == z) or (yk == x == zk)
    if degenerate:
        return wasserstein_line(binary_kernel(x, y, z), binary_kernel(x, yk, zk))
    py = (z - x) / (z - y)
    pk = (zk - x) / (zk - yk)
    return (
        min(py, pk) * abs(y - yk)
        + max(py - pk, 0.0) * (zk - y)
        + max(pk - py, 0.0) * (z - yk)
        + min(1.0 - py, 1.0 - pk) * abs(z - zk)
    )


def wasserstein_coupling(c1: DiscreteCoupling, c2: DiscreteCoupling) -> float:
    """Flat W1 between joint measures with the product metric on R x U x R."""
    j1, j2 = c1.joint(), c2.joint()
    _, value = transport_plan(_point_cost(j1[:, :3], j2[:, :3]), j1[:, 3], j2[:, 3])
    return float(value)


def barrier_monotonicity_violation(bm: BarrierMaps, tol: float = 1e-9) -> float:
    """Mass violating the nesting T1 nonincreasing / T2 nondecreasing in u.

    For each x and each adjacent label pair v < u the intervals
    [T1(x, v), T2(x, v)] must sit inside [T1(x, u), T2(x, u)].
    """
    order = np.lexsort((bm.atoms[:, 1], bm.atoms[:, 0]))
    a, b = order[:-1], order[1:]
    # label at b is larger: its interval must contain the one at a
    bad = (bm.atoms[a, 0] == bm.atoms[b, 0]) & ((bm.t1[b] > bm.t1[a] + tol) | (bm.t2[b] < bm.t2[a] - tol))
    return float(bm.weights[b[bad]].sum())


def proj13(c: DiscreteCoupling) -> DiscreteCoupling:
    """Forget the information label: coupling of (x marginal, nu)."""
    fm = c.first_marginal
    xs, row = np.unique(fm.xs, return_inverse=True)
    w = np.zeros(xs.size)
    K = np.zeros((xs.size, c.y_support.size))
    np.add.at(w, row, fm.weights)
    np.add.at(K, row, fm.weights[:, None] * c.kernels)
    flat = LiftedMeasure(np.column_stack([xs, np.zeros(xs.size)]), w)
    return DiscreteCoupling(flat, c.y_support, K / w[:, None])


def left_monotone_violation(c: DiscreteCoupling, tol: float = 1e-10) -> float:
    """Mass breaking the left-monotone support pattern of proj_{1,3}.

    A violation is a point y' of the kernel at x' landing strictly
    between two support points of the kernel at some x < x'.
    """
    flat = proj13(c)
    xs, ys = flat.first_marginal.xs, flat.y_support
    on, lo, hi = _support_ends(flat, tol)
    # inside[i, j]: y_j lies strictly between the support ends of the kernel
    # at x_i, farther than tol from each of its support points
    near = on @ (np.abs(ys[:, None] - ys[None, :]) <= tol)
    inside = (on.sum(axis=1) >= 2)[:, None] & (lo[:, None] + tol < ys) & (ys < hi[:, None] - tol) & ~near
    hit = (xs[None, :] < xs[:, None] - tol) @ inside
    return float((flat.first_marginal.weights[:, None] * flat.kernels)[on & hit].sum())


def report_from_csv(text: str) -> list:
    """Rows parsed back from a stability CSV emission (floats restored exactly)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = []
    for rec in reader:
        row = {}
        for key, val in zip(header, rec):
            if val == "":
                row[key] = None
            elif key in ("status", "reason"):
                row[key] = val
            else:
                row[key] = float(val)
        rows.append(row)
    return rows
