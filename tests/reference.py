"""Pairwise reference implementations of the array metric kernels.

These are the straightforward per-pair forms that ``emot`` replaced with
array code: the per-pair quantile W_p, adapted W_p built from one pair of
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
start from, and ``block_rows_coo`` is the constraint-matrix builder that
went through scipy's COO-to-CSR conversion.
"""

import bisect
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse

from emot.convex_order import _lower_convex_hull
from emot.couplings import DiscreteCoupling
from emot.lp_core import transport_plan
from emot.measures import MERGE_TOL, DiscreteMeasure, LiftedMeasure, QuantileView, potential_values


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


def wasserstein_line(m1: DiscreteMeasure, m2: DiscreteMeasure, p: float = 1.0) -> float:
    """Quantile W_p of two equal-mass measures, one pair at a time."""
    c1, c2 = m1.cumulative(), m2.cumulative()
    grid = np.union1d(c1, c2)
    grid = grid[grid <= min(c1[-1], c2[-1]) + 1e-12]
    seg = np.diff(np.concatenate([[0.0], grid]))
    q1 = m1.atoms[np.clip(np.searchsorted(c1, grid - 1e-15, side="left"), 0, len(m1) - 1)]
    q2 = m2.atoms[np.clip(np.searchsorted(c2, grid - 1e-15, side="left"), 0, len(m2) - 1)]
    if p == 1:
        return float(np.dot(np.abs(q1 - q2), seg))
    return float(np.dot(np.abs(q1 - q2) ** p, seg) ** (1.0 / p))


def adapted_wasserstein(c1: DiscreteCoupling, c2: DiscreteCoupling, p: float = 1.0) -> float:
    """Adapted W_p with the nested kernel cost filled one pair at a time."""
    n1, n2 = len(c1.first_marginal), len(c2.first_marginal)
    cost = np.zeros((n1, n2))
    for i in range(n1):
        ki = c1.kernel_measure(i)
        for j in range(n2):
            inner = wasserstein_line(ki, c2.kernel_measure(j), p)
            dx = abs(c1.first_marginal.xs[i] - c2.first_marginal.xs[j])
            du = abs(c1.first_marginal.us[i] - c2.first_marginal.us[j])
            cost[i, j] = dx ** p + du ** p + inner ** p
    _, value = transport_plan(cost, c1.first_marginal.weights, c2.first_marginal.weights)
    return float(value ** (1.0 / p))


def product_coupling(mu_bar: LiftedMeasure, nu: DiscreteMeasure) -> DiscreteCoupling:
    nu = nu.normalized() if abs(nu.mass - 1.0) > 1e-12 else nu
    K = np.tile(nu.weights / nu.mass, (len(mu_bar), 1))
    return DiscreteCoupling(mu_bar, nu.atoms, K)


def block_rows_coo(blocks, shape) -> sparse.csr_array:
    """CSR matrix of row blocks in one ``csr_array`` call; zeros are not stored."""
    data, rows, cols = [], [], []
    for coef, row0, col0, steps in blocks:
        coef = np.asarray(coef, dtype=float)
        k, r, m = coef.shape
        q_step, t_step = steps or (m, 1)
        at = col0 + q_step * np.arange(k)[:, None, None] + t_step * np.arange(m)
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
    cum = np.concatenate([[0.0], QuantileView(m).cum])
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
