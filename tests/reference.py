"""Pairwise reference implementations of the array metric kernels.

These are the straightforward per-pair forms that ``emot`` replaced with
array code: the per-pair quantile W_p, adapted W_p built from one pair of
kernel measures at a time, and the convex-order minimum that intersects
every pair of affine pieces of the two potentials.  Tests compare the
array code against them.
"""

import numpy as np

from emot.convex_order import _lower_convex_hull, potential
from emot.couplings import DiscreteCoupling
from emot.lp_core import transport_plan
from emot.measures import DiscreteMeasure, potential_values


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
