"""Solvers for martingale transport problems on the line.

By LP: plain and information-lifted martingale optimal transport, convex
kernel costs by Frank-Wolfe, two-period American option pricing, and the
exact VIX subreplication value, one LP over two-point kernels, with its
subreplicating portfolio.  With no LP: shadow couplings (the shadow LP is
the tests' oracle), and barrier maps.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import sparse

from .convex_order import require_convex_order
from .couplings import DiscreteCoupling, coupling_from_plan, disintegrate, martingale_polytope_lp
from .lp_core import CertificateError, LinearProgram, plan_rows, solve_lp
from .measures import DiscreteMeasure, LiftedMeasure, cell_masses

MAX_FW_ITER = 500


@dataclass
class CostSpec:
    """Integrand cost c(x, u, y), optionally with a kernel-level functional.

    ``fn(x, u, ys)`` returns the per-y cost row.  For convex minimization
    over kernels, ``kernel_cost(x, u, ys, k)`` evaluates C(x, u, rho) on a
    kernel weight vector k and ``kernel_grad`` returns its per-y
    derivative; the gradient is validated against finite differences.
    """

    fn: Optional[Callable] = None
    kernel_cost: Optional[Callable] = None
    kernel_grad: Optional[Callable] = None


# named costs, the choices of the CLI's --cost flags
COSTS = {
    "abs": lambda x, u, ys: np.abs(ys - x),
    "square": lambda x, u, ys: np.asarray(ys) ** 2,
    "root": lambda x, u, ys: np.sqrt(1.0 + np.asarray(ys) ** 2),
    "shadow": lambda x, u, ys: (1.0 - u) * np.sqrt(1.0 + np.asarray(ys) ** 2),
    "uy": lambda x, u, ys: u * np.asarray(ys),
}

KERNEL_COSTS = {
    "meanabs_sq": CostSpec(
        kernel_cost=lambda x, u, ys, k: float(np.dot(np.abs(ys), k)) ** 2,
        kernel_grad=lambda x, u, ys, k: 2.0 * float(np.dot(np.abs(ys), k)) * np.abs(ys),
    ),
    "variance": CostSpec(
        kernel_cost=lambda x, u, ys, k: float(np.dot(ys**2, k)) - float(np.dot(ys, k)) ** 2,
        kernel_grad=lambda x, u, ys, k: np.asarray(ys) ** 2 - 2.0 * float(np.dot(ys, k)) * np.asarray(ys),
    ),
}


@dataclass(frozen=True)
class BarrierMaps:
    """Per-atom barrier pair (T1, T2) with T1 <= x <= T2."""

    atoms: np.ndarray  # (n, 2) of (x, u)
    weights: np.ndarray
    t1: np.ndarray
    t2: np.ndarray


def solve_extended_mot(mu_bar: LiftedMeasure, nu: DiscreteMeasure, cost: CostSpec, sense: str = "min",
                       start=None):
    """Linear martingale transport over the lifted polytope Pi_M(mu_bar, nu).

    The result carries the LP's "basis"; given as ``start`` to the solve of
    a pair of the same sizes, it starts HiGHS's dual simplex there (see
    ``solve_lp``)."""
    require_convex_order(mu_bar.x_marginal(), nu)
    C = np.array([cost.fn(x, u, nu.atoms) for x, u in mu_bar.atoms], dtype=float).reshape(len(mu_bar), len(nu))
    lp = martingale_polytope_lp(mu_bar, nu, cost=C)
    lp.sense = sense
    sol = solve_lp(lp, start)
    return {"value": sol.value, "coupling": coupling_from_plan(mu_bar, nu, sol.x), "basis": sol.basis}


def solve_mot(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec, sense: str = "min", start=None):
    """Martingale optimal transport between plain measures on the line."""
    return solve_extended_mot(LiftedMeasure.from_measure(mu), nu, cost, sense, start)


def _golden_section(f) -> float:
    """Minimizer of a unimodal f on [0, 1], to within 1e-10."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-10:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def solve_wmot_fw(mu_bar: LiftedMeasure, nu: DiscreteMeasure, cost: CostSpec, tol: float = 1e-8):
    """Convex kernel-cost martingale transport by Frank-Wolfe.

    Minimizes sum_i w_i C(x_i, u_i, K_i) over kernels K of couplings in
    Pi_M(mu_bar, nu).  The linear minimization oracle is the lifted LP
    with the current gradient as cost; steps use exact golden-section
    line search with a 2/(k+2) fallback.  Stops when the Frank-Wolfe gap
    certificate drops below ``tol``, or after ``MAX_FW_ITER`` iterations.
    """
    require_convex_order(mu_bar.x_marginal(), nu)
    ys = nu.atoms
    w = mu_bar.weights

    def objective(plan):
        K = plan / w[:, None]
        return sum(
            w[i] * cost.kernel_cost(mu_bar.xs[i], mu_bar.us[i], ys, K[i])
            for i in range(len(mu_bar))
        )

    def gradient(plan):
        K = plan / w[:, None]
        return np.array(
            [cost.kernel_grad(mu_bar.xs[i], mu_bar.us[i], ys, K[i]) for i in range(len(mu_bar))]
        )

    plan = solve_lp(martingale_polytope_lp(mu_bar, nu)).x.reshape(len(mu_bar), len(nu))

    _check_gradient(cost, mu_bar, ys, plan / w[:, None])

    fw_gap, k = np.inf, -1  # with MAX_FW_ITER = 0 the feasible start is returned uncertified
    for k in range(MAX_FW_ITER):
        G = gradient(plan)
        S = solve_lp(martingale_polytope_lp(mu_bar, nu, cost=G)).x.reshape(plan.shape)
        fw_gap = float(np.sum(G * (plan - S)))
        if fw_gap <= tol:
            break
        D = S - plan
        t = _golden_section(lambda t: objective(plan + t * D))
        if objective(plan + t * D) > objective(plan):
            t = 2.0 / (k + 2.0)
        plan = plan + t * D
    return {
        "value": float(objective(plan)),
        "coupling": coupling_from_plan(mu_bar, nu, plan.ravel()),
        "fw_gap": fw_gap,
        "iterations": k + 1,
    }


def _check_gradient(cost: CostSpec, mu_bar: LiftedMeasure, ys: np.ndarray, K: np.ndarray):
    """Compare the gradient oracle with central differences of step 1e-6; abort on mismatch."""
    i, h = 0, 1e-6
    g = np.asarray(cost.kernel_grad(mu_bar.xs[i], mu_bar.us[i], ys, K[i]))
    for j in range(min(3, ys.size)):
        e = np.zeros(ys.size)
        e[j] = h
        fd = (
            cost.kernel_cost(mu_bar.xs[i], mu_bar.us[i], ys, K[i] + e)
            - cost.kernel_cost(mu_bar.xs[i], mu_bar.us[i], ys, K[i] - e)
        ) / (2 * h)
        if abs(fd - g[j]) > 1e-4 * max(1.0, abs(g[j])):
            raise ValueError(
                f"gradient oracle disagrees with finite differences at coordinate {j}: "
                f"{g[j]:.8g} vs {fd:.8g}"
            )


def price_american(mu: DiscreteMeasure, nu: DiscreteMeasure, phi1, phi2):
    """Robust price of a two-exercise-date American option.

    ``phi1`` holds the early-exercise payoff at each sorted atom x of mu,
    shape (len(mu),), and ``phi2`` the late payoff at each (x, y), shape
    (len(mu), len(nu)).  The optimal-stopping cost max(phi1(x), E[phi2(x, Y)])
    is a max of two linear functionals of the kernel, so the price is the
    LP over two martingale branches per x atom: branch 1 collects the
    exercised mass (paid phi1), branch 2 the continued mass (paid phi2).
    Returns the price and the two branches' masses.

    A branch that cannot beat the other at x is left out of the LP, with its
    barycentre row: exercise where phi1(x) <= min_y phi2(x, y), continuation
    where max_y phi2(x, y) < phi1(x).  The optimum is unchanged: moving a
    branch's mass at x to the other branch, with the same sub-kernel, keeps
    every row and does not lower the objective.  A tie at such an x goes to
    continuing; at any other x the split of an optimum that is not unique is
    HiGHS's vertex.  Raises ``ValueError`` on payoffs that are not finite.
    """
    require_convex_order(mu, nu)
    n, m = len(mu), len(nu)
    xs, ys = mu.atoms, nu.atoms
    p1, p2 = np.asarray(phi1, dtype=float), np.asarray(phi2, dtype=float)
    if p1.shape != (n,) or p2.shape != (n, m):
        raise ValueError("payoff arrays must have shapes (len(mu),) and (len(mu), len(nu))")
    if not (np.isfinite(p1).all() and np.isfinite(p2).all()):
        raise ValueError("payoffs phi1 and phi2 must be finite")
    # variables (i, branch, j): shared marginals, one barycentre row per (i, branch) kept
    keep = np.column_stack([p1 > p2.min(axis=1), p2.max(axis=1) >= p1]).ravel()
    cols, rows = np.repeat(keep, m), np.concatenate([np.ones(n + m, bool), keep])
    c = np.stack([np.broadcast_to(p1[:, None], (n, m)), p2], axis=1).ravel()[cols]
    A_eq = plan_rows(n, m, 2, mart=ys[None, :] - xs[:, None])[rows][:, cols]
    b_eq = np.concatenate([mu.weights, nu.weights, np.zeros(keep.sum())])
    sol = solve_lp(LinearProgram(c=c, A_eq=A_eq, b_eq=b_eq, sense="max"))
    x = np.zeros(cols.size)
    x[cols] = sol.x
    pi1, pi2 = x.reshape(n, 2, m).transpose(1, 0, 2)
    return {"value": sol.value, "exercise_mass": float(pi1.sum()), "continue_mass": float(pi2.sum())}


# -- VIX subreplication ---------------------------------------------------


def _log_contract(xs: np.ndarray, ys: np.ndarray, tau: float) -> np.ndarray:
    """Matrix of l_x(y) = (2 / tau) log(x / y)."""
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("VIX marginals must be supported on (0, inf)")
    return (2.0 / tau) * (np.log(xs)[:, None] - np.log(ys)[None, :])


def _vix_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, tau: float):
    """The VIX LP over the extreme martingale kernels at each x, and its columns (i, j, k, p).

    Column (i, j, k) is the kernel at x_i with mass p on y_j and 1 - p on y_k, where
    y_j < x_i < y_k and the mean fixes p = (y_k - x_i) / (y_k - y_j); when x_i is an atom
    of nu, (i, j, j) with y_j = x_i is delta_x, with p = 1.  It costs the root of its
    log-contract moment, clamped at 0 against rounding.  The rows are one mass row per
    x_i and one per y_j, with no barycentre rows: every column is a martingale kernel.
    """
    n, xs, ys = len(mu), mu.atoms, nu.atoms
    side = np.sign(xs[:, None] - ys[None, :])  # 1 where y_j < x_i, 0 where y_j = x_i
    i, j, k = np.nonzero((side[:, :, None] == -side[:, None, :]) & (side[:, :, None] >= 0))
    span = ys[k] - ys[j]
    p = np.divide(ys[k] - xs[i], span, out=np.ones_like(span), where=span > 0)
    L = _log_contract(xs, ys, tau)
    rows = np.concatenate([i, n + j, n + k])  # delta_x's two y entries, 1 and 0, are summed
    A_eq = sparse.csr_array((np.concatenate([np.ones(i.size), p, 1.0 - p]), (rows, np.tile(np.arange(i.size), 3))),
                            shape=(n + len(nu), i.size))
    c = np.sqrt(np.maximum(p * L[i, j] + (1.0 - p) * L[i, k], 0.0))
    return LinearProgram(c=c, A_eq=A_eq, b_eq=np.concatenate([mu.weights, nu.weights])), (i, j, k, p)


def vix_dual_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, tau: float):
    """The VIX subreplication value D_sub, exactly, with its subreplicating portfolio.

    The label u is the future VIX level, with E[L | x, u] = u^2 for the log contract L, so
    a kernel K at x carries its own label u = sqrt(E_K[L]).  sqrt is concave, so splitting
    K into the extreme martingale kernels at x never raises its cost, and D_sub is the
    value of ``_vix_lp`` (Winkler, Math. Oper. Res. 1988).  The coupling labels each
    kernel with its u.

    The portfolio phi, psi, with the keys of ``vix_primal_lp`` (the LP's exact dual), is
    read from the duals.  Its inequality phi(x) + E_K[psi] <= sqrt(E_K[L]) holds at the
    extreme kernels, so by concavity at every martingale kernel, and ``p_value`` =
    mu(phi) + nu(psi) <= D_sub.  phi(x) is lowered by the worst excess of its
    inequalities; an excess above 1e-6 max(1, max cost) is a ``CertificateError``.
    """
    require_convex_order(mu, nu)
    lp, (i, j, k, p) = _vix_lp(mu, nu, tau)
    sol = solve_lp(lp)
    # HiGHS's duals are dual feasible to 1e-7 on its scaled LP, so an inequality may be
    # off (by up to 5.1e-8 seen); duals off by more than 1e-6 are not an optimal solve's
    excess = np.full(len(mu), -np.inf)
    np.maximum.at(excess, i, lp.A_eq.T @ sol.duals_eq - lp.c)
    if excess.max() > 1e-6 * max(1.0, float(lp.c.max())):
        raise CertificateError(f"VIX portfolio from the LP duals breaks an inequality by {excess.max():.3g}")
    phi, psi = np.split(sol.duals_eq, [len(mu)])
    phi = phi - np.maximum(excess, 0.0)  # every column of atom x has coefficient 1 on phi(x)
    q = np.flatnonzero(sol.x > 1e-14)
    x, u, w = (np.tile(v[q], 2) for v in (mu.atoms[i], lp.c, sol.x))
    coupling, _ = disintegrate(np.column_stack([x, u, nu.atoms[np.concatenate([j[q], k[q]])],
                                                w * np.concatenate([p[q], 1.0 - p[q]])]))
    return {"value": sol.value, "p_value": float(mu.weights @ phi + nu.weights @ psi), "phi": phi, "psi": psi,
            "coupling": coupling}


def vix_primal_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, tau: float):
    """Subreplicating-portfolio LP for the VIX value, the exact dual of ``_vix_lp``.

    Maximizes mu(phi) + nu(psi) over free static positions phi, psi subject to
    phi(x_i) + p psi(y_j) + (1 - p) psi(y_k) <= sqrt(p l_x(y_j) + (1 - p) l_x(y_k)) at
    every column of ``_vix_lp``, so its value is D_sub.  ``vix_dual_lp`` reads this
    portfolio from its duals instead; the LP stays as the tests' oracle of it, and
    because ``benchmarks/tracing.py`` traces it.
    """
    lp, _ = _vix_lp(mu, nu, tau)
    sol = solve_lp(LinearProgram(c=lp.b_eq, A_ub=lp.A_eq.T, b_ub=lp.c, bounds=[(None, None)] * lp.b_eq.size,
                                 sense="max"))
    phi, psi = np.split(sol.x, [len(mu)])
    return {"p_value": sol.value, "phi": phi, "psi": psi}


# -- shadow couplings -----------------------------------------------------


def shadow_coupling(mu_bar: LiftedMeasure, nu: DiscreteMeasure):
    """Lifted martingale coupling minimizing (1 - u) sqrt(1 + y^2), by successive shadows
    (Beiglboeck & Juillet, Ann. Probab. 2016): the atoms of mu_bar, in (u, x) order, each
    take their shadow in what is left of nu, the quantile slice [a, a + w] of mean x.  Its
    moment is piecewise linear and nondecreasing in a, and the slice holds x's quantile
    level, so a lies in [F(x-) - w, F(x)].  The search walks that bracket's knots on the
    prefix sums of what is left, skipping spent atoms by bisection: one cumsum per atom,
    then O(log n) per knot.  The slice's end masses are solved from its mass and mean.
    One u level costs the same in any order (Abel summation); the x order makes it unique.
    """
    if np.any(mu_bar.us < -1e-12) or np.any(mu_bar.us > 1 + 1e-12):
        raise ValueError("shadow coupling needs u-labels in [0, 1]")
    require_convex_order(mu_bar.x_marginal(), nu)
    ys, left, plan = nu.atoms, nu.weights.copy(), np.zeros((len(mu_bar), len(nu)))
    y, last = ys.tolist(), len(ys) - 1
    order = np.lexsort((mu_bar.xs, mu_bar.us))
    for i, x, w in zip(order.tolist(), mu_bar.xs[order].tolist(), mu_bar.weights[order].tolist()):
        P = np.cumsum(left).tolist()  # P[j]: what is left up to atom j, so atom j holds (P[j - 1], P[j]]
        k = bisect.bisect_left(y, x)
        a = max((P[k - 1] if k else 0.0) - w, 0.0)  # the slice holds x's level, so a >= F(x-) - w
        # atoms j and l hold a and a + w; d is the slice's moment about x, over its atoms
        j, l = min(bisect.bisect_right(P, a), last), min(bisect.bisect_right(P, a + w), last)
        d, s, k = 0.0, a, j
        while k < l:
            d, s = d + (P[k] - s) * (y[k] - x), P[k]
            k = bisect.bisect_right(P, s, k + 1)  # the next atom with weight left
        d += (a + w - s) * (y[l] - x)
        # raise a knot by knot, a reaching P[j] or a + w reaching P[l], until the moment reaches w x;
        # the slice ends at P[last] - w
        while True:
            na, nb = P[j], P[l] - w
            step = na if na < nb else nb
            d, a = d + (step - a) * (y[l] - y[j]), step
            if d >= 0.0 or (nb <= na and P[l] >= P[last]):
                break
            if nb <= na:
                l = bisect.bisect_right(P, P[l], l + 1)
            if na <= nb:
                j = bisect.bisect_right(P, na, j + 1)
        # the slice runs from atom j to l, and its end masses solve its mass and mean exactly;
        # j is set last, so that a slice inside one atom (j == l) puts all of w there
        mid = slice(j + 1, l)
        inner = left[mid]
        end = (w * (x - y[j]) - inner @ (ys[mid] - y[j])) / (y[l] - y[j]) if l > j else 0.0
        el, ej = max(end, 0.0), max(w - inner.sum() - end, 0.0)
        plan[i, mid], plan[i, l], plan[i, j] = inner, el, ej
        left[mid] = 0.0
        left[l] = max(left[l] - el, 0.0)
        left[j] = max(left[j] - ej, 0.0)
    value = float((1.0 - mu_bar.us) @ plan @ np.sqrt(1.0 + ys**2))
    return {"value": value, "coupling": coupling_from_plan(mu_bar, nu, plan)}


def _support_ends(c: DiscreteCoupling, tol: float):
    """Kernel entries above tol, and each kernel row's first and last
    supported y."""
    on = c.kernels > tol
    first = np.argmax(on, axis=1)
    last = on.shape[1] - 1 - np.argmax(on[:, ::-1], axis=1)
    return on, c.y_support[first], c.y_support[last]


def extract_barriers(c: DiscreteCoupling):
    """Barrier maps of a coupling with at-most-binary kernels.

    Kernels supported on one point give T1 = T2 = x; on two points the
    support endpoints; a kernel entry counts when it is above 1e-10.
    Kernels with larger support are excluded and reported in the
    diagnostics with their count and carried mass.
    """
    on, lo, hi = _support_ends(c, 1e-10)
    size = on.sum(axis=1)
    keep = size <= 2
    fm = c.first_marginal
    t1, t2 = np.where(size == 1, fm.xs, lo), np.where(size == 1, fm.xs, hi)
    bm = BarrierMaps(fm.atoms[keep], fm.weights[keep], t1[keep], t2[keep])
    return bm, {"excluded_count": int((~keep).sum()), "excluded_mass": float(fm.weights[~keep].sum())}


def copula_lift(mu: DiscreteMeasure, copula: str = "independence", m: int = 1) -> LiftedMeasure:
    """Attach information labels to mu through a copula on [0,1]^2.

    The label axis is discretized into m cells with mid-point labels
    (i - 1/2)/m.  The first copula coordinate is pushed through the
    quantile function of mu, so the x-marginal of the lift is mu exactly.
    ``hoeffding_frechet`` is the comonotone copula (diagonal cells),
    ``independence`` the product.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if copula not in ("independence", "hoeffding_frechet"):
        raise ValueError(f"unknown copula {copula!r}")
    cells = np.full((m, m), 1.0 / (m * m)) if copula == "independence" else np.eye(m) / m
    # quantile cell i of mu, scaled by m * cells[i, k], carries label (k + 1/2) / m
    weights = (m * cells).T @ cell_masses(mu, np.arange(m + 1) * mu.mass / m)  # (label, atom)
    labels = np.broadcast_to(((np.arange(m) + 0.5) / m)[:, None], weights.shape)
    atoms = np.column_stack([np.broadcast_to(mu.atoms, weights.shape).ravel(), labels.ravel()])
    return LiftedMeasure(atoms, weights.ravel())
