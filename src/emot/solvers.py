"""LP solvers for martingale transport problems on the line.

Covers plain and information-lifted martingale optimal transport,
convex kernel costs by Frank-Wolfe, two-period American option pricing,
a two-sided VIX subreplication sandwich with its dual certificate, and
shadow couplings with barrier-map extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import sparse

from .convex_order import ConvexOrderError
from .couplings import DiscreteCoupling, coupling_from_plan, disintegrate, martingale_polytope_lp
from .lp_core import Block, CertificateError, LinearProgram, block_rows, plan_rows, solve_lp
from .measures import DiscreteMeasure, LiftedMeasure, QuantileView, check_convex_order

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


def _require_order(mu: DiscreteMeasure, nu: DiscreteMeasure):
    ok, witness = check_convex_order(mu, nu)
    if not ok:
        raise ConvexOrderError("marginals are not in convex order", witness)


def _cost_matrix(mu_bar: LiftedMeasure, ys: np.ndarray, cost: CostSpec) -> np.ndarray:
    rows = [np.asarray(cost.fn(x, u, ys), dtype=float) for x, u in mu_bar.atoms]
    return np.array(rows).reshape(len(mu_bar), ys.size)


def solve_extended_mot(mu_bar: LiftedMeasure, nu: DiscreteMeasure, cost: CostSpec, sense: str = "min"):
    """Linear martingale transport over the lifted polytope Pi_M(mu_bar, nu)."""
    _require_order(mu_bar.x_marginal(), nu)
    C = _cost_matrix(mu_bar, nu.atoms, cost)
    lp = martingale_polytope_lp(mu_bar, nu, cost=C)
    lp.sense = sense
    sol = solve_lp(lp)
    return {"value": sol.value, "coupling": coupling_from_plan(mu_bar, nu, sol.x)}


def solve_mot(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec, sense: str = "min"):
    """Martingale optimal transport between plain measures on the line."""
    return solve_extended_mot(LiftedMeasure.from_measure(mu), nu, cost, sense)


def _golden_section(f, lo: float = 0.0, hi: float = 1.0, tol: float = 1e-10) -> float:
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def solve_wmot_fw(
    mu_bar: LiftedMeasure,
    nu: DiscreteMeasure,
    cost: CostSpec,
    tol: float = 1e-8,
    max_iter: int = MAX_FW_ITER,
):
    """Convex kernel-cost martingale transport by Frank-Wolfe.

    Minimizes sum_i w_i C(x_i, u_i, K_i) over kernels K of couplings in
    Pi_M(mu_bar, nu).  The linear minimization oracle is the lifted LP
    with the current gradient as cost; steps use exact golden-section
    line search with a 2/(k+2) fallback.  Stops when the Frank-Wolfe gap
    certificate drops below ``tol``.
    """
    _require_order(mu_bar.x_marginal(), nu)
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

    fw_gap, k = np.inf, -1  # max_iter=0 returns the feasible start uncertified
    for k in range(max_iter):
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


def _check_gradient(cost: CostSpec, mu_bar: LiftedMeasure, ys: np.ndarray, K: np.ndarray, h: float = 1e-6):
    """Compare the gradient oracle with central differences; abort on mismatch."""
    i = 0
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

    ``phi1`` maps x to the early-exercise payoff, ``phi2`` maps (x, y) to
    the late payoff; either may instead be an array of payoffs at the sorted
    atoms, of shape (len(mu),) and (len(mu), len(nu)).  The optimal-stopping cost max(phi1(x), E[phi2(x, Y)])
    is a max of two linear functionals of the kernel, so the price is the
    LP over two martingale branches per x atom: branch 1 collects the
    exercised mass (paid phi1), branch 2 the continued mass (paid phi2).
    """
    _require_order(mu, nu)
    n, m = len(mu), len(nu)
    xs, ys = mu.atoms, nu.atoms
    p1 = np.array([float(phi1(x)) for x in xs]) if callable(phi1) else np.asarray(phi1, dtype=float)
    p2 = np.array([[float(phi2(x, y)) for y in ys] for x in xs]) if callable(phi2) else np.asarray(phi2, dtype=float)
    if p1.shape != (n,) or p2.shape != (n, m):
        raise ValueError("payoff arrays must have shapes (len(mu),) and (len(mu), len(nu))")
    # variables (i, branch, j): shared marginals, one barycentre row per (i, branch)
    c = np.stack([np.broadcast_to(p1[:, None], (n, m)), p2], axis=1).ravel()
    A_eq = plan_rows(n, m, 2, mart=ys[None, :] - xs[:, None])
    b_eq = np.concatenate([mu.weights, nu.weights, np.zeros(2 * n)])
    sol = solve_lp(LinearProgram(c=c, A_eq=A_eq, b_eq=b_eq, sense="max"))
    pi1, pi2 = sol.x.reshape(n, 2, m).transpose(1, 0, 2)
    return {
        "value": sol.value,
        "exercise_plan": pi1,
        "continue_plan": pi2,
        "exercise_mass": float(pi1.sum()),
        "continue_mass": float(pi2.sum()),
    }


# -- VIX subreplication ---------------------------------------------------


def _log_contract(xs: np.ndarray, ys: np.ndarray, tau: float) -> np.ndarray:
    """Matrix of l_x(y) = (2 / tau) log(x / y)."""
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("VIX marginals must be supported on (0, inf)")
    return (2.0 / tau) * (np.log(xs)[:, None] - np.log(ys)[None, :])


def vix_bin_edges(mu: DiscreteMeasure, nu: DiscreteMeasure, tau: float, bins: int) -> np.ndarray:
    L = _log_contract(mu.atoms, nu.atoms, tau)
    u_max = float(np.sqrt(max(L.max(), 0.0)))
    return np.linspace(0.0, u_max, bins + 1)


def _vix_bin_lp(mu, nu, tau, edges):
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
        A_ub=block_rows([Block(low_high)], (2 * n * nb, n * nb * m)),
        b_ub=np.zeros(2 * n * nb),
    )


def vix_dual_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, tau: float, bins: int):
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
    ``vix_primal_lp`` (the bin LP's exact dual), read from this solve's duals:
    phi, psi, delta_s from the mass and barycentre rows, alpha, beta >= 0
    (delta_l = alpha - beta) from the bin-range rows; ``emot vix`` prints its
    ``p_value``.  phi(x) is lowered by the worst excess of its inequalities,
    so that every one holds and ``p_value`` = mu(phi) + nu(psi) <= D_sub by
    weak duality; an excess above 1e-6 max(1, max cost) is a ``CertificateError``.
    """
    _require_order(mu, nu)
    edges = vix_bin_edges(mu, nu, tau, bins)
    n, m, nb = len(mu), len(nu), len(edges) - 1
    lp = _vix_bin_lp(mu, nu, tau, edges)
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


def vix_primal_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, tau: float, u_grid: np.ndarray):
    """Subreplicating-portfolio LP certificate for the VIX lower bound.

    ``u_grid`` holds the bin edges of the matching ``vix_dual_lp`` call.
    Maximizes mu(phi) + nu(psi) over static positions phi, psi, per-bin
    stock deltas Delta_S and nonnegative log-contract positions alpha,
    beta (net log delta Delta_L = alpha - beta) subject to the
    subreplication constraint at every (x, bin, y).  This is the exact LP
    dual of the lower-edge bin LP, so the value equals d_lo.  ``emot vix``
    reads this portfolio from ``vix_dual_lp``'s duals instead; the LP stays
    as the tests' oracle of it, and because ``benchmarks/tracing.py`` traces it.
    """
    edges = np.asarray(u_grid, dtype=float)
    n, m, nb = len(mu), len(nu), edges.size - 1
    # variables: phi (n, free), psi (m, free), delta (n*nb, free),
    #            alpha (n*nb, >=0), beta (n*nb, >=0); one row per bin-LP variable
    dual = _vix_bin_lp(mu, nu, tau, edges)
    A_ub = sparse.hstack([dual.A_eq.T, -dual.A_ub[0::2].T, -dual.A_ub[1::2].T], format="csr")
    c = np.concatenate([dual.b_eq, np.zeros(2 * n * nb)])
    bounds = [(None, None)] * (n + m + n * nb) + [(0, None)] * (2 * n * nb)
    sol = solve_lp(LinearProgram(c=c, A_ub=A_ub, b_ub=dual.c, bounds=bounds, sense="max"))
    phi, psi, delta_s, alpha, beta = np.split(sol.x, np.cumsum([n, m, n * nb, n * nb]))
    return {"p_value": sol.value, "phi": phi, "psi": psi, "delta_s": delta_s.reshape(n, nb),
            "delta_l": (alpha - beta).reshape(n, nb)}


# -- shadow couplings -----------------------------------------------------


def shadow_cost() -> CostSpec:
    return CostSpec(fn=COSTS["shadow"])


def shadow_coupling(mu_bar: LiftedMeasure, nu: DiscreteMeasure):
    """Lifted martingale coupling minimizing (1 - u) sqrt(1 + y^2)."""
    if np.any(mu_bar.us < -1e-12) or np.any(mu_bar.us > 1 + 1e-12):
        raise ValueError("shadow coupling needs u-labels in [0, 1]")
    return solve_extended_mot(mu_bar, nu, shadow_cost(), sense="min")


def _support_ends(c: DiscreteCoupling, tol: float):
    """Kernel entries above tol, and each kernel row's first and last
    supported y."""
    on = c.kernels > tol
    first = np.argmax(on, axis=1)
    last = on.shape[1] - 1 - np.argmax(on[:, ::-1], axis=1)
    return on, c.y_support[first], c.y_support[last]


def extract_barriers(c: DiscreteCoupling, tol: float = 1e-10):
    """Barrier maps of a vertex coupling with at-most-binary kernels.

    Kernels supported on one point give T1 = T2 = x; on two points the
    support endpoints.  Kernels with larger support are excluded and
    reported in the diagnostics with their count and carried mass.
    """
    on, lo, hi = _support_ends(c, tol)
    size = on.sum(axis=1)
    keep = size <= 2
    fm = c.first_marginal
    t1, t2 = np.where(size == 1, fm.xs, lo), np.where(size == 1, fm.xs, hi)
    bm = BarrierMaps(fm.atoms[keep], fm.weights[keep], t1[keep], t2[keep])
    return bm, {"excluded_count": int((~keep).sum()), "excluded_mass": float(fm.weights[~keep].sum())}


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


def left_monotone_violation(c: DiscreteCoupling, tol: float = 1e-10) -> float:
    """Mass breaking the left-monotone support pattern of proj_{1,3}.

    A violation is a point y' of the kernel at x' landing strictly
    between two support points of the kernel at some x < x'.
    """
    flat = c.proj13()
    xs, ys = flat.first_marginal.xs, flat.y_support
    on, lo, hi = _support_ends(flat, tol)
    # inside[i, j]: y_j lies strictly between the support ends of the kernel
    # at x_i, farther than tol from each of its support points
    near = on @ (np.abs(ys[:, None] - ys[None, :]) <= tol)
    inside = (on.sum(axis=1) >= 2)[:, None] & (lo[:, None] + tol < ys) & (ys < hi[:, None] - tol) & ~near
    hit = (xs[None, :] < xs[:, None] - tol) @ inside
    return float((flat.first_marginal.weights[:, None] * flat.kernels)[on & hit].sum())


def copula_lift(mu: DiscreteMeasure, copula: str = "independence", m: int = 1, table=None) -> LiftedMeasure:
    """Attach information labels to mu through a copula on [0,1]^2.

    The label axis is discretized into m cells with mid-point labels
    (i - 1/2)/m.  The first copula coordinate is pushed through the
    quantile function of mu, so the x-marginal of the lift is mu exactly.
    ``hoeffding_frechet`` is the comonotone copula (diagonal cells),
    ``independence`` the product; ``tabulated`` takes an m-by-m cell-mass
    matrix whose rows must each sum to 1/m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if copula == "independence":
        cells = np.full((m, m), 1.0 / (m * m))
    elif copula == "hoeffding_frechet":
        cells = np.eye(m) / m
    elif copula == "tabulated":
        cells = np.asarray(table, dtype=float)
        if cells.shape != (m, m):
            raise ValueError("tabulated copula must be an m-by-m matrix")
        if np.any(np.abs(cells.sum(axis=1) - 1.0 / m) > 1e-9):
            raise ValueError("tabulated copula rows must sum to 1/m")
        if np.any(cells < 0):
            raise ValueError("tabulated copula masses must be nonnegative")
    else:
        raise ValueError(f"unknown copula {copula!r}")
    # quantile cell i of mu, scaled by m * cells[i, k], carries label (k + 1/2) / m
    W = QuantileView(mu).cell_masses(np.arange(m + 1) * mu.mass / m)
    weights = (m * cells)[:, :, None] * W[:, None, :]
    labels = np.broadcast_to(((np.arange(m) + 0.5) / m)[None, :, None], weights.shape)
    atoms = np.column_stack([np.broadcast_to(mu.atoms, weights.shape).ravel(), labels.ravel()])
    return LiftedMeasure(atoms, weights.ravel())
