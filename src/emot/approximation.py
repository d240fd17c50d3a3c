"""Constructive approximation of lifted martingale couplings under
marginal perturbations.

Given a coupling with marginals (mu_bar, nu) and perturbed marginals
(mu_bar', nu') in convex order, the pipeline produces a coupling with the
perturbed marginals that is close in adapted Wasserstein distance:
split the perturbed marginals along the irreducible components of the
base pair, rebuild per-cell second marginals by a windowed trim /
projection / redistribution scheme, and refit kernels piece by piece.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex_order import (
    ConvexOrderError,
    convex_min,
    convex_order_projection,
    irreducible_decomposition,
    require_convex_order,
    window_kernel,
)
from .couplings import DiscreteCoupling, _point_cost, adapted_wasserstein, coupling_from_plan, disintegrate, martingale_polytope_lp
from .lp_core import Block, LinearProgram, block_rows, solve_lp, transport_plan
from .measures import DiscreteMeasure, LiftedMeasure, cdf, check_convex_order, mean, wasserstein_line

WINDOW_MAX_LEVEL = 50


@dataclass
class MarginalSplit:
    """Perturbed marginals split along the base irreducible components."""

    pieces: list  # per component: dict with base/perturbed marginal pieces
    stationary_mu_bar: LiftedMeasure | None
    stationary_kernels: np.ndarray | None  # rows over nu' atoms, aligned with stationary_mu_bar


def _min_displacement(mu_bar: LiftedMeasure, nu: DiscreteMeasure):
    """Plan, with rows aligned to mu_bar's atoms, and value of the minimal
    mean-displacement member of Pi_M(mu_bar, nu)."""
    cost = np.abs(nu.atoms[None, :] - mu_bar.xs[:, None])
    sol = solve_lp(martingale_polytope_lp(mu_bar, nu, cost=cost.ravel()))
    return sol.x.reshape(cost.shape), sol.value


def split_marginals(pi: DiscreteCoupling, mu_bar_p: LiftedMeasure, nu_p: DiscreteMeasure) -> MarginalSplit:
    """Split perturbed marginals along the base coupling's components.

    The base first marginal is matched to the perturbed one by a
    W1-optimal transport plan on lifted atoms; each component's share of
    the perturbed mass is the image of its base atoms under that plan.
    Second-marginal pieces are images of the first-marginal pieces under
    the kernels of a feasible martingale coupling, so every piece is in
    convex order and the pieces reassemble both marginals exactly.
    """
    mu_bar = pi.first_marginal
    mu = pi.x_marginal()
    require_convex_order(mu_bar_p.x_marginal(), nu_p, "perturbed marginals are not in convex order")
    decomp = irreducible_decomposition(mu, pi.second_marginal())
    plan, _ = transport_plan(_point_cost(mu_bar.atoms, mu_bar_p.atoms, 1.0), mu_bar.weights, mu_bar_p.weights)

    gamma, _ = _min_displacement(mu_bar_p, nu_p)
    rows = gamma.sum(axis=1, keepdims=True)
    G = np.divide(gamma, rows, out=np.zeros_like(gamma), where=rows > 1e-14)
    for i in np.flatnonzero(rows <= 1e-14):  # zero-mass atom: any mean-x kernel works
        G[i, np.argmin(np.abs(nu_p.atoms - mu_bar_p.xs[i]))] = 1.0

    # component labels of mu's atoms (the components hold bitwise copies of
    # them, -1 is stationary); a base atom takes the label of the mu atom its
    # x merged into
    labels = np.full(len(mu), -1)
    for c, comp in enumerate(decomp.components):
        labels[np.isin(mu.atoms, comp.mu.atoms)] = c
    base_labels = labels[np.abs(mu_bar.xs[:, None] - mu.atoms[None, :]).argmin(axis=1)]

    pieces = []
    for c, comp in enumerate(decomp.components):
        idx = np.flatnonzero(base_labels == c)
        w_p = plan[idx].sum(axis=0)
        keep = w_p > 1e-14
        pieces.append(
            {
                "interval": comp.interval,
                "base_indices": idx,
                "plan_rows": plan[idx],
                "mu_bar": LiftedMeasure(mu_bar_p.atoms[keep], w_p[keep]),
                "nu": DiscreteMeasure(nu_p.atoms, w_p[keep] @ G[keep]),
            }
        )
    w_p = plan[base_labels == -1].sum(axis=0)
    keep = w_p > 1e-14
    if not keep.any():
        return MarginalSplit(pieces, None, None)
    return MarginalSplit(pieces, LiftedMeasure(mu_bar_p.atoms[keep], w_p[keep]), G[keep])


def _window_ladder(interval):
    """Candidate windows inside the component, widest first.

    Widths approach the full component from below and then shrink
    dyadically toward a point; a narrow enough window always makes the
    stage-two order check feasible because the capped kernels collapse
    to near-Diracs at the cell means.
    """
    a, b = interval
    span = b - a
    mid = 0.5 * (a + b)
    widths = [span * (1.0 - 2.0 ** -t) for t in range(12, 1, -1)]
    widths += [span * 2.0 ** -t for t in range(1, WINDOW_MAX_LEVEL + 1)]
    return [(mid - w / 2.0, mid + w / 2.0) for w in widths]


def _trim_cell(mu_j: DiscreteMeasure, nu_j: DiscreteMeasure, am, bm) -> DiscreteMeasure:
    """Second marginal of a one-atom cell after capping its kernel by the
    window kernel: inside the window its convex-order minimum with the
    two-point window law, outside a Dirac."""
    x = mu_j.atoms[0]
    if am <= x <= bm:
        return convex_min(nu_j, window_kernel(x, am, bm).scaled(mu_j.mass))
    return mu_j


def approximate_pairs(mu_js: list, nu_js: list, mu_p_js: list, interval, nu_p: DiscreteMeasure, eps: float):
    """Per-cell second marginals for perturbed cells of one component.

    Given one-atom base cells mu_j = w_j delta_{x_j} with second marginals
    nu_j (w_j times the kernel at x_j) summing to an irreducible pair on
    ``interval``, perturbed first marginals mu'_j, and the component's
    perturbed second marginal nu', produce nu'_j with mu'_j <= nu'_j in
    convex order and sum nu'_j = nu' exactly.  Three stages: a windowed
    trim of the base cell marginals, a convex-order projection mix for
    the perturbed cells at the first window, widest first, whose sum
    theta is dominated by nu', and an LP-minimal martingale redistribution
    onto nu'.  One pass at the given eps suffices: theta's potential is
    affine in eps and equals that of the piece's mu' <= nu' at eps = 1, so
    a window that fails at eps fails at every smaller eps.
    """
    if any(len(mu_j) != 1 for mu_j in mu_js):
        raise ValueError("approximate_pairs takes one-atom base cells")

    margin_trace = []
    for am, bm in _window_ladder(interval):
        trimmed = [_trim_cell(mu_j, nu_j, am, bm) for mu_j, nu_j in zip(mu_js, nu_js)]
        tilde = [_project_cell(mu_p_j, tn, am, bm, eps) for mu_p_j, tn in zip(mu_p_js, trimmed)]
        atoms, weights = np.concatenate([t.atoms for t in tilde]), np.concatenate([t.weights for t in tilde])
        theta = DiscreteMeasure(atoms, weights)
        ok, witness = check_convex_order(theta, nu_p, tol=1e-9)
        if ok:
            break
        margin_trace.append(((am, bm), witness))
    else:
        raise ConvexOrderError(
            f"projected cell marginals never dominated the target; trace {margin_trace[-3:]}"
        )
    trim_err = max(wasserstein_line(nu_j, t, 1.0) for nu_j, t in zip(nu_js, trimmed))

    _, step3 = min_cost_martingale_rearrangement(theta, nu_p)
    # redistribute each cell through the plan's rows: a cell atom belongs to
    # the theta atom it merged into, the nearest one, as theta's atoms lie
    # more than MERGE_TOL apart
    row = np.searchsorted(0.5 * (theta.atoms[1:] + theta.atoms[:-1]), atoms)
    cell = np.repeat(np.arange(len(tilde)), [len(t) for t in tilde])
    masses = np.zeros((len(tilde), len(theta)))
    np.add.at(masses, (cell, row), weights)
    nu_out = [DiscreteMeasure(nu_p.atoms, w) for w in masses / theta.weights @ step3["plan"]]
    diag = {
        "eps_used": eps,
        "window": (am, bm),
        "trim_error": trim_err,
        "trim_target_met": trim_err < eps / 4.0,
        "retries": len(margin_trace),
        "step3_cost": step3["cost"],
        "step3_bound": step3["bound"],
    }
    return nu_out, diag


def _project_cell(mu_p_j, tilde_nu_j, am, bm, eps):
    """Stage-two mix for one cell: project the windowed perturbed mass
    onto the trimmed base marginal, cap with the window kernel, and blend
    with an eps share of the raw perturbed marginal."""
    win_p = mu_p_j.restrict(am, bm)
    if win_p.mass <= 0:
        return mu_p_j
    win = win_p.normalized()
    x_cell = mean(win)
    t_win = tilde_nu_j.restrict(am, bm)
    if t_win.mass <= 0:
        hat = DiscreteMeasure([x_cell], [1.0])
    else:
        proj = convex_order_projection(win, t_win.normalized())
        hat = convex_min(proj, window_kernel(x_cell, am, bm))
    core = mu_p_j.restrict_outside(am, bm) + hat.scaled(win_p.mass)
    return core.scaled(1.0 - eps) + mu_p_j.scaled(eps)


def min_cost_martingale_rearrangement(theta: DiscreteMeasure, nu: DiscreteMeasure):
    """LP-minimal mean-displacement martingale coupling of theta and nu.

    The transport cost of the returned coupling is asserted to be at most
    2 W1(theta, nu); the minimal coupling is dominated by any feasible
    one, so the classical rearrangement bound carries over.  The report
    holds the cost, the bound and the plan, one row per atom of theta.
    """
    require_convex_order(theta, nu, "rearrangement requires convex order")
    mb = LiftedMeasure.from_measure(theta)
    plan, cost = _min_displacement(mb, nu)
    # the order check allows a mass gap of 1e-9; W1 needs equal masses
    bound = 2.0 * wasserstein_line(theta.scaled(nu.mass / theta.mass), nu, 1.0)
    if cost > bound + 1e-9:
        raise AssertionError(f"martingale rearrangement cost {cost:.6g} exceeds 2 W1 = {bound:.6g}")
    return coupling_from_plan(mb, nu, plan), {"cost": cost, "bound": bound, "plan": plan}


def _refit_piece(base_kernel: DiscreteMeasure, mu_bar_piece: LiftedMeasure, nu_piece: DiscreteMeasure):
    """Kernels over nu_piece for the lifted atoms of mu_bar_piece that
    stay W1-close to the base kernel: single LP with CDF-gap variables.
    """
    ys = nu_piece.atoms
    n, m = len(mu_bar_piece), ys.size
    grid = np.unique(np.concatenate([base_kernel.atoms, ys]))
    gaps = np.diff(grid)
    L = gaps.size
    f_base = cdf(base_kernel, grid)
    w, xs = mu_bar_piece.weights, mu_bar_piece.xs
    # variables: K (n*m), t (n*L); per i a unit-mass row and a barycentre row, then
    # per (i, l) the pair +-(CDF of K_i at grid[l]) - t_il <= +-F_base(grid[l])
    nv, sgn = n * m + n * L, np.array([1.0, -1.0])
    c = np.concatenate([np.zeros(n * m), (w[:, None] * gaps).ravel()])
    eq = [Block(np.stack([np.ones((n, m)), ys[None, :] - xs[:, None]], axis=1)),
          Block(np.broadcast_to(w, (m, 1, n)), row0=2 * n, steps=(1, m))]
    b_eq = np.concatenate([np.tile([1.0, 0.0], n), nu_piece.weights / nu_piece.mass * mu_bar_piece.mass])
    k_cdf = sgn[None, :, None] * (ys[None, None, :] <= grid[:L, None, None] + 1e-12)
    ub = [Block(np.broadcast_to(k_cdf.reshape(2 * L, m), (n, 2 * L, m))), Block(-np.ones((n * L, 2, 1)), col0=n * m)]
    b_ub = np.tile((f_base[:L, None] * sgn).ravel(), n)
    A_eq, A_ub = block_rows(eq, (2 * n + m, nv)), block_rows(ub, (2 * n * L, nv))
    sol = solve_lp(LinearProgram(c=c, A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub))
    return DiscreteCoupling(mu_bar_piece, ys, sol.x[: n * m].reshape(n, m))


def approximate_coupling(pi: DiscreteCoupling, mu_bar_p: LiftedMeasure, nu_p: DiscreteMeasure, eps: float):
    """Coupling with the perturbed marginals close to ``pi`` in AW1.

    Pipeline: split the perturbed marginals along the base components,
    treat every base lifted atom as its own cell, rebuild the per-cell
    second marginals with :func:`approximate_pairs`, refit each cell's
    kernels by the anchored LP, and merge all pieces.  Returns the
    coupling together with stage diagnostics including the achieved AW1
    distance to the input.  Equal marginals take this same path, with no
    shortcut, so the output always carries the marginals asked for.
    """
    base_mu = pi.first_marginal
    split = split_marginals(pi, mu_bar_p, nu_p)
    tables = []
    stages = []
    for piece in split.pieces:
        idx, plan_rows = piece["base_indices"], piece["plan_rows"]
        kernels = [pi.kernel_measure(i) for i in idx]
        mu_js = [DiscreteMeasure([base_mu.xs[i]], [base_mu.weights[i]]) for i in idx]
        nu_js = [k.scaled(base_mu.weights[i]) for k, i in zip(kernels, idx)]
        mu_p_js = [DiscreteMeasure(mu_bar_p.xs[row > 1e-14], row[row > 1e-14]) for row in plan_rows]
        try:
            nu_out, diag = approximate_pairs(mu_js, nu_js, mu_p_js, piece["interval"], piece["nu"], eps)
        except (ConvexOrderError, RuntimeError) as exc:
            raise RuntimeError(f"component {piece['interval']}: {exc}") from exc
        stages.append(diag)
        for kernel, row, nu_j in zip(kernels, plan_rows, nu_out):
            keep = row > 1e-14
            tables.append(_refit_piece(kernel, LiftedMeasure(mu_bar_p.atoms[keep], row[keep]), nu_j).joint())
    if split.stationary_mu_bar is not None:
        # stationary mass rides the feasible coupling's kernels directly
        sm, K = split.stationary_mu_bar, split.stationary_kernels
        i, j = np.nonzero(K > 0)
        tables.append(np.column_stack([sm.xs[i], sm.us[i], nu_p.atoms[j], sm.weights[i] * K[i, j]]))
    out, _ = disintegrate(np.concatenate(tables))
    aw = adapted_wasserstein(out, pi, 1.0)
    return out, {"aw1": aw, "stages": stages}
