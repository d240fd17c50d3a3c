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
from typing import Optional

import numpy as np

from .convex_order import ConvexOrderError, convex_min, convex_order_projection, irreducible_decomposition, window_kernel
from .couplings import DiscreteCoupling, adapted_wasserstein, coupling_from_plan, disintegrate, martingale_polytope_lp
from .lp_core import Block, LinearProgram, block_rows, solve_lp, transport_plan
from .measures import DiscreteMeasure, LiftedMeasure, check_convex_order, mean, wasserstein_line

STEP2_MAX_RETRIES = 5
WINDOW_MAX_LEVEL = 50


@dataclass
class MarginalSplit:
    """Perturbed marginals split along the base irreducible components."""

    pieces: list  # per component: dict with base/perturbed marginal pieces
    stationary_mu_bar: LiftedMeasure | None
    stationary_nu: DiscreteMeasure | None
    gamma_kernels: np.ndarray  # feasible kernels of Pi_M(mu_bar', nu')
    gamma_first: LiftedMeasure
    gamma_support: np.ndarray


def _feasible_extended_coupling(mu_bar: LiftedMeasure, nu: DiscreteMeasure) -> DiscreteCoupling:
    """Minimal mean-displacement member of Pi_M(mu_bar, nu)."""
    cost = np.abs(nu.atoms[None, :] - mu_bar.xs[:, None])
    sol = solve_lp(martingale_polytope_lp(mu_bar, nu, cost=cost.ravel()))
    if not sol.optimal:
        raise ConvexOrderError("no martingale coupling between the given marginals")
    return coupling_from_plan(mu_bar, nu, sol.x)


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
    nu = pi.second_marginal()
    ok, witness = check_convex_order(mu_bar_p.x_marginal(), nu_p)
    if not ok:
        raise ConvexOrderError("perturbed marginals are not in convex order", witness)
    decomp = irreducible_decomposition(mu, nu)

    a = mu_bar.atoms[:, None, :]
    b = mu_bar_p.atoms[None, :, :]
    plan, _ = transport_plan(np.abs(a - b).sum(axis=2), mu_bar.weights, mu_bar_p.weights)

    gamma = _feasible_extended_coupling(mu_bar_p, nu_p)
    # expand gamma's kernels back onto the full perturbed atom list
    G = np.zeros((len(mu_bar_p), gamma.y_support.size))
    gi = 0
    for i in range(len(mu_bar_p)):
        if gi < len(gamma.first_marginal) and np.allclose(
            gamma.first_marginal.atoms[gi], mu_bar_p.atoms[i]
        ):
            G[i] = gamma.kernels[gi]
            gi += 1
        else:  # zero-mass atom: any mean-x kernel works
            G[i, np.argmin(np.abs(gamma.y_support - mu_bar_p.xs[i]))] = 1.0

    pieces = []
    for comp in decomp.components:
        comp_xs = set(np.round(comp.mu.atoms, 12))
        mask = np.array([round(x, 12) in comp_xs for x in mu_bar.xs])
        if not mask.any():
            continue
        idx = np.where(mask)[0]
        w_p = plan[idx].sum(axis=0)
        keep = w_p > 1e-14
        mu_bar_pn = LiftedMeasure(mu_bar_p.atoms[keep], w_p[keep])
        nu_pn = DiscreteMeasure(gamma.y_support, w_p[keep] @ G[keep])
        pieces.append(
            {
                "interval": comp.interval,
                "base_indices": idx,
                "plan_rows": plan[idx],
                "mu_bar": mu_bar_pn,
                "nu": nu_pn,
            }
        )
    stat_mu_bar = stat_nu = None
    if not decomp.stationary.is_zero:
        stat_xs = set(np.round(decomp.stationary.atoms, 12))
        mask = np.array([round(x, 12) in stat_xs for x in mu_bar.xs])
        idx = np.where(mask)[0]
        w_p = plan[idx].sum(axis=0)
        keep = w_p > 1e-14
        if keep.any():
            stat_mu_bar = LiftedMeasure(mu_bar_p.atoms[keep], w_p[keep])
            stat_nu = DiscreteMeasure(gamma.y_support, w_p[keep] @ G[keep])
    return MarginalSplit(pieces, stat_mu_bar, stat_nu, G, mu_bar_p, gamma.y_support)


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


def _trim_cell(xs, ws, kernels, am, bm) -> DiscreteMeasure:
    """Second marginal of the cell after capping kernels by the window
    kernel: inside the window the kernel is replaced by its convex-order
    minimum with the two-point window law, outside by a Dirac."""
    total = None
    for x, w, k in zip(xs, ws, kernels):
        if am <= x <= bm:
            capped = convex_min(k, window_kernel(x, am, bm))
        else:
            capped = DiscreteMeasure([x], [1.0])
        piece = capped.scaled(w)
        total = piece if total is None else total + piece
    return total


def approximate_pairs(
    mu_js: list,
    nu_js: list,
    mu_p_js: list,
    interval,
    nu_p: DiscreteMeasure,
    eps: float,
    kernels_by_cell: Optional[list] = None,
):
    """Per-cell second marginals for perturbed cells of one component.

    Given base cells (mu_j, nu_j) summing to an irreducible pair on
    ``interval``, perturbed first marginals mu'_j, and the component's
    perturbed second marginal nu', produce nu'_j with mu'_j <= nu'_j in
    convex order and sum nu'_j = nu' exactly.  Three stages: a windowed
    trim of the base cell marginals, a convex-order projection mix for
    the perturbed cells (retrying with halved eps if the order check
    against nu' fails), and an LP-minimal martingale redistribution onto
    nu'.
    """
    J = len(mu_js)
    if kernels_by_cell is None:
        kernels_by_cell = []
        for mu_j, nu_j in zip(mu_js, nu_js):
            c = _feasible_extended_coupling(
                LiftedMeasure.from_measure(mu_j.normalized()), nu_j.normalized()
            )
            xs = c.first_marginal.xs
            ws = c.first_marginal.weights * mu_j.mass
            kernels_by_cell.append((xs, ws, [c.kernel_measure(i) for i in range(len(xs))]))

    margin_trace = []
    found = None
    for attempt in range(STEP2_MAX_RETRIES + 1):
        for am, bm in _window_ladder(interval):
            trimmed = [
                _trim_cell(xs, ws, kerns, am, bm) for xs, ws, kerns in kernels_by_cell
            ]
            tilde = [
                _project_cell(mu_j, mu_p_j, tn, am, bm, eps)
                for mu_j, mu_p_j, tn in zip(mu_js, mu_p_js, trimmed)
            ]
            theta = tilde[0]
            for t in tilde[1:]:
                theta = theta + t
            ok, witness = check_convex_order(theta, nu_p, tol=1e-9)
            if ok:
                trim_err = max(
                    wasserstein_line(nu_j, t, 1.0) for nu_j, t in zip(nu_js, trimmed)
                )
                found = (am, bm, tilde, theta, trim_err)
                break
            margin_trace.append((eps, (am, bm), witness))
        if found is not None:
            break
        eps *= 0.5
    if found is None:
        raise ConvexOrderError(
            f"projected cell marginals never dominated the target; trace {margin_trace[-3:]}"
        )
    am, bm, tilde, theta, trim_err = found

    chi, step3 = min_cost_martingale_rearrangement(theta, nu_p)
    # redistribute each cell through chi's kernels
    nu_out = []
    for t in tilde:
        w = np.zeros(chi.y_support.size)
        for x, wx in zip(t.atoms, t.weights):
            i = int(np.argmin(np.abs(chi.first_marginal.xs - x)))
            w += wx * chi.kernels[i]
        nu_out.append(DiscreteMeasure(chi.y_support, w))
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


def _project_cell(mu_j, mu_p_j, tilde_nu_j, am, bm, eps):
    """Stage-two mix for one cell: project the windowed perturbed mass
    onto the trimmed base marginal, cap with the window kernel, and blend
    with an eps share of the raw perturbed marginal."""
    win_p = mu_p_j.restrict(am, bm)
    out_p = mu_p_j.restrict_outside(am, bm)
    if win_p.mass <= 0:
        return out_p.scaled(1.0 - eps) + mu_p_j.scaled(eps)
    t_win = tilde_nu_j.restrict(am, bm)
    if t_win.mass <= 0:
        hat = DiscreteMeasure([mean(win_p.normalized())], [1.0])
    else:
        x_cell = mean(win_p.normalized())
        proj = convex_order_projection(win_p.normalized(), t_win.normalized())
        hat = convex_min(proj, window_kernel(x_cell, am, bm))
    core = out_p + hat.scaled(win_p.mass)
    return core.scaled(1.0 - eps) + mu_p_j.scaled(eps)


def min_cost_martingale_rearrangement(theta: DiscreteMeasure, nu: DiscreteMeasure):
    """LP-minimal mean-displacement martingale coupling of theta and nu.

    The transport cost of the returned coupling is asserted to be at most
    2 W1(theta, nu); the minimal coupling is dominated by any feasible
    one, so the classical rearrangement bound carries over.
    """
    ok, witness = check_convex_order(theta, nu)
    if not ok:
        raise ConvexOrderError("rearrangement requires convex order", witness)
    mb = LiftedMeasure.from_measure(theta)
    cost = np.abs(nu.atoms[None, :] - theta.atoms[:, None])
    sol = solve_lp(martingale_polytope_lp(mb, nu, cost=cost.ravel()))
    if not sol.optimal:
        raise RuntimeError(f"rearrangement LP: {sol.status}")
    bound = 2.0 * wasserstein_line(theta, nu, 1.0)
    if sol.value > bound + 1e-9:
        raise AssertionError(
            f"martingale rearrangement cost {sol.value:.6g} exceeds 2 W1 = {bound:.6g}"
        )
    return coupling_from_plan(mb, nu, sol.x), {"cost": sol.value, "bound": bound}


def _refit_piece(base_kernel: DiscreteMeasure, mu_bar_piece: LiftedMeasure, nu_piece: DiscreteMeasure):
    """Kernels over nu_piece for the lifted atoms of mu_bar_piece that
    stay W1-close to the base kernel: single LP with CDF-gap variables.
    """
    ys = nu_piece.atoms
    n, m = len(mu_bar_piece), ys.size
    grid = np.unique(np.concatenate([base_kernel.atoms, ys]))
    gaps = np.diff(grid)
    L = gaps.size
    fk = np.concatenate([[0.0], base_kernel.cumulative()])
    f_base = fk[np.searchsorted(base_kernel.atoms, grid, side="right")]
    w, xs = mu_bar_piece.weights, mu_bar_piece.xs
    # variables: K (n*m), t (n*L); per i a unit-mass row and a barycentre row, then
    # per (i, l) the pair +-(CDF of K_i at grid[l]) - t_il <= +-F_base(grid[l])
    nv, sgn = n * m + n * L, np.array([1.0, -1.0])
    c = np.concatenate([np.zeros(n * m), (w[:, None] * gaps).ravel()])
    eq = [Block(np.stack([np.ones((n, m)), ys[None, :] - xs[:, None]], axis=1)),
          Block(np.broadcast_to(w, (m, 1, n)), row0=2 * n, steps=(1, m))]
    b_eq = np.concatenate([np.tile([1.0, 0.0], n), nu_piece.weights / nu_piece.mass * mu_bar_piece.mass])
    cdf = sgn[None, :, None] * (ys[None, None, :] <= grid[:L, None, None] + 1e-12)
    ub = [Block(np.broadcast_to(cdf.reshape(2 * L, m), (n, 2 * L, m))), Block(-np.ones((n * L, 2, 1)), col0=n * m)]
    b_ub = np.tile((f_base[:L, None] * sgn).ravel(), n)
    A_eq, A_ub = block_rows(eq, (2 * n + m, nv)), block_rows(ub, (2 * n * L, nv))
    sol = solve_lp(LinearProgram(c=c, A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub))
    if not sol.optimal:
        raise RuntimeError(f"kernel refit LP: {sol.status}")
    K = sol.x[: n * m].reshape(n, m)
    return DiscreteCoupling(mu_bar_piece, ys, K)


def approximate_coupling(pi: DiscreteCoupling, mu_bar_p: LiftedMeasure, nu_p: DiscreteMeasure, eps: float):
    """Coupling with the perturbed marginals close to ``pi`` in AW1.

    Pipeline: split the perturbed marginals along the base components,
    treat every base lifted atom as its own cell, rebuild the per-cell
    second marginals with :func:`approximate_pairs`, refit each cell's
    kernels by the anchored LP, and merge all pieces.  Returns the
    coupling together with stage diagnostics including the achieved AW1
    distance to the input.
    """
    base_mu = pi.first_marginal
    same_first = len(base_mu) == len(mu_bar_p) and np.allclose(
        base_mu.atoms, mu_bar_p.atoms
    ) and np.allclose(base_mu.weights, mu_bar_p.weights)
    nu0 = pi.second_marginal()
    same_second = len(nu0) == len(nu_p) and np.allclose(nu0.atoms, nu_p.atoms) and np.allclose(
        nu0.weights, nu_p.weights
    )
    if same_first and same_second:
        return pi, {"aw1": 0.0, "stages": []}

    split = split_marginals(pi, mu_bar_p, nu_p)
    table = []
    stages = []
    for piece in split.pieces:
        idx = piece["base_indices"]
        mu_js, nu_js, mu_p_js, kernels_by_cell = [], [], [], []
        for r, i in enumerate(idx):
            x = base_mu.xs[i]
            w = base_mu.weights[i]
            mu_js.append(DiscreteMeasure([x], [w]))
            nu_js.append(pi.kernel_measure(i).scaled(w))
            row = piece["plan_rows"][r]
            keep = row > 1e-14
            mu_p_js.append(DiscreteMeasure(mu_bar_p.xs[keep], row[keep]))
            kernels_by_cell.append((np.array([x]), np.array([w]), [pi.kernel_measure(i)]))
        try:
            nu_out, diag = approximate_pairs(
                mu_js, nu_js, mu_p_js, piece["interval"], piece["nu"], eps, kernels_by_cell
            )
        except (ConvexOrderError, RuntimeError) as exc:
            raise RuntimeError(f"component {piece['interval']}: {exc}") from exc
        stages.append(diag)
        for r, i in enumerate(idx):
            row = piece["plan_rows"][r]
            keep = row > 1e-14
            piece_mu_bar = LiftedMeasure(mu_bar_p.atoms[keep], row[keep])
            fitted = _refit_piece(pi.kernel_measure(i), piece_mu_bar, nu_out[r])
            table.extend(fitted.joint())
    if split.stationary_mu_bar is not None:
        # stationary mass rides the feasible coupling's kernels directly
        sm = split.stationary_mu_bar
        for i in range(len(sm)):
            j = int(np.argmin(np.abs(split.gamma_first.atoms - sm.atoms[i]).sum(axis=1)))
            for yj, y in enumerate(split.gamma_support):
                wk = split.gamma_kernels[j, yj]
                if wk > 0:
                    table.append((sm.xs[i], sm.us[i], float(y), float(sm.weights[i] * wk)))
    out, _ = disintegrate(table)
    aw = adapted_wasserstein(out, pi, 1.0)
    return out, {"aw1": aw, "stages": stages}
