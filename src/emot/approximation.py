"""Constructive approximation of lifted martingale couplings under
marginal perturbations.

Given a coupling with marginals (mu_bar, nu) and perturbed marginals
(mu_bar', nu') in convex order, the pipeline produces a coupling with the
perturbed marginals that is close in adapted Wasserstein distance:
split the perturbed marginals along the irreducible components of the
base pair, rebuild per-cell second marginals by a windowed trim /
translation / redistribution scheme, and read the kernels off one plan
matrix whose row at a perturbed atom sums its cells' rebuilt second
marginals.  A cell is one pair (base atom x, perturbed atom x') of the W1
plan between the first marginals, so it holds one lifted atom: its
trimmed kernel is moved to mean x', which is the convex-order projection
of delta_x' onto it, and every kernel is a closed form.  The trim, a
kernel's convex-order minimum with its window law B(x, a, b), is taken by
quantile slices: the tangent from the window law's potential at a touches
the kernel's where the mass to its left has barycentre a, so that slice
collapses onto a, and the mirror slice onto b.  The feasible
coupling that splits nu' and the redistribution onto each piece's nu' are
no LPs but Jourdain & Margheriti's inverse-transform martingale coupling,
built from the two quantile functions; only the W1 plan between lifted
first marginals of several labels is the transport LP's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex_order import ConvexOrderError, require_convex_order
from .couplings import DiscreteCoupling, _kernel_cdfs, _point_cost, adapted_wasserstein, coupling_from_plan
from .lp_core import transport_plan
from .measures import (
    DiscreteMeasure,
    LiftedMeasure,
    check_convex_order,
    comonotone_plan,
    quantile_pieces,
    wasserstein_line,
)

WINDOW_MAX_LEVEL = 50


@dataclass
class MarginalSplit:
    """Perturbed marginals split along the base irreducible components, and the stationary mass."""

    pieces: list  # per component: dict of its interval, base indices, W1-plan rows and perturbed nu
    stationary: np.ndarray  # stationary mass per perturbed atom, 0 at or below 1e-14
    kernels: np.ndarray  # G: the inverse-transform coupling's kernel per perturbed atom, rows over nu' atoms


def _inverse_transform_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """Jourdain & Margheriti's inverse-transform martingale coupling of
    mu <=cx nu, as a plan with one row per atom of mu and one per atom of nu.

    mu is scaled to nu's mass, which the order check lets differ by 1e-9.
    On each ``quantile_pieces`` piece, of length l, mu's quantile x lies
    above nu's y (an up piece), below it (a down piece) or at it.  Psi+
    and Psi- cumulate l |x - y| over the up and the down pieces; convex
    order ends both at one total, so Psi- is rescaled to Psi+'s, which
    they miss by rounding.  The up piece at Psi+ = p and the down piece at
    Psi- = p share a stretch dp of Psi: each sends dp / (y_down - y_up) to
    the other's nu level, which moves both barycentres to x, and keeps the
    rest of its length at its own level, which keeps both marginals exact.
    A stretch's mass is read as its share of the lighter piece's
    displacement, so that the pieces of an atom lighter than Psi's rounding
    keep their barycentre.  Where the two nu levels coincide (an atom of mu
    can lie 1e-12 below nu's lowest within the order check's tolerance)
    nothing crosses.  The cost is at most 2 W1(mu, nu) (Jourdain &
    Margheriti, Bernoulli 2022).
    """
    plan, (ia, ib, length) = comonotone_plan(mu.weights * (nu.mass / mu.mass), nu.weights)
    y = nu.atoms[ib]
    disp = (mu.atoms[ia] - y) * length
    up, down = np.flatnonzero(disp > 0), np.flatnonzero(disp < 0)
    if not (up.size and down.size):
        return plan
    rise, fall = disp[up], -disp[down]
    p, q, dpsi = quantile_pieces(rise, fall * (rise.sum() / fall.sum()))
    # each stretch's share of its up and of its down piece; a piece whose
    # stretches have no length (a tie of rounding size) sends nothing
    shares = []
    for k, moved in ((p, rise), (q, fall)):
        total = np.bincount(k, dpsi, minlength=moved.size)[k]
        shares.append(np.divide(dpsi * moved[k], total, out=np.zeros_like(dpsi), where=total > 0))
    s, t = up[p], down[q]
    gap = y[t] - y[s]
    cross = np.divide(np.where(length[s] <= length[t], *shares), gap, out=np.zeros_like(gap), where=gap > 0)
    np.add.at(plan, (np.tile(np.concatenate([ia[s], ia[t]]), 2), np.concatenate([ib[t], ib[s], ib[s], ib[t]])),
              np.concatenate([cross, cross, -cross, -cross]))
    return plan


def split_marginals(pi: DiscreteCoupling, mu_bar_p: LiftedMeasure, nu_p: DiscreteMeasure) -> MarginalSplit:
    """Split perturbed marginals along the base coupling's components.

    The base first marginal is matched to the perturbed one by a
    W1-optimal transport plan on lifted atoms, the north-west corner plan
    when both carry one common label and the transport LP's otherwise, with
    its entries at or below 1e-14 set to 0 and each column rescaled to the
    perturbed atom's weight; each component's share of the perturbed mass
    is the image of its base atoms under that plan.  Second-marginal pieces
    are images of the first-marginal pieces under the kernels of the
    inverse-transform martingale coupling of mu' and nu', so every piece is
    in convex order and the pieces reassemble both marginals exactly.  The
    components and each base atom's component are ``pi.decomposition``,
    which a coupling computes once, so a trend of calls on one base
    decomposes it once.
    """
    mu_bar = pi.first_marginal
    mu_p = mu_bar_p.x_marginal()
    require_convex_order(mu_p, nu_p, "perturbed marginals are not in convex order")
    decomp, base_labels = pi.decomposition
    if np.unique(np.concatenate([mu_bar.us, mu_bar_p.us])).size == 1:
        # one common label: the north-west corner plan is W1-optimal on the
        # line, and no entry of it is negative
        plan, _ = comonotone_plan(mu_bar.weights, mu_bar_p.weights)
    else:
        plan, _ = transport_plan(_point_cost(mu_bar.atoms, mu_bar_p.atoms), mu_bar.weights, mu_bar_p.weights)
        # HiGHS leaves entries down to -1e-9, its primal tolerance: they go,
        # and each column is rescaled to its perturbed atom's weight
        plan[plan <= 1e-14] = 0.0
        cols = plan.sum(axis=0)
        plan *= np.divide(mu_bar_p.weights, cols, out=np.zeros_like(cols), where=cols > 0)

    gamma = _inverse_transform_coupling(mu_p, nu_p)
    rows = gamma.sum(axis=1, keepdims=True)
    # each lifted atom takes the kernel at its x, bitwise an atom of mu_p, as
    # merge_atoms merges by x first; a row is its atom's weight to rounding
    G = np.divide(gamma, rows, out=np.zeros_like(gamma), where=rows > 0)[np.searchsorted(mu_p.atoms, mu_bar_p.xs)]

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
                "nu": DiscreteMeasure(nu_p.atoms, w_p[keep] @ G[keep]),
            }
        )
    w_p = plan[base_labels == -1].sum(axis=0)
    return MarginalSplit(pieces, np.where(w_p > 1e-14, w_p, 0.0), G)


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


def _window_min(ys, w, x, a, b):
    """Convex-order minimum of each row of w, a measure rho on the sorted
    atoms ys (one row for all rows, or one per row) whose mean x lies in
    (a, b), with its window law m B(x, a, b), m its mass.

    The tangent from (a, m (x - a)) to the potential u_rho touches it where
    the mass to its left has barycentre a, and the tangent from
    (b, m (b - x)) where the mass to its right has barycentre b; between
    them the minimum's potential is u_rho.  So the left quantile slice of
    rho with mean a collapses onto a, the right slice with mean b onto b,
    and the middle is kept: an atom y > a keeps clip(c / (y - a), 0, w_y)
    of its weight w_y from the left, with c the prefix sum of w (y - a)
    through it, an atom at or below a nothing, and the right is the mirror
    image.  If the two slices together hold the mass, rho dominates
    m B(x, a, b), which is then the minimum; so is a row whose mean rounds
    onto a window end, whose slice there never closes.  Returns the atoms
    [a, clip(ys, a, b), b], of ys's rows, and the weights on them.
    """
    clipped = np.clip(ys, a, b)
    ends = np.ones_like(clipped[..., :1])
    atoms = np.concatenate([a * ends, clipped, b * ends], axis=-1)
    left = np.cumsum(w * (ys - a), axis=1)
    right = np.cumsum((w * (b - ys))[:, ::-1], axis=1)[:, ::-1]
    to_a = w - np.clip(np.divide(left, ys - a, out=np.zeros_like(w), where=ys > a), 0.0, w)
    to_b = w - np.clip(np.divide(right, b - ys, out=np.zeros_like(w), where=ys < b), 0.0, w)
    m, phi, psi = w.sum(axis=1), to_a.sum(axis=1), to_b.sum(axis=1)
    rows = np.column_stack([phi, np.maximum(w - to_a - to_b, 0.0), psi])
    whole = phi + psi >= m
    rows[whole] = 0.0
    rows[whole, 0] = m[whole] * (b - x[whole]) / (b - a)
    rows[whole, -1] = m[whole] * (x[whole] - a) / (b - a)
    return atoms, rows


def approximate_pairs(xs, ys, base, xps, qs, interval, nu_p: DiscreteMeasure, eps: float):
    """Per-cell second marginals for perturbed cells of one component, one
    row per cell over nu''s atoms.

    Cell j holds the base atom xs[j], with second marginal base[j] over the
    sorted atoms ys (its weight times the kernel at xs[j]), and the
    perturbed atom xps[j] of mass qs[j]; the rows of base sum to an
    irreducible pair on ``interval``, and nu' is the component's perturbed
    second marginal.  Produce the weights of nu'_j on nu''s atoms, with
    qs[j] delta_{xps[j]} <= nu'_j in convex order and sum nu'_j = nu'
    exactly.  Three stages, on arrays, with one measure per window:

    1. at a window (a, b) of the ladder, widest first, trim the kernel of
       each cell whose x lies in (a, b) to its convex-order minimum with
       B(x, a, b), by quantile slices (``_window_min``: the tangents from
       the window law's potential touch the kernel's where the mass beyond
       them has barycentre a or b);
    2. move each trimmed kernel to mean x', the convex-order projection of
       delta_x' onto it, trim it again with B(x', a, b) and blend it with
       an eps share of q delta_x'; a cell with x or x' outside (a, b) gives
       q delta_x' alone.  The first window whose sum theta is dominated by
       nu' is kept;
    3. theta's inverse-transform martingale coupling with nu', through
       whose rows each cell's share of theta is redistributed onto nu'.

    One pass at the given eps suffices: theta's potential is affine in eps
    and equals that of the piece's mu' <= nu' at eps = 1, so a window that
    fails at eps fails at every smaller eps.
    """
    xs, ys, base, xps, qs = (np.asarray(v, dtype=float) for v in (xs, ys, base, xps, qs))
    margin_trace = []
    for am, bm in _window_ladder(interval):
        inside = (am < xs) & (xs < bm)
        grid, trimmed = _window_min(ys, base[inside], xs[inside], am, bm)
        both = inside & (am < xps) & (xps < bm)
        t = trimmed[both[inside]]
        t = t / t.sum(axis=1, keepdims=True)
        hat_atoms, hat = _window_min(grid + (xps[both] - t @ grid)[:, None], t, xps[both], am, bm)
        atoms = np.concatenate([hat_atoms.ravel(), xps])
        weights = np.concatenate([(hat * (qs[both] * (1.0 - eps))[:, None]).ravel(), np.where(both, qs * eps, qs)])
        theta = DiscreteMeasure(atoms, weights)
        ok, witness = check_convex_order(theta, nu_p, tol=1e-9)
        if ok:
            break
        margin_trace.append(((am, bm), witness))
    else:
        raise ConvexOrderError(
            f"projected cell marginals never dominated the target; trace {margin_trace[-3:]}"
        )
    # W1 of each cell's kernel to its trimmed one, in CDF form; a cell
    # outside the window is trimmed to a Dirac at its x
    trim_err = (np.abs(ys - xs[:, None]) * base).sum(axis=1)
    pts = np.union1d(ys, grid)
    gaps = _kernel_cdfs(ys, base[inside], pts[:-1]) - _kernel_cdfs(grid, trimmed, pts[:-1])
    trim_err[inside] = np.abs(gaps) @ np.diff(pts)
    trim_err = float(trim_err.max())

    step3 = _rearrangement(theta, nu_p)  # the window loop checked theta <= nu' at 1e-9
    # redistribute each cell through the plan's rows: a cell atom belongs to
    # the theta atom it merged into, the nearest one, as theta's atoms lie
    # more than MERGE_TOL apart
    row = np.searchsorted(0.5 * (theta.atoms[1:] + theta.atoms[:-1]), atoms)
    cell = np.concatenate([np.repeat(np.flatnonzero(both), hat.shape[1]), np.arange(len(xs))])
    masses = np.zeros((len(xs), len(theta)))
    np.add.at(masses, (cell, row), weights)
    diag = {
        "eps_used": eps,
        "window": (am, bm),
        "trim_error": trim_err,
        "trim_target_met": trim_err < eps / 4.0,
        "retries": len(margin_trace),
        "step3_cost": step3["cost"],
        "step3_bound": step3["bound"],
    }
    # a theta atom lighter than the rounding of the quantile levels has a plan
    # row that misses its weight, so each cell takes its share of the row
    plan = step3["plan"]
    rows = plan.sum(axis=1)
    return np.divide(masses, rows, out=np.zeros_like(masses), where=rows > 0) @ plan, diag


def min_cost_martingale_rearrangement(theta: DiscreteMeasure, nu: DiscreteMeasure):
    """Report of the inverse-transform martingale coupling of theta and nu:
    its mean displacement ``cost``, the ``bound`` 2 W1(theta, nu) and its
    ``plan``, one row per atom of theta.

    The coupling carries the bound by theorem, and the cost is asserted to
    be at most it.
    """
    require_convex_order(theta, nu, "rearrangement requires convex order")
    return _rearrangement(theta, nu)


def _rearrangement(theta: DiscreteMeasure, nu: DiscreteMeasure):
    """``min_cost_martingale_rearrangement`` of a pair already checked to be
    in convex order at 1e-9."""
    plan = _inverse_transform_coupling(theta, nu)
    cost = float(plan.ravel() @ np.abs(nu.atoms[None, :] - theta.atoms[:, None]).ravel())
    # the order check allows a mass gap of 1e-9; W1 needs equal masses
    bound = 2.0 * wasserstein_line(theta.scaled(nu.mass / theta.mass), nu)
    if cost > bound + 1e-9:
        raise AssertionError(f"martingale rearrangement cost {cost:.6g} exceeds 2 W1 = {bound:.6g}")
    return {"cost": cost, "bound": bound, "plan": plan}


def approximate_coupling(pi: DiscreteCoupling, mu_bar_p: LiftedMeasure, nu_p: DiscreteMeasure, eps: float):
    """Coupling with the perturbed marginals close to ``pi`` in AW1.

    Pipeline: split the perturbed marginals along the base components;
    make one cell per pair (i, a) of the W1 plan between the first
    marginals that carries more than 1e-14, holding base mass
    w_i plan[i, a] / sum_a plan[i, a] with the base kernel K_i and
    perturbed mass plan[i, a] at the lifted atom a; rebuild the per-cell
    second marginals with :func:`approximate_pairs`; and read the kernels
    off one plan with ``coupling_from_plan``, whose row at a perturbed atom
    is its stationary mass times the feasible coupling's kernel plus its
    cells' second marginals scaled to their mass.  That mix must have its
    barycentre within 1e-9 of x, the convex-order check's tolerance, or
    ``RuntimeError``; an eps outside [0, 1] is a ``ValueError``.
    Returns the coupling together with stage diagnostics including the
    achieved AW1 distance to the input.  Equal marginals take this same
    path, with no shortcut, so the output always carries the marginals
    asked for.
    """
    if not 0.0 <= eps <= 1.0:  # a NaN eps fails too
        raise ValueError(f"eps must lie in [0, 1], got {eps!r}")
    base_mu = pi.first_marginal
    split = split_marginals(pi, mu_bar_p, nu_p)
    mass = np.zeros(len(mu_bar_p))  # per perturbed atom: its mass from the cells
    fed = np.zeros((len(mu_bar_p), len(nu_p)))  # and the sum of their second marginals
    stages = []
    for piece in split.pieces:
        rows, cols = np.nonzero(piece["plan_rows"] > 1e-14)
        idx, plan = piece["base_indices"][rows], piece["plan_rows"][rows, cols]
        # a row of one pair keeps its base weight's bits: plan / plan is 1.0
        base_w = base_mu.weights[idx] * (plan / np.bincount(rows, plan)[rows])
        try:
            nu_rows, diag = approximate_pairs(
                base_mu.xs[idx], pi.y_support, base_w[:, None] * pi.kernels[idx], mu_bar_p.xs[cols], plan,
                piece["interval"], piece["nu"], eps,
            )
        except (ConvexOrderError, RuntimeError) as exc:
            raise RuntimeError(f"component {piece['interval']}: {exc}") from exc
        stages.append(diag)
        np.add.at(mass, cols, plan)
        # the piece's nu holds bitwise copies of nu''s atoms
        np.add.at(fed, (cols[:, None], np.searchsorted(nu_p.atoms, piece["nu"].atoms)), nu_rows)
    # the cells at one perturbed atom share its kernel, the plan-weighted mix
    # of theirs, so a cell's miss enters it times the cell's weight only
    a = np.flatnonzero(mass)
    kernels = fed[a] / fed[a].sum(axis=1, keepdims=True)
    miss = np.abs(kernels @ nu_p.atoms - mu_bar_p.xs[a])
    if not np.all(miss <= 1e-9):  # a NaN barycentre fails too
        raise RuntimeError(f"a perturbed atom's kernel has its barycentre {miss.max()!r} off its x, more than 1e-9")
    plan = split.stationary[:, None] * split.kernels
    plan[a] += mass[a, None] * kernels
    out = coupling_from_plan(mu_bar_p, nu_p, plan)
    return out, {"aw1": adapted_wasserstein(out, pi), "stages": stages}
