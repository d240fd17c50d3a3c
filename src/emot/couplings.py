"""Extended couplings on R x U x R: disintegration, martingale checks,
flat and adapted Wasserstein distances, martingale polytope LPs, and
Hausdorff distances between martingale polytopes (``hausdorff_mot``: exact
by vertex enumeration within the dimension guard, sampled bounds past it).

A coupling is stored in kernel view: first-marginal atoms (x, u), each
carrying a probability kernel over one shared y-support.  This is the
image under the kernel-law injection of the joint measure and round-trips
exactly with ``disintegrate``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .lp_core import DimensionGuardError, LinearProgram, enumerate_vertices, plan_rows, solve_lp, transport_plan
from .measures import DiscreteMeasure, LiftedMeasure, merge_atoms, wasserstein_line, wasserstein_rows


@dataclass(frozen=True)
class DiscreteCoupling:
    first_marginal: LiftedMeasure
    y_support: np.ndarray  # sorted, shared across kernels
    kernels: np.ndarray  # (n_atoms, n_y), rows sum to 1

    def __init__(self, first_marginal: LiftedMeasure, y_support, kernels):
        y_support = np.asarray(y_support, dtype=float).ravel()
        kernels = np.asarray(kernels, dtype=float)
        kernels = kernels.reshape(len(first_marginal), y_support.size)
        if np.any(kernels < -1e-12):
            raise ValueError("negative kernel weight")
        kernels = np.maximum(kernels, 0.0)
        rows = kernels.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-9):
            raise ValueError("kernel rows must sum to 1")
        kernels = kernels / rows[:, None]
        object.__setattr__(self, "first_marginal", first_marginal)
        object.__setattr__(self, "y_support", y_support)
        object.__setattr__(self, "kernels", kernels)

    @property
    def mass(self) -> float:
        return self.first_marginal.mass

    def second_marginal(self) -> DiscreteMeasure:
        return DiscreteMeasure(self.y_support, self.first_marginal.weights @ self.kernels)

    def kernel_measure(self, i: int) -> DiscreteMeasure:
        return DiscreteMeasure(self.y_support, self.kernels[i])

    def x_marginal(self) -> DiscreteMeasure:
        return self.first_marginal.x_marginal()

    def joint(self) -> np.ndarray:
        """(k, 4) table of (x, u, y, weight) over the joint measure's support,
        row-major in (first-marginal atom, y)."""
        i, j = np.nonzero(self.kernels > 0)
        fm = self.first_marginal
        return np.column_stack([fm.xs[i], fm.us[i], self.y_support[j], fm.weights[i] * self.kernels[i, j]])

    def proj13(self) -> "DiscreteCoupling":
        """Forget the information label: coupling of (x marginal, nu)."""
        fm = self.first_marginal
        xs, row = np.unique(fm.xs, return_inverse=True)
        w = np.zeros(xs.size)
        K = np.zeros((xs.size, self.y_support.size))
        np.add.at(w, row, fm.weights)
        np.add.at(K, row, fm.weights[:, None] * self.kernels)
        flat = LiftedMeasure(np.column_stack([xs, np.zeros(xs.size)]), w)
        return DiscreteCoupling(flat, self.y_support, K / w[:, None])

    def to_json(self) -> str:
        return json.dumps(
            {
                "first_marginal": json.loads(self.first_marginal.to_json()),
                "y_support": self.y_support.tolist(),
                "kernels": self.kernels.tolist(),
            }
        )

    @staticmethod
    def from_json(text: str) -> "DiscreteCoupling":
        data = json.loads(text)
        fm = LiftedMeasure(data["first_marginal"]["atoms"], data["first_marginal"]["weights"])
        return DiscreteCoupling(fm, data["y_support"], data["kernels"])


def disintegrate(table):
    """Build a coupling from a sparse (x, u, y, weight) table.

    Rows whose (x, u) keys ``merge_atoms`` merges share one kernel, at the
    merged atom.  Atoms with zero mass are dropped; their count is returned
    alongside.
    """
    table = np.asarray(table, dtype=float).reshape(-1, 4)
    if np.any(table[:, 3] < -1e-12):
        raise ValueError("negative weight in table")
    ys, col = np.unique(table[:, 2], return_inverse=True)
    atoms, _, order, group = merge_atoms(table[:, :2], table[:, 3])
    rows = np.zeros((len(atoms), ys.size))
    np.add.at(rows, (group, col[order]), table[order, 3])
    tot = rows.sum(axis=1)
    keep = tot > 0
    c = DiscreteCoupling(LiftedMeasure(atoms[keep], tot[keep]), ys, rows[keep] / tot[keep, None])
    return c, int((~keep).sum())


def check_martingale(c: DiscreteCoupling, tol: float = 1e-9):
    """Max deviation of kernel barycentres from their x coordinates."""
    dev = np.abs(c.kernels @ c.y_support - c.first_marginal.xs)
    worst = float(dev.max(initial=0.0))
    return worst <= tol, worst


def _point_cost(a_points, b_points, p: float) -> np.ndarray:
    """Sum over coordinates of |a - b|^p, for every pair of rows."""
    a = np.asarray(a_points)[:, None, :]
    b = np.asarray(b_points)[None, :, :]
    return (np.abs(a - b) ** p).sum(axis=2)


def wasserstein_coupling(c1: DiscreteCoupling, c2: DiscreteCoupling, p: float = 1.0) -> float:
    """Flat W_p between joint measures with the product metric on R x U x R."""
    j1, j2 = c1.joint(), c2.joint()
    _, value = transport_plan(_point_cost(j1[:, :3], j2[:, :3], p), j1[:, 3], j2[:, 3])
    return float(value ** (1.0 / p))


def adapted_wasserstein(c1: DiscreteCoupling, c2: DiscreteCoupling, p: float = 1.0) -> float:
    """Adapted W_p: outer transport on (x, u) atoms with nested kernel cost."""
    fm1, fm2 = c1.first_marginal, c2.first_marginal
    inner = np.array([wasserstein_rows(c1.y_support, k, c2.y_support, c2.kernels, p) for k in c1.kernels])
    dx = np.abs(fm1.xs[:, None] - fm2.xs[None, :])
    du = np.abs(fm1.us[:, None] - fm2.us[None, :])
    _, value = transport_plan(dx ** p + du ** p + inner ** p, fm1.weights, fm2.weights)
    return float(value ** (1.0 / p))


# -- martingale polytope helpers -----------------------------------------


def martingale_polytope_lp(mu_bar: LiftedMeasure, nu: DiscreteMeasure, cost: Optional[np.ndarray] = None):
    """Standard-form LP over Pi_M(mu_bar, nu): variables pi(i, j) >= 0."""
    n, m = len(mu_bar), len(nu)
    b_eq = np.concatenate([mu_bar.weights, nu.weights, np.zeros(n)])
    c = np.zeros(n * m) if cost is None else np.asarray(cost, dtype=float).ravel()
    return LinearProgram(c=c, A_eq=plan_rows(n, m, mart=nu.atoms[None, :] - mu_bar.xs[:, None]), b_eq=b_eq)


def coupling_from_plan(mu_bar: LiftedMeasure, nu: DiscreteMeasure, plan: np.ndarray) -> DiscreteCoupling:
    plan = plan.reshape(len(mu_bar), len(nu))
    rows = plan.sum(axis=1)
    keep = rows > 1e-14
    kernels = plan[keep] / rows[keep, None]
    fm = LiftedMeasure(mu_bar.atoms[keep], rows[keep])
    return DiscreteCoupling(fm, nu.atoms, kernels)


def distance_to_polytope(c: DiscreteCoupling, mu_bar: LiftedMeasure, nu: DiscreteMeasure, p: float = 1.0) -> float:
    """W_p distance from a coupling to the polytope Pi_M(mu_bar, nu).

    Single LP: joint variables are a member of the polytope together with
    a transport plan from the support of c to the member's support grid.
    """
    joint = c.joint()
    grid = np.column_stack([np.repeat(mu_bar.atoms, len(nu), axis=0), np.tile(nu.atoms, len(mu_bar))])
    K, G = len(joint), len(grid)
    # variables: T (K*G), pi (G); T's column sums are tied to pi
    c_obj = np.concatenate([_point_cost(joint[:, :3], grid, p).ravel(), np.zeros(G)])
    T = plan_rows(K, G)
    pol = martingale_polytope_lp(mu_bar, nu)
    A_eq = sparse.bmat([[T[:K], None], [T[K:], -sparse.eye_array(G)], [None, pol.A_eq]], format="csr")
    b_eq = np.concatenate([joint[:, 3], np.zeros(G), pol.b_eq])
    return float(solve_lp(LinearProgram(c=c_obj, A_eq=A_eq, b_eq=b_eq)).value ** (1.0 / p))


def hausdorff_mot(
    mu_bar1: LiftedMeasure,
    nu1: DiscreteMeasure,
    mu_bar2: LiftedMeasure,
    nu2: DiscreteMeasure,
    p: float = 1.0,
):
    """Hausdorff distance bounds between two martingale polytopes.

    Exact when vertex enumeration passes the dimension guard on both
    sides (the sup of a convex distance function over a polytope is
    attained at a vertex).  Otherwise a lower bound sampled from 8 vertices
    per side (random costs, seed 0) and a triangle-type upper bound via the
    marginal distances are returned.  ``mode`` says which: "exact" or
    "sampled".  ``run_stability`` reaches the sampled mode when the
    perturbation adds atoms (``quantile_discretize`` on a 3 x 3 pair).
    """
    lifted_w1 = _lifted_wasserstein(mu_bar1, mu_bar2, p)
    nu_w = wasserstein_line(nu1, nu2, p)
    # each side's couplings measured against the other side's polytope
    sides = [(mu_bar1, nu1, mu_bar2, nu2), (mu_bar2, nu2, mu_bar1, nu1)]
    try:
        vertices = [enumerate_vertices(martingale_polytope_lp(mb, nu)) for mb, nu, _, _ in sides]
        d = max(
            distance_to_polytope(coupling_from_plan(mb, nu, v), mb_o, nu_o, p)
            for (mb, nu, mb_o, nu_o), vs in zip(sides, vertices)
            for v in vs
        )
        return {"lower": d, "upper": d, "mode": "exact"}
    except DimensionGuardError:
        pass
    rng = np.random.default_rng(0)
    lower = 0.0
    for _ in range(8):
        for mb, nu, mb_o, nu_o in sides:
            sol = solve_lp(martingale_polytope_lp(mb, nu, rng.standard_normal((len(mb), len(nu)))))
            lower = max(lower, distance_to_polytope(coupling_from_plan(mb, nu, sol.x), mb_o, nu_o, p))
    upper = lower + lifted_w1 + 2.0 * nu_w
    return {"lower": lower, "upper": upper, "mode": "sampled"}


def _lifted_wasserstein(m1: LiftedMeasure, m2: LiftedMeasure, p: float = 1.0) -> float:
    _, value = transport_plan(_point_cost(m1.atoms, m2.atoms, p), m1.weights, m2.weights)
    return float(value ** (1.0 / p))
