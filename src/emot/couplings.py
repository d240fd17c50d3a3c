"""Extended couplings on R x U x R: disintegration, martingale checks, the
adapted W1 distance, martingale polytope LPs, and W1 Hausdorff distances
between martingale polytopes (``hausdorff_mot``: exact by vertex
enumeration within the dimension guard, sampled bounds past it).

A coupling is stored in kernel view: first-marginal atoms (x, u), each
carrying a probability kernel over one shared y-support.  This is the
image under the kernel-law injection of the joint measure and round-trips
exactly with ``disintegrate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy import sparse

from .convex_order import IrreducibleDecomposition, irreducible_decomposition
from .lp_core import DimensionGuardError, LinearProgram, enumerate_vertices, plan_rows, solve_lp, transport_plan
from .measures import DiscreteMeasure, LiftedMeasure, NonFiniteError, merge_atoms, wasserstein_line


@dataclass(frozen=True)
class DiscreteCoupling:
    """A coupling in kernel view, fixed at construction: its arrays are
    treated as immutable, so what is derived from them alone, such as
    ``decomposition``, is computed once and kept."""

    first_marginal: LiftedMeasure
    y_support: np.ndarray  # sorted, shared across kernels
    kernels: np.ndarray  # (n_atoms, n_y), rows sum to 1

    def __init__(self, first_marginal: LiftedMeasure, y_support, kernels):
        y_support = np.asarray(y_support, dtype=float).ravel()
        kernels = np.asarray(kernels, dtype=float)
        kernels = kernels.reshape(len(first_marginal), y_support.size)
        # the support is sorted, and the kernel columns move with it
        order = np.argsort(y_support, kind="stable")
        y_support, kernels = y_support[order], kernels[:, order]
        if np.any(kernels < -1e-12):
            raise ValueError("negative kernel weight")
        kernels = np.maximum(kernels, 0.0)
        rows = kernels.sum(axis=1)
        if not np.all(np.abs(rows - 1.0) <= 1e-9):  # a NaN row fails too
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

    def x_marginal(self) -> DiscreteMeasure:
        return self.first_marginal.x_marginal()

    @cached_property
    def decomposition(self) -> tuple[IrreducibleDecomposition, np.ndarray]:
        """The irreducible decomposition of (x marginal, second marginal),
        and the component index of each first-marginal atom, -1 where it is
        stationary, read-only; computed on first use and kept."""
        mu = self.x_marginal()
        decomp = irreducible_decomposition(mu, self.second_marginal())
        # a first-marginal atom takes the label of the mu atom its x merged
        # into, the nearest one, as mu's atoms lie more than MERGE_TOL apart
        labels = decomp.labels[np.searchsorted(0.5 * (mu.atoms[1:] + mu.atoms[:-1]), self.first_marginal.xs)]
        labels.flags.writeable = False
        return decomp, labels

    def joint(self) -> np.ndarray:
        """(k, 4) table of (x, u, y, weight) over the joint measure's support,
        row-major in (first-marginal atom, y)."""
        i, j = np.nonzero(self.kernels > 0)
        fm = self.first_marginal
        return np.column_stack([fm.xs[i], fm.us[i], self.y_support[j], fm.weights[i] * self.kernels[i, j]])

    def to_dict(self) -> dict:
        return {
            "first_marginal": self.first_marginal.to_dict(),
            "y_support": self.y_support.tolist(),
            "kernels": self.kernels.tolist(),
        }

    @staticmethod
    def from_dict(data: dict) -> "DiscreteCoupling":
        """The coupling of a dict form, built by ``disintegrate`` from its
        (x, u, y, weight * kernel) table, so that the order of the atoms with
        their kernel rows, and of the y support with the kernel columns,
        changes no bit.  Kernels without one row per atom and one column per
        y, or whose rows do not sum to 1, raise ``ValueError``, and a
        non-finite entry ``NonFiniteError``."""
        fm = data["first_marginal"]
        atoms = np.asarray(fm["atoms"], dtype=float).reshape(-1, 2)
        weights, ys = (np.asarray(v, dtype=float).ravel() for v in (fm["weights"], data["y_support"]))
        kernels = np.asarray(data["kernels"], dtype=float)
        if weights.size != len(atoms) or kernels.shape != (len(atoms), ys.size):
            raise ValueError("kernels need one row per first-marginal atom and one column per y")
        if np.any(np.abs(kernels.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("kernel rows must sum to 1")
        n, m = kernels.shape
        return disintegrate(np.column_stack([np.repeat(atoms, m, axis=0), np.tile(ys, n),
                                             (weights[:, None] * kernels).ravel()]))[0]


def disintegrate(table):
    """Build a coupling from a sparse (x, u, y, weight) table.

    Rows whose (x, u) keys ``merge_atoms`` merges share one kernel, at the
    merged atom.  Atoms with zero mass are dropped; their count is returned
    alongside.  A non-finite entry raises ``NonFiniteError``.
    """
    table = np.asarray(table, dtype=float).reshape(-1, 4)
    if not np.isfinite(table).all():
        raise NonFiniteError("coupling table entries must be finite")
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


def _point_cost(a_points, b_points) -> np.ndarray:
    """Sum over coordinates of |a - b|, for every pair of rows."""
    a = np.asarray(a_points)[:, None, :]
    b = np.asarray(b_points)[None, :, :]
    return np.abs(a - b).sum(axis=2)


def _kernel_cdfs(ys: np.ndarray, rows: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Each row's mass at or left of each point of ``grid``, for rows of
    weights on the sorted atoms ys."""
    cum = np.zeros((len(rows), ys.size + 1))
    np.cumsum(rows, axis=1, out=cum[:, 1:])
    return cum[:, np.searchsorted(ys, grid, side="right")]


def adapted_wasserstein(c1: DiscreteCoupling, c2: DiscreteCoupling) -> float:
    """Adapted W1: outer transport on (x, u) atoms with nested kernel cost.

    The kernel cost is W1 on the line in its CDF form: on the union grid g
    of both y supports, with F1 and F2 the kernels' cumulative masses at g,
    inner[i] = |F1[i] - F2| @ diff(g), one row of F1 at a time, so no array
    exceeds n2 x |g|."""
    fm1, fm2 = c1.first_marginal, c2.first_marginal
    g = np.union1d(c1.y_support, c2.y_support)
    F1, F2 = (_kernel_cdfs(c.y_support, c.kernels, g[:-1]) for c in (c1, c2))
    dg = np.diff(g)
    inner = np.array([np.abs(f - F2) @ dg for f in F1])
    _, value = transport_plan(_point_cost(fm1.atoms, fm2.atoms) + inner, fm1.weights, fm2.weights)
    return float(value)


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


def distance_to_polytope(c: DiscreteCoupling, mu_bar: LiftedMeasure, nu: DiscreteMeasure) -> float:
    """W1 distance from a coupling to the polytope Pi_M(mu_bar, nu).

    Single LP: joint variables are a member of the polytope together with
    a transport plan from the support of c to the member's support grid.
    """
    joint = c.joint()
    grid = np.column_stack([np.repeat(mu_bar.atoms, len(nu), axis=0), np.tile(nu.atoms, len(mu_bar))])
    K, G = len(joint), len(grid)
    # variables: T (K*G), pi (G); T's column sums are tied to pi
    c_obj = np.concatenate([_point_cost(joint[:, :3], grid).ravel(), np.zeros(G)])
    T = plan_rows(K, G)
    pol = martingale_polytope_lp(mu_bar, nu)
    A_eq = sparse.bmat([[T[:K], None], [T[K:], -sparse.eye_array(G)], [None, pol.A_eq]], format="csr")
    b_eq = np.concatenate([joint[:, 3], np.zeros(G), pol.b_eq])
    return float(solve_lp(LinearProgram(c=c_obj, A_eq=A_eq, b_eq=b_eq)).value)


def hausdorff_mot(mu_bar1: LiftedMeasure, nu1: DiscreteMeasure, mu_bar2: LiftedMeasure, nu2: DiscreteMeasure):
    """W1 Hausdorff distance bounds between two martingale polytopes.

    Exact when vertex enumeration passes the dimension guard on both
    sides (the sup of a convex distance function over a polytope is
    attained at a vertex).  Otherwise a lower bound sampled from 8 vertices
    per side (random costs, seed 0) and a triangle-type upper bound via the
    marginal distances are returned.  ``mode`` says which: "exact" or
    "sampled".  ``run_stability`` reaches the sampled mode when the
    perturbation adds atoms (``quantile_discretize`` on a 3 x 3 pair).
    """
    lifted_w1 = _lifted_wasserstein(mu_bar1, mu_bar2)
    nu_w = wasserstein_line(nu1, nu2)
    # each side's couplings measured against the other side's polytope
    sides = [(mu_bar1, nu1, mu_bar2, nu2), (mu_bar2, nu2, mu_bar1, nu1)]
    try:
        vertices = [enumerate_vertices(martingale_polytope_lp(mb, nu)) for mb, nu, _, _ in sides]
        d = max(
            distance_to_polytope(coupling_from_plan(mb, nu, v), mb_o, nu_o)
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
            lower = max(lower, distance_to_polytope(coupling_from_plan(mb, nu, sol.x), mb_o, nu_o))
    upper = lower + lifted_w1 + 2.0 * nu_w
    return {"lower": lower, "upper": upper, "mode": "sampled"}


def _lifted_wasserstein(m1: LiftedMeasure, m2: LiftedMeasure) -> float:
    _, value = transport_plan(_point_cost(m1.atoms, m2.atoms), m1.weights, m2.weights)
    return float(value)
