"""Extended couplings on R x U x R: disintegration, martingale checks,
flat and adapted Wasserstein distances, simple-coupling reduction, and
Hausdorff estimates between martingale polytopes.

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
from .measures import DiscreteMeasure, LiftedMeasure, mean, wasserstein_line


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

    def joint(self):
        """Sparse (x, u, y, weight) table of the joint measure."""
        out = []
        for i, ((x, u), w) in enumerate(zip(self.first_marginal.atoms, self.first_marginal.weights)):
            for j, y in enumerate(self.y_support):
                if self.kernels[i, j] > 0:
                    out.append((float(x), float(u), float(y), float(w * self.kernels[i, j])))
        return out

    def proj13(self) -> "DiscreteCoupling":
        """Forget the information label: coupling of (x marginal, nu)."""
        xs = np.unique(self.first_marginal.xs)
        K = np.zeros((xs.size, self.y_support.size))
        w = np.zeros(xs.size)
        for i, ((x, _u), wi) in enumerate(zip(self.first_marginal.atoms, self.first_marginal.weights)):
            j = int(np.searchsorted(xs, x))
            K[j] += wi * self.kernels[i]
            w[j] += wi
        K = K / w[:, None]
        return DiscreteCoupling(LiftedMeasure(np.column_stack([xs, np.zeros(xs.size)]), w), self.y_support, K)

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


def disintegrate(table, warn_tol: float = 0.0):
    """Build a coupling from a sparse (x, u, y, weight) table.

    Rows with zero mass are dropped; their count is returned alongside.
    """
    table = [(float(x), float(u), float(y), float(w)) for x, u, y, w in table]
    if any(w < -1e-12 for *_, w in table):
        raise ValueError("negative weight in table")
    ys = np.unique([y for _, _, y, _ in table])
    groups: dict[tuple, np.ndarray] = {}
    for x, u, y, w in table:
        key = (x, u)
        if key not in groups:
            groups[key] = np.zeros(ys.size)
        groups[key][int(np.searchsorted(ys, y))] += w
    dropped = 0
    atoms, weights, kernels = [], [], []
    for (x, u), row in sorted(groups.items()):
        tot = row.sum()
        if tot <= warn_tol or tot <= 0:
            dropped += 1
            continue
        atoms.append((x, u))
        weights.append(tot)
        kernels.append(row / tot)
    c = DiscreteCoupling(LiftedMeasure(atoms, weights), ys, np.array(kernels))
    return c, dropped


def check_martingale(c: DiscreteCoupling, tol: float = 1e-9):
    """Max deviation of kernel barycentres from their x coordinates."""
    dev = np.abs(c.kernels @ c.y_support - c.first_marginal.xs)
    worst = float(dev.max(initial=0.0))
    return worst <= tol, worst


def product_coupling(mu_bar: LiftedMeasure, nu: DiscreteMeasure) -> DiscreteCoupling:
    nu = nu.normalized() if abs(nu.mass - 1.0) > 1e-12 else nu
    K = np.tile(nu.weights / nu.mass, (len(mu_bar), 1))
    return DiscreteCoupling(mu_bar, nu.atoms, K)


def _triple_cost(a_triples, b_triples, p: float) -> np.ndarray:
    a = np.asarray(a_triples)[:, None, :]
    b = np.asarray(b_triples)[None, :, :]
    return (np.abs(a - b) ** p).sum(axis=2)


def wasserstein_coupling(c1: DiscreteCoupling, c2: DiscreteCoupling, p: float = 1.0) -> float:
    """Flat W_p between joint measures with the product metric on R x U x R."""
    j1, j2 = c1.joint(), c2.joint()
    t1 = [(x, u, y) for x, u, y, _ in j1]
    t2 = [(x, u, y) for x, u, y, _ in j2]
    w1 = np.array([w for *_, w in j1])
    w2 = np.array([w for *_, w in j2])
    _, value = transport_plan(_triple_cost(t1, t2, p), w1, w2)
    return float(value ** (1.0 / p))


def adapted_wasserstein(c1: DiscreteCoupling, c2: DiscreteCoupling, p: float = 1.0) -> float:
    """Adapted W_p: outer transport on (x, u) atoms with nested kernel cost."""
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


def simplify_coupling(c: DiscreteCoupling, eps: float):
    """Replace kernels by cell-conditional mixtures over u-cells of diameter <= eps.

    Cells are grown greedily left-to-right over the sorted labels, which
    keeps the reduction deterministic.  The first marginal and second
    marginal are unchanged; the output is a simple coupling whose kernels
    are constant in u on each cell (per x).  Returns (coupling, report)
    where the report carries the cell map and an adapted-W1 change bound.
    """
    labels = np.unique(c.first_marginal.us)
    cells = []
    start = None
    members: list[float] = []
    for u in labels:
        if start is None or u - start > eps:
            if members:
                cells.append(members)
            start = u
            members = [u]
        else:
            members.append(u)
    if members:
        cells.append(members)
    cell_of = {u: ci for ci, cell in enumerate(cells) for u in cell}

    fm = c.first_marginal
    new_kernels = np.array(c.kernels, copy=True)
    aw_change = 0.0
    for ci in range(len(cells)):
        for x in np.unique(fm.xs):
            idx = [
                i
                for i in range(len(fm))
                if fm.xs[i] == x and cell_of[fm.us[i]] == ci
            ]
            if not idx:
                continue
            w = fm.weights[idx]
            mix = (w @ c.kernels[idx]) / w.sum()
            for i in idx:
                aw_change += fm.weights[i] * wasserstein_line(
                    c.kernel_measure(i), DiscreteMeasure(c.y_support, mix).normalized(), 1.0
                )
                new_kernels[i] = mix
    out = DiscreteCoupling(fm, c.y_support, new_kernels)
    report = {
        "n_cells": len(cells),
        "kernel_mixture_cost": aw_change,
        "aw1_bound": eps + aw_change,
    }
    return out, report


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
    joint = np.array(c.joint()).reshape(-1, 4)
    grid = np.column_stack([np.repeat(mu_bar.atoms, len(nu), axis=0), np.tile(nu.atoms, len(mu_bar))])
    K, G = len(joint), len(grid)
    # variables: T (K*G), pi (G); T's column sums are tied to pi
    c_obj = np.concatenate([_triple_cost(joint[:, :3], grid, p).ravel(), np.zeros(G)])
    T = plan_rows(K, G)
    pol = martingale_polytope_lp(mu_bar, nu)
    A_eq = sparse.bmat([[T[:K], None], [T[K:], -sparse.eye_array(G)], [None, pol.A_eq]], format="csr")
    b_eq = np.concatenate([joint[:, 3], np.zeros(G), pol.b_eq])
    sol = solve_lp(LinearProgram(c=c_obj, A_eq=A_eq, b_eq=b_eq))
    if not sol.optimal:
        raise RuntimeError(f"distance LP failed: {sol.status}")
    return float(sol.value ** (1.0 / p))


def hausdorff_mot(
    mu_bar1: LiftedMeasure,
    nu1: DiscreteMeasure,
    mu_bar2: LiftedMeasure,
    nu2: DiscreteMeasure,
    p: float = 1.0,
    n_samples: int = 8,
    seed: int = 0,
):
    """Hausdorff distance bounds between two martingale polytopes.

    Exact when vertex enumeration passes the dimension guard on both
    sides (the sup of a convex distance function over a polytope is
    attained at a vertex).  Otherwise a sampled lower bound and a
    triangle-type upper bound via the marginal distances are returned.
    """
    lifted_w1 = _lifted_wasserstein(mu_bar1, mu_bar2, p)
    nu_w = wasserstein_line(nu1, nu2, p)
    try:
        v1 = enumerate_vertices(martingale_polytope_lp(mu_bar1, nu1))
        v2 = enumerate_vertices(martingale_polytope_lp(mu_bar2, nu2))
        d12 = max(
            distance_to_polytope(coupling_from_plan(mu_bar1, nu1, v), mu_bar2, nu2, p) for v in v1
        )
        d21 = max(
            distance_to_polytope(coupling_from_plan(mu_bar2, nu2, v), mu_bar1, nu1, p) for v in v2
        )
        d = max(d12, d21)
        return {"lower": d, "upper": d, "mode": "exact"}
    except DimensionGuardError:
        pass
    rng = np.random.default_rng(seed)
    lower = 0.0
    for _ in range(n_samples):
        cost = rng.standard_normal((len(mu_bar1), len(nu1)))
        sol = solve_lp(martingale_polytope_lp(mu_bar1, nu1, cost))
        if sol.optimal:
            c = coupling_from_plan(mu_bar1, nu1, sol.x)
            lower = max(lower, distance_to_polytope(c, mu_bar2, nu2, p))
        cost2 = rng.standard_normal((len(mu_bar2), len(nu2)))
        sol2 = solve_lp(martingale_polytope_lp(mu_bar2, nu2, cost2))
        if sol2.optimal:
            c2 = coupling_from_plan(mu_bar2, nu2, sol2.x)
            lower = max(lower, distance_to_polytope(c2, mu_bar1, nu1, p))
    upper = lower + lifted_w1 + 2.0 * nu_w
    return {"lower": lower, "upper": upper, "mode": "sampled"}


def _lifted_wasserstein(m1: LiftedMeasure, m2: LiftedMeasure, p: float = 1.0) -> float:
    a = m1.atoms[:, None, :]
    b = m2.atoms[None, :, :]
    cost = (np.abs(a - b) ** p).sum(axis=2)
    _, value = transport_plan(cost, m1.weights, m2.weights)
    return float(value ** (1.0 / p))
