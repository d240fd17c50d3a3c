"""Linear programming layer: a thin contract around a simplex-type solver,
one sparse builder for constraint matrices (``block_rows``), and basis
enumeration for tiny polytopes.

Solves are deterministic for fixed input and always return dual
multipliers and a vertex flag.  ``enumerate_vertices`` lists all extreme
points of small standard-form polytopes by basic-feasible-solution
enumeration; it is the exactness backbone of the Hausdorff estimates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

FEAS_TOL = 1e-9
GAP_TOL = 1e-8


class DimensionGuardError(ValueError):
    """Polytope too large for exhaustive vertex enumeration."""


class Block(NamedTuple):
    """Rows for ``block_rows``: with ``coef`` of shape (k, r, m), row
    row0 + q*r + s carries coef[q, s, t] in column col0 + q*steps[0] +
    t*steps[1].  Steps default to (m, 1), block q's own m columns."""

    coef: np.ndarray
    row0: int = 0
    col0: int = 0
    steps: Optional[tuple] = None


def block_rows(blocks, shape) -> sparse.csr_array:
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


def plan_rows(n: int, m: int, branches: int = 1, mart: Optional[np.ndarray] = None) -> sparse.csr_array:
    """Rows over a plan indexed (i, branch, j): one mass row per i (summed over
    branches), one per j, and given ``mart`` (n x m) one barycentre row per
    (i, branch) carrying mart[i]."""
    blocks = [Block(np.ones((n, 1, branches * m))), Block(np.ones((m, 1, n * branches)), row0=n, steps=(1, m))]
    if mart is not None:
        blocks.append(Block(np.repeat(mart, branches, axis=0)[:, None, :], row0=n + m))
    return block_rows(blocks, (n + m + (0 if mart is None else n * branches), n * branches * m))


@dataclass
class LinearProgram:
    """min/max c @ x subject to A_eq x = b_eq, A_ub x <= b_ub, x >= lb.

    A_eq and A_ub are held as CSR, whatever form they are given in."""

    c: np.ndarray
    A_eq: Optional[sparse.csr_array] = None
    b_eq: Optional[np.ndarray] = None
    A_ub: Optional[sparse.csr_array] = None
    b_ub: Optional[np.ndarray] = None
    bounds: Optional[list] = None  # per-variable (lo, hi); default (0, None)
    sense: str = "min"

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        for name in ("A_eq", "b_eq", "A_ub", "b_ub"):
            v = getattr(self, name)
            if v is not None:
                v = v if sparse.issparse(v) else np.asarray(v, dtype=float)
                setattr(self, name, sparse.csr_array(v, dtype=float) if name[0] == "A" else v)
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if not np.all(np.isfinite(self.c)):
            raise ValueError("non-finite objective coefficients")

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass
class LPSolution:
    status: str  # optimal / infeasible / unbounded
    x: Optional[np.ndarray]
    duals_eq: Optional[np.ndarray]
    duals_ub: Optional[np.ndarray]
    value: Optional[float]
    is_vertex: bool = False

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def solve_lp(p: LinearProgram) -> LPSolution:
    """Solve with the dual-simplex backend; vertex solutions, duals attached."""
    sign = 1.0 if p.sense == "min" else -1.0
    res = linprog(
        sign * p.c,
        A_ub=p.A_ub,
        b_ub=p.b_ub,
        A_eq=p.A_eq,
        b_eq=p.b_eq,
        bounds=p.bounds if p.bounds is not None else (0, None),
        method="highs-ds",
    )
    if res.status == 2:
        return LPSolution("infeasible", None, None, None, None)
    if res.status == 3:
        return LPSolution("unbounded", None, None, None, None)
    if res.status != 0:
        raise RuntimeError(f"LP solver failure: {res.message}")
    duals_eq = sign * np.asarray(res.eqlin.marginals) if p.A_eq is not None else None
    duals_ub = sign * np.asarray(res.ineqlin.marginals) if p.A_ub is not None else None
    value = sign * float(res.fun)
    return LPSolution("optimal", np.asarray(res.x), duals_eq, duals_ub, value, is_vertex=True)


def transport_plan(cost: np.ndarray, w_row: np.ndarray, w_col: np.ndarray):
    """Optimal transport plan between two weight vectors for a cost matrix.

    Returns (plan, value).  Masses must agree up to 1e-9.
    """
    cost = np.asarray(cost, dtype=float)
    w_row = np.asarray(w_row, dtype=float)
    w_col = np.asarray(w_col, dtype=float)
    n, m = cost.shape
    if abs(w_row.sum() - w_col.sum()) > 1e-9 * max(1.0, w_row.sum()):
        raise ValueError("transport requires equal masses")
    A_eq = plan_rows(n, m)
    b_eq = np.concatenate([w_row, w_col])
    sol = solve_lp(LinearProgram(c=cost.ravel(), A_eq=A_eq, b_eq=b_eq))
    if not sol.optimal:
        raise RuntimeError(f"transport LP failed: {sol.status}")
    return sol.x.reshape(n, m), sol.value


def enumerate_vertices(p: LinearProgram, max_vertices: int = 10000) -> list:
    """All vertices of a small polytope by basic-solution enumeration.

    Inequality rows are converted to equalities with slack variables; the
    total variable count (including slacks) is guarded.  Duplicate vertices
    within 1e-9 are removed.
    """
    n = p.n_vars
    n_slack = 0 if p.A_ub is None else p.A_ub.shape[0]
    if p.bounds is not None:
        for lo, hi in p.bounds:
            if lo != 0 or hi is not None:
                raise ValueError("enumerate_vertices supports x >= 0 bounds only")
    total = n + n_slack
    if total > 16 or n > 12:
        raise DimensionGuardError(f"{n} variables (+{n_slack} slacks) exceed the enumeration guard")
    rows = []
    if p.A_eq is not None:
        rows.append(np.hstack([p.A_eq.toarray(), np.zeros((p.A_eq.shape[0], n_slack))]))
    if p.A_ub is not None:
        rows.append(np.hstack([p.A_ub.toarray(), np.eye(n_slack)]))
    A = np.vstack(rows) if rows else np.zeros((0, total))
    b = np.concatenate(
        [v for v in (p.b_eq, p.b_ub) if v is not None]
    ) if A.shape[0] else np.zeros(0)
    r = np.linalg.matrix_rank(A) if A.size else 0
    vertices: list[np.ndarray] = []
    for cols in itertools.combinations(range(total), r):
        B = A[:, cols]
        if np.linalg.matrix_rank(B) < r:
            continue
        x_b, *_ = np.linalg.lstsq(B, b, rcond=None)
        x = np.zeros(total)
        x[list(cols)] = x_b
        if np.any(x < -FEAS_TOL):
            continue
        if np.max(np.abs(A @ x - b), initial=0.0) > FEAS_TOL * max(1.0, np.abs(b).max(initial=1.0)):
            continue
        x = np.maximum(x, 0.0)[:n]
        if any(np.max(np.abs(x - v)) <= 1e-9 for v in vertices):
            continue
        vertices.append(x)
        if len(vertices) >= max_vertices:
            break
    return vertices


def dump_lp(p: LinearProgram) -> str:
    """Plain-text dump (objective, rows, bounds) for external cross-checks."""
    lines = [f"sense {p.sense}", "objective " + " ".join(f"{v:.17g}" for v in p.c)]
    if p.A_eq is not None:
        for row, rhs in zip(p.A_eq.toarray(), p.b_eq):
            lines.append("eq " + " ".join(f"{v:.17g}" for v in row) + f" = {rhs:.17g}")
    if p.A_ub is not None:
        for row, rhs in zip(p.A_ub.toarray(), p.b_ub):
            lines.append("ub " + " ".join(f"{v:.17g}" for v in row) + f" <= {rhs:.17g}")
    bounds = p.bounds if p.bounds is not None else [(0, None)] * p.n_vars
    lines.append("bounds " + " ".join(f"{lo}:{'inf' if hi is None else hi}" for lo, hi in bounds))
    return "\n".join(lines) + "\n"
