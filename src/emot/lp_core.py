"""Linear programming layer: one call into HiGHS that picks its method from
the LP, one sparse builder for constraint matrices (``block_rows``), and
basis enumeration for tiny polytopes.

``solve_lp`` runs HiGHS's interior point with crossover (IPX) on LPs with
at least ``IPM_MIN_COLS`` columns whose constraint matrix holds an entry
other than 0/+-1, and dual simplex on every other LP.  Both parts of the
rule are measured.  Size: on the degenerate martingale-type LPs (mot,
American, shadow, VIX bins) the interior point takes 20-30 iterations where
dual simplex pivots thousands of times, and from about 3 000 columns it is
faster (time ratios 0.37 American at 10 440 columns, 0.54 mot at 14 500,
0.73 shadow at 3 480); on such LPs of 400-2 320 columns it was 1.1-1.8x
slower.  Structure: a matrix of 0/+-1 entries is a transport (network) LP,
where dual simplex won at every size measured (the interior point took
about 2x as long at 60x60, 100x100 and 150x150).

Solves are deterministic for fixed input.  ``solve_lp`` returns an optimal
vertex with its dual multipliers (crossover ends the interior point on a
basic solution) or raises ``LPError``, so callers check no status.
``enumerate_vertices`` lists all extreme points of small standard-form
polytopes by basic-feasible-solution enumeration; it is the exactness
backbone of the Hausdorff estimates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

FEAS_TOL = 1e-9
IPM_MIN_COLS = 3000
MAX_VERTICES = 10000  # enumerate_vertices stops after this many


class DimensionGuardError(ValueError):
    """Polytope too large for exhaustive vertex enumeration."""


class LPError(RuntimeError):
    """An LP that HiGHS did not solve to optimality, raised as
    ``LPError(status, message)``.  ``status`` is "infeasible", "unbounded"
    or "failed"; the message gives the LP's shape and HiGHS's own message."""

    @property
    def status(self) -> str:
        return self.args[0]

    def __str__(self) -> str:
        return self.args[1]


class CertificateError(RuntimeError):
    """A solver's answer that failed its own check."""


class Block(NamedTuple):
    """Rows for ``block_rows``: with ``coef`` of shape (k, r, m), row
    row0 + q*r + s carries coef[q, s, t] in column col0 + q*steps[0] +
    t*steps[1].  Steps default to (m, 1), block q's own m columns."""

    coef: np.ndarray
    row0: int = 0
    col0: int = 0
    steps: Optional[tuple] = None


def block_rows(blocks, shape) -> sparse.csr_array:
    """Canonical CSR matrix of row blocks, filled from the known row lengths:
    indices sorted within each row, a cell written twice holds the sum, and
    zeros are not stored."""
    blocks = [(np.asarray(coef, dtype=float), row0, col0, steps) for coef, row0, col0, steps in blocks]
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    for coef, row0, _, _ in blocks:
        k, r, m = coef.shape
        indptr[row0 + 1:row0 + 1 + k * r] += m
    indptr = np.cumsum(indptr)
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int64)
    fill = indptr[:-1].copy()  # next free slot of each row
    for coef, row0, col0, steps in blocks:
        k, r, m = coef.shape
        q_step, t_step = steps or (m, 1)
        at = fill[row0:row0 + k * r, None] + np.arange(m)
        fill[row0:row0 + k * r] += m
        data[at] = coef.reshape(k * r, m)
        cols = col0 + q_step * np.arange(k)[:, None, None] + t_step * np.arange(m)
        indices[at] = np.broadcast_to(cols, coef.shape).reshape(k * r, m)
    A = sparse.csr_array((data, indices, indptr), shape=shape)
    A.sum_duplicates()  # sorts the indices of rows that several blocks share
    A.eliminate_zeros()
    return A


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
    """An optimal vertex of an LP, with the multipliers of its equality and
    inequality rows (None where the LP has no such rows)."""

    x: np.ndarray
    duals_eq: Optional[np.ndarray]
    duals_ub: Optional[np.ndarray]
    value: float


def solve_lp(p: LinearProgram) -> LPSolution:
    """Solve with HiGHS: an optimal vertex with duals attached, or ``LPError``.

    The method follows the LP: interior point with crossover when it has at
    least ``IPM_MIN_COLS`` columns and a constraint coefficient other than
    0/+-1, dual simplex otherwise (see the module docstring for the
    measurements behind both parts)."""
    sign = 1.0 if p.sense == "min" else -1.0
    ipm = p.n_vars >= IPM_MIN_COLS and not all(
        np.isin(A.data, (-1.0, 0.0, 1.0)).all() for A in (p.A_eq, p.A_ub) if A is not None
    )
    res = linprog(
        sign * p.c,
        A_ub=p.A_ub,
        b_ub=p.b_ub,
        A_eq=p.A_eq,
        b_eq=p.b_eq,
        bounds=p.bounds if p.bounds is not None else (0, None),
        method="highs-ipm" if ipm else "highs-ds",
    )
    if not res.success:
        status = {2: "infeasible", 3: "unbounded"}.get(res["status"], "failed")
        rows = sum(A.shape[0] for A in (p.A_eq, p.A_ub) if A is not None)
        raise LPError(status, f"LP ({rows} rows, {p.n_vars} columns) {status}: {res.message}")
    duals_eq = sign * np.asarray(res.eqlin.marginals) if p.A_eq is not None else None
    duals_ub = sign * np.asarray(res.ineqlin.marginals) if p.A_ub is not None else None
    value = sign * float(res.fun)
    return LPSolution(np.asarray(res.x), duals_eq, duals_ub, value)


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
    return sol.x.reshape(n, m), sol.value


def enumerate_vertices(p: LinearProgram) -> list:
    """All vertices of a small polytope {x >= 0 : A_eq x = b_eq} by
    basic-solution enumeration.

    Only equality-form LPs are taken, and the variable count is guarded.
    Duplicate vertices within 1e-9 are removed, and the list stops at
    ``MAX_VERTICES``.
    """
    if p.A_eq is None or p.A_ub is not None or p.bounds is not None:
        raise ValueError("enumerate_vertices takes equality-form LPs with x >= 0 only")
    n = p.n_vars
    if n > 12:
        raise DimensionGuardError(f"{n} variables exceed the enumeration guard")
    A, b = p.A_eq.toarray(), p.b_eq
    r = np.linalg.matrix_rank(A)
    vertices: list[np.ndarray] = []
    for cols in itertools.combinations(range(n), r):
        B = A[:, cols]
        if np.linalg.matrix_rank(B) < r:
            continue
        x_b, *_ = np.linalg.lstsq(B, b, rcond=None)
        x = np.zeros(n)
        x[list(cols)] = x_b
        if np.any(x < -FEAS_TOL):
            continue
        if np.max(np.abs(A @ x - b), initial=0.0) > FEAS_TOL * max(1.0, np.abs(b).max(initial=1.0)):
            continue
        x = np.maximum(x, 0.0)
        if any(np.max(np.abs(x - v)) <= 1e-9 for v in vertices):
            continue
        vertices.append(x)
        if len(vertices) >= MAX_VERTICES:
            break
    return vertices

