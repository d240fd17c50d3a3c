"""Linear programming layer: one call into HiGHS that picks its method from
the LP, the rows of every plan LP (``plan_rows``: mass rows per x atom and
per y atom, and barycentre rows per (x atom, branch)) filled directly as
canonical CSR, transport plans, and basis enumeration for tiny polytopes.

``transport_plan`` solves an n x n problem whose 2n weights are positive
and within ``FEAS_TOL`` of each other as an assignment: its polytope is
then a scaled Birkhoff polytope, whose vertices are permutation matrices.
Every other transport problem is an LP (CHANGES.md has the timings).

``solve_lp`` runs HiGHS's interior point with crossover (IPX) on LPs with
at least ``IPM_MIN_COLS`` columns whose constraint matrix holds an entry
other than 0/+-1, and dual simplex on every other LP.  Both parts of the
rule are measured.  Size: on the degenerate martingale-type LPs (mot,
American, and the shadow LP and the VIX bin LP, which are now only the
tests' oracles) the interior point takes 20-30 iterations where dual simplex
pivots thousands of times, and from about 3 000 columns it is
faster (time ratios 0.37 American at 10 440 columns, 0.54 mot at 14 500,
0.73 shadow at 3 480); on such LPs of 400-2 320 columns it was 1.1-1.8x
slower.  Structure: a matrix of 0/+-1 entries is a transport (network) LP,
where dual simplex won at every size measured (the interior point took
about 2x as long at 60x60, 100x100 and 150x150).

LPs with at least ``LARGE_COLS`` columns run without presolve, at a
primal feasibility tolerance of 1e-10; smaller LPs keep presolve, at a
primal feasibility tolerance of 1e-9, and every LP keeps HiGHS's default
tolerances otherwise (1e-7).  Presolve was measured by replaying the LPs
of seed-0 benchmark passes, four alternating rounds on a 2-core host,
faster in every round: without presolve the 14 500-column mot LPs took
0.71x the time (the same 192 IPM iterations), the 10 440-column American
LPs 0.78x, the 2 320-column mot LPs of the stability runs 0.60x and
1 600-column (40 x 40) transport LPs 0.41x, with values within 6.2e-15
relative.  Below 1 000 columns presolve solves most LPs outright, and
without it one 9-column LP kept an equality residual of 4.6e-8, against
6e-13 with it.  At the default primal tolerance mot plans held negative
entries, which ``DiscreteCoupling`` refuses: -9.9e-9 in a 2 320-column
plan without presolve, -4.7e-8 in an 800-column plan with it.  One
tolerance does not serve both: with presolve at 1e-10, presolve called a
feasible 15-column LP with two weights of 1.5e-11 infeasible, and without
presolve at 1e-9, 2 of 20 mot values on 2 320-column pairs scaled by 1e-5
came back wrong, against none at 1e-10.  Below ``LARGE_COLS``, 1e-9 gave
bitwise the default's x, value and iteration count on 2 621 of the 2 627
LPs of seed-0 passes of both benchmark workloads; the other six, 9-column
LPs that presolve solves, moved by 9e-16 at most.  The dual tolerance
stays: at 1e-10, crossover left one 10 440-column American LP 3.6e-8 dual
infeasible and HiGHS reported status Unknown.

A solve can start from the optimal basis of another LP of the same shape:
every ``LPSolution`` carries HiGHS's ``basis``, and ``solve_lp(p, start)``
hands it to ``setBasis``.  If HiGHS takes it, dual simplex restarts from it
(Huangfu & Hall 2018) whatever the LP's size, since IPX ignores a basis; if
``setBasis`` returns an error status, as it does for a basis of another
shape, the LP is solved cold under the rules above.  ``run_stability``
starts each perturbed mot LP from its base's basis.  On the 144
perturbed ``atom_jitter``/``mass_jitter`` solves (2 320 columns) of
benchmark seeds 0, 1 and held-out 2, warm against cold on a 2-core host:
``atom_jitter`` 36 593 -> 8 821 simplex iterations (0.83 -> 0.28 s),
``mass_jitter`` 35 109 -> 2 254 (0.76 -> 0.16 s), values within 9.3e-15
relative.  At 100x145 (14 500 columns) a warm dual simplex took 0.014-0.033 s
against cold IPX's 0.11-0.12 s, and at 200x290 0.11-0.29 s against
0.66-0.74 s, values within 9.7e-16 relative; 200 warm 12x20 LPs, which
presolve when cold, came within 3.7e-15.

No other module imports from ``scipy.optimize``, so every solver call
stays here.  HiGHS is called through scipy's bundled binding
(``scipy.optimize._highspy._core``) in one place, ``linprog``: it hands
HiGHS the ``LinearProgram``'s CSR rows as they were built, as numpy buffers
through ``_Highs.passModel``'s array overload, with the options
``scipy.optimize.linprog`` passes, and returns the ``LPSolution`` or raises
``LPError``.  Each thread keeps one ``_Highs`` instance for every LP it
solves, and before each model ``clearModel`` drops the last model with its
solution and basis and the options are passed anew, so nothing of one
solve reaches the next: the tests hold every result, iteration counts and
basis included, to a fresh instance's.  On a 3x3 transport LP a fresh
instance took 0.26 ms from construction through ``run`` and a reused one
0.16 ms; on the 1 088 LPs of seed-0 passes of both benchmark workloads and
the 2 304 of a seed-0 ``fw_convex`` pass, a reused instance gave bitwise a
fresh one's x, value, duals and ``stats``.  Transport rows (``plan_rows``
without ``mart``) are built once per shape and shared read-only, with
int32 index arrays.  Passing the buffers took 17 us on an 8-column LP and 0.14 ms
on a 2 320-column one, where filling a ``HighsLp`` field by field took 26 us
and 0.95 ms.  Every x, value, dual and iteration count of a cold solve is
bitwise what ``scipy.optimize.linprog`` returns, which copies the rows to
columns first: on the 2 931 LPs of seed-0 passes of both benchmark
workloads the buffers gave bitwise the x, value, duals and ``stats`` of
that copy.
``scipy.optimize.linprog`` itself, whose input validation and result
assembly cost more than HiGHS on LPs of a few hundred columns, is used only
by the tests, as the oracle.  The binding is private to scipy, hence the
scipy>=1.17 floor.

Solves are deterministic for fixed input.  ``solve_lp`` returns an optimal
vertex with its dual multipliers (crossover ends the interior point on a
basic solution) or raises ``LPError``, so callers check no status.
``enumerate_vertices`` lists all extreme points of small standard-form
polytopes by basic-feasible-solution enumeration; it is the exactness
backbone of the Hausdorff estimates.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment
from scipy.optimize._highspy._core import (
    HighsBasis,
    HighsModelStatus,
    HighsOptions,
    HighsStatus,
    MatrixFormat,
    ObjSense,
    _Highs,
    kHighsInf,
    simplex_constants,
)

FEAS_TOL = 1e-9
IPM_MIN_COLS = 3000
LARGE_COLS = 1000  # from here on HiGHS runs without presolve, at a primal feasibility tolerance of 1e-10 (1e-9 below)


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


def plan_rows(n: int, m: int, branches: int = 1, mart: Optional[np.ndarray] = None) -> sparse.csr_array:
    """Rows over a plan indexed (i, branch, j), as canonical CSR: one mass row
    per i (summed over branches), one per j, and given ``mart`` (n x m) one
    barycentre row per (i, branch) carrying mart[i].

    Row i holds the columns i*branches*m ... (i+1)*branches*m - 1 and row
    n + j the columns j, j + m, j + 2m, ..., each with coefficient 1.
    These transport rows depend on the shape alone, and one read-only
    matrix per shape, with int32 index arrays as HiGHS takes them, is built
    and shared by every call.  The barycentre rows (``mart`` repeated per
    branch, zeros not stored) are stacked under a copy of them."""
    T = _transport_rows(n, m, branches)
    if mart is None:
        return T
    bary = np.repeat(mart, branches, axis=0)
    at = np.flatnonzero(bary)  # row q's columns are q*m + t, its flat indices
    indptr = np.concatenate([T.indptr, T.indptr[-1] + np.cumsum(np.count_nonzero(bary, axis=1), dtype=np.int64)])
    return sparse.csr_array((np.concatenate([T.data, bary.ravel()[at]]), np.concatenate([T.indices, at]), indptr),
                            shape=(n + m + n * branches, n * branches * m))


@functools.lru_cache(maxsize=64)  # bounded, as each matrix is kept; a stability_approx pass uses 3 shapes
def _transport_rows(n: int, m: int, branches: int) -> sparse.csr_array:
    q, cols = n * branches, n * branches * m
    indices = np.concatenate([np.arange(cols), np.arange(cols).reshape(q, m).T.ravel()]).astype(np.int32)
    indptr = np.concatenate([np.arange(n + 1) * branches * m, cols + q * np.arange(1, m + 1)]).astype(np.int32)
    A = sparse.csr_array((np.ones(2 * cols), indices, indptr), shape=(n + m, cols))
    for v in (A.data, A.indices, A.indptr):
        v.flags.writeable = False
    return A


@dataclass
class LinearProgram:
    """min/max c @ x subject to A_eq x = b_eq, A_ub x <= b_ub, x >= lb.

    A_eq and A_ub are held as CSR, whatever form they are given in; a
    float64 ``csr_array`` in canonical format is kept as it is."""

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
            if v is None or (type(v) is sparse.csr_array and v.dtype == np.float64 and v.has_canonical_format):
                continue
            v = v if sparse.issparse(v) else np.asarray(v, dtype=float)
            setattr(self, name, sparse.csr_array(v, dtype=float) if name[0] == "A" else v)
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if self.c.ndim != 1 or self.c.size == 0 or not np.all(np.isfinite(self.c)):
            raise ValueError("the objective must be a non-empty vector of finite coefficients")
        for a, b in (("A_eq", "b_eq"), ("A_ub", "b_ub")):
            A, rhs = getattr(self, a), getattr(self, b)
            if A is None and rhs is None:
                continue
            if A is None or rhs is None or rhs.ndim != 1 or A.shape != (rhs.size, self.c.size):
                raise ValueError(f"{a} and {b} do not fit each other and the objective")
            if not (np.isfinite(A.data).all() and np.isfinite(rhs).all()):
                raise ValueError(f"non-finite entries in {a} or {b}")

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass
class LPSolution:
    """An optimal vertex of an LP, with the multipliers of its equality and
    inequality rows (None where the LP has no such rows), HiGHS's
    ``stats``: "method", "simplex_iterations", "ipm_iterations",
    "crossover_iterations", "max_primal_infeasibility",
    "max_dual_infeasibility", and the matrix's "rows", "cols" and "nnz",
    and HiGHS's ``basis`` at the vertex, which ``solve_lp`` takes as the
    start of an LP of the same shape."""

    x: np.ndarray
    duals_eq: Optional[np.ndarray]
    duals_ub: Optional[np.ndarray]
    value: float
    stats: dict
    basis: HighsBasis

    @property
    def nit(self) -> int:
        """HiGHS's simplex or interior-point iterations, crossover aside."""
        return self.stats["simplex_iterations"] or self.stats["ipm_iterations"]


def solve_lp(p: LinearProgram, start: Optional[HighsBasis] = None) -> LPSolution:
    """Solve with HiGHS: an optimal vertex with duals attached, or ``LPError``.

    The method follows the LP: interior point with crossover when it has at
    least ``IPM_MIN_COLS`` columns and a constraint coefficient other than
    0/+-1, dual simplex otherwise; HiGHS runs with presolve at a primal
    feasibility tolerance of 1e-9, and from ``LARGE_COLS`` columns on without
    presolve at 1e-10.  ``start``, the ``basis`` of an earlier solution, is
    handed to HiGHS, and when HiGHS takes it the LP runs dual simplex from it
    whatever its size; a start HiGHS refuses, such as one of another shape,
    gives the cold solve (see the module docstring for the measurements
    behind each rule)."""
    ipm = p.n_vars >= IPM_MIN_COLS and not all(
        np.isin(A.data, (-1.0, 0.0, 1.0)).all() for A in (p.A_eq, p.A_ub) if A is not None
    )
    return linprog(p.c, A_ub=p.A_ub, b_ub=p.b_ub, A_eq=p.A_eq, b_eq=p.b_eq, bounds=p.bounds, sense=p.sense,
                   method="highs-ipm" if ipm else "highs-ds", start=start)


def _highs_options(solver: str, large: bool) -> HighsOptions:
    options = HighsOptions()
    options.presolve = "off" if large else "on"
    options.primal_feasibility_tolerance = 1e-10 if large else 1e-9
    options.solver = solver
    options.simplex_strategy = simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.output_flag = options.log_to_console = False
    return options


# keyed by (method, at least LARGE_COLS columns)
_OPTIONS = {(method, large): _highs_options(solver, large)
            for method, solver in (("highs-ds", "simplex"), ("highs-ipm", "ipm")) for large in (False, True)}
# LPError's status for HiGHS's model status; every status not listed but optimal is "failed"
_STATUS = {HighsModelStatus.kInfeasible: "infeasible", HighsModelStatus.kModelError: "infeasible",
           HighsModelStatus.kUnbounded: "unbounded"}
_POINT_TOL = 10 * np.sqrt(1e-9)  # linprog's check of an optimal point against its rows and bounds
_THREAD = threading.local()  # .highs: the thread's one HiGHS instance, reset before each model


def _highs() -> _Highs:
    if not hasattr(_THREAD, "highs"):
        _THREAD.highs = _Highs()
    return _THREAD.highs


def linprog(c, *, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None, sense="min",
            method="highs-ds", start=None) -> LPSolution:
    """HiGHS on the LP that ``LinearProgram``'s fields describe: an optimal
    vertex, or ``LPError``.

    HiGHS reads A_ub's CSR rows stacked over A_eq's as they are, passed as
    numpy buffers (the index arrays as int32), and runs
    ``method``, "highs-ds" (dual simplex) or "highs-ipm" (IPX with
    crossover), with the options ``scipy.optimize.linprog`` passes: presolve
    on at a 1e-9 primal feasibility tolerance (off, at 1e-10, from
    ``LARGE_COLS`` columns), the dual simplex strategy, output off.  A max
    problem is solved as min -c @ x, and its value and duals are negated
    back.  An infeasible LP, and a model HiGHS refuses (such as a lower bound
    of +inf), raise "infeasible", an unbounded one "unbounded", and every
    other status but optimal "failed", as does an "optimal" point off a row
    or bound by more than 10*sqrt(1e-9) (``linprog``'s check).

    The model goes to the calling thread's one ``_Highs`` instance, cleared
    of the last model and given the options anew, so no state of an
    earlier solve reaches this one.

    ``start``, a ``HighsBasis``, goes to ``setBasis``; when HiGHS takes it,
    the LP runs dual simplex from it, since IPX would ignore it, and
    ``stats`` report "highs-ds".  A start that ``setBasis`` refuses with an
    error status, which it does for one of another shape, leaves ``method``
    and the cold solve as they were.

    Name and keywords are ``linprog``'s because ``benchmarks/tracing.py``
    wraps ``emot.lp_core.linprog``, reads ``c``, ``A_eq`` and ``A_ub`` from
    its arguments and ``nit`` from its result; the function becomes
    ``_run_highs`` when the tracer moves to that name (ROADMAP item 13).
    """
    sign = 1.0 if sense == "min" else -1.0
    c = sign * np.asarray(c, dtype=float)
    n, m_ub = c.size, 0 if A_ub is None else A_ub.shape[0]
    given = [A for A in (A_ub, A_eq) if A is not None] or [sparse.csr_array((0, n))]
    A = sparse.vstack(given, format="csr") if len(given) > 1 else given[0]
    b_ub, b_eq = (np.empty(0) if b is None else np.asarray(b, dtype=float) for b in (b_ub, b_eq))
    lhs, rhs = np.concatenate([np.full(m_ub, -kHighsInf), b_eq]), np.concatenate([b_ub, b_eq])
    lb, ub = np.broadcast_to(np.array((0, None) if bounds is None else bounds, dtype=float), (n, 2)).T
    lb, ub = np.where(np.isnan(lb), -kHighsInf, lb), np.where(np.isnan(ub), kHighsInf, ub)

    highs, large = _highs(), n >= LARGE_COLS
    highs.clearModel()
    highs.passOptions(_OPTIONS[method, large])
    model_status = HighsModelStatus.kModelError
    if highs.passModel(n, A.shape[0], A.nnz, MatrixFormat.kRowwise, ObjSense.kMinimize, 0.0, c, lb, ub, lhs, rhs,
                       A.indptr.astype(np.int32, copy=False), A.indices.astype(np.int32, copy=False), A.data,
                       np.zeros(n, dtype=np.int32)) != HighsStatus.kError:
        if start is not None and highs.setBasis(start) != HighsStatus.kError:
            method = "highs-ds"
            highs.passOptions(_OPTIONS[method, large])
        highs.run()
        model_status = highs.getModelStatus()
    message = f"HiGHS model status {highs.modelStatusToString(model_status)}"
    if model_status == HighsModelStatus.kOptimal:
        solution, info = highs.getSolution(), highs.getInfo()
        x, row, row_dual = (np.array(v) for v in (solution.col_value, solution.row_value, solution.row_dual))
        value = info.objective_function_value
        off = np.concatenate([lb - x, x - ub, lhs - row, row - rhs])
        if not np.isnan(value) and (off <= _POINT_TOL).all():
            stats = {
                "method": method,
                "simplex_iterations": info.simplex_iteration_count,
                "ipm_iterations": info.ipm_iteration_count,
                "crossover_iterations": info.crossover_iteration_count,
                "max_primal_infeasibility": info.max_primal_infeasibility,
                "max_dual_infeasibility": info.max_dual_infeasibility,
                "rows": A.shape[0],
                "cols": n,
                "nnz": A.nnz,
            }
            duals_eq = None if A_eq is None else sign * row_dual[m_ub:]
            duals_ub = None if A_ub is None else sign * row_dual[:m_ub]
            return LPSolution(x, duals_eq, duals_ub, sign * float(value), stats, highs.getBasis())
        message += f", but its point is off a row or bound by more than {_POINT_TOL:.2e}"
    status = _STATUS.get(model_status, "failed")
    raise LPError(status, f"LP ({A.shape[0]} rows, {n} columns) {status}: {message}")


def transport_plan(cost: np.ndarray, w_row: np.ndarray, w_col: np.ndarray):
    """Optimal transport plan between two weight vectors for a cost matrix:
    (plan, value), an optimal vertex whose rows sum to ``w_row`` and whose
    columns sum to ``w_col`` within ``FEAS_TOL``.

    An n x n problem whose 2n weights are positive and lie within
    ``FEAS_TOL`` of each other is an assignment: ``r, c =
    linear_sum_assignment(cost)``, the plan holds ``w_row[i]`` at (i, c[i]),
    so its rows are ``w_row`` exactly, and the value is
    ``w_row @ cost[r, c]``.  Every other problem is an LP for ``solve_lp``.
    Raises ``ValueError`` on a non-finite cost, a negative or non-finite
    weight, or masses more than 1e-9 x max(1, mass) apart.
    """
    cost = np.asarray(cost, dtype=float)
    w_row = np.asarray(w_row, dtype=float)
    w_col = np.asarray(w_col, dtype=float)
    n, m = cost.shape
    w = np.concatenate([w_row, w_col])
    if not (np.isfinite(cost).all() and np.isfinite(w).all()) or (w < 0).any():
        raise ValueError("transport takes finite costs and finite, nonnegative weights")
    if abs(w_row.sum() - w_col.sum()) > 1e-9 * max(1.0, w_row.sum()):
        raise ValueError("transport requires equal masses")
    if n == m and w.min() > 0 and w.max() - w.min() <= FEAS_TOL:
        r, c = linear_sum_assignment(cost)
        plan = np.zeros((n, n))
        plan[r, c] = w_row
        return plan, float(w_row @ cost[r, c])
    sol = solve_lp(LinearProgram(c=cost.ravel(), A_eq=plan_rows(n, m), b_eq=w))
    return sol.x.reshape(n, m), sol.value


def enumerate_vertices(p: LinearProgram) -> list:
    """All vertices of a small polytope {x >= 0 : A_eq x = b_eq} by
    basic-solution enumeration.

    Only equality-form LPs are taken, and the variable count is guarded.
    Duplicate vertices within 1e-9 are removed.
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
    return vertices

