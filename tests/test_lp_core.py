# the names emot.lp_core imports from the binding it calls HiGHS through; private to scipy, hence the scipy>=1.17 floor
try:
    from scipy.optimize._highspy._core import (  # noqa: F401
        HighsBasis, HighsModelStatus, HighsOptions, HighsStatus, MatrixFormat, ObjSense, _Highs, kHighsInf,
        simplex_constants,
    )
except ImportError as exc:
    raise ImportError(
        "emot.lp_core needs HiGHS's binding as scipy>=1.17 bundles it: _Highs, HighsBasis, HighsOptions, "
        "HighsModelStatus, HighsStatus, MatrixFormat, ObjSense, kHighsInf and simplex_constants in "
        "scipy.optimize._highspy._core; "
        "this scipy does not provide them"
    ) from exc

import sys
import threading

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsBasisStatus, _Highs

import reference
from emot import couplings, lp_core, solvers
from emot.convex_order import convex_order_projection
from emot.measures import DiscreteMeasure, LiftedMeasure
from emot.lp_core import (
    DimensionGuardError,
    LinearProgram,
    LPError,
    enumerate_vertices,
    solve_lp,
    transport_plan,
)
from reference import block_rows_coo, product_coupling


class TestSolveLP:
    def test_basic_min(self):
        p = LinearProgram(c=[1.0, 2.0], A_eq=[[1, 1]], b_eq=[1.0])
        sol = solve_lp(p)
        assert sol.value == pytest.approx(1.0)
        assert np.allclose(sol.x, [1, 0])

    def test_max_sense(self):
        p = LinearProgram(c=[1.0, 2.0], A_eq=[[1, 1]], b_eq=[1.0], sense="max")
        sol = solve_lp(p)
        assert sol.value == pytest.approx(2.0)

    def test_duals_satisfy_strong_duality(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, m = 4, 3
            A = rng.uniform(-1, 1, (m, n))
            x0 = rng.uniform(0, 1, n)
            b = A @ x0
            c = rng.uniform(0, 2, n)
            sol = solve_lp(LinearProgram(c=c, A_eq=A, b_eq=b))
            assert sol.duals_eq @ b == pytest.approx(sol.value, abs=1e-7)

    def test_infeasible(self):
        p = LinearProgram(c=[1.0], A_eq=[[1.0]], b_eq=[-1.0])
        with pytest.raises(LPError) as err:
            solve_lp(p)
        assert err.value.status == "infeasible"
        assert "1 rows, 1 columns" in str(err.value)

    def test_unbounded(self):
        p = LinearProgram(c=[-1.0], A_ub=[[0.0]], b_ub=[1.0])
        with pytest.raises(LPError) as err:
            solve_lp(p)
        assert err.value.status == "unbounded"

    def test_free_bounds(self):
        p = LinearProgram(c=[1.0], A_ub=[[-1.0]], b_ub=[2.0], bounds=[(None, None)])
        sol = solve_lp(p)
        assert sol.value == pytest.approx(-2.0)


class TestTransportPlan:
    def test_identity(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan, value = transport_plan(cost, [0.5, 0.5], [0.5, 0.5])
        assert value == pytest.approx(0.0)
        assert np.allclose(plan, np.diag([0.5, 0.5]))

    def test_mass_mismatch(self):
        with pytest.raises(ValueError):
            transport_plan(np.zeros((1, 1)), [1.0], [0.5])

    def test_marginals_respected(self):
        rng = np.random.default_rng(3)
        w1 = rng.uniform(0.1, 1, 4)
        w2 = rng.uniform(0.1, 1, 5)
        w2 *= w1.sum() / w2.sum()
        plan, _ = transport_plan(rng.uniform(0, 1, (4, 5)), w1, w2)
        assert np.allclose(plan.sum(axis=1), w1, atol=1e-9)
        assert np.allclose(plan.sum(axis=0), w2, atol=1e-9)


class TestEnumerateVertices:
    def test_simplex(self):
        p = LinearProgram(c=np.zeros(3), A_eq=[[1, 1, 1]], b_eq=[1.0])
        verts = enumerate_vertices(p)
        assert len(verts) == 3
        assert all(abs(v.sum() - 1) < 1e-9 for v in verts)

    def test_square(self):
        # 0 <= x1, x2 <= 1 in equality form: x1 + s1 = 1, x2 + s2 = 1
        p = LinearProgram(c=np.zeros(4), A_eq=[[1, 0, 1, 0], [0, 1, 0, 1]], b_eq=[1.0, 1.0])
        verts = enumerate_vertices(p)
        assert len(verts) == 4
        assert sorted(tuple(v[:2]) for v in verts) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_inequality_form_is_refused(self):
        p = LinearProgram(c=np.zeros(2), A_ub=[[1, 0], [0, 1]], b_ub=[1.0, 1.0])
        with pytest.raises(ValueError, match="equality-form"):
            enumerate_vertices(p)

    def test_guard(self):
        p = LinearProgram(c=np.zeros(20), A_eq=[np.ones(20)], b_eq=[1.0])
        with pytest.raises(DimensionGuardError):
            enumerate_vertices(p)

    def test_optimum_attained_at_vertex(self):
        rng = np.random.default_rng(8)
        p = LinearProgram(
            c=np.zeros(4),
            A_eq=[[1, 1, 1, 1], [1, 2, 3, 4]],
            b_eq=[1.0, 2.5],
        )
        verts = enumerate_vertices(p)
        for _ in range(10):
            c = rng.uniform(-1, 1, 4)
            sol = solve_lp(LinearProgram(c=c, A_eq=p.A_eq, b_eq=p.b_eq))
            best = min(c @ v for v in verts)
            assert sol.value == pytest.approx(best, abs=1e-8)


# -- block builder layout ----------------------------------------------------


def _captured(monkeypatch, module, call):
    """The last LinearProgram that ``call`` hands to ``module.solve_lp``."""
    seen, solve = [], lp_core.solve_lp

    def spy(p):
        seen.append(p)
        return solve(p)

    monkeypatch.setattr(module, "solve_lp", spy)
    call()
    return seen[-1]


def _bary(P, xs, ys):
    """Barycentre residuals sum_j P[..., j] (ys[j] - x) per leading index."""
    return (P * ys).sum(axis=-1) - P.sum(axis=-1) * xs


def _layout_transport(rng, monkeypatch):
    n, m = 3, 4
    w = np.full(n, 1 / n)
    lp = _captured(monkeypatch, lp_core, lambda: transport_plan(rng.uniform(size=(n, m)), w, np.full(m, 1 / m)))
    P = rng.uniform(size=(n, m))
    return [(lp.A_eq, P.ravel(), np.concatenate([P.sum(1), P.sum(0)]))]


def _layout_polytope(rng, monkeypatch):
    mb = LiftedMeasure([(-1, 0.2), (-1, 0.8), (1, 0.5)], [0.25, 0.25, 0.5])
    nu = DiscreteMeasure([-2, 0, 2], [0.25, 0.5, 0.25])
    lp = couplings.martingale_polytope_lp(mb, nu)
    P = rng.uniform(size=(3, 3))
    return [(lp.A_eq, P.ravel(), np.concatenate([P.sum(1), P.sum(0), _bary(P, mb.xs, nu.atoms)]))]


def _layout_american(rng, monkeypatch):
    mu, nu = DiscreteMeasure([-1, 1], [0.5, 0.5]), DiscreteMeasure([-2, 0, 2], [0.25, 0.5, 0.25])
    lp = _captured(monkeypatch, solvers, lambda: solvers.price_american(mu, nu, mu.atoms, np.tile(nu.atoms, (2, 1))))
    P = rng.uniform(size=(2, 2, 3))  # (x atom, branch, y atom)
    expected = np.concatenate([P.sum((1, 2)), P.sum((0, 1)), _bary(P, mu.atoms[:, None], nu.atoms).ravel()])
    return [(lp.A_eq, P.ravel(), expected)]


def _vix_case():
    mu = DiscreteMeasure([0.9, 1.1], [0.5, 0.5])
    nu = DiscreteMeasure([0.7, 1.0, 1.3], [0.25, 0.5, 0.25])
    return mu, nu, 1.0, reference.vix_bin_edges(mu, nu, 1.0, 4)


def _layout_vix_bins(rng, monkeypatch):
    mu, nu, tau, edges = _vix_case()
    lp = reference.vix_bin_lp(mu, nu, tau, edges)
    P = rng.uniform(size=(2, 4, 3))  # (x atom, bin, y atom)
    L = (2.0 / tau) * (np.log(mu.atoms)[:, None] - np.log(nu.atoms)[None, :])
    moment = (P * L[:, None, :]).sum(-1)
    low = P.sum(-1) * edges[:-1] ** 2 - moment
    high = moment - P.sum(-1) * edges[1:] ** 2
    eq = np.concatenate([P.sum((1, 2)), P.sum((0, 1)), _bary(P, mu.atoms[:, None], nu.atoms).ravel()])
    return [(lp.A_eq, P.ravel(), eq), (lp.A_ub, P.ravel(), np.stack([low, high], axis=-1).ravel())]


def _layout_vix_primal(rng, monkeypatch):
    mu, nu, tau, edges = _vix_case()
    lp = _captured(monkeypatch, reference, lambda: reference.vix_bin_primal_lp(mu, nu, tau, edges))
    dual = reference.vix_bin_lp(mu, nu, tau, edges)
    transposed = sparse.hstack([dual.A_eq.T, -dual.A_ub[0::2].T, -dual.A_ub[1::2].T])
    assert np.array_equal(lp.A_ub.toarray(), transposed.toarray())
    assert np.array_equal(lp.c, np.concatenate([dual.b_eq, np.zeros(16)]))
    assert np.array_equal(lp.b_ub, dual.c)
    phi, psi, delta, alpha, beta = rng.uniform(size=2), rng.uniform(size=3), *rng.uniform(size=(3, 2, 4))
    L = (2.0 / tau) * (np.log(mu.atoms)[:, None] - np.log(nu.atoms)[None, :])
    lo2, hi2 = edges[:-1, None] ** 2, edges[1:, None] ** 2
    rows = (phi[:, None, None] + psi + delta[..., None] * (nu.atoms - mu.atoms[:, None, None])
            + alpha[..., None] * (L[:, None, :] - lo2) + beta[..., None] * (hi2 - L[:, None, :]))
    return [(lp.A_ub, np.concatenate([phi, psi, delta.ravel(), alpha.ravel(), beta.ravel()]), rows.ravel())]


def _layout_vix_two_point(rng, monkeypatch):
    """The exact VIX LP on a pair with a nu atom on each mu atom, and its portfolio LP."""
    mu = DiscreteMeasure([0.9, 1.0], [0.5, 0.5])
    nu = DiscreteMeasure([0.7, 0.9, 1.0, 1.3], [7 / 24, 0.25, 0.25, 5 / 24])
    lp, cols = solvers._vix_lp(mu, nu, 1.0)
    # (i, j, k) with y_j < x_i < y_k, and (i, j, j) with y_j = x_i, in that order
    expected = [(0, 0, 2), (0, 0, 3), (0, 1, 1), (1, 0, 3), (1, 1, 3), (1, 2, 2)]
    assert list(zip(*(c.tolist() for c in cols[:3]))) == expected
    portfolio = _captured(monkeypatch, solvers, lambda: solvers.vix_primal_lp(mu, nu, 1.0))
    assert np.array_equal(portfolio.A_ub.toarray(), lp.A_eq.T.toarray()) and np.array_equal(portfolio.b_ub, lp.c)
    Q = rng.uniform(size=len(expected))
    i, j, k = np.array(expected).T
    p = (nu.atoms[k] - mu.atoms[i]) / np.where(j == k, 1.0, nu.atoms[k] - nu.atoms[j])
    p[j == k] = 1.0
    assert np.array_equal(cols[3], p)
    y_mass = np.zeros(4)
    np.add.at(y_mass, j, Q * p)
    np.add.at(y_mass, k, Q * (1 - p))
    eq = np.concatenate([np.bincount(i, Q, minlength=2), y_mass])
    L = 2.0 * np.log(mu.atoms[i] / nu.atoms[j]), 2.0 * np.log(mu.atoms[i] / nu.atoms[k])
    assert lp.c == pytest.approx(np.sqrt(np.maximum(p * L[0] + (1 - p) * L[1], 0.0)), abs=1e-15)
    return [(lp.A_eq, Q, eq)]


def _layout_distance(rng, monkeypatch):
    mb = LiftedMeasure.from_measure(DiscreteMeasure([-1, 1], [0.5, 0.5]))
    nu = DiscreteMeasure([-2, 0, 2], [0.25, 0.5, 0.25])
    c = product_coupling(mb, nu)
    lp = _captured(monkeypatch, couplings, lambda: couplings.distance_to_polytope(c, mb, nu))
    K, G = len(c.joint()), 6
    T, pi = rng.uniform(size=(K, G)), rng.uniform(size=(2, 3))
    expected = np.concatenate([T.sum(1), T.sum(0) - pi.ravel(), pi.sum(1), pi.sum(0), _bary(pi, mb.xs, nu.atoms)])
    return [(lp.A_eq, np.concatenate([T.ravel(), pi.ravel()]), expected)]


def _layout_refit(rng, monkeypatch):
    base = DiscreteMeasure([-1.5, 0.5, 1.0], [0.25, 0.5, 0.25])
    mb = LiftedMeasure([(-0.5, 0.2), (0.5, 0.8)], [0.5, 0.5])
    nu = DiscreteMeasure([-2.0, 0.0, 2.0], [0.3, 0.4, 0.3])
    lp = reference.refit_lp(base, mb, nu)
    grid = np.unique(np.concatenate([base.atoms, nu.atoms]))[:-1]
    K, t = rng.uniform(size=(2, 3)), rng.uniform(size=(2, grid.size))
    eq = np.concatenate([np.column_stack([K.sum(1), _bary(K, mb.xs, nu.atoms)]).ravel(), mb.weights @ K])
    cdf = np.stack([(K * (nu.atoms <= g + 1e-12)).sum(1) for g in grid], axis=1)  # (i, l)
    ub = np.stack([cdf - t, -cdf - t], axis=-1).ravel()
    x = np.concatenate([K.ravel(), t.ravel()])
    return [(lp.A_eq, x, eq), (lp.A_ub, x, ub)]


@pytest.mark.parametrize(
    "layout",
    [_layout_transport, _layout_polytope, _layout_american, _layout_vix_bins, _layout_vix_primal,
     _layout_vix_two_point, _layout_distance, _layout_refit],
    ids=lambda f: f.__name__.removeprefix("_layout_"),
)
def test_block_builder_layout(layout, monkeypatch):
    """Each LP family's matrix applied to a random plan gives, row by row,
    the sums, barycentre residuals and bin inequalities computed directly."""
    for A, x, expected in layout(np.random.default_rng(11), monkeypatch):
        assert isinstance(A, sparse.csr_array)
        assert np.all(A.data != 0)  # no stored zeros
        assert A @ x == pytest.approx(expected, abs=1e-12)


def test_linear_program_holds_csr():
    p = LinearProgram(c=[1.0, 2.0], A_eq=[[1, 0]], b_eq=[1.0], A_ub=np.array([[0.0, 1.0]]), b_ub=[0.5])
    for A in (p.A_eq, p.A_ub):
        assert isinstance(A, sparse.csr_array) and A.nnz == 1
    assert isinstance(LinearProgram(c=[1.0], A_eq=sparse.coo_array([[2]]), b_eq=[1.0]).A_eq, sparse.csr_array)


def _plan_blocks(n, m, branches, mart=None):
    """plan_rows' rows as ``block_rows_coo`` blocks: the mass rows of i over
    its branches, the rows of j, and the barycentre rows of (i, branch)."""
    blocks = [(np.ones((n, 1, branches * m)), 0, None), (np.ones((m, 1, n * branches)), n, (1, m))]
    if mart is not None:
        blocks.append((np.repeat(mart, branches, axis=0)[:, None, :], n + m, None))
    return blocks


def test_plan_rows_matches_coo_build():
    """The directly filled CSR is the canonical matrix the COO path builds
    from the transport and barycentre blocks, array for array, so HiGHS sees
    the same input."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        n, m, branches = (int(v) for v in rng.integers(1, 7, 3))
        mart = rng.uniform(-2, 2, (n, m)) * (rng.random((n, m)) < 0.7)
        for given, rows in ((None, n + m), (mart, n + m + n * branches)):
            A = lp_core.plan_rows(n, m, branches, given)
            B = block_rows_coo(_plan_blocks(n, m, branches, given), (rows, n * branches * m))
            assert A.shape == B.shape and A.has_canonical_format
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(A, name), getattr(B, name)), name


# -- method rule -------------------------------------------------------------


def _methods(monkeypatch):
    """The HiGHS method of every later ``lp_core.linprog`` call."""
    seen, call = [], lp_core.linprog

    def spy(*args, **kwargs):
        seen.append(kwargs["method"])
        return call(*args, **kwargs)

    monkeypatch.setattr(lp_core, "linprog", spy)
    return seen


def _mot_lp(rng, mu_bar, m_raw):
    """min |y - x| over Pi_M(mu_bar, nu), nu drawn wide and repaired into convex order."""
    mu = mu_bar.x_marginal()
    raw = rng.uniform(-2.5, 2.5, m_raw)
    raw += mu.atoms @ mu.weights / mu.mass - raw.mean()
    nu = convex_order_projection(mu, DiscreteMeasure(raw, np.full(m_raw, mu.mass / m_raw)))
    return nu, couplings.martingale_polytope_lp(mu_bar, nu, np.abs(nu.atoms[None, :] - mu_bar.xs[:, None]))


def test_large_mot_lp_takes_interior_point_with_crossover(monkeypatch):
    rng = np.random.default_rng(0)
    mu = DiscreteMeasure(rng.uniform(-1, 1, 100), np.full(100, 0.01))
    mb = LiftedMeasure.from_measure(mu)
    nu, lp = _mot_lp(rng, mb, 145)
    assert lp.n_vars >= lp_core.IPM_MIN_COLS
    oracle = linprog(lp.c, A_eq=lp.A_eq, b_eq=lp.b_eq, method="highs-ds")
    methods = _methods(monkeypatch)
    first, second = solve_lp(lp), solve_lp(lp)
    assert methods == ["highs-ipm", "highs-ipm"]
    assert abs(first.value - oracle.fun) <= 1e-9 * max(1.0, abs(oracle.fun))
    assert np.count_nonzero(first.x > 1e-12) <= lp.A_eq.shape[0]  # a vertex: support within the rows
    plan = first.x.reshape(len(mb), len(nu))
    assert np.abs(plan.sum(1) - mb.weights).max() <= 1e-9
    assert np.abs(plan.sum(0) - nu.weights).max() <= 1e-9
    assert np.abs(plan @ nu.atoms - plan.sum(1) * mb.xs).max() <= 1e-9
    for name in ("x", "duals_eq"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name


# the American LP of op 33 of the benchmark's seed-6 lp_large inputs: mu has 60 atoms of
# weight 1/60, nu 87 atoms
AMER_MU_ATOMS = [
    -0.9997379231202119, -0.9613609381392649, -0.9453348221690785, -0.8191951780300739, -0.7841717375771289,
    -0.7808985459734339, -0.7745036065268358, -0.7377943859114713, -0.7237181081461019, -0.7227402957909466,
    -0.7091925722960684, -0.6607456260614823, -0.6098341180264668, -0.6029680195666254, -0.5684438393567679,
    -0.5381633897316795, -0.4978004372654834, -0.4880650205299273, -0.45548870511604633, -0.44232864737347843,
    -0.41739008798720123, -0.33869378260446936, -0.31114280394990845, -0.28283794469863666, -0.26620977417728175,
    -0.23392411635119426, -0.22926198793290942, -0.21708352569156908, -0.19384115061938445, -0.11015714656558306,
    -0.10338894885781236, -0.07318785070959999, -0.06356332516746477, -0.007698661923253525, 0.0018843755532056417,
    0.03416866944714991, 0.03574560475252464, 0.1451028281801796, 0.2112247547219004, 0.2675796865179727,
    0.3069313933407867, 0.3443658991708831, 0.35862028650988265, 0.40847137998039984, 0.42722315386579135,
    0.43703485118248864, 0.43723154800556263, 0.45162800148603877, 0.4733254963105342, 0.5739480485043937,
    0.5886334747437425, 0.7281322934811227, 0.7771199935026032, 0.77770512123489, 0.7840581480059712,
    0.7909740110152281, 0.9249807134100776, 0.9291285822740494, 0.9720749482662088, 0.9755232653385033,
]
AMER_NU_ATOMS = [
    -2.4476278615762923, -2.4083072222110413, -2.3749476305905635, -2.2193217542310872, -2.0403027221813925,
    -1.937423505447255, -1.9321694302869616, -1.8797430683635383, -1.8704168981538496, -1.844460414640225,
    -1.8107219508624315, -1.7953907523652797, -1.743877064505134, -1.7403632074783406, -1.663536554727306,
    -1.6341595248990357, -1.5740794210303393, -1.542977605227453, -1.5009622520572181, -1.3230515423733595,
    -1.2451585476477685, -1.0348524693545507, -0.9397075948133041, -0.9366846638995888, -0.9192037188756977,
    -0.9095264919970428, -0.8728084428224988, -0.8152883007423172, -0.8136243571926115, -0.7355468756547442,
    -0.6201431162766445, -0.5173289730898493, -0.46795726237619756, -0.44312106769646026, -0.43691234688113684,
    -0.3876721232345252, -0.382270568156761, -0.29664642803469937, -0.24264046764460648, -0.23481122826746517,
    -0.23297021025001344, -0.1794415119854175, -0.1351442845817751, -0.1048725208934608, -0.024197075433042205,
    0.054818993631737666, 0.14941397443160728, 0.17828048014363138, 0.18780638691001603, 0.21903071049627595,
    0.245931557354884, 0.24805647867521627, 0.2562435497185927, 0.3372263310648534, 0.3378312402207591,
    0.3482094099637892, 0.3700114347299513, 0.3830625354289399, 0.5634511136948114, 0.5949890374446246,
    0.6033639314799014, 0.6098188503889145, 0.6634113452067635, 0.7096249157351145, 0.8253065544621742,
    0.8573032898915977, 0.9691558767049225, 1.2319661944442863, 1.2724032519528707, 1.279338596003539,
    1.3498330831057346, 1.3619266433206416, 1.5292977085561112, 1.5425970875001207, 1.542895255706214,
    1.6389069186310712, 1.8828936618747898, 1.9664019677739404, 1.9919359660396525, 2.0429735409314684,
    2.120770252881714, 2.1255544357001384, 2.172687457520542, 2.206293187274823, 2.325500681236818,
    2.35619910865379, 2.4729748161659497,
]
AMER_NU_WEIGHTS = np.repeat(
    [0.011494252873563218, 0.011494252873563232, 0.011494252873563204, 0.01149425287356326,
     0.011494252873563204, 0.011494252873564204],
    [10, 1, 32, 1, 42, 1],
)


def test_large_american_lp_is_optimal_at_the_default_dual_tolerance(monkeypatch):
    """With the dual feasibility tolerance at 1e-10 as well as the primal one,
    crossover left this LP 3.6e-8 dual infeasible and HiGHS reported status
    Unknown, so ``emot amer`` exited with code 3."""
    mu = DiscreteMeasure(AMER_MU_ATOMS, np.full(60, 1 / 60))
    nu = DiscreteMeasure(AMER_NU_ATOMS, AMER_NU_WEIGHTS)
    payoffs = np.maximum(mu.atoms, 0.0), np.tile(0.9 * np.maximum(nu.atoms, 0.0), (len(mu), 1))
    lp = _captured(monkeypatch, solvers, lambda: solvers.price_american(mu, nu, *payoffs))
    sol = solve_lp(lp)
    assert sol.stats["method"] == "highs-ipm" and lp.n_vars >= lp_core.LARGE_COLS
    sign = 1.0 if lp.sense == "min" else -1.0
    presolved = linprog(sign * lp.c, A_ub=lp.A_ub, b_ub=lp.b_ub, A_eq=lp.A_eq, b_eq=lp.b_eq, method="highs-ipm")
    assert abs(sol.value - sign * presolved.fun) <= 1e-12 * abs(presolved.fun)


def test_transport_and_mid_sized_mot_stay_on_dual_simplex(monkeypatch):
    rng = np.random.default_rng(1)
    w = np.full(100, 0.01)
    lifted = LiftedMeasure(np.column_stack([rng.uniform(-1, 1, 40), rng.uniform(0, 1, 40)]), np.full(40, 1 / 40))
    _, mot = _mot_lp(rng, lifted, 58)
    assert mot.n_vars < lp_core.IPM_MIN_COLS
    methods = _methods(monkeypatch)
    transport_plan(rng.uniform(size=(100, 100)), w, w)
    solve_lp(mot)
    assert methods == ["highs-ds", "highs-ds"]


def test_stats_method_follows_the_column_rule():
    """One row of coefficient 2, so only the column count decides the method."""
    for n, method in ((lp_core.IPM_MIN_COLS - 1, "highs-ds"), (lp_core.IPM_MIN_COLS, "highs-ipm")):
        c = np.random.default_rng(n).uniform(1, 2, n)
        stats = solve_lp(LinearProgram(c=c, A_eq=np.full((1, n), 2.0), b_eq=[1.0])).stats
        assert stats["method"] == method
        assert (stats["rows"], stats["cols"], stats["nnz"]) == (1, n, n)


# -- warm start --------------------------------------------------------------


def _assert_same_solution(a, b):
    for name in ("x", "duals_eq", "duals_ub"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.value == b.value and a.stats == b.stats


def _one_row_more(lp):
    return LinearProgram(c=lp.c, A_eq=sparse.vstack([lp.A_eq, lp.A_eq[:1]]), b_eq=np.append(lp.b_eq, lp.b_eq[0]))


@pytest.mark.parametrize("shape", ["fewer columns", "more columns", "fewer rows", "more rows"])
def test_start_of_another_shape_gives_the_cold_solve(shape):
    """HiGHS refuses a basis of another shape, so the LP is solved cold."""
    rng = np.random.default_rng(3)
    mb = LiftedMeasure.from_measure(DiscreteMeasure(rng.uniform(-1, 1, 10), np.full(10, 0.1)))
    _, small = _mot_lp(rng, mb, 15)
    _, lp = _mot_lp(rng, mb, 25)
    source, target = {"fewer columns": (small, lp), "more columns": (lp, small),
                      "fewer rows": (lp, _one_row_more(lp)), "more rows": (_one_row_more(lp), lp)}[shape]
    _assert_same_solution(solve_lp(target, solve_lp(source).basis), solve_lp(target))


def _large_mot_lp():
    rng = np.random.default_rng(0)
    mu = DiscreteMeasure(rng.uniform(-1, 1, 100), np.full(100, 0.01))
    _, lp = _mot_lp(rng, LiftedMeasure.from_measure(mu), 145)
    assert lp.n_vars >= lp_core.IPM_MIN_COLS
    return lp


def test_start_highs_refuses_gives_the_cold_solve():
    """Every status nonbasic, given as a basis HiGHS must not complete
    (``alien`` off): ``setBasis`` returns an error, and the LP keeps the
    interior point of a cold solve."""
    lp = _large_mot_lp()
    start = HighsBasis()
    start.col_status = [HighsBasisStatus.kLower] * lp.n_vars
    start.row_status = [HighsBasisStatus.kLower] * lp.A_eq.shape[0]
    start.alien = False
    cold = solve_lp(lp)
    assert cold.stats["method"] == "highs-ipm"
    _assert_same_solution(solve_lp(lp, start), cold)


def test_start_runs_dual_simplex_past_ipm_min_cols():
    """The optimal basis of a cold interior-point solve starts dual simplex on
    the LP with its costs moved by up to 10%."""
    lp = _large_mot_lp()
    start = solve_lp(lp).basis
    c = lp.c * (1 + 0.1 * np.random.default_rng(1).uniform(-1, 1, lp.n_vars))
    moved = LinearProgram(c=c, A_eq=lp.A_eq, b_eq=lp.b_eq)
    cold, warm = solve_lp(moved), solve_lp(moved, start)
    assert cold.stats["method"] == "highs-ipm" and warm.stats["method"] == "highs-ds"
    assert abs(warm.value - cold.value) <= 1e-9 * abs(cold.value)


# -- HiGHS through the binding, against scipy's linprog -----------------------


def _oracle(p, method):
    """scipy's ``linprog`` on the LP ``solve_lp`` hands HiGHS: at a primal
    feasibility tolerance of 1e-9, and from ``LARGE_COLS`` columns on without
    presolve at 1e-10."""
    sign = 1.0 if p.sense == "min" else -1.0
    bounds = p.bounds if p.bounds is not None else (0, None)
    large = p.n_vars >= lp_core.LARGE_COLS
    options = {"presolve": False, "primal_feasibility_tolerance": 1e-10} if large else {"primal_feasibility_tolerance": 1e-9}
    return sign, linprog(sign * p.c, A_ub=p.A_ub, b_ub=p.b_ub, A_eq=p.A_eq, b_eq=p.b_eq, bounds=bounds, method=method,
                         options=options)


def _assert_bitwise(p):
    sol = solve_lp(p)
    sign, res = _oracle(p, sol.stats["method"])
    assert np.array_equal(sol.x, res.x)
    assert sol.value == sign * res.fun
    stats = sol.stats
    assert (stats["simplex_iterations"] or stats["ipm_iterations"], stats["crossover_iterations"]) == (
        res.nit, res.crossover_nit
    )
    for ours, theirs, A in ((sol.duals_eq, res.eqlin.marginals, p.A_eq), (sol.duals_ub, res.ineqlin.marginals, p.A_ub)):
        assert ours is None if A is None else np.array_equal(ours, sign * np.asarray(theirs))
    return sol


def _transport(rng, n, m):
    w_row, w_col = rng.uniform(0.1, 1, n), rng.uniform(0.1, 1, m)
    w_col *= w_row.sum() / w_col.sum()
    b_eq = np.concatenate([w_row, w_col])
    return LinearProgram(c=rng.uniform(size=n * m), A_eq=lp_core.plan_rows(n, m), b_eq=b_eq)


def _drawn_transport(rng, monkeypatch):
    return _transport(rng, *rng.integers(2, 13, size=2))


def _drawn_transport_below_large(rng, monkeypatch):
    """27 x 37: 999 columns, one below ``LARGE_COLS``."""
    lp = _transport(rng, 27, 37)
    assert lp.n_vars == lp_core.LARGE_COLS - 1
    return lp


def _drawn_transport_at_large(rng, monkeypatch):
    """25 x 40: ``LARGE_COLS`` columns."""
    lp = _transport(rng, 25, 40)
    assert lp.n_vars == lp_core.LARGE_COLS
    return lp


def _drawn_transport_large(rng, monkeypatch):
    """40 x 40, the AW1 outer LP of ``stability_approx``."""
    return _transport(rng, 40, 40)


def _polytope(rng, k, m_raw):
    lifted = LiftedMeasure(np.column_stack([rng.uniform(-1, 1, k), rng.uniform(0, 1, k)]), np.full(k, 1 / k))
    return _mot_lp(rng, lifted, m_raw)[1]


def _drawn_polytope(rng, monkeypatch):
    k = int(rng.integers(2, 9))
    return _polytope(rng, k, int(rng.integers(k, 3 * k)))


def _drawn_polytope_large(rng, monkeypatch):
    """40 x 58, the mot LP of ``stability_approx``: above ``LARGE_COLS``, below ``IPM_MIN_COLS``."""
    lp = _polytope(rng, 40, 58)
    assert lp_core.LARGE_COLS <= lp.n_vars < lp_core.IPM_MIN_COLS
    return lp


def _drawn_refit(rng, monkeypatch):
    """The CDF-gap refit LP of ``reference`` (kernel and CDF-gap columns,
    A_eq and A_ub) with a drawn nonnegative objective."""
    lp = reference.refit_lp(
        DiscreteMeasure([-1.5, 0.5, 1.0], [0.25, 0.5, 0.25]),
        LiftedMeasure([(-0.5, 0.2), (0.5, 0.8)], [0.5, 0.5]),
        DiscreteMeasure([-2.0, 0.0, 2.0], [0.3, 0.4, 0.3]),
    )
    assert lp.A_eq is not None and lp.A_ub is not None
    return LinearProgram(c=rng.uniform(size=lp.n_vars), A_eq=lp.A_eq, b_eq=lp.b_eq, A_ub=lp.A_ub, b_ub=lp.b_ub)


def _drawn_vix_primal(rng, monkeypatch):
    """``vix_primal_lp``: free columns, ``bounds`` given, maximised."""
    k = int(rng.integers(2, 5))
    mu = DiscreteMeasure(rng.uniform(0.85, 1.15, k), np.full(k, 1 / k))
    raw = rng.uniform(0.6, 1.4, 2 * k)
    raw += mu.atoms.mean() - raw.mean()
    nu = convex_order_projection(mu, DiscreteMeasure(raw, np.full(2 * k, 1 / (2 * k))))
    edges = reference.vix_bin_edges(mu, nu, 1.0, int(rng.integers(2, 7)))
    lp = _captured(monkeypatch, reference, lambda: reference.vix_bin_primal_lp(mu, nu, 1.0, edges))
    assert lp.sense == "max" and (None, None) in lp.bounds
    return lp


def _drawn_vix_exact_portfolio(rng, monkeypatch):
    """``vix_primal_lp``, the exact LP's portfolio: free columns only, maximised."""
    k = int(rng.integers(2, 6))
    mu = DiscreteMeasure(rng.uniform(0.85, 1.15, k), np.full(k, 1 / k))
    raw = rng.uniform(0.6, 1.4, 2 * k)
    raw += mu.atoms.mean() - raw.mean()
    nu = convex_order_projection(mu, DiscreteMeasure(raw, np.full(2 * k, 1 / (2 * k))))
    lp = _captured(monkeypatch, solvers, lambda: solvers.vix_primal_lp(mu, nu, 1.0))
    assert lp.sense == "max" and set(lp.bounds) == {(None, None)}
    return lp


@pytest.mark.parametrize(
    "draw",
    [_drawn_transport, _drawn_polytope, _drawn_refit, _drawn_vix_primal, _drawn_vix_exact_portfolio,
     _drawn_transport_below_large, _drawn_transport_at_large, _drawn_transport_large, _drawn_polytope_large],
    ids=lambda f: f.__name__.removeprefix("_drawn_"),
)
def test_solve_lp_is_bitwise_linprog(draw, monkeypatch):
    """x, the value and both dual vectors are bitwise scipy's ``linprog``'s."""
    rng = np.random.default_rng(24)
    for _ in range(12):
        assert _assert_bitwise(draw(rng, monkeypatch)).stats["method"] == "highs-ds"


def test_solve_lp_is_bitwise_linprog_on_interior_point():
    rng = np.random.default_rng(0)
    mu = DiscreteMeasure(rng.uniform(-1, 1, 100), np.full(100, 0.01))
    _, lp = _mot_lp(rng, LiftedMeasure.from_measure(mu), 145)
    assert lp.n_vars >= lp_core.IPM_MIN_COLS
    stats = _assert_bitwise(lp).stats
    assert stats["method"] == "highs-ipm" and stats["ipm_iterations"] > 0


@pytest.mark.parametrize(
    "lp",
    [
        LinearProgram(c=[1.0], A_eq=[[1.0]], b_eq=[-1.0]),  # infeasible
        LinearProgram(c=[-1.0], A_ub=[[0.0]], b_ub=[1.0]),  # unbounded
        LinearProgram(c=[1.0], A_eq=[[1.0]], b_eq=[1.0], bounds=[(np.inf, np.inf)]),  # HiGHS model error
        LinearProgram(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], bounds=[(2.0, 1.0), (0, None)]),
    ],
    ids=["infeasible", "unbounded", "model-error", "crossed-bounds"],
)
def test_lp_error_status_is_linprogs(lp):
    _, res = _oracle(lp, "highs-ds")
    assert not res.success
    with pytest.raises(LPError) as err:
        solve_lp(lp)
    assert err.value.status == {2: "infeasible", 3: "unbounded"}.get(res.status, "failed")


def test_optimal_point_off_its_rows_is_a_failed_lp(monkeypatch):
    """linprog's check of HiGHS's point, kept: a point off a row or bound by
    more than the tolerance (here any point at all) is status "failed"."""
    monkeypatch.setattr(lp_core, "_POINT_TOL", -1.0)
    with pytest.raises(LPError) as err:
        solve_lp(LinearProgram(c=[1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0]))
    assert err.value.status == "failed"


# -- one HiGHS instance per thread, transport rows once per shape ------------


def _assert_same_outcome(a, b):
    """Two solves gave bitwise one solution, basis included, or one LPError."""
    if isinstance(a, tuple):
        assert a == b
        return
    _assert_same_solution(a, b)
    for name in ("col_status", "row_status"):
        assert list(getattr(a.basis, name)) == list(getattr(b.basis, name)), name


def _reuse_sequence():
    """Each outcome of a fixed sequence of solves: a 3x3 transport LP, one
    past ``LARGE_COLS``, an interior-point LP, an infeasible one, a warm start,
    the same LP cold right after it, and a start of another shape."""
    rng = np.random.default_rng(5)
    large, ipx = _transport(rng, 40, 40), _large_mot_lp()
    assert large.n_vars >= lp_core.LARGE_COLS and ipx.n_vars >= lp_core.IPM_MIN_COLS
    mot = _polytope(rng, 10, 20)
    moved = LinearProgram(c=mot.c * (1 + 0.1 * rng.uniform(-1, 1, mot.n_vars)), A_eq=mot.A_eq, b_eq=mot.b_eq)
    out = []

    def solve(lp, start=None):
        try:
            out.append(solve_lp(lp, start))
        except LPError as exc:
            out.append(exc.args)
        return out[-1]

    solve(_transport(rng, 3, 3))
    assert solve(large).stats["method"] == "highs-ds"
    assert solve(ipx).stats["method"] == "highs-ipm"
    assert solve(LinearProgram(c=[1.0], A_eq=[[1.0]], b_eq=[-1.0]))[0] == "infeasible"
    start = solve(mot).basis
    warm, cold = solve(moved, start), solve(moved)
    assert warm.stats != cold.stats  # the start was taken
    solve(_transport(rng, 3, 3), start)
    return out


def test_reused_highs_gives_a_fresh_instances_results(monkeypatch):
    reused = _reuse_sequence()
    monkeypatch.setattr(lp_core, "_highs", _Highs)
    fresh = _reuse_sequence()
    assert len(reused) == len(fresh) == 8
    for a, b in zip(reused, fresh):
        _assert_same_outcome(a, b)


def test_threads_solving_at_once_get_the_serial_results():
    """Four threads at once, each solving 20 transport and 20 mot LPs from
    its own place in the list, with threads switched every microsecond:
    each gets bitwise the serial results.  HiGHS runs without the
    interpreter lock, and threads sharing one instance crash."""
    rng = np.random.default_rng(6)
    lps = [lp for _ in range(20) for lp in (_transport(rng, *rng.integers(2, 13, size=2)), _drawn_polytope(rng, None))]
    serial = [solve_lp(lp) for lp in lps]
    results, n_threads = {}, 4

    def work(k):
        order = np.roll(np.arange(len(lps)), 10 * k)
        results[k] = dict(zip(order, (solve_lp(lps[i]) for i in order)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == list(range(n_threads))
    for k in range(n_threads):
        for i, sol in results[k].items():
            _assert_same_outcome(sol, serial[i])


def test_transport_rows_are_built_once_per_shape_and_read_only():
    n, m = 3, 4
    A = lp_core.plan_rows(n, m)
    assert lp_core.plan_rows(n, m) is A
    fresh = block_rows_coo(_plan_blocks(n, m, 1), (n + m, n * m))
    assert np.array_equal(A.toarray(), fresh.toarray())
    for v in (A.data, A.indices, A.indptr):
        with pytest.raises(ValueError, match="read-only"):
            v[0] = v[0]
    b_eq = np.concatenate([np.full(n, 1 / n), np.full(m, 1 / m)])
    stats = solve_lp(LinearProgram(c=np.arange(n * m, dtype=float), A_eq=A, b_eq=b_eq)).stats
    assert (stats["rows"], stats["cols"], stats["nnz"]) == (*fresh.shape, fresh.nnz)
