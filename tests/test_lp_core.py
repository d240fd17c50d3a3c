import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from emot import approximation, couplings, lp_core, solvers
from emot.convex_order import convex_order_projection
from emot.measures import DiscreteMeasure, LiftedMeasure
from emot.lp_core import (
    Block,
    DimensionGuardError,
    LinearProgram,
    LPError,
    block_rows,
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
    lp = _captured(monkeypatch, solvers, lambda: solvers.price_american(mu, nu, lambda x: x, lambda x, y: y))
    P = rng.uniform(size=(2, 2, 3))  # (x atom, branch, y atom)
    expected = np.concatenate([P.sum((1, 2)), P.sum((0, 1)), _bary(P, mu.atoms[:, None], nu.atoms).ravel()])
    return [(lp.A_eq, P.ravel(), expected)]


def _vix_case():
    mu = DiscreteMeasure([0.9, 1.1], [0.5, 0.5])
    nu = DiscreteMeasure([0.7, 1.0, 1.3], [0.25, 0.5, 0.25])
    return mu, nu, 1.0, solvers.vix_bin_edges(mu, nu, 1.0, 4)


def _layout_vix_bins(rng, monkeypatch):
    mu, nu, tau, edges = _vix_case()
    lp = solvers._vix_bin_lp(mu, nu, tau, edges)
    P = rng.uniform(size=(2, 4, 3))  # (x atom, bin, y atom)
    L = (2.0 / tau) * (np.log(mu.atoms)[:, None] - np.log(nu.atoms)[None, :])
    moment = (P * L[:, None, :]).sum(-1)
    low = P.sum(-1) * edges[:-1] ** 2 - moment
    high = moment - P.sum(-1) * edges[1:] ** 2
    eq = np.concatenate([P.sum((1, 2)), P.sum((0, 1)), _bary(P, mu.atoms[:, None], nu.atoms).ravel()])
    return [(lp.A_eq, P.ravel(), eq), (lp.A_ub, P.ravel(), np.stack([low, high], axis=-1).ravel())]


def _layout_vix_primal(rng, monkeypatch):
    mu, nu, tau, edges = _vix_case()
    lp = _captured(monkeypatch, solvers, lambda: solvers.vix_primal_lp(mu, nu, tau, edges))
    dual = solvers._vix_bin_lp(mu, nu, tau, edges)
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
    lp = _captured(monkeypatch, approximation, lambda: approximation._refit_piece(base, mb, nu))
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
     _layout_distance, _layout_refit],
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


def _random_blocks(rng):
    """Blocks over shared rows with disjoint column ranges, listed out of
    column order, with zero coefficients and non-default steps."""
    blocks, col0, n_rows = [], 0, int(rng.integers(1, 12))
    for _ in range(int(rng.integers(1, 5))):
        r = int(rng.integers(1, min(5, n_rows) + 1))
        k, m = int(rng.integers(1, n_rows // r + 1)), int(rng.integers(1, 6))
        steps = None if rng.random() < 0.3 else (int(rng.integers(0, 4)) * m, int(rng.integers(1, 3)))
        q_step, t_step = steps or (m, 1)
        coef = rng.uniform(-2, 2, (k, r, m)) * (rng.random((k, r, m)) < 0.7)
        blocks.append(Block(coef, int(rng.integers(0, n_rows - k * r + 1)), col0, steps))
        col0 += (k - 1) * q_step + (m - 1) * t_step + 1
    rng.shuffle(blocks)
    return blocks, (n_rows, col0)


def test_block_rows_matches_coo_build():
    """The directly filled CSR is the canonical matrix the COO path builds,
    array for array, so HiGHS sees the same input."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        blocks, shape = _random_blocks(rng)
        A, B = block_rows(blocks, shape), block_rows_coo(blocks, shape)
        assert A.shape == B.shape and A.has_canonical_format
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(A, name), getattr(B, name)), name
    block = Block(rng.uniform(-1, 1, (2, 2, 3)), row0=1, col0=2, steps=(1, 2))
    assert np.array_equal(block_rows([block, block], (5, 9)).toarray(), 2 * block_rows([block], (5, 9)).toarray())


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
