import numpy as np
import pytest
from scipy import sparse

from emot import approximation, couplings, lp_core, solvers
from emot.measures import DiscreteMeasure, LiftedMeasure
from emot.lp_core import (
    DimensionGuardError,
    LinearProgram,
    dump_lp,
    enumerate_vertices,
    solve_lp,
    transport_plan,
)


class TestSolveLP:
    def test_basic_min(self):
        p = LinearProgram(c=[1.0, 2.0], A_eq=[[1, 1]], b_eq=[1.0])
        sol = solve_lp(p)
        assert sol.optimal
        assert sol.value == pytest.approx(1.0)
        assert np.allclose(sol.x, [1, 0])
        assert sol.is_vertex

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
            if sol.optimal:
                assert sol.duals_eq @ b == pytest.approx(sol.value, abs=1e-7)

    def test_infeasible(self):
        p = LinearProgram(c=[1.0], A_eq=[[1.0]], b_eq=[-1.0])
        assert solve_lp(p).status == "infeasible"

    def test_unbounded(self):
        p = LinearProgram(c=[-1.0], A_ub=[[0.0]], b_ub=[1.0])
        assert solve_lp(p).status == "unbounded"

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
        p = LinearProgram(c=np.zeros(2), A_ub=[[1, 0], [0, 1]], b_ub=[1.0, 1.0])
        verts = enumerate_vertices(p)
        assert len(verts) == 4

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


def test_dump_contains_all_rows():
    p = LinearProgram(c=[1.0, 2.0], A_eq=[[1, 1]], b_eq=[1.0], A_ub=[[1, 0]], b_ub=[0.5])
    text = dump_lp(p)
    assert "eq" in text and "ub" in text and "objective" in text


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
    P1, P2 = rng.uniform(size=(2, 2, 3))
    expected = np.concatenate([
        P1.sum(1) + P2.sum(1), P1.sum(0) + P2.sum(0), _bary(P1, mu.atoms, nu.atoms), _bary(P2, mu.atoms, nu.atoms)
    ])
    return [(lp.A_eq, np.concatenate([P1.ravel(), P2.ravel()]), expected)]


def _vix_case():
    mu = DiscreteMeasure([0.9, 1.1], [0.5, 0.5])
    nu = DiscreteMeasure([0.7, 1.0, 1.3], [0.25, 0.5, 0.25])
    return mu, nu, 1.0, solvers.vix_bin_edges(mu, nu, 1.0, 4)


def _layout_vix_bins(rng, monkeypatch):
    mu, nu, tau, edges = _vix_case()
    lp = solvers._vix_bin_lp(mu, nu, tau, edges, edges[:-1])
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
    dual = solvers._vix_bin_lp(mu, nu, tau, edges, edges[:-1])
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
    c = couplings.product_coupling(mb, nu)
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
