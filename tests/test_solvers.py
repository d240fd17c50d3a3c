import numpy as np
import pytest

from emot.convex_order import ConvexOrderError
from emot import solvers
from emot.couplings import check_martingale
from emot.lp_core import solve_lp
from emot.measures import DiscreteMeasure, LiftedMeasure, check_convex_order, mean
from emot.solvers import (
    CostSpec,
    barrier_monotonicity_violation,
    copula_lift,
    extract_barriers,
    left_monotone_violation,
    price_american,
    shadow_coupling,
    solve_extended_mot,
    solve_mot,
    solve_wmot_fw,
    vix_dual_lp,
    vix_primal_lp,
)

ABS_COST = CostSpec(fn=lambda x, u, ys: np.abs(np.asarray(ys) - x))


def random_in_order_pair(rng, n_max=4):
    n = rng.integers(1, n_max + 1)
    mu = DiscreteMeasure(np.sort(rng.uniform(-2, 2, n)), np.full(n, 1 / n))
    spread = rng.uniform(0.2, 1.5)
    atoms = np.concatenate([mu.atoms - spread, mu.atoms + spread])
    nu = DiscreteMeasure(atoms, np.full(2 * n, 0.5 / n))
    return mu, nu


class TestSolveMot:
    def test_forced_kernel_fixture(self):
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        nu = DiscreteMeasure([-2, 2], [0.5, 0.5])
        r = solve_mot(mu, nu, ABS_COST)
        assert r["value"] == pytest.approx(1.5, abs=1e-9)
        assert np.allclose(r["coupling"].kernels, [[0.75, 0.25], [0.25, 0.75]], atol=1e-9)

    def test_unique_coupling(self):
        mu = DiscreteMeasure([0], [1.0])
        nu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        r = solve_mot(mu, nu, CostSpec(fn=lambda x, u, ys: np.asarray(ys) ** 3 + 1))
        assert r["value"] == pytest.approx(1.0)

    def test_telescoping(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            mu, nu = random_in_order_pair(rng)
            for sense in ("min", "max"):
                r = solve_mot(mu, nu, CostSpec(fn=lambda x, u, ys: np.asarray(ys) ** 2), sense)
                assert r["value"] == pytest.approx(nu.integrate(lambda y: y**2), abs=1e-9)

    def test_order_failure_raises(self):
        with pytest.raises(ConvexOrderError):
            solve_mot(DiscreteMeasure([-2, 2], [0.5, 0.5]), DiscreteMeasure([0], [1.0]), ABS_COST)


class TestSolveExtendedMot:
    def test_single_label_matches_mot(self):
        mu = DiscreteMeasure([-1, 0, 1], [0.3, 0.4, 0.3])
        nu = DiscreteMeasure([-2, 0, 2], [0.3, 0.4, 0.3])
        r1 = solve_mot(mu, nu, ABS_COST)
        r2 = solve_extended_mot(LiftedMeasure.from_measure(mu, 0.7), nu, ABS_COST)
        assert r2["value"] == pytest.approx(r1["value"], abs=1e-9)

    def test_u_independent_cost(self):
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        nu = DiscreteMeasure([-2, 2], [0.5, 0.5])
        mb = LiftedMeasure([(-1, 0.2), (-1, 0.8), (1, 0.5)], [0.25, 0.25, 0.5])
        r1 = solve_mot(mu, nu, ABS_COST)
        r2 = solve_extended_mot(mb, nu, ABS_COST)
        assert r2["value"] == pytest.approx(r1["value"], abs=1e-9)

    def test_forced_kernels_two_labels(self):
        mb = LiftedMeasure([(0, 0.0), (0, 1.0)], [0.5, 0.5])
        nu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        r = solve_extended_mot(mb, nu, CostSpec(fn=lambda x, u, ys: u * np.asarray(ys)))
        assert r["value"] == pytest.approx(0.0, abs=1e-10)


class TestFrankWolfe:
    def cost(self):
        return CostSpec(
            kernel_cost=lambda x, u, ys, k: float(np.dot(np.abs(ys), k)) ** 2,
            kernel_grad=lambda x, u, ys, k: 2.0 * float(np.dot(np.abs(ys), k)) * np.abs(ys),
        )

    def test_linear_cost_one_iteration(self):
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        nu = DiscreteMeasure([-2, 0, 2], [0.25, 0.5, 0.25])
        lin = CostSpec(
            kernel_cost=lambda x, u, ys, k: float(np.dot(np.abs(ys - x), k)),
            kernel_grad=lambda x, u, ys, k: np.abs(ys - x),
        )
        r = solve_wmot_fw(LiftedMeasure.from_measure(mu), nu, lin, tol=1e-9)
        direct = solve_mot(mu, nu, ABS_COST)
        assert r["value"] == pytest.approx(direct["value"], abs=1e-8)
        assert r["iterations"] <= 2
        assert r["fw_gap"] <= 1e-9

    def test_squared_moment_cost(self):
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        nu = DiscreteMeasure([-2, 2], [0.5, 0.5])
        r = solve_wmot_fw(LiftedMeasure.from_measure(mu), nu, self.cost(), tol=1e-8)
        assert r["value"] == pytest.approx(4.0, abs=1e-7)
        assert r["fw_gap"] <= 1e-8

    def test_second_moment_linear(self):
        rng = np.random.default_rng(17)
        sq = CostSpec(
            kernel_cost=lambda x, u, ys, k: float(np.dot(ys**2, k)),
            kernel_grad=lambda x, u, ys, k: np.asarray(ys, dtype=float) ** 2,
        )
        for _ in range(5):
            mu = DiscreteMeasure(np.sort(rng.uniform(-1, 1, 2)), [0.5, 0.5])
            nu = DiscreteMeasure(
                np.concatenate([mu.atoms - 1, mu.atoms + 1]), [0.25] * 4
            )
            r = solve_wmot_fw(LiftedMeasure.from_measure(mu), nu, sq, tol=1e-8)
            assert r["value"] == pytest.approx(nu.integrate(lambda y: y**2), abs=1e-7)

    def test_zero_iterations_returns_feasible_start(self):
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        nu = DiscreteMeasure([-2, 0, 2], [0.25, 0.5, 0.25])
        r = solve_wmot_fw(LiftedMeasure.from_measure(mu), nu, self.cost(), max_iter=0)
        assert r["iterations"] == 0
        assert r["fw_gap"] == np.inf
        assert check_martingale(r["coupling"])[0]
        assert np.allclose(r["coupling"].second_marginal().weights, nu.weights)

    def test_wrong_gradient_aborts(self):
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        nu = DiscreteMeasure([-2, 2], [0.5, 0.5])
        bad = CostSpec(
            kernel_cost=lambda x, u, ys, k: float(np.dot(np.abs(ys), k)) ** 2,
            kernel_grad=lambda x, u, ys, k: np.abs(ys),  # off by the chain factor
        )
        with pytest.raises(ValueError, match="finite differences"):
            solve_wmot_fw(LiftedMeasure.from_measure(mu), nu, bad)


class TestAmerican:
    def test_pointwise_exercise(self):
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        nu = DiscreteMeasure([-2, 2], [0.5, 0.5])
        r = price_american(mu, nu, lambda x: x, lambda x, y: 0.0)
        assert r["value"] == pytest.approx(mu.integrate(lambda x: np.maximum(x, 0.0)), abs=1e-9)

    def test_dirac_fixture(self):
        r = price_american(
            DiscreteMeasure([0], [1.0]),
            DiscreteMeasure([-1, 1], [0.5, 0.5]),
            lambda x: 0.2,
            lambda x, y: max(y, 0.0),
        )
        assert r["value"] == pytest.approx(0.5, abs=1e-8)

    def test_splitting_fixture(self):
        mu = DiscreteMeasure([0], [1.0])
        nu = DiscreteMeasure([-2, 0, 2], [0.25, 0.5, 0.25])
        r = price_american(mu, nu, lambda x: 0.6, lambda x, y: abs(y) / 2)
        assert r["value"] == pytest.approx(0.8, abs=1e-8)
        assert r["exercise_mass"] == pytest.approx(0.5, abs=1e-8)
        # strictly above the no-split value max(0.6, E|Y|/2) = 0.6
        continuation = solve_mot(
            mu, nu, CostSpec(fn=lambda x, u, ys: np.abs(ys) / 2), sense="max"
        )["value"]
        assert r["value"] > max(0.6, continuation) + 0.1

    def test_payoff_arrays_match_callables(self):
        mu = DiscreteMeasure([-1, 2], [2 / 3, 1 / 3])
        nu = DiscreteMeasure([-3, 0, 3], [0.25, 0.5, 0.25])
        p1, p2 = np.array([0.0, 5.0]), np.array([[1.0, 0, 0], [0, 0, 4.0]])
        by_array = price_american(mu, nu, p1, p2)
        by_call = price_american(mu, nu, lambda x: p1[int(x > 0)], lambda x, y: p2[int(x > 0), int(np.sign(y)) + 1])
        assert by_array["value"] == by_call["value"]
        with pytest.raises(ValueError, match="shapes"):
            price_american(mu, nu, p1[:1], p2)

    def test_bounds(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            mu, nu = random_in_order_pair(rng, n_max=3)
            phi1 = lambda x: max(x, 0.0)
            phi2 = lambda x, y: max(y - 0.2, 0.0)
            r = price_american(mu, nu, phi1, phi2)
            cont = solve_mot(
                mu, nu, CostSpec(fn=lambda x, u, ys: np.maximum(ys - 0.2, 0.0)), sense="max"
            )["value"]
            lower = max(cont, mu.integrate(lambda x: np.maximum(x, 0.0)))
            upper = sum(
                wy * max(max(phi1(x) for x in mu.atoms), phi2(0, y))
                for y, wy in zip(nu.atoms, nu.weights)
            )
            assert lower - 1e-8 <= r["value"] <= upper + 1e-8


class TestVix:
    def test_trivial(self):
        m = DiscreteMeasure([1.0], [1.0])
        r = vix_dual_lp(m, m, 1.0, 10)
        assert r["d_lo"] == pytest.approx(0.0, abs=1e-10)
        assert r["d_hi"] == pytest.approx(0.0, abs=1e-10)

    def test_forced_kernel_bracket(self):
        mu = DiscreteMeasure([1.0], [1.0])
        nu = DiscreteMeasure([0.5, 1.5], [0.5, 0.5])
        target = np.sqrt(np.log(4.0 / 3.0))
        r = vix_dual_lp(mu, nu, 1.0, 200)
        assert r["d_lo"] <= target <= r["d_hi"]
        assert r["d_hi"] - r["d_lo"] <= 0.02

    def test_refinement_shrinks_gap(self):
        mu = DiscreteMeasure([1.0, 1.2], [0.5, 0.5])
        nu = DiscreteMeasure([0.6, 1.1, 1.6], [0.3, 0.3, 0.4])
        shift = mean(mu) - mean(nu)
        nu = DiscreteMeasure(nu.atoms + shift, nu.weights)
        gaps = []
        for bins in (25, 50, 100):
            r = vix_dual_lp(mu, nu, 0.5, bins)
            gaps.append(r["d_hi"] - r["d_lo"])
            assert r["d_lo"] <= r["d_hi"] + 1e-12
        assert gaps[2] <= gaps[1] + 1e-9 <= gaps[0] + 2e-9

    def test_upper_edge_is_an_identity(self):
        """d_hi = d_lo + width mu(R) agrees with the upper-edge bin LP solved."""
        rng = np.random.default_rng(17)
        for _ in range(12):
            mu, nu = (DiscreteMeasure(m.atoms + 4.0, m.weights) for m in random_in_order_pair(rng))
            tau, bins = rng.uniform(0.25, 2.0), int(rng.integers(2, 40))
            r = vix_dual_lp(mu, nu, tau, bins)
            upper = solvers._vix_bin_lp(mu, nu, tau, r["edges"])
            upper.c = np.tile(np.repeat(r["edges"][1:], len(nu)), len(mu))
            solved = solve_lp(upper).value
            assert abs(r["d_hi"] - solved) <= 1e-12 * abs(solved)

    def test_primal_duality(self):
        mu = DiscreteMeasure([1.0], [1.0])
        nu = DiscreteMeasure([0.5, 1.5], [0.5, 0.5])
        r = vix_dual_lp(mu, nu, 1.0, 50)
        p = vix_primal_lp(mu, nu, 1.0, r["edges"])
        assert p["p_value"] == pytest.approx(r["d_lo"], abs=1e-6)
        assert p["p_value"] <= r["d_hi"] + 1e-9

    def test_rejects_nonpositive_support(self):
        with pytest.raises(ValueError):
            vix_dual_lp(
                DiscreteMeasure([0.5], [1.0]), DiscreteMeasure([-1, 2], [0.5, 0.5]), 1.0, 10
            )


class TestShadow:
    def test_forced_dirac(self):
        mb = LiftedMeasure([(0.0, 0.3)], [1.0])
        nu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        r = shadow_coupling(mb, nu)
        assert r["value"] == pytest.approx(0.7 * np.sqrt(2.0), abs=1e-9)

    def test_u_zero_reduces_to_mot(self):
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        nu = DiscreteMeasure([-2, 0, 2], [0.25, 0.5, 0.25])
        r1 = shadow_coupling(LiftedMeasure.from_measure(mu, 0.0), nu)
        r2 = solve_mot(mu, nu, CostSpec(fn=lambda x, u, ys: np.sqrt(1 + np.asarray(ys) ** 2)))
        assert r1["value"] == pytest.approx(r2["value"], abs=1e-9)

    def test_labels_out_of_range(self):
        with pytest.raises(ValueError):
            shadow_coupling(LiftedMeasure([(0.0, 1.5)], [1.0]), DiscreteMeasure([0], [1.0]))


class TestBarriers:
    def test_binary_kernel(self):
        from emot.couplings import DiscreteCoupling

        mb = LiftedMeasure([(0.0, 0.5)], [1.0])
        c = DiscreteCoupling(mb, [-1.0, 1.0], [[0.5, 0.5]])
        bm, diag = extract_barriers(c)
        assert diag["excluded_count"] == 0
        assert bm.t1[0] == -1.0 and bm.t2[0] == 1.0

    def test_dirac_kernel_convention(self):
        from emot.couplings import DiscreteCoupling

        mb = LiftedMeasure([(0.3, 0.5)], [1.0])
        c = DiscreteCoupling(mb, [0.3], [[1.0]])
        bm, _ = extract_barriers(c)
        assert bm.t1[0] == bm.t2[0] == 0.3

    def test_three_point_excluded(self):
        from emot.couplings import DiscreteCoupling

        mb = LiftedMeasure([(0.0, 0.5)], [1.0])
        c = DiscreteCoupling(mb, [-1.0, 0.0, 1.0], [[0.25, 0.5, 0.25]])
        bm, diag = extract_barriers(c)
        assert diag["excluded_count"] == 1
        assert diag["excluded_mass"] == pytest.approx(1.0)
        assert len(bm.weights) == 0

    def test_monotone_on_curtain_lifts(self):
        mu = DiscreteMeasure([-1, 0, 1], [1 / 3, 1 / 3, 1 / 3])
        nu = DiscreteMeasure([-2, -0.5, 0.5, 2], [0.25, 0.25, 0.25, 0.25])
        for m in (8, 16):
            mb = copula_lift(mu, "hoeffding_frechet", m)
            r = shadow_coupling(mb, nu)
            bm, _ = extract_barriers(r["coupling"])
            assert barrier_monotonicity_violation(bm) == pytest.approx(0.0, abs=1e-12)

    def test_left_monotone_small_violation(self):
        mu = DiscreteMeasure([-1, 0, 1], [1 / 3, 1 / 3, 1 / 3])
        nu = DiscreteMeasure([-2, -0.5, 0.5, 2], [0.25, 0.25, 0.25, 0.25])
        mb = copula_lift(mu, "hoeffding_frechet", 64)
        r = shadow_coupling(mb, nu)
        assert left_monotone_violation(r["coupling"]) <= 0.05


class TestCopulaLift:
    def test_independence(self):
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        lm = copula_lift(mu, "independence", 2)
        assert np.allclose(lm.u_marginal().atoms, [0.25, 0.75])
        assert np.allclose(lm.weights, 0.25)

    def test_hoeffding_frechet(self):
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        lm = copula_lift(mu, "hoeffding_frechet", 2)
        assert np.allclose(lm.atoms, [[-1, 0.25], [1, 0.75]])

    def test_m_one(self):
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        lm = copula_lift(mu, "independence", 1)
        assert np.allclose(lm.us, 0.5)

    def test_x_marginal_exact(self):
        rng = np.random.default_rng(30)
        w = rng.uniform(0.1, 1, 5)
        mu = DiscreteMeasure(np.sort(rng.uniform(-2, 2, 5)), w / w.sum())
        for copula in ("independence", "hoeffding_frechet"):
            lm = copula_lift(mu, copula, 8)
            xm = lm.x_marginal()
            assert np.allclose(xm.atoms, mu.atoms)
            assert np.allclose(xm.weights, mu.weights)

    def test_tabulated_row_check(self):
        mu = DiscreteMeasure([0], [1.0])
        with pytest.raises(ValueError, match="rows"):
            copula_lift(mu, "tabulated", 2, table=[[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="nonnegative"):
            copula_lift(mu, "tabulated", 2, table=[[0.75, -0.25], [0.25, 0.25]])
        lm = copula_lift(mu, "tabulated", 2, table=np.full((2, 2), 0.25))
        assert np.allclose(lm.weights, 0.5)


def test_solutions_are_martingale():
    rng = np.random.default_rng(40)
    for _ in range(10):
        mu, nu = random_in_order_pair(rng)
        r = solve_mot(mu, nu, ABS_COST)
        ok, dev = check_martingale(r["coupling"], tol=1e-8)
        assert ok, dev
