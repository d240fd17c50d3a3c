import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog

from emot.convex_order import ConvexOrderError, convex_order_projection
from emot import solvers
from emot.couplings import check_martingale, coupling_from_plan, martingale_polytope_lp
from emot.lp_core import LinearProgram, LPError, solve_lp
from emot.measures import DiscreteMeasure, LiftedMeasure, cell_masses, check_convex_order, mean, total_variation
from emot.solvers import (
    COSTS,
    CostSpec,
    copula_lift,
    extract_barriers,
    price_american,
    shadow_coupling,
    solve_extended_mot,
    solve_mot,
    solve_wmot_fw,
    vix_dual_lp,
    vix_primal_lp,
)
import reference
from reference import (
    barrier_monotonicity_violation,
    binary_kernel,
    left_monotone_violation,
    vix_bin_primal_lp,
    vix_bracket,
)

ABS_COST = CostSpec(fn=lambda x, u, ys: np.abs(np.asarray(ys) - x))


def random_in_order_pair(rng, n_max=4, n_min=1):
    n = rng.integers(n_min, n_max + 1)
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
                assert r["value"] == pytest.approx(nu.weights @ nu.atoms**2, abs=1e-9)

    def test_order_failure_raises(self):
        with pytest.raises(ConvexOrderError):
            solve_mot(DiscreteMeasure([-2, 2], [0.5, 0.5]), DiscreteMeasure([0], [1.0]), ABS_COST)


class TestSolveExtendedMot:
    def test_single_label_matches_mot(self):
        mu = DiscreteMeasure([-1, 0, 1], [0.3, 0.4, 0.3])
        nu = DiscreteMeasure([-2, 0, 2], [0.3, 0.4, 0.3])
        r1 = solve_mot(mu, nu, ABS_COST)
        labelled = LiftedMeasure(np.column_stack([mu.atoms, np.full(len(mu), 0.7)]), mu.weights)
        r2 = solve_extended_mot(labelled, nu, ABS_COST)
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
            assert r["value"] == pytest.approx(nu.weights @ nu.atoms**2, abs=1e-7)

    def test_zero_iterations_returns_feasible_start(self, monkeypatch):
        monkeypatch.setattr(solvers, "MAX_FW_ITER", 0)
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        nu = DiscreteMeasure([-2, 0, 2], [0.25, 0.5, 0.25])
        r = solve_wmot_fw(LiftedMeasure.from_measure(mu), nu, self.cost())
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
        r = price_american(mu, nu, mu.atoms, np.zeros((2, 2)))
        assert r["value"] == pytest.approx(mu.weights @ np.maximum(mu.atoms, 0.0), abs=1e-9)

    def test_dirac_fixture(self):
        r = price_american(DiscreteMeasure([0], [1.0]), DiscreteMeasure([-1, 1], [0.5, 0.5]), [0.2], [[0.0, 1.0]])
        assert r["value"] == pytest.approx(0.5, abs=1e-8)

    def test_splitting_fixture(self):
        mu = DiscreteMeasure([0], [1.0])
        nu = DiscreteMeasure([-2, 0, 2], [0.25, 0.5, 0.25])
        r = price_american(mu, nu, [0.6], [np.abs(nu.atoms) / 2])
        assert r["value"] == pytest.approx(0.8, abs=1e-8)
        assert r["exercise_mass"] == pytest.approx(0.5, abs=1e-8)
        # strictly above the no-split value max(0.6, E|Y|/2) = 0.6
        continuation = solve_mot(
            mu, nu, CostSpec(fn=lambda x, u, ys: np.abs(ys) / 2), sense="max"
        )["value"]
        assert r["value"] > max(0.6, continuation) + 0.1

    def test_payoff_arrays_and_their_shapes(self):
        mu = DiscreteMeasure([-1, 2], [2 / 3, 1 / 3])
        nu = DiscreteMeasure([-3, 0, 3], [0.25, 0.5, 0.25])
        p1, p2 = np.array([0.0, 5.0]), np.array([[1.0, 0, 0], [0, 0, 4.0]])
        assert price_american(mu, nu, p1, p2)["value"] == pytest.approx(23 / 12, abs=1e-9)
        with pytest.raises(ValueError, match="shapes"):
            price_american(mu, nu, p1[:1], p2)

    def test_bounds(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            mu, nu = random_in_order_pair(rng, n_max=3)
            phi1 = np.maximum(mu.atoms, 0.0)
            phi2 = np.tile(np.maximum(nu.atoms - 0.2, 0.0), (len(mu), 1))
            r = price_american(mu, nu, phi1, phi2)
            cont = solve_mot(
                mu, nu, CostSpec(fn=lambda x, u, ys: np.maximum(ys - 0.2, 0.0)), sense="max"
            )["value"]
            lower = max(cont, mu.weights @ np.maximum(mu.atoms, 0.0))
            upper = nu.weights @ np.maximum(phi1.max(), phi2[0])
            assert lower - 1e-8 <= r["value"] <= upper + 1e-8


def positive_pair(rng, stay: bool):
    """mu with 1-3 atoms in (0.85, 1.15); nu spreads each into a binary kernel and,
    given ``stay``, keeps part of its mass at the atom itself."""
    n = int(rng.integers(1, 4))
    mu = DiscreteMeasure(rng.uniform(0.85, 1.15, n), rng.uniform(0.2, 1.0, n))
    mu = mu.scaled(1 / mu.mass)
    nu = DiscreteMeasure([], [])
    for x, w in zip(mu.atoms, mu.weights):
        kept = rng.uniform(0.1, 0.5) if stay else 0.0
        nu = nu + binary_kernel(x, x - rng.uniform(0.05, 0.3), x + rng.uniform(0.05, 0.3)).scaled(w * (1 - kept))
        if stay:
            nu = nu + DiscreteMeasure([x], [w * kept])
    return mu, nu


def _two_point_excess(r, mu, nu, tau):
    """Largest amount by which the portfolio of ``vix_dual_lp``'s result ``r`` breaks
    phi(x) + p psi(y_j) + (1 - p) psi(y_k) <= sqrt(p L(x, y_j) + (1 - p) L(x, y_k)) at
    some y_j < x < y_k with mean x, or phi(x) + psi(x) <= 0 at an atom x of mu and nu."""
    x, yj, yk = mu.atoms[:, None, None], nu.atoms[None, :, None], nu.atoms[None, None, :]
    L = (2.0 / tau) * np.log(mu.atoms[:, None] / nu.atoms)
    with np.errstate(divide="ignore", invalid="ignore"):  # p is nan or inf where y_j = y_k
        p = (yk - x) / (yk - yj)
        cost = np.sqrt(np.maximum(p * L[:, :, None] + (1 - p) * L[:, None, :], 0.0))
        lhs = r["phi"][:, None, None] + p * r["psi"][:, None] + (1 - p) * r["psi"]
    two_point = np.where((yj < x) & (x < yk), lhs - cost, -np.inf).max()
    delta = np.where(mu.atoms[:, None] == nu.atoms, r["phi"][:, None] + r["psi"], -np.inf).max()
    return float(max(two_point, delta))


def _worst_excess(r, mu, nu, tau, sol):
    """Largest amount by which the portfolio of ``vix_bracket``'s result ``r``
    breaks a subreplication inequality at some (x, bin, y), with the log
    positions alpha, beta >= 0 of its bin-LP solution ``sol``."""
    alpha = -np.minimum(sol.duals_ub[0::2], 0.0).reshape(r["delta_l"].shape)
    beta = -np.minimum(sol.duals_ub[1::2], 0.0).reshape(r["delta_l"].shape)
    assert np.array_equal(r["delta_l"], alpha - beta)
    lo, hi = r["edges"][:-1, None], r["edges"][1:, None]
    x, y = mu.atoms[:, None, None], nu.atoms[None, None, :]
    L = (2.0 / tau) * np.log(x / y)
    lhs = (r["phi"][:, None, None] + r["psi"][None, None, :] + r["delta_s"][:, :, None] * (y - x)
           + alpha[:, :, None] * (L - lo**2) + beta[:, :, None] * (hi**2 - L))
    return float(np.max(lhs - lo))


class TestVix:
    def test_trivial(self):
        m = DiscreteMeasure([1.0], [1.0])
        r = vix_bracket(m, m, 1.0, 10)
        assert r["d_lo"] == pytest.approx(0.0, abs=1e-10)
        assert r["d_hi"] == pytest.approx(0.0, abs=1e-10)
        assert vix_dual_lp(m, m, 1.0)["value"] == pytest.approx(0.0, abs=1e-10)

    def test_forced_kernel_bracket(self):
        mu = DiscreteMeasure([1.0], [1.0])
        nu = DiscreteMeasure([0.5, 1.5], [0.5, 0.5])
        target = np.sqrt(np.log(4.0 / 3.0))
        r = vix_bracket(mu, nu, 1.0, 200)
        assert r["d_lo"] <= target <= r["d_hi"]
        assert r["d_hi"] - r["d_lo"] <= 0.02

    def test_refinement_shrinks_gap(self):
        mu = DiscreteMeasure([1.0, 1.2], [0.5, 0.5])
        nu = DiscreteMeasure([0.6, 1.1, 1.6], [0.3, 0.3, 0.4])
        shift = mean(mu) - mean(nu)
        nu = DiscreteMeasure(nu.atoms + shift, nu.weights)
        gaps = []
        for bins in (25, 50, 100):
            r = vix_bracket(mu, nu, 0.5, bins)
            gaps.append(r["d_hi"] - r["d_lo"])
            assert r["d_lo"] <= r["d_hi"] + 1e-12
        assert gaps[2] <= gaps[1] + 1e-9 <= gaps[0] + 2e-9

    def test_upper_edge_is_an_identity(self):
        """d_hi = d_lo + width mu(R) agrees with the upper-edge bin LP solved."""
        rng = np.random.default_rng(17)
        for _ in range(12):
            mu, nu = (DiscreteMeasure(m.atoms + 4.0, m.weights) for m in random_in_order_pair(rng))
            tau, bins = rng.uniform(0.25, 2.0), int(rng.integers(2, 40))
            r = vix_bracket(mu, nu, tau, bins)
            upper = reference.vix_bin_lp(mu, nu, tau, r["edges"])
            upper.c = np.tile(np.repeat(r["edges"][1:], len(nu)), len(mu))
            solved = solve_lp(upper).value
            assert abs(r["d_hi"] - solved) <= 1e-12 * abs(solved)

    def test_portfolio_from_duals_agrees_with_portfolio_lp(self, monkeypatch):
        """The portfolio read from the bin LP's duals subreplicates at every
        (x, bin, y), and its value is the portfolio LP's optimum."""
        solved, cols = [], []

        def spy(lp):
            solved.append(solve_lp(lp))
            return solved[-1]

        monkeypatch.setattr(reference, "solve_lp", spy)
        rng = np.random.default_rng(29)
        for k in range(12):
            # the last pair gets >= 3 000 columns, so its bin LP goes to the interior point
            pair = random_in_order_pair(rng) if k < 11 else random_in_order_pair(rng, 10, n_min=8)
            mu, nu = (DiscreteMeasure(m.atoms + 4.0, m.weights) for m in pair)
            tau = rng.uniform(0.25, 2.0)
            bins = int(rng.integers(2, 40)) if k < 11 else -(-3000 // (len(mu) * len(nu)))
            r = vix_bracket(mu, nu, tau, bins)
            sol = solved[-1]
            cols.append(sol.x.size)
            assert _worst_excess(r, mu, nu, tau, sol) <= 1e-9 * max(1.0, r["edges"][-2])
            p = vix_bin_primal_lp(mu, nu, tau, r["edges"])["p_value"]
            assert abs(r["p_value"] - p) <= 1e-12 * max(1.0, abs(p))
        assert cols[-1] >= 3000 > max(cols[:-1])

    def test_portfolio_within_solver_tolerance_is_repaired(self, monkeypatch):
        """Duals off by no more than HiGHS leaves them (5e-8 here) give a portfolio
        that meets every inequality, at a value within 1e-7 of d_lo."""
        mu = DiscreteMeasure([0.9, 1.0, 1.1], [0.25, 0.5, 0.25])
        nu = DiscreteMeasure([0.8, 0.9, 1.0, 1.1, 1.2], [0.125, 0.25, 0.25, 0.25, 0.125])
        solved = []

        def raised_psi(lp):
            solved.append(solve_lp(lp))
            solved[-1].duals_eq[len(mu) + 2] += 5e-8
            return solved[-1]

        monkeypatch.setattr(reference, "solve_lp", raised_psi)
        r = vix_bracket(mu, nu, 1.0, 4)
        assert _worst_excess(r, mu, nu, 1.0, solved[-1]) <= 1e-15
        assert r["d_lo"] - 1e-7 <= r["p_value"] <= r["d_lo"] + 1e-15

    def test_primal_duality(self):
        mu = DiscreteMeasure([1.0], [1.0])
        nu = DiscreteMeasure([0.5, 1.5], [0.5, 0.5])
        r = vix_bracket(mu, nu, 1.0, 50)
        p = vix_bin_primal_lp(mu, nu, 1.0, r["edges"])
        assert p["p_value"] == pytest.approx(r["d_lo"], abs=1e-6)
        assert p["p_value"] <= r["d_hi"] + 1e-9

    def test_rejects_nonpositive_support(self):
        with pytest.raises(ValueError):
            vix_dual_lp(DiscreteMeasure([0.5], [1.0]), DiscreteMeasure([-1, 2], [0.5, 0.5]), 1.0)

    def test_exact_value_lies_in_every_bracket(self):
        """On drawn positive pairs, a third of them with nu atoms on mu atoms, the
        exact value lies in the bin LP's bracket at 50 and 200 bins, the repaired
        portfolio meets every two-point inequality, and its value is the
        portfolio LP's and within 1e-7 of the exact value."""
        rng = np.random.default_rng(27)
        on_atoms = 0
        for k in range(12):
            mu, nu = positive_pair(rng, stay=k % 3 == 0)
            on_atoms += bool(np.isin(mu.atoms, nu.atoms).any())
            tau = rng.uniform(0.25, 2.0)
            r = vix_dual_lp(mu, nu, tau)
            for bins in (50, 200):
                bracket = vix_bracket(mu, nu, tau, bins)
                assert bracket["d_lo"] - 1e-9 <= r["value"] <= bracket["d_hi"] + 1e-9
            assert _two_point_excess(r, mu, nu, tau) <= 1e-12
            assert -1e-12 <= r["value"] - r["p_value"] <= 1e-7
            assert abs(r["p_value"] - vix_primal_lp(mu, nu, tau)["p_value"]) <= 1e-9
        assert on_atoms >= 4

    def test_exact_portfolio_within_solver_tolerance_is_repaired(self, monkeypatch):
        """Duals of the exact LP off by 5e-8 give a portfolio that meets every
        two-point inequality, at a value within 1e-7 of the exact value."""
        mu = DiscreteMeasure([0.9, 1.0, 1.1], [0.25, 0.5, 0.25])
        nu = DiscreteMeasure([0.8, 0.9, 1.0, 1.1, 1.2], [0.125, 0.25, 0.25, 0.25, 0.125])

        def raised_psi(lp):
            sol = solve_lp(lp)
            sol.duals_eq[len(mu) + 2] += 5e-8
            return sol

        monkeypatch.setattr(solvers, "solve_lp", raised_psi)
        r = vix_dual_lp(mu, nu, 1.0)
        assert _two_point_excess(r, mu, nu, 1.0) <= 1e-12
        assert r["value"] - 1e-7 <= r["p_value"] <= r["value"] + 1e-15

    def test_coupling_labels_each_kernel_with_its_vix_level(self):
        """The coupling is a martingale coupling of (mu, nu) whose kernels each
        meet E_K[L] = u^2, at the exact value sum w u."""
        rng = np.random.default_rng(5)
        for k in range(6):
            mu, nu = positive_pair(rng, stay=k % 2 == 0)
            r = vix_dual_lp(mu, nu, 1.0)
            c = r["coupling"]
            xs, us, w = c.first_marginal.xs, c.first_marginal.us, c.first_marginal.weights
            assert check_martingale(c, 1e-12)[0]
            assert total_variation(c.first_marginal.x_marginal(), mu) <= 1e-12
            assert total_variation(DiscreteMeasure(c.y_support, w @ c.kernels), nu) <= 1e-12
            moment = (c.kernels * 2.0 * np.log(xs[:, None] / c.y_support)).sum(axis=1)
            assert np.abs(np.sqrt(np.maximum(moment, 0.0)) - us).max() <= 1e-9
            assert w @ us == pytest.approx(r["value"], abs=1e-12)


# the pair whose shadow LP returned a plan with a negative kernel weight
FOUND_MU = DiscreteMeasure(
    [-2.6075753612919934, -9.672213503624666e-95, 2.1972607196310436],
    [0.7296559623416496, 0.0786379161620579, 0.19170612149629243],
)
FOUND_NU = DiscreteMeasure(
    [-2.6075753612919934, -0.23531328165712573, -1e-10, 0.1777052414203149, 3.4323207583653326],
    [0.7296559623416496, 0.0645562145124385, 0.07863791611780602, 4.425188333742433e-11, 0.12714990698385395],
)


@st.composite
def convex_pairs(draw):
    """mu with 1-5 atoms; nu spreads each of its atoms into a binary kernel,
    or is a drawn measure moved to mu's mean and repaired into convex order."""
    n = draw(st.integers(1, 5))
    w = np.array(draw(st.lists(st.floats(0.1, 1), min_size=n, max_size=n)))
    mu = DiscreteMeasure(draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n)), w / w.sum())
    if draw(st.booleans()):
        nu = DiscreteMeasure([], [])
        for x, wx in zip(mu.atoms, mu.weights):
            nu = nu + binary_kernel(x, x - draw(st.floats(0, 3)), x + draw(st.floats(0, 3))).scaled(wx)
        return mu, nu
    raw = np.array(draw(st.lists(st.floats(-5, 5), min_size=1, max_size=8)))
    return mu, convex_order_projection(mu, DiscreteMeasure(raw + mean(mu) - raw.mean(), np.full(raw.size, 1 / raw.size)))


def certified_shadow(mb, nu):
    """shadow_coupling's result, after checking both marginals and every
    kernel barycentre to 1e-12 max(1, span of nu)."""
    r = shadow_coupling(mb, nu)
    c = r["coupling"]
    tol = 1e-12 * max(1.0, nu.atoms[-1] - nu.atoms[0])
    first = dict(zip(map(tuple, c.first_marginal.atoms), c.first_marginal.weights))
    assert max(abs(first.pop(tuple(a), 0.0) - w) for a, w in zip(mb.atoms, mb.weights)) <= tol and not first
    assert total_variation(c.second_marginal(), nu) <= tol
    assert check_martingale(c, tol)[0]
    return r


def shadow_value_and_plan(mb, nu):
    """shadow_coupling's value, and the plan it hands to ``coupling_from_plan``."""
    plans = []

    def keep(mu_bar, nu, plan):
        plans.append(plan.copy())
        return coupling_from_plan(mu_bar, nu, plan)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "coupling_from_plan", keep)
        value = shadow_coupling(mb, nu)["value"]
    return value, plans[0]


@st.composite
def shadow_lifts(draw):
    """FOUND_MU and FOUND_NU, or a ``convex_pairs`` pair at atom scale 1e-3 to 1e2 whose nu
    may hold a light share of a spread of itself (each atom y moved to y - l and y + r with
    its mean kept), which keeps nu above mu in convex order; lifted with u = 0 or by either
    copula at m = 1-16."""
    if draw(st.integers(0, 9)) == 0:
        mu, nu = FOUND_MU, FOUND_NU
    else:
        mu, nu = draw(convex_pairs())
        light = draw(st.sampled_from([0.0, 1e-14, 1e-10, 1e-6]))
        l, r, s = draw(st.floats(0.01, 1)), draw(st.floats(0.01, 1)), 10.0 ** draw(st.floats(-3, 2))
        share = np.repeat([1.0 - light, light * r / (l + r), light * l / (l + r)], len(nu))
        atoms = np.concatenate([nu.atoms, nu.atoms - l, nu.atoms + r])
        mu, nu = DiscreteMeasure(s * mu.atoms, mu.weights), DiscreteMeasure(s * atoms, share * np.tile(nu.weights, 3))
    lift = draw(st.sampled_from(["plain", "independence", "hoeffding_frechet"]))
    return (LiftedMeasure.from_measure(mu) if lift == "plain" else copula_lift(mu, lift, draw(st.integers(1, 16)))), nu


@st.composite
def spread_lifts(draw):
    """1-5 mu atoms with weights from U(0.1, 1) or t^6 + 1e-12, t in [0, 8], each spread into
    a binary kernel, so that mu <=cx nu exactly; lifted by either copula at m = 1-8."""
    n = draw(st.integers(1, 5))
    xs = draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n, unique=True))
    if draw(st.booleans()):
        w = np.array(draw(st.lists(st.floats(0.1, 1), min_size=n, max_size=n)))
    else:
        w = np.array(draw(st.lists(st.floats(0, 8), min_size=n, max_size=n))) ** 6 + 1e-12
    mu = DiscreteMeasure(xs, w / w.sum())
    nu = DiscreteMeasure([], [])
    for x, wx in zip(mu.atoms, mu.weights):
        nu = nu + binary_kernel(x, x - draw(st.floats(0, 3)), x + draw(st.floats(0, 3))).scaled(wx)
    return copula_lift(mu, draw(st.sampled_from(["independence", "hoeffding_frechet"])), draw(st.integers(1, 8))), nu


# a spread_lifts pair; lifted by the independence copula at m = 4, the kernel of its atom
# (2.055, 0.125), of weight 2.3e-14, lies 3.0e-4 span off its x
TINY_MU = DiscreteMeasure(
    [-2.068136252435343, -1.743112249306833, -0.5473117362900268, 2.0552065048727126, 4.837633865406946],
    [0.0026980224865497692, 0.8667057127352892, 0.12258848908284099, 9.096051434857639e-14, 0.008007775695229037],
)
TINY_NU = DiscreteMeasure(
    [-3.687791023503683, -3.5202305793361064, -2.079686457135106, 0.29378835778511814, 0.6559910709838779,
     1.1215713959308773, 2.428486632126588, 2.4435539998870697, 4.131653913594997, 6.326201693790233],
    [0.5162509006336821, 0.0614786980946497, 0.002684892913061853, 1.3129573487916309e-05, 1.915590262422147e-14,
     0.3504548121016071, 7.180461172435492e-14, 0.06110979098819128, 0.00543169639977813, 0.0025760792954509074],
)


def lp_minimum(mb, nu, cost):
    """Minimum of the lifted martingale LP with cost matrix ``cost``, or None where
    HiGHS fails.  Its feasibility tolerances are 1e-10: at the default 1e-7 the
    shadow LP's value was seen 4e-8 off on pairs with weights near 1e-8."""
    lp = martingale_polytope_lp(mb, nu, cost=cost)
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(lp.c, A_eq=lp.A_eq, b_eq=lp.b_eq, method="highs-ds", options=tight)
    return res.fun if res.status == 0 else None


class TestShadow:
    def test_forced_dirac(self):
        mb = LiftedMeasure([(0.0, 0.3)], [1.0])
        nu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        r = shadow_coupling(mb, nu)
        assert r["value"] == pytest.approx(0.7 * np.sqrt(2.0), abs=1e-9)

    def test_u_zero_reduces_to_mot(self):
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        nu = DiscreteMeasure([-2, 0, 2], [0.25, 0.5, 0.25])
        r1 = shadow_coupling(LiftedMeasure.from_measure(mu), nu)
        r2 = solve_mot(mu, nu, CostSpec(fn=lambda x, u, ys: np.sqrt(1 + np.asarray(ys) ** 2)))
        assert r1["value"] == pytest.approx(r2["value"], abs=1e-9)

    def test_labels_out_of_range(self):
        with pytest.raises(ValueError):
            shadow_coupling(LiftedMeasure([(0.0, 1.5)], [1.0]), DiscreteMeasure([0], [1.0]))

    def test_pair_with_a_rounding_level_atom(self):
        # the shadow LP returned a plan with a negative kernel weight here
        certified_shadow(copula_lift(FOUND_MU, "hoeffding_frechet", 8), FOUND_NU)

    @pytest.mark.parametrize("m", [7, 8])
    def test_tiny_weight_spread_lp_is_the_closed_form(self, m):
        # solve_extended_mot raised LPError "infeasible" here while LPs below
        # 1 000 columns ran at HiGHS's default 1e-7 primal feasibility tolerance;
        # nu is every kernel of delta_0, so the value is (1 - E u) E_nu sqrt(1 + y^2)
        nu = binary_kernel(0.0, -1.0, 1.1920929e-07)
        r = solve_extended_mot(copula_lift(DiscreteMeasure([0.0], [1.0]), "independence", m), nu,
                               CostSpec(fn=COSTS["shadow"]))
        closed = 0.5 * float(nu.weights @ np.sqrt(1.0 + nu.atoms ** 2))
        assert abs(r["value"] - closed) <= 1e-12 * closed
        assert check_martingale(r["coupling"])[0]

    @pytest.mark.parametrize("m", [7, 8])
    def test_tiny_weight_spread(self, m):
        # the shadow LP reported "infeasible" here
        nu = binary_kernel(0.0, -1.0, 1.1920929e-07)
        certified_shadow(copula_lift(DiscreteMeasure([0.0], [1.0]), "independence", m), nu)

    @settings(max_examples=60)
    @given(convex_pairs(), st.sampled_from(["independence", "hoeffding_frechet"]), st.integers(1, 8))
    def test_value_is_the_lp_minimum(self, pair, copula, m):
        mu, nu = pair
        mb = copula_lift(mu, copula, m)
        value = certified_shadow(mb, nu)["value"]
        oracle = lp_minimum(mb, nu, COSTS["shadow"](mb.xs[:, None], mb.us[:, None], nu.atoms[None, :]))
        assert oracle is None or abs(value - oracle) <= 1e-10

    @settings(max_examples=60)
    @given(convex_pairs())
    def test_plain_lift_is_the_left_curtain(self, pair):
        # the left curtain is the one left-monotone martingale coupling, and it minimises
        # E (Y - X)^3 over martingale couplings (Beiglboeck & Juillet 2016)
        mu, nu = pair
        mb = LiftedMeasure.from_measure(mu)
        c = certified_shadow(mb, nu)["coupling"]
        assert left_monotone_violation(c) == 0.0
        fm = c.first_marginal
        cost = float(fm.weights @ (c.kernels * (c.y_support[None, :] - fm.xs[:, None]) ** 3).sum(axis=1))
        oracle = lp_minimum(mb, nu, (nu.atoms[None, :] - mb.xs[:, None]) ** 3)
        assert oracle is None or abs(cost - oracle) <= 1e-10 * max(1.0, abs(oracle))

    @settings(max_examples=300)
    @given(shadow_lifts())
    def test_slice_walk_is_the_knot_sort(self, lift):
        mb, nu = lift
        value, plan = shadow_value_and_plan(mb, nu)
        oracle = reference.shadow_plan(mb, nu)
        oracle_value = float((1.0 - mb.us) @ oracle @ np.sqrt(1.0 + nu.atoms ** 2))
        assert np.abs(plan - oracle).max() <= 1e-12 * max(1.0, nu.atoms[-1] - nu.atoms[0])
        assert np.array_equal(plan > 1e-12, oracle > 1e-12)
        assert abs(value - oracle_value) <= 1e-12 * max(1.0, abs(oracle_value))

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
    def test_tiny_atom_kernel_is_at_its_barycentre(self):
        # what is left of nu carries the rounding of every earlier subtraction, and an atom of
        # weight 2.3e-14 late in the (u, x) order takes it
        c = shadow_coupling(copula_lift(TINY_MU, "independence", 4), TINY_NU)["coupling"]
        assert check_martingale(c, 1e-9 * (TINY_NU.atoms[-1] - TINY_NU.atoms[0]))[0]

    @settings(max_examples=200)
    @given(spread_lifts())
    def test_kernel_residual_weighted_by_mass(self, lift):
        mb, nu = lift
        c = shadow_coupling(mb, nu)["coupling"]
        fm = c.first_marginal
        residual = fm.weights * np.abs(c.kernels @ c.y_support - fm.xs)
        assert residual.max() <= 1e-14 * (nu.atoms[-1] - nu.atoms[0])


AMER_CASES = ("below_min", "at_min", "above_max", "at_max", "constant", "between")


@st.composite
def american_inputs(draw):
    """A ``convex_pairs`` pair with payoffs in [-2, 2], each x atom's row drawn as one case
    of ``price_american``'s rule: phi1 below or at min phi2 (exercise never pays more),
    strictly above max phi2 (continuing never does), at max phi2, phi2 constant at phi1,
    or strictly between min and max phi2."""
    mu, nu = draw(convex_pairs())
    n, m = len(mu), len(nu)
    p2 = np.array(draw(st.lists(st.floats(-2, 2), min_size=n * m, max_size=n * m))).reshape(n, m)
    p1 = np.empty(n)
    for i in range(n):
        case, t = draw(st.sampled_from(AMER_CASES)), draw(st.floats(0.01, 0.99))
        lo, hi = p2[i].min(), p2[i].max()
        if case == "constant":
            p2[i] = p1[i] = 4 * t - 2
        else:
            p1[i] = {"below_min": lo - t, "at_min": lo, "above_max": hi + t, "at_max": hi,
                     "between": lo + t * (hi - lo)}[case]
    return mu, nu, p1, p2


def american_columns(mu, nu, phi1, phi2):
    """``price_american``'s result, the LP it solved, its solution, and each column's x atom
    and branch (0 exercise, 1 continue).  Atom i's mass row holds the columns of its
    branches, m a branch, exercise first; a lone branch is read as exercise unless its
    costs are phi2[i]."""
    seen = []

    def spy(lp):
        seen.append((lp, solve_lp(lp)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "solve_lp", spy)
        r = price_american(mu, nu, phi1, phi2)
    (lp, sol), m = seen[-1], len(nu)
    counts = np.diff(lp.A_eq.indptr[:len(mu) + 1])
    atom = np.repeat(np.arange(len(mu)), counts)
    branch = np.concatenate([np.repeat([0, 1], m) if k == 2 * m else np.full(m, int(np.array_equal(c, phi2[i])))
                             for i, (k, c) in enumerate(zip(counts, np.split(lp.c, np.cumsum(counts)[:-1])))])
    return r, lp, sol, atom, branch


class TestAmericanRule:
    """``price_american`` leaves out a branch where it cannot beat the other."""

    @settings(max_examples=200)
    @given(american_inputs())
    def test_matches_the_full_lp(self, inputs):
        mu, nu, p1, p2 = inputs
        try:
            oracle = reference.american_price(mu, nu, p1, p2)["value"]
        except LPError:
            # HiGHS calls a few of these feasible LPs infeasible, on pairs equal to rounding with
            # atoms 1e-8 apart (ROADMAP item 8); so it may the LP without the dominated branches,
            # as in test_pair_equal_to_rounding_with_atoms_1e8_apart
            assume(False)
        r, _, sol, atom, branch = american_columns(mu, nu, p1, p2)
        assert abs(r["value"] - oracle) <= 1e-9 * max(1.0, abs(oracle))
        masses = np.zeros((len(mu), 2))
        np.add.at(masses, (atom, branch), sol.x)
        assert np.all(masses[p1 <= p2.min(axis=1), 0] == 0.0)
        assert np.all(masses[p2.max(axis=1) < p1, 1] == 0.0)
        assert abs(r["exercise_mass"] + r["continue_mass"] - mu.mass) <= 1e-9

    @pytest.mark.parametrize("phi1, phi2", [
        ([-np.inf, 1.0], [[0.0, 0.0], [0.0, 0.0]]),  # exercise at -1 is left out
        ([np.nan, 1.0], [[0.0, 0.0], [0.0, 0.0]]),
        ([1.0, 1.0], [[-np.inf, 0.0], [0.0, 0.0]]),  # continuing at -1 is left out
        ([1.0, 1.0], [[np.nan, 0.0], [0.0, 0.0]]),
    ])
    def test_non_finite_payoffs_raise(self, phi1, phi2):
        mu, nu = DiscreteMeasure([-1, 1], [0.5, 0.5]), DiscreteMeasure([-2, 2], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            price_american(mu, nu, phi1, phi2)

    @pytest.mark.xfail(strict=True, raises=LPError, reason="ROADMAP item 8")
    def test_pair_equal_to_rounding_with_atoms_1e8_apart(self):
        """mu and nu share their atoms, 0 and 1e-8 among them, and their weights differ by
        ulps.  Continuing never pays less here, so the LP is the mot LP of the pair, which
        HiGHS calls infeasible, as it does ``solve_mot``'s; with both branches at every x it
        was solved, to value 0."""
        atoms = [-1.5114107644726209, 0.0, 1e-08, 2.0161440288278563]
        mu = DiscreteMeasure(atoms, [0.2585420578604582, 0.3562354134314365, 0.2024027551053368, 0.1828197736027685])
        nu = DiscreteMeasure(atoms, [0.2585420578604582, 0.35623541343143655, 0.20240275510533678,
                                     0.18281977360276847])
        assert price_american(mu, nu, np.full(4, -0.01), np.zeros((4, 4)))["value"] == pytest.approx(0.0, abs=1e-12)

    def test_exercise_mass_does_not_depend_on_column_order(self, workloads):
        """On the 8 seed-0 ``lp_large`` amer inputs, the LP with both branches at every
        x put 1.7e-3 to 3.5e-2 more or less exercise mass in (x, branch, y) column
        order than branch-major: the ties sat at the x where exercise never pays more."""
        rng = workloads.make_rng(0, False, 1)
        pairs = [[workloads.convex_pair(rng, n, m) for n, m in ((100, 145), (20, 29), (60, 87), (20, 29))][2]
                 for _ in range(workloads.LP_POOL)]
        for mu, nu in pairs:
            r, lp, _, _, branch = american_columns(
                mu, nu, np.maximum(mu.atoms, 0.0), np.tile(0.9 * np.maximum(nu.atoms, 0.0), (len(mu), 1)))
            order = np.argsort(branch, kind="stable")
            sol = solve_lp(LinearProgram(c=lp.c[order], A_eq=lp.A_eq[:, order], b_eq=lp.b_eq, sense="max"))
            assert abs(r["exercise_mass"] - sol.x[branch[order] == 0].sum()) <= 1e-12


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
        assert np.allclose(np.unique(lm.us), [0.25, 0.75])
        assert np.allclose(lm.weights, 0.25)

    def test_hoeffding_frechet(self):
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        lm = copula_lift(mu, "hoeffding_frechet", 2)
        assert np.allclose(lm.atoms, [[-1, 0.25], [1, 0.75]])

    def test_m_one(self):
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        lm = copula_lift(mu, "independence", 1)
        assert np.allclose(lm.us, 0.5)

    @settings(max_examples=100)
    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(0, 8)), min_size=1, max_size=20, unique_by=lambda a: a[0]),
           st.booleans(), st.integers(1, 64))
    def test_weights_are_cell_masses(self, atoms, heavy_tailed, m):
        x, t = np.array(atoms).T
        w = t ** 6 + 1e-12 if heavy_tailed else 0.1 + t / 8.0
        mu = DiscreteMeasure(x, w / w.sum())
        labels = (np.arange(m) + 0.5) / m

        def by_label_and_atom(lm):
            row, col = np.searchsorted(labels, lm.us), np.searchsorted(mu.atoms, lm.xs)
            assert np.array_equal(labels[row], lm.us) and np.array_equal(mu.atoms[col], lm.xs)
            dense = np.zeros((m, len(mu)))
            dense[row, col] = lm.weights
            return dense

        # a cell mass is a difference of cumulative sums, so it carries their rounding, in ulps of the mass
        ind = by_label_and_atom(copula_lift(mu, "independence", m))
        assert np.abs(ind - mu.weights / m).max() <= 8 * np.spacing(mu.mass)
        hf = by_label_and_atom(copula_lift(mu, "hoeffding_frechet", m))
        assert np.array_equal(hf, cell_masses(mu, np.arange(m + 1) * mu.mass / m))

    def test_x_marginal_exact(self):
        rng = np.random.default_rng(30)
        w = rng.uniform(0.1, 1, 5)
        mu = DiscreteMeasure(np.sort(rng.uniform(-2, 2, 5)), w / w.sum())
        for copula in ("independence", "hoeffding_frechet"):
            lm = copula_lift(mu, copula, 8)
            xm = lm.x_marginal()
            assert np.allclose(xm.atoms, mu.atoms)
            assert np.allclose(xm.weights, mu.weights)


def test_solutions_are_martingale():
    rng = np.random.default_rng(40)
    for _ in range(10):
        mu, nu = random_in_order_pair(rng)
        r = solve_mot(mu, nu, ABS_COST)
        ok, dev = check_martingale(r["coupling"], tol=1e-8)
        assert ok, dev


# convex_pair(np.random.default_rng([6, 7]), 12, 20) of benchmarks/workloads.py
SMALL_SCALE_MU = DiscreteMeasure(
    [-0.9585797912114828, -0.6507051811572973, -0.5726713401409824, -0.5064702387640663, -0.4497191399379443,
     0.0971707978667049, 0.30503595347961787, 0.31574557724731545, 0.3279015436752144, 0.368064750521647,
     0.481342683890962, 0.7668902845225689],
    np.full(12, 1 / 12),
)
SMALL_SCALE_NU = DiscreteMeasure(
    [-2.21513782301702, -1.8126046586307238, -1.779897613859552, -1.3626263785741253, -1.3193906692041597,
     -1.148676667760505, -1.0066159151735594, -0.7218683410881438, -0.5461301559722914, -0.3247349834054549,
     -0.13727984474564645, 0.09674230334942704, 0.3347940028395697, 0.3764140214343923, 1.042441012314369,
     1.5183669653313456, 1.5790943012796628, 1.7767176626949845, 2.3663367357088925, 2.490732546465634],
    [0.05, 0.05, 0.05000000000000002, 0.04999999999999999, 0.04999999999999999, 0.04999999999999999,
     0.04999999999999999, 0.04999999999999999, 0.04999999999999999, 0.04999999999999999, 0.04999999999999999,
     0.050000000000000044, 0.050000000000000044, 0.050000000000000044, 0.050000000000000044, 0.050000000000000044,
     0.050000000000000044, 0.050000000000000044, 0.050000000000000044, 0.04999999999999971],
)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
def test_mot_value_scales_with_the_atoms():
    """HiGHS's tolerances are absolute, so at atom scale 1e-6 the value is
    6.2e-6 off (relative) and a kernel's barycentre 2.6e-4*s off its x."""
    s = 1e-6
    value = solve_mot(SMALL_SCALE_MU, SMALL_SCALE_NU, CostSpec(fn=COSTS["abs"]))["value"]
    small = solve_mot(DiscreteMeasure(s * SMALL_SCALE_MU.atoms, SMALL_SCALE_MU.weights),
                      DiscreteMeasure(s * SMALL_SCALE_NU.atoms, SMALL_SCALE_NU.weights), CostSpec(fn=COSTS["abs"]))
    assert abs(small["value"] - s * value) <= 1e-9 * s * value
    assert check_martingale(small["coupling"], 1e-9 * s)[0]


@pytest.mark.xfail(strict=True, raises=ValueError, reason="ROADMAP item 8")
def test_plan_entry_below_zero_within_the_lp_tolerance():
    """HiGHS returns the plan entry (0 -> -1.0000000001) as -5.0e-11, inside
    its 1e-9 primal tolerance, and ``DiscreteCoupling`` refuses entries below
    -1e-12 with "negative kernel weight"."""
    mu = DiscreteMeasure([-1.0, 0.0], [0.5, 0.5])
    nu = DiscreteMeasure([-1.0000000001, 0.0], [0.49999999995, 0.50000000005])
    assert check_convex_order(mu, nu)[0]
    c = solve_mot(mu, nu, CostSpec(fn=COSTS["abs"]))["coupling"]
    assert np.allclose(c.x_marginal().weights, mu.weights, rtol=0, atol=1e-9)
    assert np.allclose(c.second_marginal().weights, nu.weights, rtol=0, atol=1e-9)
    assert check_martingale(c, 1e-9)[0]
