import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from emot import approximation, couplings
from emot.approximation import (
    _inverse_transform_coupling,
    _window_ladder,
    _window_min,
    approximate_coupling,
    approximate_pairs,
    min_cost_martingale_rearrangement,
    split_marginals,
)
from emot.convex_order import ConvexOrderError, convex_min, convex_order_projection
import reference
from emot.couplings import (
    DiscreteCoupling,
    adapted_wasserstein,
    check_martingale,
    coupling_from_plan,
)
from emot.measures import (
    DiscreteMeasure,
    LiftedMeasure,
    check_convex_order,
    mean,
    potential_values,
    wasserstein_line,
)
from emot.lp_core import LPError, solve_lp
from emot.solvers import CostSpec, solve_extended_mot, solve_mot


def f1_base():
    mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
    nu = DiscreteMeasure([-2, 2], [0.5, 0.5])
    r = solve_mot(mu, nu, CostSpec(fn=lambda x, u, ys: np.abs(np.asarray(ys) - x)))
    return r["coupling"]


def repaired(mu_p, nu_raw):
    """Mean-align nu to mu and repair the convex order."""
    shifted = DiscreteMeasure(nu_raw.atoms - mean(nu_raw) + mean(mu_p), nu_raw.weights)
    return convex_order_projection(mu_p, shifted)


def piece_mu_bar(piece, mu_bar_p):
    """A piece's perturbed first marginal: its W1-plan rows' image on the
    perturbed atoms, at the 1e-14 cut ``approximate_coupling`` applies."""
    w = piece["plan_rows"].sum(axis=0)
    keep = w > 1e-14
    return LiftedMeasure(mu_bar_p.atoms[keep], w[keep])


class TestSplitMarginals:
    def test_identity(self):
        pi = f1_base()
        s = split_marginals(pi, pi.first_marginal, pi.second_marginal())
        assert len(s.pieces) == 1
        assert not s.stationary.any()
        p = s.pieces[0]
        assert piece_mu_bar(p, pi.first_marginal).mass == pytest.approx(1.0)
        assert wasserstein_line(p["nu"], pi.second_marginal()) < 1e-9

    def test_pieces_in_convex_order(self):
        pi = f1_base()
        mu_p = LiftedMeasure.from_measure(DiscreteMeasure([-1.01, 0.99], [0.5, 0.5]))
        nu_p = repaired(mu_p.x_marginal(), DiscreteMeasure([-2.02, 1.98], [0.5, 0.5]))
        s = split_marginals(pi, mu_p, nu_p)
        total_nu = None
        for p in s.pieces:
            ok, _ = check_convex_order(piece_mu_bar(p, mu_p).x_marginal(), p["nu"], tol=1e-8)
            assert ok
            total_nu = p["nu"] if total_nu is None else total_nu + p["nu"]
        assert wasserstein_line(total_nu, nu_p) < 1e-9

    def test_two_components_mass_split(self):
        mu = DiscreteMeasure([-2, 2], [0.5, 0.5])
        nu = DiscreteMeasure([-3, -1, 1, 3], [0.25, 0.25, 0.25, 0.25])
        pi = solve_mot(mu, nu, CostSpec(fn=lambda x, u, ys: np.abs(np.asarray(ys) - x)))[
            "coupling"
        ]
        mu_p = LiftedMeasure.from_measure(
            DiscreteMeasure([-2.01, 1.99], [0.5, 0.5])
        )
        nu_p = repaired(
            mu_p.x_marginal(), DiscreteMeasure([-3.01, -1.01, 0.99, 2.99], [0.25] * 4)
        )
        s = split_marginals(pi, mu_p, nu_p)
        assert len(s.pieces) == 2
        for p in s.pieces:
            assert piece_mu_bar(p, mu_p).mass == pytest.approx(0.5, abs=0.02)

    def test_merged_base_atoms_keep_their_mass(self):
        # two base atoms 8e-13 apart share one x-marginal atom; both must land
        # in that atom's component
        mb = LiftedMeasure([(0.3, 0.25), (0.3 + 8e-13, 0.75), (-0.6, 0.5)], [0.25, 0.25, 0.5])
        ys = np.array([-1.5, 1.5])
        pi = DiscreteCoupling(mb, ys, np.column_stack([(1.5 - mb.xs) / 3.0, (mb.xs + 1.5) / 3.0]))
        mu_p = LiftedMeasure(mb.atoms + [0.01, 0.0], mb.weights)
        nu_p = repaired(mu_p.x_marginal(), DiscreteMeasure([-1.51, 1.51], pi.second_marginal().weights))
        s = split_marginals(pi, mu_p, nu_p)
        total = s.stationary.copy()
        for p in s.pieces:
            w = p["plan_rows"].sum(axis=0)
            total += np.where(w > 1e-14, w, 0.0)
        assert np.allclose(total, mu_p.weights, rtol=0, atol=1e-12)
        out, _ = approximate_coupling(pi, mu_p, nu_p, 0.05)
        assert wasserstein_line(out.second_marginal(), nu_p) < 1e-9

    @pytest.mark.parametrize("mass", [2.0, 0.5])
    @pytest.mark.parametrize("us", [[0.0], [0.0, 0.5]], ids=["one-label", "two-labels"])
    def test_rejects_a_first_marginal_of_another_mass(self, mass, us):
        # mu_bar' and nu' in convex order, but of another mass than pi's first
        # marginal: the north-west corner plan would stop at the smaller total
        # and the output carry only part of the marginals asked for
        pi = DiscreteCoupling(LiftedMeasure([[0.0, 0.0]], [1.0]), [-1.0, 1.0], [[0.5, 0.5]])
        mu_p = LiftedMeasure([[0.01, u] for u in us], np.full(len(us), mass / len(us)))
        nu_p = DiscreteMeasure([-1.0, 1.02], [mass / 2, mass / 2])
        with pytest.raises(ValueError, match="equal masses"):
            approximate_coupling(pi, mu_p, nu_p, 0.05)

    def test_rejects_bad_order(self):
        pi = f1_base()
        mu_p = LiftedMeasure.from_measure(DiscreteMeasure([-3, 3], [0.5, 0.5]))
        with pytest.raises(ConvexOrderError):
            split_marginals(pi, mu_p, DiscreteMeasure([-2, 2], [0.5, 0.5]))

    def test_base_is_decomposed_once(self, monkeypatch):
        """A coupling keeps its decomposition and component labels, read-only:
        a trend of splits on one base decomposes it once."""
        mu = DiscreteMeasure([-2, 2], [0.5, 0.5])
        nu = DiscreteMeasure([-3, -1, 1, 3], [0.25] * 4)
        pi = solve_mot(mu, nu, CostSpec(fn=lambda x, u, ys: np.abs(np.asarray(ys) - x)))["coupling"]
        calls, decompose = [], couplings.irreducible_decomposition

        def spy(*args):
            calls.append(args)
            return decompose(*args)

        monkeypatch.setattr(couplings, "irreducible_decomposition", spy)
        for d in (0.01, 0.02):
            mu_p = LiftedMeasure.from_measure(DiscreteMeasure([-2 - d, 2 - d], [0.5, 0.5]))
            nu_p = repaired(mu_p.x_marginal(), DiscreteMeasure(nu.atoms - d, nu.weights))
            assert [p["interval"] for p in split_marginals(pi, mu_p, nu_p).pieces] == [(-3.0, -1.0), (1.0, 3.0)]
        assert len(calls) == 1
        decomp, labels = pi.decomposition
        assert labels.tolist() == [0, 1] and len(decomp.components) == 2
        with pytest.raises(ValueError):
            labels[0] = 1


class TestApproximatePairs:
    def test_unperturbed_single_cell(self):
        nu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        out, diag = approximate_pairs([0.0], nu.atoms, [nu.weights], [0.0], [1.0], (-1.0, 1.0), nu, eps=0.05)
        assert out.shape == (1, len(nu))
        total = DiscreteMeasure(nu.atoms, out[0])
        assert wasserstein_line(total, nu) < 1e-9
        ok, _ = check_convex_order(DiscreteMeasure([0], [1.0]), total, tol=1e-8)
        assert ok

    def test_cells_sum_to_target(self):
        base = [[0.375, 0.125], [0.125, 0.375]]  # over the atoms -2 and 2
        nu_p = DiscreteMeasure([-2.1, 2.1], [0.5, 0.5])
        xps, qs = [-1.05, 1.05], [0.5, 0.5]
        out, diag = approximate_pairs([-1.0, 1.0], [-2.0, 2.0], base, xps, qs, (-2.1, 2.1), nu_p, eps=0.05)
        assert out.shape == (2, len(nu_p))
        assert wasserstein_line(DiscreteMeasure(nu_p.atoms, out.sum(axis=0)), nu_p) < 1e-9
        for xp, q, o in zip(xps, qs, out):
            ok, _ = check_convex_order(DiscreteMeasure([xp], [q]), DiscreteMeasure(nu_p.atoms, o), tol=1e-8)
            assert ok
        assert diag["step3_cost"] <= diag["step3_bound"] + 1e-9

    def test_failing_windows_are_each_checked_once(self, monkeypatch):
        # a window that fails at eps fails at every smaller eps, so stage two
        # makes one pass over the ladder and then gives up
        calls = []

        def never(theta, nu, tol=1e-9):
            calls.append(tol)
            return False, 0.0

        monkeypatch.setattr(approximation, "check_convex_order", never)
        nu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        with pytest.raises(ConvexOrderError, match="never dominated"):
            approximate_pairs([0.0], nu.atoms, [nu.weights], [0.0], [1.0], (-1.0, 1.0), nu, eps=0.05)
        assert len(calls) == len(_window_ladder((-1.0, 1.0)))


# theta's stage-two sum in op 20 (mass_jitter+base3) of the benchmark's held-out
# seed-5 stability_approx pass, with two atoms of weight 1.5e-11, and its nu
LIGHT_ATOMS = (
    DiscreteMeasure(
        [1.0002369903420025, 1.000244140625, 1.9999928497170025, 2.9997487090920023, 2.999755859375],
        [1.50417508310019e-11, 0.2421883660540789, 0.015625, 0.24218663391583758, 1.50417508310019e-11],
    ),
    DiscreteMeasure(
        [-2.9958516842734455, 0.9909370618831388, 3.016754449755369],
        [0.0003204023360556807, 0.25, 0.24967959766394432],
    ),
)


class TestRearrangement:
    def test_identity(self):
        m = DiscreteMeasure([-1, 1], [0.5, 0.5])
        rep = min_cost_martingale_rearrangement(m, m)
        assert rep["cost"] == pytest.approx(0.0, abs=1e-10)

    def test_atoms_lighter_than_the_lp_tolerance(self):
        # at a primal feasibility tolerance of 1e-10, HiGHS's presolve called
        # this feasible LP infeasible
        rep = min_cost_martingale_rearrangement(*LIGHT_ATOMS)
        assert rep["cost"] <= rep["bound"]

    def test_atoms_lighter_than_the_lp_tolerance_keep_the_martingale(self):
        # the rearrangement LP left the 1.5e-11 atoms' plan rows at zero, and
        # coupling_from_plan dropped them, so a kept kernel's barycentre was
        # 9.6e-9 off its x; the inverse-transform coupling keeps every atom
        theta, nu = LIGHT_ATOMS
        rep = min_cost_martingale_rearrangement(theta, nu)
        assert check_martingale(coupling_from_plan(LiftedMeasure.from_measure(theta), nu, rep["plan"]), 1e-9)[0]

    def test_dirac_to_binary(self):
        theta = DiscreteMeasure([0], [1.0])
        nu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        rep = min_cost_martingale_rearrangement(theta, nu)
        assert rep["cost"] == pytest.approx(1.0)
        assert rep["bound"] == pytest.approx(2.0)
        ok, _ = check_martingale(coupling_from_plan(LiftedMeasure.from_measure(theta), nu, rep["plan"]), tol=1e-9)
        assert ok

    def test_mass_drift_within_order_tolerance(self):
        # the convex-order check accepts a mass gap that W1 alone rejects
        theta = DiscreteMeasure([0], [1.0 + 3e-12])
        nu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        rep = min_cost_martingale_rearrangement(theta, nu)
        assert rep["cost"] == pytest.approx(1.0)
        assert rep["bound"] == pytest.approx(2.0)

    def test_order_violation_raises(self):
        with pytest.raises(ConvexOrderError):
            min_cost_martingale_rearrangement(
                DiscreteMeasure([-1, 1], [0.5, 0.5]), DiscreteMeasure([0], [1.0])
            )

    def test_means_apart_within_the_order_tolerance_keep_the_light_atom(self):
        # nu moved by 5e-11 passes the order check; the two Psi totals then
        # differ by more than the displacement of the 1e-11 atom at 1.5, so
        # without rescaling Psi- that atom sent nothing across and kept its
        # mass at nu's level 2, 1.0 off its x
        mu = DiscreteMeasure([-1, 1, 1.5], [0.5, 0.5 - 1e-11, 1e-11])
        for shift in (-5e-11, 5e-11):
            nu = DiscreteMeasure(np.array([-2, 0, 2, 3]) + shift, [0.25, 0.5, 0.25 - 0.5e-11, 0.5e-11])
            plan = min_cost_martingale_rearrangement(mu, nu)["plan"]
            assert plan.min() >= -1e-12 * nu.mass
            assert np.allclose(plan @ nu.atoms / plan.sum(axis=1), mu.atoms, rtol=0, atol=2e-10)

    def test_random_bound_holds(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = rng.integers(2, 5)
            theta = DiscreteMeasure(np.sort(rng.uniform(-2, 2, n)), np.full(n, 1 / n))
            spread = rng.uniform(0.1, 1)
            nu = DiscreteMeasure(
                np.concatenate([theta.atoms - spread, theta.atoms + spread]),
                np.full(2 * n, 0.5 / n),
            )
            rep = min_cost_martingale_rearrangement(theta, nu)
            assert rep["cost"] <= rep["bound"] + 1e-9


class TestApproximateCoupling:
    def test_identity_short_circuit(self):
        pi = f1_base()
        out, rep = approximate_coupling(pi, pi.first_marginal, pi.second_marginal(), 0.05)
        assert rep["aw1"] == 0.0
        # one-atom cells take their kernel in closed form, their row over its
        # sum, which rounds apart from the base kernel's bits (1.1e-16 here)
        assert np.allclose(out.kernels, pi.kernels, rtol=0, atol=1e-15)

    def test_tiny_perturbation_gets_its_own_marginals(self):
        # a perturbation within np.allclose's default tolerances is still a
        # different pair of marginals, and the output must carry them
        pi, delta = f1_base(), 1e-5
        mu_p = LiftedMeasure.from_measure(DiscreteMeasure([-1 - delta, 1 + delta], [0.5, 0.5]))
        nu_p = DiscreteMeasure([-2 - delta, 2 + delta], [0.5, 0.5])
        out, rep = approximate_coupling(pi, mu_p, nu_p, delta)
        assert np.allclose(out.first_marginal.atoms, mu_p.atoms, rtol=0, atol=1e-9)
        assert np.allclose(out.first_marginal.weights, mu_p.weights, rtol=0, atol=1e-9)
        assert np.allclose(out.second_marginal().atoms, nu_p.atoms, rtol=0, atol=1e-9)
        assert np.allclose(out.second_marginal().weights, nu_p.weights, rtol=0, atol=1e-9)
        assert rep["aw1"] > 0.0

    def test_dirac_first_marginal(self):
        mb = LiftedMeasure.from_measure(DiscreteMeasure([0], [1.0]))
        pi = DiscreteCoupling(mb, [-1.0, 1.0], [[0.5, 0.5]])
        nu_p = DiscreteMeasure([-1.1, 1.1], [0.5, 0.5])
        out, rep = approximate_coupling(pi, mb, nu_p, 0.05)
        assert wasserstein_line(out.second_marginal(), nu_p) < 1e-9
        ok, dev = check_martingale(out, tol=1e-7)
        assert ok, dev
        assert rep["aw1"] <= wasserstein_line(pi.second_marginal(), nu_p) + 0.2

    def test_f1_perturbation_marginals_exact(self):
        pi = f1_base()
        delta = 0.05
        mu_p = LiftedMeasure.from_measure(
            DiscreteMeasure([-1 - delta, 1 + delta], [0.5, 0.5])
        )
        nu_p = repaired(
            mu_p.x_marginal(), DiscreteMeasure([-2 - delta, 2 + delta], [0.5, 0.5])
        )
        out, rep = approximate_coupling(pi, mu_p, nu_p, eps=delta)
        fm = out.first_marginal
        assert np.allclose(np.sort(fm.xs), np.sort(mu_p.xs))
        assert wasserstein_line(out.x_marginal(), mu_p.x_marginal()) < 1e-9
        assert wasserstein_line(out.second_marginal(), nu_p) < 1e-9
        ok, dev = check_martingale(out, tol=1e-7)
        assert ok, dev
        assert rep["aw1"] < 1.0

    def test_aw1_shrinks_with_scale(self):
        pi = f1_base()
        vals = []
        for delta in (0.2, 0.05, 0.0125):
            mu_p = LiftedMeasure.from_measure(
                DiscreteMeasure([-1 - delta, 1 + delta], [0.5, 0.5])
            )
            nu_p = repaired(
                mu_p.x_marginal(),
                DiscreteMeasure([-2 - delta, 2 + delta], [0.5, 0.5]),
            )
            out, rep = approximate_coupling(pi, mu_p, nu_p, eps=delta)
            vals.append(rep["aw1"])
            assert rep["aw1"] == pytest.approx(
                adapted_wasserstein(out, pi), abs=1e-10
            )
        assert vals[2] < vals[0]

    def test_split_base_atom_refits_two_atoms(self, monkeypatch):
        # mu' splits the base atom -1 in two, so the W1 plan gives it two
        # cells, one per perturbed atom, and the base atom 1 a third
        sizes, pairs = [], approximation.approximate_pairs

        def counted(xs, ys, base, xps, qs, *args):
            sizes.append((len(xs), len(base), len(xps), len(qs)))
            return pairs(xs, ys, base, xps, qs, *args)

        monkeypatch.setattr(approximation, "approximate_pairs", counted)
        pi, vals = f1_base(), []
        for d in (0.2, 0.05, 0.0125):
            mu_p = LiftedMeasure.from_measure(DiscreteMeasure([-1 - d, -1 + d / 2, 1 + d / 2], [0.25, 0.25, 0.5]))
            nu_p = repaired(mu_p.x_marginal(), DiscreteMeasure([-2 - d, 2 + d], [0.5, 0.5]))
            out, rep = approximate_coupling(pi, mu_p, nu_p, eps=d)
            assert np.allclose(out.first_marginal.atoms, mu_p.atoms, rtol=0, atol=1e-9)
            assert np.allclose(out.first_marginal.weights, mu_p.weights, rtol=0, atol=1e-9)
            assert wasserstein_line(out.second_marginal(), nu_p) <= 1e-9
            assert check_martingale(out, tol=1e-9)[0]
            vals.append(rep["aw1"])
        assert sizes == [(3, 3, 3, 3)] * 3
        assert vals == pytest.approx([0.4045, 0.1026, 0.0257], rel=0, abs=5e-5)

    def test_cell_lighter_than_the_lp_tolerance_joins_its_atoms_mix(self, monkeypatch):
        # the W1 plan sends 1.9e-12 of the base atom -1 to mu''s atom near 1:
        # the rearrangement LP, working to 1e-9, left that cell's own kernel
        # 0.42 off its x, and a cell share read against theta's weight rather
        # than its plan row, which misses a 4.9e-13 atom's weight by 2e-5
        # relative, 2.7e-6; it enters that atom's kernel with its weight only
        pi, pairs, misses = f1_base(), approximation.approximate_pairs, []

        def cell_misses(xs, ys, base, xps, qs, interval, nu_p, eps):
            rows, diag = pairs(xs, ys, base, xps, qs, interval, nu_p, eps)
            misses.extend(np.abs(rows @ nu_p.atoms / rows.sum(axis=1) - xps))
            return rows, diag

        monkeypatch.setattr(approximation, "approximate_pairs", cell_misses)
        mu_p = LiftedMeasure.from_measure(
            DiscreteMeasure([-0.5510563250622347, 0.9600451393090961], [0.4999999999981256, 0.5000000000018744]))
        nu_p = DiscreteMeasure([-1.6653525179634006, 2.0743413322159268], [0.5, 0.5])
        out, _ = approximate_coupling(pi, mu_p, nu_p, 0.5)
        assert len(misses) == 3 and max(misses) <= 1e-12
        assert np.allclose(out.first_marginal.weights, mu_p.weights, rtol=0, atol=1e-12)
        assert wasserstein_line(out.second_marginal(), nu_p) <= 1e-9
        assert check_martingale(out, tol=1e-9)[0]

    def test_first_marginal_mass_moved_by_a_billionth(self):
        # the W1 transport LP gave split_marginals a plan entry of -1.0e-9,
        # inside HiGHS's 1e-9 primal tolerance, which the piece's nu kept and
        # the cells dropped, so no window passed the order check; the north-
        # west corner plan of one common label has no negative entry
        pi = f1_base()
        for d in (0.2, 0.05, 0.01):
            mu_p = LiftedMeasure.from_measure(DiscreteMeasure([-1 - d, 1 + d], [0.5 + 1e-9, 0.5 - 1e-9]))
            nu_p = repaired(mu_p.x_marginal(), DiscreteMeasure([-2 - d, 2 + d], [0.5, 0.5]))
            out, _ = approximate_coupling(pi, mu_p, nu_p, d)
            assert wasserstein_line(out.second_marginal(), nu_p) <= 1e-9
            assert check_martingale(out, tol=1e-9)[0]

    @pytest.mark.parametrize("eps", [-1e-15, -0.1, 1.5, np.nan])
    def test_eps_outside_the_unit_interval_raises(self, eps):
        pi = f1_base()
        with pytest.raises(ValueError, match="eps"):
            approximate_coupling(pi, pi.first_marginal, pi.second_marginal(), eps)

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_eps_at_the_ends_of_the_unit_interval(self, eps):
        pi, d = f1_base(), 0.05
        mu_p = LiftedMeasure.from_measure(DiscreteMeasure([-1 - d, 1 + d], [0.5, 0.5]))
        nu_p = repaired(mu_p.x_marginal(), DiscreteMeasure([-2 - d, 2 + d], [0.5, 0.5]))
        out, _ = approximate_coupling(pi, mu_p, nu_p, eps)
        assert wasserstein_line(out.second_marginal(), nu_p) <= 1e-9
        assert check_martingale(out, tol=1e-9)[0]

    def test_stationary_mass_shares_atoms_with_cells(self):
        # the base atom 0 is stationary (both potentials are 0.5 there), and the
        # W1 plan sends half of it to each perturbed atom, which a cell feeds too
        mu = DiscreteMeasure([-1, 0, 1], [0.25, 0.5, 0.25])
        nu = DiscreteMeasure([-2, 0, 2], [0.125, 0.75, 0.125])
        pi = solve_mot(mu, nu, CostSpec(fn=lambda x, u, ys: np.abs(np.asarray(ys) - x)))["coupling"]
        mu_p = LiftedMeasure.from_measure(DiscreteMeasure([-0.5, 0.5], [0.5, 0.5]))
        assert np.array_equal(split_marginals(pi, mu_p, nu).stationary, [0.25, 0.25])
        out, rep = approximate_coupling(pi, mu_p, nu, 0.1)
        assert np.array_equal(out.first_marginal.atoms, mu_p.atoms)
        assert np.allclose(out.first_marginal.weights, [0.5, 0.5], rtol=0, atol=1e-15)
        assert np.array_equal(out.y_support, nu.atoms)
        assert np.allclose(out.kernels, [[0.25, 0.75, 0.0], [0.0, 0.75, 0.25]], rtol=0, atol=1e-15)
        assert check_martingale(out, tol=1e-12)[0]
        assert rep["aw1"] == pytest.approx(1.0, rel=0, abs=1e-12)

    def test_rearrangement_plan_entries_below_zero(self):
        # the identity approximation of this min |y - x| MOT coupling (seed 151
        # of convex_pair(default_rng([seed, 34]), 3-11 atoms, 5-17 atoms)) gets
        # rearrangement plan entries of about -1e-11; a coupling built from that
        # plan raised "negative kernel weight"
        xs = [-0.801279395250317, -0.5128280946919725, -0.36598633797131774, -0.352830077796777,
              -0.27866161740906636, -0.10522616263985207, -0.055940822837808435]
        weights = [1 / 7] * 5 + [0.14285714285714268, 1 / 7]
        ys = [-3.0385172974390526, -2.1058169069842565, -1.5990238342146355, -0.21344559653313444,
              -0.20570465762215517, 0.7881512638772415, 0.8199673354168061, 0.9965916076717903, 1.3785448604882533]
        K = np.zeros((7, 9))
        for i, j, k in [(0, 2, 0.732081936385377), (0, 8, 0.267918063614623), (1, 1, 0.5037681404836943),
                        (1, 2, 0.04569584139240082), (1, 8, 0.45053601812390487), (2, 0, 0.13262268876996114),
                        (2, 1, 0.27400963729408356), (2, 7, 0.5340439778967082), (2, 8, 0.05932369603924714),
                        (3, 0, 0.16114965037248644), (3, 4, 0.5791844495325127), (3, 6, 0.015932100213931044),
                        (3, 7, 0.24373379988106997), (4, 0, 0.023628893976956653), (4, 3, 0.7777777777777778),
                        (4, 4, 0.19859332824526557), (5, 0, 0.2397815686962775), (5, 6, 0.7602184313037225),
                        (6, 0, 0.2205949759620963), (6, 5, 0.7777777777777781), (6, 6, 0.001627246260125531)]:
            K[i, j] = k
        pi = DiscreteCoupling(LiftedMeasure.from_measure(DiscreteMeasure(xs, weights)), ys, K)
        out, _ = approximate_coupling(pi, pi.first_marginal, pi.second_marginal(), 0.1)
        assert wasserstein_line(out.x_marginal(), pi.x_marginal()) <= 1e-9
        assert wasserstein_line(out.second_marginal(), pi.second_marginal()) <= 1e-9
        assert check_martingale(out, tol=1e-9)[0]


def _criterion_08_bases():
    """The three base couplings of acceptance criterion 08 (min |y - x| MOT)."""
    cost = CostSpec(fn=lambda x, u, ys: np.abs(np.asarray(ys) - x))
    bases = [
        (LiftedMeasure.from_measure(DiscreteMeasure([-1, 1], [0.5, 0.5])), DiscreteMeasure([-2, 2], [0.5, 0.5])),
        (LiftedMeasure([(-1, 0.2), (-1, 0.8), (1, 0.5)], [0.25, 0.25, 0.5]), DiscreteMeasure([-2, 2], [0.5, 0.5])),
        (LiftedMeasure.from_measure(DiscreteMeasure([-2, 2], [0.5, 0.5])),
         DiscreteMeasure([-3, -1, 1, 3], [0.25] * 4)),
    ]
    return [(mb, nu, solve_extended_mot(mb, nu, cost)["coupling"]) for mb, nu in bases]


def _stage_two_inputs(rng, monkeypatch):
    """Arguments of every ``approximate_pairs`` call that ``approximate_coupling``
    makes on seeded perturbations of the criterion-08 bases."""
    calls = []

    def record(*args):
        calls.append(args)
        return approximate_pairs(*args)

    monkeypatch.setattr(approximation, "approximate_pairs", record)
    for mb, nu, pi in _criterion_08_bases():
        for d in (0.5, 0.125, 2.0**-6):
            xs = mb.xs + d * rng.uniform(-1, 1, len(mb))
            us = np.clip(mb.us + d * rng.uniform(-0.3, 0.3, len(mb)), 0, 1)
            mu_p = LiftedMeasure(np.column_stack([xs, us]), mb.weights)
            nu_p = repaired(mu_p.x_marginal(), DiscreteMeasure(nu.atoms + d * rng.uniform(-1, 1, len(nu)), nu.weights))
            approximate_coupling(pi, mu_p, nu_p, d)
    return calls


def _window_thetas(args, eps, monkeypatch):
    """theta at every window of the ladder, widest first, for the
    ``approximate_pairs`` arguments ``args`` with eps in place of theirs."""
    thetas = []

    def record(theta, nu, tol=1e-9):
        thetas.append(theta)
        return False, 0.0

    monkeypatch.setattr(approximation, "check_convex_order", record)
    with pytest.raises(ConvexOrderError, match="never dominated"):
        approximate_pairs(*args[:-1], eps)
    return thetas


def test_halving_eps_never_shrinks_a_windows_order_gap(monkeypatch):
    # theta's potential is affine in eps and equals mu'_piece's <= nu''s at
    # eps = 1, so its largest gap above nu' cannot fall as eps halves
    failed = 0
    for args in _stage_two_inputs(np.random.default_rng(25), monkeypatch):
        nu_p, eps = args[-2:]
        pairs = zip(*(_window_thetas(args, e, monkeypatch) for e in (eps, eps / 2)))
        for k, thetas in enumerate(pairs):
            pts = np.unique(np.concatenate([nu_p.atoms] + [t.atoms for t in thetas]))
            gap, gap_half = (np.max(potential_values(t, pts) - potential_values(nu_p, pts)) for t in thetas)
            assert gap_half >= gap - 1e-12, (args[5], k, eps, gap, gap_half)
            failed += gap > 1e-9
    assert failed  # some windows fail the order check, so the property is exercised


# the first window of the ladder on (-1, 1), which the one-cell stage-two
# calls below pass or fail at
FIRST = _window_ladder((-1.0, 1.0))[0]


def one_cell_stage_two(x, rho, xp, q=0.5, eps=0.25):
    """``approximate_pairs`` for one cell, of base marginal rho at x and
    perturbed atom xp of mass q, on the interval (-1, 1) with nu' = q
    delta_xp, which dominates only q delta_xp: the call passes at the first
    window exactly when that window's theta is q delta_xp.  Also returns
    the cell's theta by ``reference.project_cell``, stage two one cell at a
    time through the hull-based ``convex_min``."""
    rows, diag = approximate_pairs([x], rho.atoms, [rho.weights], [xp], [q], (-1.0, 1.0),
                                   DiscreteMeasure([xp], [q]), eps)
    am, bm = FIRST
    trimmed = reference.trim_cell(x, rho, am, bm)
    return rows, diag, trimmed, DiscreteMeasure(*reference.project_cell(x, xp, q, trimmed, am, bm, eps))


@pytest.mark.parametrize("x, rho, xp", [
    # x on the window's left end: the parent trimmed rho to delta_x and then
    # moved that Dirac to x'
    (FIRST[0], DiscreteMeasure(FIRST[0] + np.array([-0.25, 0.25]), [0.5, 0.5]), 0.1),
    # x inside the window, x' outside it: the trim still counts
    (0.0, DiscreteMeasure([-2.0, 0.0, 2.0], [0.1, 0.8, 0.1]), FIRST[1] + 0.01),
    # x outside the window, x' inside it: the trim is the Dirac at x
    (FIRST[1] + 0.01, DiscreteMeasure(FIRST[1] + np.array([-0.49, 0.51]), [0.5, 0.5]), 0.3),
], ids=["x-on-a-window-end", "x-inside-xp-outside", "x-outside-xp-inside"])
def test_a_cell_with_x_or_xp_off_the_open_window_gives_q_delta_xp(x, rho, xp):
    rows, diag, trimmed, theta = one_cell_stage_two(x, rho, xp)
    assert diag["retries"] == 0 and diag["window"] == FIRST
    assert rows.tolist() == [[0.5]]
    assert np.allclose(theta.atoms, [xp], rtol=0, atol=1e-12) and np.allclose(theta.weights, [0.5], rtol=0, atol=1e-12)
    assert diag["trim_error"] == pytest.approx(wasserstein_line(rho, trimmed), rel=0, abs=1e-12)


@pytest.mark.parametrize("rho, window, whole", [
    # the slices with means -1 and 1 hold 0.75 each: rho dominates B(0, -1, 1)
    (DiscreteMeasure([-3.0, 3.0], [0.5, 0.5]), (-1.0, 1.0), True),
    (DiscreteMeasure([-2.0, 0.5, 1.5], [0.3, 0.4, 0.3]), (-0.5, 0.6), True),
    # inside the window, rho is its own minimum
    (DiscreteMeasure([-0.5, 0.2, 0.6], [0.3, 0.4, 0.3]), (-1.0, 1.0), False),
    # one atom cut by both slices
    (DiscreteMeasure([-2.0, 0.0, 2.0], [0.1, 0.8, 0.1]), (-1.0, 1.0), False),
], ids=["dominating", "dominating-uneven", "inside", "both-slices-in-one-atom"])
def test_window_min_matches_the_hull_minimum(rho, window, whole):
    x = mean(rho)
    atoms, rows = _window_min(rho.atoms, rho.weights[None], np.array([x]), *window)
    out = DiscreteMeasure(atoms, rows[0])
    hull = reference.trim_cell(x, rho, *window)
    assert np.allclose(out.atoms, hull.atoms, rtol=0, atol=1e-12)
    assert np.allclose(out.weights, hull.weights, rtol=0, atol=1e-12)
    assert (out.atoms.tolist() == list(window)) == whole
    if window[0] < rho.atoms[0] and rho.atoms[-1] < window[1]:
        assert rows[0].tolist() == [0.0, *rho.weights, 0.0]  # unchanged, bitwise


@pytest.mark.parametrize("end", [0, 1], ids=["left", "right"])
def test_window_min_of_a_mean_one_ulp_inside_a_window_end(end):
    a, b = FIRST
    x = np.nextafter(FIRST[end], 0.0)
    for rho in (DiscreteMeasure(x + np.array([-0.25, 0.25]), [0.5, 0.5]),
                DiscreteMeasure(x + np.array([-0.5, 0.0, 0.5]), [0.25, 0.5, 0.25])):
        atoms, rows = _window_min(rho.atoms, rho.weights[None], np.array([x]), a, b)
        hull = reference.trim_cell(x, rho, a, b)
        assert wasserstein_line(DiscreteMeasure(atoms, rows[0]), hull) <= 1e-12


def test_window_min_is_the_convex_min_of_a_kernel_and_its_window_law():
    # 2 000 kernels of 1-8 atoms, with weights from 1e-9 of the mass up and
    # masses from 1e-3 to 1e3, each with a window around its mean whose ends
    # lie 1e-12 to 1.6 spans from it, as the ladder's do.  convex_min reads
    # its hull slopes from value differences, against absolute tolerances,
    # so on 178 of these draws it raises (2) or strays beyond the bound (by
    # up to 1.8e-4 m span, mostly with a window end within 1e-6 span of the
    # mean); there the exact rational minimum decides
    rng = np.random.default_rng(39)
    decided = 0
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-3, 2)
        ys = np.unique(scale * rng.uniform(-1, 1, rng.integers(1, 9)))
        w = rng.choice([1e-9, 1e-6, 0.1, 0.3, 1.0], len(ys)) * rng.uniform(0.5, 2.0, len(ys)) * 10.0 ** rng.uniform(-3, 3)
        rho = DiscreteMeasure(ys, w)
        x, width = mean(rho), max(ys[-1] - ys[0], scale)
        a, b = x - width * 10.0 ** rng.uniform(-12, 0.2), x + width * 10.0 ** rng.uniform(-12, 0.2)
        atoms, rows = _window_min(rho.atoms, rho.weights[None], np.array([x]), a, b)
        out = DiscreteMeasure(atoms, rows[0])
        tol = 1e-11 * rho.mass * max(1.0, max(b, ys[-1]) - min(a, ys[0]))
        try:
            hull = convex_min(rho, DiscreteMeasure([a, b], [rho.mass * (b - x) / (b - a), rho.mass * (x - a) / (b - a)]))
            if wasserstein_line(out, hull.scaled(rho.mass / hull.mass)) <= tol:
                continue
        except AssertionError:
            pass
        decided += 1
        exact = reference.window_min(rho, a, b)
        assert wasserstein_line(out, exact.scaled(rho.mass / exact.mass)) <= tol
    assert decided


@st.composite
def one_atom_cells(draw):
    """A base kernel, a lifted atom (x, u) of mass w, and a second marginal
    of 2-6 atoms whose mean is x to rounding."""
    def measure(min_size):
        atoms = np.unique(draw(st.lists(st.floats(-3.0, 3.0), min_size=min_size, max_size=6)))
        return atoms, np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(atoms), max_size=len(atoms))))

    base, (ys, weights) = DiscreteMeasure(*measure(1)), measure(2)
    assume(len(ys) >= 2 and np.diff(ys).min() > 1e-6)
    x = float(weights @ ys / weights.sum())
    u, w = draw(st.floats(0.0, 1.0)), draw(st.floats(0.05, 1.0))
    return base.scaled(1 / base.mass), x, u, w, DiscreteMeasure(ys, weights)


@settings(max_examples=100)
@given(one_atom_cells())
def test_one_atom_refit_is_the_lp_kernel_in_closed_form(cell):
    # the CDF-gap LP's nu rows fix the kernel of a one-atom cell, so the LP
    # has nothing left to choose
    base, x, u, w, nu = cell
    lp = solve_lp(reference.refit_lp(base, LiftedMeasure([(x, u)], [w]), nu))
    assert np.allclose(nu.weights / nu.mass, lp.x[: len(nu)], rtol=0, atol=1e-12)


def test_one_atom_refit_off_its_mean_raises(monkeypatch):
    # the cell at x = -1 of the identity approximation of f1_base gets its
    # second marginal's mean moved by delta, with its mass kept: moving
    # t = delta mass / 4 from y = -2 to y = 2 moves the mean by 4 t / mass
    pi, pairs = f1_base(), approximation.approximate_pairs

    def moved(delta):
        def run(xs, *args):
            rows, diag = pairs(xs, *args)
            j = int(np.argmin(xs))
            rows[j] += np.array([-1.0, 1.0]) * delta * rows[j].sum() / 4.0
            return rows, diag

        return run

    for delta in (1e-6, -1e-6):
        monkeypatch.setattr(approximation, "approximate_pairs", moved(delta))
        with pytest.raises(RuntimeError, match="barycentre"):
            approximate_coupling(pi, pi.first_marginal, pi.second_marginal(), 0.05)
    monkeypatch.setattr(approximation, "approximate_pairs", moved(5e-10))
    out, _ = approximate_coupling(pi, pi.first_marginal, pi.second_marginal(), 0.05)
    assert check_martingale(out, tol=1e-9)[0] and not check_martingale(out, tol=1e-10)[0]


def test_split_base_atoms_keep_the_marginals_and_the_martingale():
    # every base atom of the criterion-08 bases split into 2-3 perturbed
    # atoms with Dirichlet shares of its weight: the W1 plan then splits
    # every base atom, and each of its pairs is a cell of one atom
    rng = np.random.default_rng(34)
    for mb, nu, pi in _criterion_08_bases():
        for d in (0.5, 0.125, 2.0**-6):
            k = rng.integers(2, 4, len(mb))
            xs = np.repeat(mb.xs, k) + d * rng.uniform(-1, 1, k.sum())
            us = np.clip(np.repeat(mb.us, k) + d * rng.uniform(-0.3, 0.3, k.sum()), 0, 1)
            weights = np.concatenate([w * rng.dirichlet(np.ones(n)) for w, n in zip(mb.weights, k)])
            mu_p = LiftedMeasure(np.column_stack([xs, us]), weights)
            nu_p = repaired(mu_p.x_marginal(), DiscreteMeasure(nu.atoms + d * rng.uniform(-1, 1, len(nu)), nu.weights))
            out, _ = approximate_coupling(pi, mu_p, nu_p, d)
            assert np.allclose(out.first_marginal.atoms, mu_p.atoms, rtol=0, atol=1e-9)
            assert np.allclose(out.first_marginal.weights, mu_p.weights, rtol=0, atol=1e-9)
            assert wasserstein_line(out.second_marginal(), nu_p) <= 1e-9
            assert check_martingale(out, tol=1e-9)[0]


@st.composite
def convex_pairs(draw):
    """mu of 1-8 atoms and nu, its image under one binary martingale kernel
    per atom, on a scaled grid, so that kernels share atoms; weights of
    1e-11 and tenths, whose cumulative sums tie to rounding."""
    n = draw(st.integers(1, 8))
    xs = np.array(draw(st.lists(st.integers(-16, 16), min_size=n, max_size=n, unique=True)), dtype=float)
    ws = np.array(draw(st.lists(st.sampled_from([1e-11, 0.1, 0.2, 0.3, 0.7, 1 / 3]), min_size=n, max_size=n)))
    down, up = (np.array(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)), dtype=float) for _ in "du")
    spread = (down > 0) & (up > 0)
    lo, hi = np.where(spread, xs - down, xs), np.where(spread, xs + up, xs)
    p_lo = np.where(spread, up / np.where(spread, down + up, 1.0), 1.0)
    scale = draw(st.floats(0.01, 100.0))
    mu = DiscreteMeasure(xs * scale, ws)
    nu = DiscreteMeasure(np.concatenate([lo, hi]) * scale, np.concatenate([ws * p_lo, ws * (1.0 - p_lo)]))
    return mu, nu


@settings(max_examples=200)
@given(convex_pairs())
@example(LIGHT_ATOMS)
def test_inverse_transform_coupling_is_a_martingale_coupling_within_twice_w1(pair):
    # exact marginals and barycentres, atoms of 1e-11 included, at a cost
    # between the LP minimum and the 2 W1 of Jourdain & Margheriti; HiGHS
    # calls some of these feasible LPs infeasible (its tolerance is 1e-9),
    # and there W1 is the lower bound
    mu, nu = pair
    plan = _inverse_transform_coupling(mu, nu)
    assert plan.min() >= -1e-12 * nu.mass
    assert np.abs(plan.sum(axis=1) - mu.weights * (nu.mass / mu.mass)).max() <= 1e-15 * nu.mass
    assert np.abs(plan.sum(axis=0) - nu.weights).max() <= 1e-15 * nu.mass
    span = nu.atoms[-1] - nu.atoms[0]
    assert np.abs(plan @ nu.atoms - plan.sum(axis=1) * mu.atoms).max() <= 1e-14 * max(1.0, span)
    cost = float((plan * np.abs(nu.atoms[None, :] - mu.atoms[:, None])).sum())
    w1, rounding = wasserstein_line(mu.scaled(nu.mass / mu.mass), nu), 1e-14 * max(1.0, span) * nu.mass
    assert w1 - rounding <= cost <= 2.0 * w1 + rounding
    try:
        assert cost >= reference.min_displacement(LiftedMeasure.from_measure(mu), nu)[1] - 1e-9
    except LPError:
        pass


@settings(max_examples=200)
@given(convex_pairs(), st.sampled_from([-5e-10, -5e-11, -1e-12, 1e-12, 5e-11, 5e-10]))
def test_inverse_transform_coupling_of_means_apart_within_the_order_tolerance(pair, shift):
    # nu moved by a shift the order check passes: an atom of mu can then lie
    # just outside nu's hull, and the two Psi totals differ by the shift; the
    # marginals stay exact, no entry is negative, and each row's barycentre
    # is off its x by no more than twice the shift
    mu, nu = pair
    nu = DiscreteMeasure(nu.atoms + shift, nu.weights)
    assume(check_convex_order(mu, nu)[0])
    plan = _inverse_transform_coupling(mu, nu)
    assert plan.min() >= -1e-12 * nu.mass
    assert np.abs(plan.sum(axis=1) - mu.weights * (nu.mass / mu.mass)).max() <= 1e-15 * nu.mass
    assert np.abs(plan.sum(axis=0) - nu.weights).max() <= 1e-15 * nu.mass
    span = nu.atoms[-1] - nu.atoms[0]
    miss = np.abs(plan @ nu.atoms - plan.sum(axis=1) * mu.atoms).max()
    assert miss <= 2.0 * abs(shift) * nu.mass + 1e-14 * max(1.0, span)


def test_weight_jitter_sweep_never_raises(workloads):
    # abs-cost MOT couplings of 3-11 x 5-17 atoms, approximated onto mu' with
    # its atoms moved by 0.01 and its weights by a relative r, and nu' moved
    # by 0.01 and repaired; the LPs deciding masses to 1e-9 raised on 36 of
    # 40 seeds at r = 1e-7
    cost = CostSpec(fn=lambda x, u, ys: np.abs(np.asarray(ys) - x))
    for seed in range(10):
        rng = np.random.default_rng([seed, 34])
        mu, nu = workloads.convex_pair(rng, rng.integers(3, 12), rng.integers(5, 18))
        pi = solve_mot(mu, nu, cost)["coupling"]
        dx, dw, dy = (rng.uniform(-1, 1, k) for k in (len(mu), len(mu), len(nu)))
        for r in (1e-11, 1e-9, 1e-7, 1e-5, 1e-3):
            w = mu.weights * (1 + r * dw)
            mu_p = LiftedMeasure.from_measure(DiscreteMeasure(mu.atoms + 0.01 * dx, w / w.sum()))
            nu_p = workloads._repaired(mu_p, DiscreteMeasure(nu.atoms + 0.01 * dy, nu.weights))
            out, _ = approximate_coupling(pi, mu_p, nu_p, 0.1)
            fm, ys, K = out.first_marginal, out.y_support, out.kernels
            assert workloads.measure_residual(fm.xs, fm.weights, mu_p.xs, mu_p.weights) <= 1e-9, (seed, r)
            assert workloads.measure_residual(ys, fm.weights @ K, nu_p.atoms, nu_p.weights) <= 1e-9, (seed, r)
            assert np.abs(fm.weights * (K @ ys - fm.xs)).max() <= 1e-9, (seed, r)


def test_weight_jitter_sweep_with_the_labels_moved(workloads):
    # the sweep above, seed 7 at r = 1e-7, with mu''s labels moved too, to
    # clip(0.01 dx, 0, 1): the first marginals then carry several labels, so
    # split_marginals keeps the transport LP for its W1 plan, whose entries
    # reached -9.3e-10; the piece's nu kept that mass, the cells dropped it,
    # and no window passed the order check ("projected cell marginals never
    # dominated the target")
    rng = np.random.default_rng([7, 34])
    mu, nu = workloads.convex_pair(rng, rng.integers(3, 12), rng.integers(5, 18))
    pi = solve_mot(mu, nu, CostSpec(fn=lambda x, u, ys: np.abs(np.asarray(ys) - x)))["coupling"]
    dx, dw, dy = (rng.uniform(-1, 1, k) for k in (len(mu), len(mu), len(nu)))
    w = mu.weights * (1 + 1e-7 * dw)
    mu_p = LiftedMeasure(np.column_stack([mu.atoms + 0.01 * dx, np.clip(0.01 * dx, 0, 1)]), w / w.sum())
    nu_p = workloads._repaired(mu_p, DiscreteMeasure(nu.atoms + 0.01 * dy, nu.weights))
    out, _ = approximate_coupling(pi, mu_p, nu_p, 0.1)
    assert check_martingale(out, tol=1e-9)[0]
    # the W1 plan's columns are rescaled to mu''s weights, so the output's
    # first marginal is mu' to rounding: over seeds 0-39 of this sweep at
    # every r, it missed mu' by up to 3.4e-10 without the rescale (on the
    # calls that did not raise) and by 1.7e-16 with it
    miss = dict(zip(map(tuple, mu_p.atoms), mu_p.weights))
    for atom, weight in zip(map(tuple, out.first_marginal.atoms), out.first_marginal.weights):
        miss[atom] = miss.get(atom, 0.0) - weight
    assert max(map(abs, miss.values())) <= 1e-15
