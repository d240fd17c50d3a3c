import numpy as np
import pytest

from emot import approximation
from emot.approximation import (
    _project_cell,
    _trim_cell,
    _window_ladder,
    approximate_coupling,
    approximate_pairs,
    min_cost_martingale_rearrangement,
    split_marginals,
)
from emot.convex_order import ConvexOrderError, convex_order_projection
from emot.couplings import (
    DiscreteCoupling,
    adapted_wasserstein,
    check_martingale,
)
from emot.measures import (
    DiscreteMeasure,
    LiftedMeasure,
    check_convex_order,
    mean,
    potential_values,
    wasserstein_line,
)
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


class TestSplitMarginals:
    def test_identity(self):
        pi = f1_base()
        s = split_marginals(pi, pi.first_marginal, pi.second_marginal())
        assert len(s.pieces) == 1
        assert s.stationary_mu_bar is None
        p = s.pieces[0]
        assert p["mu_bar"].mass == pytest.approx(1.0)
        assert wasserstein_line(p["nu"], pi.second_marginal(), 1.0) < 1e-9

    def test_pieces_in_convex_order(self):
        pi = f1_base()
        mu_p = LiftedMeasure.from_measure(DiscreteMeasure([-1.01, 0.99], [0.5, 0.5]))
        nu_p = repaired(mu_p.x_marginal(), DiscreteMeasure([-2.02, 1.98], [0.5, 0.5]))
        s = split_marginals(pi, mu_p, nu_p)
        total_nu = None
        for p in s.pieces:
            ok, _ = check_convex_order(p["mu_bar"].x_marginal(), p["nu"], tol=1e-8)
            assert ok
            total_nu = p["nu"] if total_nu is None else total_nu + p["nu"]
        assert wasserstein_line(total_nu, nu_p, 1.0) < 1e-9

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
            assert p["mu_bar"].mass == pytest.approx(0.5, abs=0.02)

    def test_merged_base_atoms_keep_their_mass(self):
        # two base atoms 8e-13 apart share one x-marginal atom; both must land
        # in that atom's component
        mb = LiftedMeasure([(0.3, 0.25), (0.3 + 8e-13, 0.75), (-0.6, 0.5)], [0.25, 0.25, 0.5])
        ys = np.array([-1.5, 1.5])
        pi = DiscreteCoupling(mb, ys, np.column_stack([(1.5 - mb.xs) / 3.0, (mb.xs + 1.5) / 3.0]))
        mu_p = LiftedMeasure(mb.atoms + [0.01, 0.0], mb.weights)
        nu_p = repaired(mu_p.x_marginal(), DiscreteMeasure([-1.51, 1.51], pi.second_marginal().weights))
        s = split_marginals(pi, mu_p, nu_p)
        total = s.pieces[0]["mu_bar"]
        for p in s.pieces[1:]:
            total = total + p["mu_bar"]
        if s.stationary_mu_bar is not None:
            total = total + s.stationary_mu_bar
        assert np.array_equal(total.atoms, mu_p.atoms)
        assert np.allclose(total.weights, mu_p.weights, atol=1e-12)
        out, _ = approximate_coupling(pi, mu_p, nu_p, 0.05)
        assert wasserstein_line(out.second_marginal(), nu_p, 1.0) < 1e-9

    def test_rejects_bad_order(self):
        pi = f1_base()
        mu_p = LiftedMeasure.from_measure(DiscreteMeasure([-3, 3], [0.5, 0.5]))
        with pytest.raises(ConvexOrderError):
            split_marginals(pi, mu_p, DiscreteMeasure([-2, 2], [0.5, 0.5]))


class TestApproximatePairs:
    def test_unperturbed_single_cell(self):
        mu = DiscreteMeasure([0], [1.0])
        nu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        out, diag = approximate_pairs([mu], [nu], [mu], (-1.0, 1.0), nu, eps=0.05)
        assert len(out) == 1
        total = out[0]
        assert wasserstein_line(total, nu, 1.0) < 1e-9
        ok, _ = check_convex_order(mu, total, tol=1e-8)
        assert ok

    def test_cells_sum_to_target(self):
        mu1 = DiscreteMeasure([-1], [0.5])
        mu2 = DiscreteMeasure([1], [0.5])
        nu1 = DiscreteMeasure([-2, 2], [0.375, 0.125])
        nu2 = DiscreteMeasure([-2, 2], [0.125, 0.375])
        nu_p = DiscreteMeasure([-2.1, 2.1], [0.5, 0.5])
        mu_p1 = DiscreteMeasure([-1.05], [0.5])
        mu_p2 = DiscreteMeasure([1.05], [0.5])
        out, diag = approximate_pairs(
            [mu1, mu2], [nu1, nu2], [mu_p1, mu_p2], (-2.1, 2.1), nu_p, eps=0.05
        )
        total = out[0] + out[1]
        assert wasserstein_line(total, nu_p, 1.0) < 1e-9
        for mu_p, o in zip((mu_p1, mu_p2), out):
            ok, _ = check_convex_order(mu_p, o, tol=1e-8)
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
        mu = DiscreteMeasure([0], [1.0])
        nu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        with pytest.raises(ConvexOrderError, match="never dominated"):
            approximate_pairs([mu], [nu], [mu], (-1.0, 1.0), nu, eps=0.05)
        assert len(calls) == len(_window_ladder((-1.0, 1.0)))

    def test_rejects_multi_atom_cell(self):
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        nu = DiscreteMeasure([-2, 2], [0.5, 0.5])
        with pytest.raises(ValueError, match="one-atom"):
            approximate_pairs([mu], [nu], [mu], (-2.0, 2.0), nu, eps=0.05)


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
        c, rep = min_cost_martingale_rearrangement(m, m)
        assert rep["cost"] == pytest.approx(0.0, abs=1e-10)

    def test_atoms_lighter_than_the_lp_tolerance(self):
        # at a primal feasibility tolerance of 1e-10, HiGHS's presolve called
        # this feasible LP infeasible
        _, rep = min_cost_martingale_rearrangement(*LIGHT_ATOMS)
        assert rep["cost"] <= rep["bound"]

    @pytest.mark.xfail(strict=True, reason="HiGHS leaves the 1.5e-11 atoms' plan rows at zero")
    def test_atoms_lighter_than_the_lp_tolerance_keep_the_martingale(self):
        # coupling_from_plan drops the empty rows, and a kept kernel's
        # barycentre is 9.6e-9 off its x at every primal tolerance down to 2e-10
        c, _ = min_cost_martingale_rearrangement(*LIGHT_ATOMS)
        assert check_martingale(c, 1e-9)[0]

    def test_dirac_to_binary(self):
        theta = DiscreteMeasure([0], [1.0])
        nu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        c, rep = min_cost_martingale_rearrangement(theta, nu)
        assert rep["cost"] == pytest.approx(1.0)
        assert rep["bound"] == pytest.approx(2.0)
        ok, _ = check_martingale(c, tol=1e-9)
        assert ok

    def test_mass_drift_within_order_tolerance(self):
        # the convex-order check accepts a mass gap that W1 alone rejects
        theta = DiscreteMeasure([0], [1.0 + 3e-12])
        nu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        _, rep = min_cost_martingale_rearrangement(theta, nu)
        assert rep["cost"] == pytest.approx(1.0)
        assert rep["bound"] == pytest.approx(2.0)

    def test_order_violation_raises(self):
        with pytest.raises(ConvexOrderError):
            min_cost_martingale_rearrangement(
                DiscreteMeasure([-1, 1], [0.5, 0.5]), DiscreteMeasure([0], [1.0])
            )

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
            _, rep = min_cost_martingale_rearrangement(theta, nu)
            assert rep["cost"] <= rep["bound"] + 1e-9


class TestApproximateCoupling:
    def test_identity_short_circuit(self):
        pi = f1_base()
        out, rep = approximate_coupling(pi, pi.first_marginal, pi.second_marginal(), 0.05)
        assert rep["aw1"] == 0.0
        assert np.array_equal(out.kernels, pi.kernels)

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
        assert wasserstein_line(out.second_marginal(), nu_p, 1.0) < 1e-9
        ok, dev = check_martingale(out, tol=1e-7)
        assert ok, dev
        assert rep["aw1"] <= wasserstein_line(pi.second_marginal(), nu_p, 1.0) + 0.2

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
        assert wasserstein_line(out.x_marginal(), mu_p.x_marginal(), 1.0) < 1e-9
        assert wasserstein_line(out.second_marginal(), nu_p, 1.0) < 1e-9
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
                adapted_wasserstein(out, pi, 1.0), abs=1e-10
            )
        assert vals[2] < vals[0]


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


def test_halving_eps_never_shrinks_a_windows_order_gap(monkeypatch):
    # theta's potential is affine in eps and equals mu'_piece's <= nu''s at
    # eps = 1, so its largest gap above nu' cannot fall as eps halves
    failed = 0
    for mu_js, nu_js, mu_p_js, interval, nu_p, eps in _stage_two_inputs(np.random.default_rng(25), monkeypatch):
        for am, bm in _window_ladder(interval):
            trimmed = [_trim_cell(mu_j, nu_j, am, bm) for mu_j, nu_j in zip(mu_js, nu_js)]
            thetas = []
            for e in (eps, eps / 2):
                tilde = [_project_cell(mu_p_j, t, am, bm, e) for mu_p_j, t in zip(mu_p_js, trimmed)]
                thetas.append(DiscreteMeasure(np.concatenate([t.atoms for t in tilde]),
                                              np.concatenate([t.weights for t in tilde])))
            pts = np.unique(np.concatenate([nu_p.atoms] + [t.atoms for t in thetas]))
            gap, gap_half = (np.max(potential_values(t, pts) - potential_values(nu_p, pts)) for t in thetas)
            assert gap_half >= gap - 1e-12, (interval, (am, bm), eps, gap, gap_half)
            failed += gap > 1e-9
    assert failed  # some windows fail the order check, so the property is exercised
