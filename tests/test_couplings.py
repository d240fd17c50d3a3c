import json

import numpy as np
import pytest

from emot.couplings import (
    DiscreteCoupling,
    adapted_wasserstein,
    check_martingale,
    coupling_from_plan,
    disintegrate,
    hausdorff_mot,
    martingale_polytope_lp,
)
from emot.lp_core import DimensionGuardError, enumerate_vertices, solve_lp
from emot.measures import DiscreteMeasure, LiftedMeasure, NonFiniteError, wasserstein_line
from reference import product_coupling, wasserstein_coupling


def f1_coupling():
    mb = LiftedMeasure.from_measure(DiscreteMeasure([-1, 1], [0.5, 0.5]))
    nu = DiscreteMeasure([-2, 2], [0.5, 0.5])
    K = np.array([[0.75, 0.25], [0.25, 0.75]])
    return DiscreteCoupling(mb, nu.atoms, K)


class TestDiscreteCoupling:
    def test_second_marginal(self):
        c = f1_coupling()
        sm = c.second_marginal()
        assert np.allclose(sm.atoms, [-2, 2])
        assert np.allclose(sm.weights, [0.5, 0.5])

    def test_rows_must_normalize(self):
        mb = LiftedMeasure.from_measure(DiscreteMeasure([0], [1.0]))
        with pytest.raises(ValueError):
            DiscreteCoupling(mb, [0.0, 1.0], [[0.5, 0.2]])

    def test_nan_entries_are_refused(self):
        mb = LiftedMeasure.from_measure(DiscreteMeasure([0], [1.0]))
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteCoupling(mb, [0.0, 1.0], [[np.nan, 0.5]])
        data = {**f1_coupling().to_dict(), "kernels": [[np.nan, 0.25], [0.25, 0.75]]}
        with pytest.raises(NonFiniteError):
            DiscreteCoupling.from_dict(data)
        # a NaN weight is not a zero-mass atom to drop
        with pytest.raises(NonFiniteError):
            disintegrate([(0.0, 0.0, 0.0, np.nan), (1.0, 0.0, 1.0, 1.0)])

    def test_unsorted_support_is_sorted_with_its_columns(self):
        # adapted_wasserstein reads the support as sorted: given [1, -1] as it
        # came, this law was 0.5 away from itself on [-1, 1]
        mb = LiftedMeasure([(0.5, 0.0)], [1.0])
        c = DiscreteCoupling(mb, [1.0, -1.0], [[0.25, 0.75]])
        same = DiscreteCoupling(mb, [-1.0, 1.0], [[0.75, 0.25]])
        assert np.array_equal(c.y_support, same.y_support) and np.array_equal(c.kernels, same.kernels)
        assert adapted_wasserstein(c, same) == 0.0

    def test_json_round_trip(self):
        c = f1_coupling()
        c2 = DiscreteCoupling.from_dict(json.loads(json.dumps(c.to_dict())))
        assert np.allclose(c.kernels, c2.kernels)
        assert np.allclose(c.first_marginal.atoms, c2.first_marginal.atoms)


class TestDisintegrate:
    def test_dirac(self):
        c, dropped = disintegrate([(0.0, 0.0, 0.0, 1.0)])
        assert dropped == 0
        assert len(c.first_marginal) == 1
        assert c.kernels[0, 0] == 1.0

    def test_product(self):
        nu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        table = [
            (x, 0.0, y, 0.5 * wy)
            for x in (0.0, 1.0)
            for y, wy in zip(nu.atoms, nu.weights)
        ]
        c, _ = disintegrate(table)
        assert np.allclose(c.kernels, 0.5)

    def test_round_trip(self):
        c = f1_coupling()
        c2, dropped = disintegrate(c.joint())
        assert dropped == 0
        assert np.allclose(c.kernels, c2.kernels)
        assert np.allclose(c.first_marginal.weights, c2.first_marginal.weights)

    def test_near_duplicate_keys_share_a_kernel(self):
        # keys within MERGE_TOL are one first-marginal atom, so one kernel row
        c, dropped = disintegrate([(0.0, 0.0, 1.0, 0.5), (1e-13, 0.0, 2.0, 0.5)])
        assert dropped == 0
        assert len(c.first_marginal) == 1
        assert np.array_equal(c.kernels, [[0.5, 0.5]])

    def test_zero_rows_counted(self):
        table = [(0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 1.0, 0.0)]
        _, dropped = disintegrate(table)
        assert dropped == 1


class TestCheckMartingale:
    def test_f1_true(self):
        ok, dev = check_martingale(f1_coupling(), tol=1e-12)
        assert ok and dev < 1e-12

    def test_product_fails_off_mean(self):
        mb = LiftedMeasure.from_measure(DiscreteMeasure([0.5], [1.0]))
        c = product_coupling(mb, DiscreteMeasure([-1, 1], [0.5, 0.5]))
        ok, dev = check_martingale(c)
        assert not ok and dev == pytest.approx(0.5)


class TestDistances:
    def test_self_distance_zero(self):
        c = f1_coupling()
        assert wasserstein_coupling(c, c) == pytest.approx(0.0, abs=1e-10)
        assert adapted_wasserstein(c, c) == pytest.approx(0.0, abs=1e-10)

    def test_y_shift(self):
        mb = LiftedMeasure.from_measure(DiscreteMeasure([0], [1.0]))
        c1 = DiscreteCoupling(mb, [0.0], [[1.0]])
        c2 = DiscreteCoupling(mb, [1.0], [[1.0]])
        assert wasserstein_coupling(c1, c2) == pytest.approx(1.0)

    def test_aw_kernel_fixture(self):
        mb = LiftedMeasure.from_measure(DiscreteMeasure([0], [1.0]))
        c1 = DiscreteCoupling(mb, [-1.0, 1.0], [[0.5, 0.5]])
        c2 = DiscreteCoupling(mb, [0.0], [[1.0]])
        assert adapted_wasserstein(c1, c2) == pytest.approx(1.0)

    def test_aw_label_shift(self):
        c = f1_coupling()
        shifted_fm = LiftedMeasure(
            np.column_stack([c.first_marginal.xs, c.first_marginal.us + 1.0]),
            c.first_marginal.weights,
        )
        c2 = DiscreteCoupling(shifted_fm, c.y_support, c.kernels)
        assert adapted_wasserstein(c, c2) == pytest.approx(1.0)

    def test_aw_dominates_w(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = rng.integers(1, 4)
            atoms = np.column_stack([rng.uniform(-1, 1, n), rng.uniform(0, 1, n)])
            w = rng.uniform(0.1, 1, n)
            fm = LiftedMeasure(atoms, w / w.sum())
            ys = np.sort(rng.uniform(-2, 2, 3))
            K1 = rng.uniform(0.05, 1, (len(fm), 3))
            K1 /= K1.sum(axis=1, keepdims=True)
            c1 = DiscreteCoupling(fm, ys, K1)
            K2 = rng.uniform(0.05, 1, (len(fm), 3))
            K2 /= K2.sum(axis=1, keepdims=True)
            c2 = DiscreteCoupling(fm, ys, K2)
            aw = adapted_wasserstein(c1, c2)
            w_flat = wasserstein_coupling(c1, c2)
            assert aw >= w_flat - 1e-9

    def test_brute_force_two_atoms(self):
        # flat distance vs explicit enumeration of 2x2 transport plans
        fm1 = LiftedMeasure([(0.0, 0.0)], [1.0])
        c1 = DiscreteCoupling(fm1, [-1.0, 1.0], [[0.5, 0.5]])
        fm2 = LiftedMeasure([(0.5, 0.0)], [1.0])
        c2 = DiscreteCoupling(fm2, [-0.5, 1.5], [[0.5, 0.5]])
        pts1 = [(0, 0, -1), (0, 0, 1)]
        pts2 = [(0.5, 0, -0.5), (0.5, 0, 1.5)]
        best = np.inf
        for t in np.linspace(0, 0.5, 51):
            plan = np.array([[t, 0.5 - t], [0.5 - t, t]])
            cost = sum(
                plan[i, j] * sum(abs(a - b) for a, b in zip(pts1[i], pts2[j]))
                for i in range(2)
                for j in range(2)
            )
            best = min(best, cost)
        assert wasserstein_coupling(c1, c2) == pytest.approx(best, abs=1e-9)


class TestHausdorff:
    def test_identical(self):
        mb = LiftedMeasure.from_measure(DiscreteMeasure([-1, 1], [0.5, 0.5]))
        nu = DiscreteMeasure([-2, 0, 2], [0.25, 0.5, 0.25])
        h = hausdorff_mot(mb, nu, mb, nu)
        assert h["mode"] == "exact"
        assert h["upper"] == pytest.approx(0.0, abs=1e-9)

    def test_singleton_polytopes(self):
        mb = LiftedMeasure.from_measure(DiscreteMeasure([0], [1.0]))
        nu1 = DiscreteMeasure([-1, 1], [0.5, 0.5])
        nu2 = DiscreteMeasure([-2, 2], [0.5, 0.5])
        h = hausdorff_mot(mb, nu1, mb, nu2)
        assert h["mode"] == "exact"
        assert h["lower"] == pytest.approx(wasserstein_line(nu1, nu2), abs=1e-8)

    def test_past_the_guard_is_sampled(self):
        mb = LiftedMeasure.from_measure(DiscreteMeasure([-1, 0, 1], [0.25, 0.5, 0.25]))
        nu = DiscreteMeasure([-2, -1, 0, 1, 2], [0.125, 0.25, 0.25, 0.25, 0.125])
        with pytest.raises(DimensionGuardError):
            enumerate_vertices(martingale_polytope_lp(mb, nu))
        h = hausdorff_mot(mb, nu, mb, nu)
        assert h["mode"] == "sampled"
        assert h["lower"] == pytest.approx(0.0, abs=1e-8)
        assert h["upper"] == pytest.approx(0.0, abs=1e-8)

    def test_f1_scaled(self):
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        nu = DiscreteMeasure([-2, 2], [0.5, 0.5])
        nu_s = DiscreteMeasure([-2.2, 2.2], [0.5, 0.5])
        mb = LiftedMeasure.from_measure(mu)
        h = hausdorff_mot(mb, nu, mb, nu_s)
        # both polytopes are singletons given the forced kernels
        v1 = solve_lp(martingale_polytope_lp(mb, nu)).x
        v2 = solve_lp(martingale_polytope_lp(mb, nu_s)).x
        c1 = coupling_from_plan(mb, nu, v1)
        c2 = coupling_from_plan(mb, nu_s, v2)
        direct = wasserstein_coupling(c1, c2)
        assert h["mode"] == "exact"
        assert h["upper"] == pytest.approx(direct, abs=1e-8)
