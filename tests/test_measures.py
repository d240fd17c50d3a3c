import json

import numpy as np
import pytest

from emot.measures import (
    DiscreteMeasure,
    EmptyMeasureError,
    LiftedMeasure,
    NonFiniteError,
    QuantileView,
    check_convex_order,
    mean,
    quantile_discretize,
    total_variation,
    wasserstein_line,
)
from emot.lp_core import transport_plan


def random_measure(rng, n_max=6, lo=-5.0, hi=5.0):
    n = rng.integers(1, n_max + 1)
    atoms = np.sort(rng.uniform(lo, hi, n))
    w = rng.uniform(0.1, 1.0, n)
    return DiscreteMeasure(atoms, w / w.sum())


class TestDiscreteMeasure:
    def test_sorting_and_merge(self):
        m = DiscreteMeasure([2.0, -1.0, 2.0], [0.25, 0.5, 0.25])
        assert np.allclose(m.atoms, [-1.0, 2.0])
        assert np.allclose(m.weights, [0.5, 0.5])

    def test_zero_weights_dropped(self):
        m = DiscreteMeasure([0.0, 1.0], [1.0, 0.0])
        assert len(m) == 1

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DiscreteMeasure([0.0, np.nan, 1.0], [0.5, 0.5, np.nan]),
            lambda: DiscreteMeasure([0.0, np.inf], [0.5, 0.5]),
            lambda: DiscreteMeasure([0.0, 1.0], [0.5, np.inf]),
            lambda: LiftedMeasure([(0.0, np.nan), (1.0, 0.5)], [0.5, 0.5]),
            lambda: LiftedMeasure([(0.0, 0.0), (1.0, 0.5)], [np.nan, 0.5]),
        ],
    )
    def test_non_finite_rejected(self, make):
        with pytest.raises(NonFiniteError):
            make()

    def test_mass_and_mean(self):
        m = DiscreteMeasure([-1, 3], [0.25, 0.75])
        assert m.mass == pytest.approx(1.0)
        assert mean(m) == pytest.approx(2.0)

    def test_restrict(self):
        m = DiscreteMeasure([-2, 0, 2], [0.25, 0.5, 0.25])
        inside = m.restrict(-1, 1)
        outside = m.restrict_outside(-1, 1)
        assert inside.mass == pytest.approx(0.5)
        assert outside.mass == pytest.approx(0.5)
        assert np.allclose((inside + outside).weights, m.weights)

    def test_empty_mean_raises(self):
        m = DiscreteMeasure([0.0], [1.0]).restrict(5, 6)
        with pytest.raises(EmptyMeasureError):
            mean(m)

    def test_json_round_trip(self):
        m = DiscreteMeasure([-1.5, 0.25], [0.3, 0.7])
        m2 = DiscreteMeasure.from_json(m.to_json())
        assert np.array_equal(m.atoms, m2.atoms)
        assert np.array_equal(m.weights, m2.weights)


class TestLiftedMeasure:
    def test_marginals(self):
        lm = LiftedMeasure([(0, 0.2), (0, 0.8), (1, 0.2)], [0.3, 0.3, 0.4])
        assert np.allclose(lm.x_marginal().atoms, [0, 1])
        assert np.allclose(lm.x_marginal().weights, [0.6, 0.4])
        assert np.allclose(lm.u_marginal().atoms, [0.2, 0.8])

    def test_from_measure(self):
        m = DiscreteMeasure([-1, 1], [0.5, 0.5])
        lm = LiftedMeasure.from_measure(m, 0.25)
        assert np.allclose(lm.us, 0.25)
        assert np.allclose(lm.x_marginal().weights, m.weights)

    def test_json_round_trip(self):
        lm = LiftedMeasure([(0.5, 0.1)], [1.0])
        lm2 = LiftedMeasure.from_json(lm.to_json())
        assert np.array_equal(lm.atoms, lm2.atoms)


class TestQuantileView:
    def test_generalized_inverse(self):
        q = QuantileView(DiscreteMeasure([-1, 1], [0.5, 0.5]))
        assert q(0.25) == -1
        assert q(0.75) == 1

    def test_cell_restriction_partitions(self):
        m = DiscreteMeasure([0, 1, 2], [0.2, 0.5, 0.3])
        q = QuantileView(m)
        cells = [DiscreteMeasure(m.atoms, w) for w in q.cell_masses([i / 4 for i in range(5)])]
        total = cells[0]
        for c in cells[1:]:
            total = total + c
        assert np.allclose(total.atoms, m.atoms)
        assert np.allclose(total.weights, m.weights)


class TestWasserstein:
    def test_fixture(self):
        a = DiscreteMeasure([0], [1.0])
        b = DiscreteMeasure([-1, 1], [0.5, 0.5])
        assert wasserstein_line(a, b, 1.0) == pytest.approx(1.0)
        assert wasserstein_line(a, b, 2.0) == pytest.approx(1.0)

    def test_translation(self):
        m = DiscreteMeasure([0, 1], [0.5, 0.5])
        shifted = DiscreteMeasure([2, 3], [0.5, 0.5])
        assert wasserstein_line(m, shifted, 1.0) == pytest.approx(2.0)

    def test_quantile_formula_matches_lp(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m1 = random_measure(rng)
            m2 = random_measure(rng)
            cost = np.abs(m1.atoms[:, None] - m2.atoms[None, :])
            _, lp_value = transport_plan(cost, m1.weights, m2.weights)
            assert wasserstein_line(m1, m2, 1.0) == pytest.approx(lp_value, abs=1e-9)

    def test_subprobability_scaling(self):
        m1 = DiscreteMeasure([0], [0.5])
        m2 = DiscreteMeasure([2], [0.5])
        assert wasserstein_line(m1, m2, 1.0) == pytest.approx(1.0)


class TestConvexOrder:
    def test_positive_case(self):
        ok, _ = check_convex_order(
            DiscreteMeasure([-1, 1], [0.5, 0.5]), DiscreteMeasure([-2, 2], [0.5, 0.5])
        )
        assert ok

    def test_negative_case_gives_witness(self):
        ok, witness = check_convex_order(
            DiscreteMeasure([-2, 2], [0.5, 0.5]), DiscreteMeasure([-1, 1], [0.5, 0.5])
        )
        assert not ok
        assert witness is not None

    def test_mean_mismatch(self):
        ok, _ = check_convex_order(
            DiscreteMeasure([0], [1.0]), DiscreteMeasure([1], [1.0])
        )
        assert not ok


def test_quantile_discretize_preserves_mass_and_mean():
    rng = np.random.default_rng(5)
    m = random_measure(rng, n_max=12)
    for k in (1, 3, 7):
        d = quantile_discretize(m, k)
        assert d.mass == pytest.approx(m.mass)
        assert mean(d) == pytest.approx(mean(m))
        assert len(d) <= k


def test_total_variation():
    a = DiscreteMeasure([0, 1], [0.5, 0.5])
    b = DiscreteMeasure([0, 2], [0.5, 0.5])
    assert total_variation(a, b) == pytest.approx(0.5)
    assert total_variation(a, a) == pytest.approx(0.0)


def test_total_variation_matches_near_duplicate_atoms_once():
    # 0 and 5e-13 are one support point: |0.5 - 0.3| + |0.5 - 0.7|
    a = DiscreteMeasure([0, 1], [0.5, 0.5])
    b = DiscreteMeasure([5e-13, 1], [0.3, 0.7])
    assert total_variation(a, b) == pytest.approx(0.2)
    assert total_variation(b, a) == pytest.approx(0.2)
