import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from emot.couplings import disintegrate
from emot.measures import (
    MERGE_TOL,
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
        m2 = DiscreteMeasure.from_dict(json.loads(json.dumps(m.to_dict())))
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
        lm2 = LiftedMeasure.from_dict(json.loads(json.dumps(lm.to_dict())))
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


# -- the merge rule: the order of the input pairs does not matter -------------

# atoms on a coarse grid, so that they repeat, plus near-ties k * 4e-13 that
# chain into one atom or stay apart (three steps are more than MERGE_TOL);
# weights from a short list, so that (atom, weight) pairs repeat too
coordinate = st.builds(lambda k, j: k / 2 + j * 4e-13, st.integers(-1, 1), st.integers(0, 3))
weight = st.one_of(st.floats(0.01, 1.0), st.sampled_from([0.25, 0.5, 1.0]))


@st.composite
def permuted_rows(draw, row):
    """Drawn rows and the same rows in a drawn order."""
    rows = draw(st.lists(row, min_size=1, max_size=12))
    return rows, [rows[i] for i in draw(st.permutations(range(len(rows))))]


point_rows = permuted_rows(st.tuples(coordinate, weight))
lifted_rows = permuted_rows(st.tuples(coordinate, coordinate, weight))
# (x, u, y, weight) rows that share a kernel cell often
table_rows = permuted_rows(st.tuples(st.sampled_from([0.0, 4e-13, 0.5]), st.sampled_from([0.0, 1.0]),
                                     st.sampled_from([-1.0, 2.0]), weight))


def discrete(rows):
    atoms, weights = zip(*rows)
    return DiscreteMeasure(atoms, weights)


def lifted(rows):
    return LiftedMeasure([r[:2] for r in rows], [r[2] for r in rows])


def same_bits(*pairs):
    return all(a.tobytes() == b.tobytes() and a.shape == b.shape for a, b in pairs)


@settings(max_examples=200)
@given(point_rows)
def test_discrete_measure_ignores_input_order(points):
    a, b = (discrete(rows) for rows in points)
    assert same_bits((a.atoms, b.atoms), (a.weights, b.weights))


@settings(max_examples=200)
@given(lifted_rows)
def test_lifted_measure_ignores_input_order(keyed):
    a, b = (lifted(rows) for rows in keyed)
    assert same_bits((a.atoms, b.atoms), (a.weights, b.weights))


@settings(max_examples=200)
@given(table_rows)
def test_disintegrate_ignores_row_order(tables):
    (c1, n1), (c2, n2) = (disintegrate(rows) for rows in tables)
    fm1, fm2 = c1.first_marginal, c2.first_marginal
    assert n1 == n2
    assert same_bits((fm1.atoms, fm2.atoms), (fm1.weights, fm2.weights), (c1.y_support, c2.y_support),
                     (c1.kernels, c2.kernels))


@settings(max_examples=200)
@given(point_rows, point_rows)
def test_total_variation_ignores_input_order(points, others):
    (rows, shuffled), (rows2, shuffled2) = points, others
    tv = total_variation(discrete(rows), discrete(rows2))
    assert tv.hex() == total_variation(discrete(shuffled), discrete(shuffled2)).hex()


@settings(max_examples=200)
@given(point_rows, lifted_rows)
def test_merged_atoms_lie_apart_keep_the_first_moment_and_rebuild_to_themselves(points, keyed):
    rows, keys = np.array(points[0]), np.array(keyed[0])
    m, lm = discrete(points[0]), lifted(keyed[0])
    assert np.all(np.diff(m.atoms) > MERGE_TOL)
    # any two lifted atoms differ by more than MERGE_TOL in some coordinate
    gap = np.abs(lm.atoms[:, None, :] - lm.atoms[None, :, :]).max(axis=2)
    assert np.all(gap[~np.eye(len(lm), dtype=bool)] > MERGE_TOL)
    # the first moment, to rounding: 1e-14 of the sum of |atom| * weight
    tol = 1e-14 * max(1.0, np.abs(rows[:, 0]) @ rows[:, 1])
    assert abs(m.first_moment() - rows[:, 0] @ rows[:, 1]) <= tol
    tol = 1e-14 * max(1.0, *(np.abs(keys[:, :2]).T @ keys[:, 2]))
    assert np.abs(lm.weights @ lm.atoms - keys[:, 2] @ keys[:, :2]).max() <= tol
    again, lifted_again = DiscreteMeasure(m.atoms, m.weights), LiftedMeasure(lm.atoms, lm.weights)
    assert same_bits((again.atoms, m.atoms), (again.weights, m.weights))
    assert same_bits((lifted_again.atoms, lm.atoms), (lifted_again.weights, lm.weights))


@settings(max_examples=200)
@given(point_rows, lifted_rows)
def test_merge_matches_the_rule_row_by_row(points, keyed):
    rows, keys = np.array(points[0]), np.array(keyed[0])
    cases = [(discrete(points[0]), reference.merge_atoms(rows[:, 0], rows[:, 1])),
             (lifted(keyed[0]), reference.merge_atoms(keys[:, :2], keys[:, 2]))]
    # sums may run in another order: a few ulps apart at most
    close = dict(rtol=4 * np.finfo(float).eps, atol=1e-27)
    for measure, (atoms, weights) in cases:
        assert atoms.shape == measure.atoms.shape
        assert np.allclose(measure.atoms, atoms, **close) and np.allclose(measure.weights, weights, **close)


@settings(max_examples=200)
@given(point_rows, point_rows, st.floats(0.0, 4.0))
def test_both_measure_types_share_one_constructor_and_algebra(points, others, factor):
    m, other = discrete(points[0]), discrete(others[0])
    lm, lifted_other = LiftedMeasure.from_measure(m), LiftedMeasure.from_measure(other)
    back = lm.x_marginal()
    assert same_bits((back.atoms, m.atoms), (back.weights, m.weights)) and back.mass.hex() == m.mass.hex()
    # merged weights are summed in (x, u) order on R x U: a few ulps apart at most
    close = dict(rtol=4 * np.finfo(float).eps, atol=0.0)
    for plain, lifted_ in ((m.scaled(factor), lm.scaled(factor)), (m + other, lm + lifted_other)):
        assert same_bits((lifted_.xs, plain.atoms))
        assert np.allclose(lifted_.weights, plain.weights, **close) and np.isclose(lifted_.mass, plain.mass, **close)
    for measure in (m, lm):
        with pytest.raises(ValueError, match="nonnegative"):
            measure.scaled(-1.0)
