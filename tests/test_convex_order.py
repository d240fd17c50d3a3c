import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference
from emot.convex_order import (
    ConvexOrderError,
    _measure_from_cdf,
    convex_min,
    convex_order_projection,
    irreducible_decomposition,
)
from emot.measures import DiscreteMeasure, cdf, check_convex_order, mean, potential_values, wasserstein_line
from reference import binary_kernel, w1_binary, window_kernel


def centred_random_pair(rng, n_max=5):
    """Two random probability measures sharing a common mean."""
    def draw():
        n = rng.integers(2, n_max + 1)
        atoms = np.sort(rng.uniform(-5, 5, n))
        w = rng.uniform(0.1, 1, n)
        return DiscreteMeasure(atoms, w / w.sum())

    m1 = draw()
    m2 = draw()
    m2 = DiscreteMeasure(m2.atoms - mean(m2) + mean(m1), m2.weights)
    return m1, m2


def uniform_pair(seed, n, m):
    """mu: n atoms from U(-1, 1) with weights 1/n; nu: m atoms from
    U(-2.5, 2.5) with weights 1/m, moved to mu's mean."""
    rng = np.random.default_rng(seed)
    mu = DiscreteMeasure(rng.uniform(-1, 1, n), np.full(n, 1 / n))
    raw = rng.uniform(-2.5, 2.5, m)
    return mu, DiscreteMeasure(raw + (mean(mu) - raw.mean()), np.full(m, 1 / m))


@st.composite
def float_measures(draw, max_atoms):
    """Probability measures with arbitrary float atoms, whose potentials
    carry rounding at every kink."""
    n = draw(st.integers(1, max_atoms))
    atoms = draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
    w = np.array(draw(st.lists(st.floats(0.1, 1), min_size=n, max_size=n)))
    return DiscreteMeasure(atoms, w / w.sum())


@st.composite
def spread_pairs(draw):
    """(mu, nu) with nu = mu's atoms each spread into a binary kernel, so
    mu <=_cx nu and the spreads that do not overlap give separate components."""
    mu = draw(float_measures(5))
    nu = DiscreteMeasure([], [])
    for x, w in zip(mu.atoms, mu.weights):
        lo, hi = draw(st.floats(0, 3)), draw(st.floats(0, 3))
        nu = nu + binary_kernel(x, x - lo, x + hi).scaled(w)
    return mu, nu


class TestPotential:
    def test_values(self):
        u = potential_values(DiscreteMeasure([-1, 1], [0.5, 0.5]), [-1, 0, 1, 2])
        assert np.allclose(u, [1, 1, 1, 2])

    def test_round_trip(self):
        m = DiscreteMeasure([-2, 0.5, 3], [0.2, 0.5, 0.3])
        back = _measure_from_cdf(m.atoms, cdf(m, m.atoms[:-1]), m.mass)
        assert np.allclose(back.atoms, m.atoms)
        assert np.allclose(back.weights, m.weights)

    def test_convexity(self):
        # the potential's slope right of y is 2 F(y) - mass
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = rng.integers(1, 6)
            w = rng.uniform(0.1, 1, n)
            m = DiscreteMeasure(np.sort(rng.uniform(-3, 3, n)), w / w.sum())
            slopes = 2 * cdf(m, np.concatenate([[-np.inf], m.atoms])) - m.mass
            assert np.all(np.diff(slopes) >= -1e-12)


def test_check_convex_order_memory_is_linear():
    # one dense (points x atoms) potential matrix would take 400 MB here
    mu, nu = uniform_pair(0, 5000, 5000)
    tracemalloc.start()
    try:
        check_convex_order(mu, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


class TestBinaryKernel:
    def test_symmetric(self):
        b = binary_kernel(0, -1, 1)
        assert np.allclose(b.weights, [0.5, 0.5])

    def test_asymmetric(self):
        b = binary_kernel(0, -1, 3)
        assert np.allclose(b.atoms, [-1, 3])
        assert np.allclose(b.weights, [0.75, 0.25])

    def test_degenerate(self):
        b = binary_kernel(0, 0, 0)
        assert len(b) == 1 and b.atoms[0] == 0

    def test_outside_raises(self):
        with pytest.raises(ValueError):
            binary_kernel(2, -1, 1)


class TestW1Binary:
    def test_fixture(self):
        assert w1_binary(0, -2, 2, -1, 1) == pytest.approx(1.0)

    def test_identity(self):
        assert w1_binary(0.3, -1, 2, -1, 2) == pytest.approx(0.0)

    def test_degenerate_pair(self):
        assert w1_binary(0, -1, 1, 0, 0) == pytest.approx(1.0)

    def test_matches_quantile_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.uniform(-1, 1)
            y, z = x - rng.uniform(0.01, 2), x + rng.uniform(0.01, 2)
            yk, zk = x - rng.uniform(0.01, 2), x + rng.uniform(0.01, 2)
            direct = wasserstein_line(binary_kernel(x, y, z), binary_kernel(x, yk, zk))
            assert w1_binary(x, y, z, yk, zk) == pytest.approx(direct, abs=1e-10)


class TestConvexMin:
    def test_three_point_fixture(self):
        rho = DiscreteMeasure([-3, 3], [0.5, 0.5])
        q = DiscreteMeasure([-10, 0, 10], [0.05, 0.9, 0.05])
        out = convex_min(rho, q)
        assert np.allclose(out.atoms, [-3, 0, 3])
        assert np.allclose(out.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-10)

    def test_one_dominates(self):
        small = DiscreteMeasure([-1, 1], [0.5, 0.5])
        big = DiscreteMeasure([-3, 3], [0.5, 0.5])
        out = convex_min(small, big)
        assert np.allclose(out.atoms, small.atoms)
        assert np.allclose(out.weights, small.weights)

    def test_dominated_by_both(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m1, m2 = centred_random_pair(rng)
            out = convex_min(m1, m2)
            assert check_convex_order(out, m1)[0]
            assert check_convex_order(out, m2)[0]
            assert out.mass == pytest.approx(m1.mass, abs=1e-9)
            assert mean(out) == pytest.approx(mean(m1), abs=1e-8)

    def test_maximality_sampled(self):
        # any common convex-order lower bound is below the minimum
        rng = np.random.default_rng(9)
        for _ in range(100):
            m1, m2 = centred_random_pair(rng)
            out = convex_min(m1, m2)
            theta = DiscreteMeasure([mean(m1)], [1.0])  # minimal element
            lam = rng.uniform(0, 1)
            probe = DiscreteMeasure(
                np.concatenate([theta.atoms, out.atoms]),
                np.concatenate([lam * theta.weights, (1 - lam) * out.weights]),
            )
            assert check_convex_order(probe, out)[0]

    def test_rounding_level_hull_vertices_dropped(self):
        # the hull keeps the two outer tail points with slope jumps of about
        # 3e-14 and 8e-15; their exact weight is zero
        rho = DiscreteMeasure([-2.028266101383045, 1.970757336116955], [0.24993894993894994, 0.7500610500610501])
        q = DiscreteMeasure([-1.99951171875, 1.99951171875], [0.25712930105402637, 0.7428706989459736])
        out = convex_min(rho, q)
        assert out.atoms.tolist() == [-1.99951171875, 1.970757336116955]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="hull slopes read from value differences")
    def test_dirac_at_the_mean_of_a_heavy_atom_and_a_far_light_one(self):
        # rho's mean x lies 2.1e-11 below its heavy atom, and its light atom
        # weighs 1.7e-10 of the mass; the minimum with delta_x is delta_x,
        # but the slopes read from value differences across the 2.1e-11 gap
        # between x and the heavy atom give a negative weight, and
        # convex_min raises "potential has a concave kink"
        rho = DiscreteMeasure([-0.006763994957596502, 0.12150265989732388], [1.8457266071913082e-10, 1.11623606991719])
        x = 0.12150265987611465
        assert mean(rho) == x
        out = convex_min(rho, DiscreteMeasure([x], [rho.mass]))
        assert out.atoms.tolist() == [x] and out.weights == pytest.approx([rho.mass], rel=1e-15)

    def test_window_shrinks_trim_error(self):
        rho = DiscreteMeasure([-2, -0.5, 1, 2.5], [0.25, 0.25, 0.25, 0.25])
        mid = mean(rho)
        prev = np.inf
        for half_width in (3.0, 5.0, 8.0, 16.0, 64.0):
            q = binary_kernel(mid, mid - half_width, mid + half_width)
            d = wasserstein_line(convex_min(rho, q), rho)
            assert d <= prev + 1e-12
            prev = d
        assert prev < 1e-6


class TestDecomposition:
    def test_two_components(self):
        mu = DiscreteMeasure([-2, 2], [0.5, 0.5])
        nu = DiscreteMeasure([-3, -1, 1, 3], [0.25, 0.25, 0.25, 0.25])
        d = irreducible_decomposition(mu, nu)
        assert len(d.components) == 2
        assert d.stationary.is_zero
        for comp in d.components:
            assert check_convex_order(comp.mu, comp.nu)[0]

    def test_reassembly(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = rng.integers(2, 5)
            mu = DiscreteMeasure(np.sort(rng.uniform(-3, 3, n)), np.full(n, 1 / n))
            spread = rng.uniform(0.5, 2)
            atoms = np.concatenate([mu.atoms - spread, mu.atoms + spread])
            nu = DiscreteMeasure(atoms, np.full(2 * n, 0.5 / n))
            d = irreducible_decomposition(mu, nu)
            mu_sum = d.stationary
            nu_sum = d.stationary
            for comp in d.components:
                mu_sum = mu_sum + comp.mu
                nu_sum = nu_sum + comp.nu
            assert wasserstein_line(mu_sum, mu) < 1e-10
            assert wasserstein_line(nu_sum, nu) < 1e-10

    def test_shared_endpoint_atom(self):
        # nu's atom at 0 ends both components and gives each of them 0.25
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        nu = DiscreteMeasure([-2, 0, 2], [0.25, 0.5, 0.25])
        d = irreducible_decomposition(mu, nu)
        assert [c.interval for c in d.components] == [(-2.0, 0.0), (0.0, 2.0)]
        assert [c.nu.atoms.tolist() for c in d.components] == [[-2.0, 0.0], [0.0, 2.0]]
        assert [c.nu.weights.tolist() for c in d.components] == [[0.25, 0.25], [0.25, 0.25]]
        assert d.stationary.is_zero

    @settings(max_examples=100)
    @given(spread_pairs())
    def test_component_atoms_are_atoms_of_nu(self, pair):
        mu, nu = pair
        d = irreducible_decomposition(mu, nu)
        mu_sum = nu_sum = d.stationary
        for comp in d.components:
            assert set(comp.nu.atoms.tolist()) <= set(nu.atoms.tolist())
            mu_sum, nu_sum = mu_sum + comp.mu, nu_sum + comp.nu
        # the pieces put both marginals back together; the stationary part is
        # mu's, so nu's atoms within the potential tolerance of it move a little
        assert wasserstein_line(mu_sum, mu) <= 1e-12
        assert wasserstein_line(nu_sum, nu) <= 1e-8

    @settings(max_examples=100)
    @given(spread_pairs())
    def test_labels_name_each_atoms_component(self, pair):
        """Each mu atom's label is the index of the component holding it,
        -1 when it is stationary, and the labels are read-only."""
        mu, nu = pair
        d = irreducible_decomposition(mu, nu)
        for c, comp in enumerate(d.components):
            assert np.array_equal(mu.atoms[d.labels == c], comp.mu.atoms)
        assert np.array_equal(mu.atoms[d.labels == -1], d.stationary.atoms)
        assert not d.labels.flags.writeable

    @pytest.mark.xfail(strict=True, raises=AssertionError)
    def test_endpoint_atom_beside_a_rounding_level_gap(self):
        # The strict-gap run ends at nu's atom 2.7334520217, where the gap is
        # 4.1e-12, under tol * scale = 4.4e-10, but still falling towards the
        # 2.07e-6 atom 1e-6 to its right; the endpoint solve then books more
        # mass on that atom than it carries.
        mu = DiscreteMeasure(
            [-1.981659775506543e-154, 1e-06, 4.3132371783044565],
            [0.5941604117688256, 0.056710047618395175, 0.34912954061277923],
        )
        nu = DiscreteMeasure(
            [-1.3823113254314419, -9.900000000000001e-05, 2.7334520217020932,
             2.7334530217020934, 4.091304186575347, 4.390935703559591],
            [0.3946069882506659, 0.05670797302653929, 0.1995534235181596,
             2.07459185587709e-06, 0.0905340356102858, 0.2585955050024934],
        )
        irreducible_decomposition(mu, nu)

    def test_stationary_part(self):
        mu = DiscreteMeasure([-1, 0, 1], [0.25, 0.5, 0.25])
        nu = DiscreteMeasure([-1, 0, 1], [0.25, 0.5, 0.25])
        d = irreducible_decomposition(mu, nu)
        assert len(d.components) == 0
        assert d.stationary.mass == pytest.approx(1.0)
        assert d.labels.tolist() == [-1, -1, -1]


class TestProjection:
    def test_already_dominating(self):
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        nu = DiscreteMeasure([-2, 2], [0.5, 0.5])
        out = convex_order_projection(mu, nu)
        assert wasserstein_line(out, nu) < 1e-9

    def test_dirac_target(self):
        mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
        out = convex_order_projection(mu, DiscreteMeasure([0], [1.0]))
        assert wasserstein_line(out, mu) < 1e-9

    def test_mean_forced(self):
        out = convex_order_projection(DiscreteMeasure([0], [1.0]), DiscreteMeasure([1], [1.0]))
        assert mean(out) == pytest.approx(0.0, abs=1e-9)
        assert wasserstein_line(out, DiscreteMeasure([1], [1.0])) == pytest.approx(1.0, abs=1e-8)

    def test_output_dominates(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            m1, m2 = centred_random_pair(rng)
            out = convex_order_projection(m1, m2)
            assert check_convex_order(m1, out, tol=1e-7)[0]

    def test_lipschitz_bound(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            m1, m2 = centred_random_pair(rng)
            m1b, m2b = centred_random_pair(rng)
            m1b = DiscreteMeasure(m1b.atoms - mean(m1b) + mean(m1), m1b.weights)
            m2b = DiscreteMeasure(m2b.atoms - mean(m2b) + mean(m1), m2b.weights)
            p1 = convex_order_projection(m1, m2)
            p2 = convex_order_projection(m1b, m2b)
            lhs = wasserstein_line(p1, p2)
            rhs = wasserstein_line(m1, m1b) + 2 * wasserstein_line(m2, m2b)
            assert lhs <= rhs + 1e-8

    def test_atoms_a_billionth_apart(self):
        mu = DiscreteMeasure([0, 1], [1 / 3, 2 / 3])
        out = convex_order_projection(mu, DiscreteMeasure([0, 1e-9], [0.75, 0.25]))
        assert check_convex_order(mu, out)[0]

    def test_no_rounding_atoms(self):
        mu, nu = uniform_pair(84, 20, 29)
        assert convex_order_projection(mu, nu).weights.min() >= 1e-9 * mu.mass

    def test_large_uniform_pair(self):
        mu, nu = uniform_pair(0, 2000, 2000)
        out = convex_order_projection(mu, nu)
        assert check_convex_order(mu, out)[0]
        assert abs(mean(out) - mean(mu)) <= 1e-12

    def test_dirac_projection_is_the_translate(self):
        # every law of mean x dominates delta_x, so the projection of delta_x
        # onto nu is nu moved to mean x: its atoms to the bit, its weights to
        # rounding (the potential-to-measure step rescales them)
        rng = np.random.default_rng(35)
        for _ in range(300):
            n = rng.integers(1, 12)
            w = rng.uniform(0.05, 1.0, n)
            nu = DiscreteMeasure(rng.uniform(-3, 3, n), w / w.sum())
            x = rng.uniform(-3, 3)
            out = convex_order_projection(DiscreteMeasure([x], [1.0]), nu)
            moved = DiscreteMeasure(nu.atoms + (x - nu.first_moment() / nu.mass), nu.weights)
            assert np.array_equal(out.atoms, moved.atoms)
            assert np.allclose(out.weights, moved.weights, rtol=0, atol=1e-15)

    @settings(max_examples=100)
    @given(float_measures(6), float_measures(8))
    def test_matches_reference(self, mu, nu):
        # atoms closer than 1e-6 put the slopes' rounding near the 1e-8 mass and
        # 1e-9 convex-order tolerances, where the reference fails as well
        assume(np.diff(np.union1d(mu.atoms, nu.atoms - mean(nu) + mean(mu))).min(initial=1.0) > 1e-6)
        out = convex_order_projection(mu, nu)
        ref = reference.convex_order_projection(mu, nu)
        atoms = np.concatenate([out.atoms, ref.atoms])
        assert wasserstein_line(out, ref) <= 1e-12 * mu.mass * max(1.0, atoms.max() - atoms.min())
        assert abs(out.mass - mu.mass) <= 1e-15 * mu.mass
        # a kink left by rounding gets no atom
        assert out.weights.min() >= 1e-12 * mu.mass
        assert check_convex_order(mu, out)[0]


def test_window_kernel_cases():
    inside = window_kernel(0.5, 0, 1)
    assert np.allclose(inside.atoms, [0, 1])
    outside = window_kernel(2.0, 0, 1)
    assert len(outside) == 1 and outside.atoms[0] == 2.0
