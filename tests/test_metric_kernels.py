"""Array metric kernels against their pairwise reference forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from emot.convex_order import convex_min, convex_order_projection
from emot.couplings import DiscreteCoupling, adapted_wasserstein
from emot.measures import DiscreteMeasure, LiftedMeasure, cell_masses, mean, potential_values, wasserstein_line
from emot.solvers import COSTS, CostSpec, solve_mot
from emot.stability import PERTURBATIONS, perturb_marginals

# atoms on a coarse grid and small integer weights, so that atoms and
# cumulative weights tie often
grid = st.integers(-16, 16).map(lambda k: k / 8)
int_weights = st.lists(st.integers(0, 4), min_size=1, max_size=6).filter(any)


@st.composite
def measures(draw, mass=1.0):
    w = np.array(draw(int_weights), dtype=float)
    atoms = draw(st.lists(grid, min_size=w.size, max_size=w.size, unique=True))
    return DiscreteMeasure(atoms, w / w.sum() * mass)


@st.composite
def couplings(draw):
    keys = draw(st.lists(st.tuples(grid, st.sampled_from([0.0, 0.5, 1.0])), min_size=1, max_size=4, unique=True))
    w = np.array(draw(st.lists(st.integers(1, 4), min_size=len(keys), max_size=len(keys))), dtype=float)
    ys = sorted(draw(st.lists(grid, min_size=1, max_size=5, unique=True)))
    row = st.lists(st.integers(0, 3), min_size=len(ys), max_size=len(ys)).filter(any)
    K = np.array(draw(st.lists(row, min_size=len(keys), max_size=len(keys))), dtype=float)
    fm = LiftedMeasure(keys, w / w.sum())
    # LiftedMeasure sorts its atoms; keep each kernel with its key
    order = np.lexsort(np.array(keys).T[::-1])
    return DiscreteCoupling(fm, ys, K[order] / K[order].sum(axis=1, keepdims=True))


@settings(max_examples=50)
@given(couplings(), couplings())
def test_adapted_wasserstein_matches_pairwise(c1, c2):
    assert abs(adapted_wasserstein(c1, c2) - reference.adapted_wasserstein(c1, c2)) <= 1e-12


@pytest.mark.parametrize("family", PERTURBATIONS)
def test_adapted_wasserstein_matches_pairwise_at_workload_scale(family):
    """mot couplings of a seeded 40 x 58 pair against those of its perturbed
    pairs, whose y supports hold 5 to 58 atoms."""
    rng = np.random.default_rng([37, PERTURBATIONS.index(family)])
    mu = DiscreteMeasure(rng.uniform(-1, 1, 40), np.full(40, 1 / 40))
    raw = rng.uniform(-2.5, 2.5, 58)
    nu = convex_order_projection(mu, DiscreteMeasure(raw - raw.mean() + mean(mu), np.full(58, 1 / 58)))
    cost = CostSpec(fn=COSTS["abs"])
    base = solve_mot(mu, nu, cost)["coupling"]
    for scale in (0.2, 0.05):
        pert = solve_mot(*perturb_marginals(mu, nu, family, scale, rng), cost)["coupling"]
        assert abs(adapted_wasserstein(base, pert) - reference.adapted_wasserstein(base, pert)) <= 1e-12


@given(st.sampled_from([0.3, 1.0, 2.5]).flatmap(lambda m: st.tuples(measures(m), measures(m))))
def test_wasserstein_line_matches_pairwise(pair):
    m1, m2 = pair
    assert abs(wasserstein_line(m1, m2) - reference.wasserstein_line(m1, m2)) <= 1e-12


@given(measures(), measures())
def test_convex_min_matches_slope_pairs(rho, q):
    q = DiscreteMeasure(q.atoms - mean(q) + mean(rho), q.weights)
    out, ref = convex_min(rho, q), reference.convex_min(rho, q)
    assert wasserstein_line(out, ref) <= 1e-12
    pts = np.concatenate([rho.atoms, q.atoms, out.atoms, ref.atoms])
    assert np.abs(potential_values(out, pts) - potential_values(ref, pts)).max() <= 1e-12


@settings(max_examples=50)
@given(measures(), st.integers(0, 16), st.integers(0, 16))
def test_cell_restriction_matches_loop(m, i, j):
    q_lo, q_hi = sorted((i / 16, j / 16))
    out = DiscreteMeasure(m.atoms, cell_masses(m, [q_lo, q_hi])[0])
    ref = reference.cell_restriction(m, q_lo, q_hi)
    assert out.atoms.tolist() == ref.atoms.tolist() and out.weights.tolist() == ref.weights.tolist()
