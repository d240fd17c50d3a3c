"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (visible with ``pytest -s`` or on failure) before asserting, so a
full run doubles as a checklist.  Tolerances are pinned; loosening them
is a behavior change, not a cleanup.
"""

import numpy as np
import pytest

from emot.approximation import approximate_coupling, min_cost_martingale_rearrangement
from emot.convex_order import (
    binary_kernel,
    convex_min,
    convex_order_projection,
    w1_binary,
)
from emot.couplings import (
    adapted_wasserstein,
    hausdorff_mot,
    martingale_polytope_lp,
    wasserstein_coupling,
)
from emot.lp_core import LPError, solve_lp, transport_plan
from emot.measures import (
    DiscreteMeasure,
    LiftedMeasure,
    check_convex_order,
    mean,
    wasserstein_line,
)
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
)
from emot.stability import _barrier_exceedance
from reference import vix_bin_primal_lp, vix_bracket

ABS_COST = CostSpec(fn=lambda x, u, ys: np.abs(np.asarray(ys) - x))

STEP3_VIOLATIONS = []


def report(num, name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def random_measure(rng, n_max=6):
    n = rng.integers(1, n_max + 1)
    w = rng.uniform(0.1, 1, n)
    return DiscreteMeasure(np.sort(rng.uniform(-3, 3, n)), w / w.sum())


def repaired(mu_p, nu_raw):
    shifted = DiscreteMeasure(nu_raw.atoms - mean(nu_raw) + mean(mu_p), nu_raw.weights)
    return convex_order_projection(mu_p, shifted)


def test_criterion_01_forced_kernel_mot():
    mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
    nu = DiscreteMeasure([-2, 2], [0.5, 0.5])
    r = solve_mot(mu, nu, ABS_COST)
    ok = abs(r["value"] - 1.5) <= 1e-9 and np.allclose(
        r["coupling"].kernels, [[0.75, 0.25], [0.25, 0.75]], atol=1e-9
    )
    report(1, "forced-kernel MOT fixture", ok, f"value={r['value']:.12f}")


def _feasible(lp) -> bool:
    """Strassen's side of criterion 02: the LP has a feasible point."""
    try:
        solve_lp(lp)
    except LPError:
        return False
    return True


def test_criterion_02_checker_vs_strassen():
    rng = np.random.default_rng(101)
    mismatches = 0
    for trial in range(200):
        a = random_measure(rng)
        b = random_measure(rng)
        if trial % 2 == 0:  # half the trials share a mean so both outcomes occur
            b = DiscreteMeasure(b.atoms - mean(b) + mean(a), b.weights)
        checker, _ = check_convex_order(a, b)
        if checker != _feasible(martingale_polytope_lp(LiftedMeasure.from_measure(a), b)):
            mismatches += 1
    report(2, "convex-order checker vs Strassen LP", mismatches == 0, f"{mismatches}/200 mismatches")


def test_criterion_03_quantile_w1_vs_lp():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        a = random_measure(rng)
        b = random_measure(rng)
        cost = np.abs(a.atoms[:, None] - b.atoms[None, :])
        _, lp_value = transport_plan(cost, a.weights, b.weights)
        worst = max(worst, abs(wasserstein_line(a, b, 1.0) - lp_value))
    report(3, "quantile W1 vs transport LP", worst <= 1e-8, f"max diff {worst:.2e}")


def test_criterion_04_projection_lipschitz():
    rng = np.random.default_rng(103)
    worst = -np.inf
    for _ in range(100):
        ms = []
        for _ in range(4):
            m = random_measure(rng, n_max=4)
            ms.append(m)
        m1, m2, m1b, m2b = ms
        m2 = DiscreteMeasure(m2.atoms - mean(m2) + mean(m1), m2.weights)
        m1b = DiscreteMeasure(m1b.atoms - mean(m1b) + mean(m1), m1b.weights)
        m2b = DiscreteMeasure(m2b.atoms - mean(m2b) + mean(m1), m2b.weights)
        lhs = wasserstein_line(
            convex_order_projection(m1, m2),
            convex_order_projection(m1b, m2b),
            1.0,
        )
        rhs = wasserstein_line(m1, m1b, 1.0) + 2 * wasserstein_line(m2, m2b, 1.0)
        worst = max(worst, lhs - rhs)
    report(4, "projection Lipschitz bound", worst <= 1e-8, f"max slack violation {worst:.2e}")


def test_criterion_05_convex_min():
    rho = DiscreteMeasure([-3, 3], [0.5, 0.5])
    q = DiscreteMeasure([-10, 0, 10], [0.05, 0.9, 0.05])
    out = convex_min(rho, q)
    exact = np.allclose(out.atoms, [-3, 0, 3]) and np.allclose(
        out.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-10
    )
    rng = np.random.default_rng(104)
    props = True
    for _ in range(100):
        a = random_measure(rng, n_max=4)
        b = random_measure(rng, n_max=4)
        b = DiscreteMeasure(b.atoms - mean(b) + mean(a), b.weights)
        m = convex_min(a, b)
        props &= check_convex_order(m, a)[0] and check_convex_order(m, b)[0]
        lam = rng.uniform(0, 1)
        probe = DiscreteMeasure(
            np.concatenate([[mean(a)], m.atoms]),
            np.concatenate([[lam], (1 - lam) * m.weights]),
        )
        probe = DiscreteMeasure(probe.atoms, probe.weights / probe.mass)
        props &= check_convex_order(probe, m)[0]
    report(5, "convex-order minimum", exact and props)


def test_criterion_06_american_fixtures():
    mu = DiscreteMeasure([-1, 0, 1], [0.25, 0.5, 0.25])
    nu = DiscreteMeasure([-2, 0, 2], [0.25, 0.5, 0.25])
    r0 = price_american(mu, nu, lambda x: x + 0.1, lambda x, y: 0.0)
    ok0 = abs(r0["value"] - mu.integrate(lambda x: np.maximum(x + 0.1, 0.0))) <= 1e-9

    r1 = price_american(
        DiscreteMeasure([0], [1.0]),
        DiscreteMeasure([-1, 1], [0.5, 0.5]),
        lambda x: 0.2,
        lambda x, y: max(y, 0.0),
    )
    ok1 = abs(r1["value"] - 0.5) <= 1e-8

    mu2 = DiscreteMeasure([0], [1.0])
    nu2 = DiscreteMeasure([-2, 0, 2], [0.25, 0.5, 0.25])
    r2 = price_american(mu2, nu2, lambda x: 0.6, lambda x, y: abs(y) / 2)
    unlifted = max(
        0.6,
        solve_mot(mu2, nu2, CostSpec(fn=lambda x, u, ys: np.abs(ys) / 2), "max")["value"],
    )
    ok2 = abs(r2["value"] - 0.8) <= 1e-8 and r2["value"] > unlifted + 1e-6
    report(6, "American fixtures", ok0 and ok1 and ok2, f"values {r1['value']:.6f}, {r2['value']:.6f} > {unlifted}")


def test_criterion_07_vix_sandwich():
    mu = DiscreteMeasure([1.0], [1.0])
    nu = DiscreteMeasure([0.5, 1.5], [0.5, 0.5])
    target = np.sqrt(np.log(4.0 / 3.0))
    r200 = vix_bracket(mu, nu, 1.0, 200)
    r400 = vix_bracket(mu, nu, 1.0, 400)
    gap200 = r200["d_hi"] - r200["d_lo"]
    gap400 = r400["d_hi"] - r400["d_lo"]
    p = vix_bin_primal_lp(mu, nu, 1.0, r200["edges"])
    value = vix_dual_lp(mu, nu, 1.0)["value"]
    ok = (
        r200["d_lo"] <= target <= r200["d_hi"]
        and gap200 <= 0.02
        and gap400 <= 0.6 * gap200
        and abs(p["p_value"] - r200["d_lo"]) <= 1e-6
        and abs(value - target) <= 1e-12
        and all(r["d_lo"] <= value <= r["d_hi"] for r in (r200, r400))
    )
    report(7, "VIX sandwich and duality", ok, f"gap200={gap200:.5f}, gap400={gap400:.5f}, value={value:.15f}")


def _approximation_fixtures():
    mu1 = DiscreteMeasure([-1, 1], [0.5, 0.5])
    nu1 = DiscreteMeasure([-2, 2], [0.5, 0.5])
    pi1 = solve_mot(mu1, nu1, ABS_COST)["coupling"]

    def perturb1(d):
        mu_p = LiftedMeasure.from_measure(DiscreteMeasure([-1 - d, 1 + d], [0.5, 0.5]))
        nu_p = repaired(mu_p.x_marginal(), DiscreteMeasure([-2 - d, 2 + d], [0.5, 0.5]))
        return mu_p, nu_p

    mb2 = LiftedMeasure([(-1, 0.2), (-1, 0.8), (1, 0.5)], [0.25, 0.25, 0.5])
    nu2 = DiscreteMeasure([-2, 2], [0.5, 0.5])
    pi2 = solve_extended_mot(mb2, nu2, ABS_COST)["coupling"]

    def perturb2(d):
        xs = mb2.xs + d * np.array([-0.3, 0.2, 0.25])
        us = np.clip(mb2.us + d * np.array([0.1, -0.1, 0.2]), 0, 1)
        mu_p = LiftedMeasure(np.column_stack([xs, us]), mb2.weights)
        nu_p = repaired(
            mu_p.x_marginal(), DiscreteMeasure(nu2.atoms + d * np.array([-0.2, 0.3]), nu2.weights)
        )
        return mu_p, nu_p

    mu3 = DiscreteMeasure([-2, 2], [0.5, 0.5])
    nu3 = DiscreteMeasure([-3, -1, 1, 3], [0.25, 0.25, 0.25, 0.25])
    pi3 = solve_mot(mu3, nu3, ABS_COST)["coupling"]

    def perturb3(d):
        mu_p = LiftedMeasure.from_measure(
            DiscreteMeasure(mu3.atoms + d * np.array([-0.2, 0.2]), mu3.weights)
        )
        nu_p = repaired(
            mu_p.x_marginal(),
            DiscreteMeasure(nu3.atoms + d * np.array([-0.2, -0.1, 0.1, 0.2]), nu3.weights),
        )
        return mu_p, nu_p

    return [(pi1, perturb1), (pi2, perturb2), (pi3, perturb3)]


def test_criterion_08_approximation_trend():
    scales = [2.0**-k for k in range(1, 9)]
    ok = True
    details = []
    for pi, perturb in _approximation_fixtures():
        aws = []
        for d in scales:
            mu_p, nu_p = perturb(d)
            out, rep = approximate_coupling(pi, mu_p, nu_p, eps=d)
            for stage in rep["stages"]:
                if stage["step3_cost"] > stage["step3_bound"] + 1e-9:
                    STEP3_VIOLATIONS.append((stage["step3_cost"], stage["step3_bound"]))
            ok &= wasserstein_line(out.x_marginal(), mu_p.x_marginal(), 1.0) <= 1e-9
            ok &= wasserstein_line(out.second_marginal(), nu_p, 1.0) <= 1e-9
            aws.append(rep["aw1"])
        ok &= all(b <= 1.1 * a for a, b in zip(aws, aws[1:]))
        ok &= aws[-1] <= 0.1 * aws[0]
        details.append(f"{aws[0]:.3f}->{aws[-1]:.4f}")
    report(8, "approximation pipeline trend", ok, "; ".join(details))


def test_criterion_09_rearrangement_bound():
    rng = np.random.default_rng(109)
    for _ in range(30):
        n = rng.integers(1, 5)
        theta = DiscreteMeasure(np.sort(rng.uniform(-2, 2, n)), np.full(n, 1 / n))
        spread = rng.uniform(0.05, 1.5)
        nu = DiscreteMeasure(
            np.concatenate([theta.atoms - spread, theta.atoms + spread]),
            np.full(2 * n, 0.5 / n),
        )
        # AssertionError inside would count as a violation
        try:
            _, rep = min_cost_martingale_rearrangement(theta, nu)
            if rep["cost"] > rep["bound"] + 1e-9:
                STEP3_VIOLATIONS.append((rep["cost"], rep["bound"]))
        except AssertionError as exc:
            STEP3_VIOLATIONS.append(str(exc))
    report(9, "rearrangement 2*W1 bound", len(STEP3_VIOLATIONS) == 0, f"{len(STEP3_VIOLATIONS)} violations")


def test_criterion_10_hausdorff_decay():
    mu = DiscreteMeasure([-1, 0, 1], [0.25, 0.5, 0.25])
    nu = DiscreteMeasure([-2, 0, 2], [0.25, 0.5, 0.25])
    mb = LiftedMeasure.from_measure(mu)
    scales = [2.0**-k for k in range(1, 7)]
    vals = []
    ok = True
    for d in scales:
        nu_d = DiscreteMeasure(nu.atoms * (1 + d / 2), nu.weights)
        h = hausdorff_mot(mb, nu, mb, nu_d)
        ok &= h["mode"] == "exact"
        vals.append(h["upper"])
    ok &= all(b <= 1.1 * a for a, b in zip(vals, vals[1:]))
    ok &= vals[-1] <= 0.02
    report(10, "Hausdorff polytope decay", ok, f"{vals[0]:.4f}->{vals[-1]:.4f}")


def test_criterion_11_shadow_barriers():
    mu = DiscreteMeasure([-1, 0, 1], [1 / 3, 1 / 3, 1 / 3])
    nu = DiscreteMeasure([-2, -0.5, 0.5, 2], [0.25, 0.25, 0.25, 0.25])
    ok = True
    for m in (8, 16):
        bm, _ = extract_barriers(shadow_coupling(copula_lift(mu, "hoeffding_frechet", m), nu)["coupling"])
        ok &= barrier_monotonicity_violation(bm) <= 1e-12
    c64 = shadow_coupling(copula_lift(mu, "hoeffding_frechet", 64), nu)["coupling"]
    lm_viol = left_monotone_violation(c64)
    ok &= lm_viol <= 0.05

    base = shadow_coupling(copula_lift(mu, "hoeffding_frechet", 8), nu)["coupling"]
    exceeds = []
    for d in (0.4, 0.2, 0.1, 0.05):
        nu_d = repaired(mu, DiscreteMeasure(nu.atoms * (1 + d), nu.weights))
        pert = shadow_coupling(copula_lift(mu, "hoeffding_frechet", 8), nu_d)["coupling"]
        e, _ = _barrier_exceedance(base, pert, 0.25)
        exceeds.append(e)
    ok &= all(b <= a + 1e-12 for a, b in zip(exceeds, exceeds[1:]))
    report(11, "shadow coupling barriers", ok, f"lm_viol={lm_viol:.3f}, exceed={exceeds}")


def test_criterion_12_metric_sanity():
    rng = np.random.default_rng(112)
    from emot.couplings import DiscreteCoupling

    ok = True
    for _ in range(25):
        n = rng.integers(1, 4)
        fm = LiftedMeasure(
            np.column_stack([rng.uniform(-1, 1, n), rng.uniform(0, 1, n)]),
            np.full(n, 1 / n),
        )
        ys = np.sort(rng.uniform(-2, 2, 3))
        K1 = rng.uniform(0.05, 1, (n, 3))
        K1 /= K1.sum(axis=1, keepdims=True)
        K2 = rng.uniform(0.05, 1, (n, 3))
        K2 /= K2.sum(axis=1, keepdims=True)
        c1 = DiscreteCoupling(fm, ys, K1)
        c2 = DiscreteCoupling(fm, ys, K2)
        ok &= adapted_wasserstein(c1, c2, 1.0) >= wasserstein_coupling(c1, c2, 1.0) - 1e-9
        ok &= adapted_wasserstein(c1, c1, 1.0) <= 1e-10
    worst = 0.0
    for _ in range(500):
        x = rng.uniform(-1, 1)
        y, z = x - rng.uniform(0.01, 2), x + rng.uniform(0.01, 2)
        yk, zk = x - rng.uniform(0.01, 2), x + rng.uniform(0.01, 2)
        direct = wasserstein_line(binary_kernel(x, y, z), binary_kernel(x, yk, zk), 1.0)
        worst = max(worst, abs(w1_binary(x, y, z, yk, zk) - direct))
    ok &= worst <= 1e-10
    report(12, "adapted metric sanity", ok, f"binary kernel max diff {worst:.1e}")


def test_criterion_13_wmot_value_stability():
    cost = CostSpec(
        kernel_cost=lambda x, u, ys, k: float(np.dot(np.abs(ys), k)) ** 2,
        kernel_grad=lambda x, u, ys, k: 2.0 * float(np.dot(np.abs(ys), k)) * np.abs(ys),
    )
    mu = DiscreteMeasure([-1, 1], [0.5, 0.5])
    nu = DiscreteMeasure([-2, 2], [0.5, 0.5])
    base = solve_wmot_fw(LiftedMeasure.from_measure(mu), nu, cost, tol=1e-8)
    ok = base["fw_gap"] <= 1e-6
    gaps = []
    for d in [2.0**-k for k in range(1, 7)]:
        nu_d = DiscreteMeasure(nu.atoms + d / 4 * np.sign(nu.atoms), nu.weights)
        r = solve_wmot_fw(LiftedMeasure.from_measure(mu), nu_d, cost, tol=1e-8)
        ok &= r["fw_gap"] <= 1e-6
        gaps.append(abs(r["value"] - base["value"]))
    ok &= all(b <= 1.1 * a for a, b in zip(gaps, gaps[1:]))
    ok &= gaps[-1] <= 0.02
    report(13, "convex-cost value stability", ok, f"gaps {gaps[0]:.4f}->{gaps[-1]:.4f}")
