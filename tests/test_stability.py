import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from emot import lp_core, solvers
from emot.cli import main
from emot.convex_order import binary_kernel
from emot.measures import DiscreteMeasure, check_convex_order, mean
from emot.solvers import vix_dual_lp
from emot.stability import (
    PERTURBATIONS,
    ROW_FIELDS,
    ConfigError,
    ExperimentConfig,
    emit,
    perturb_marginals,
    run_stability,
)
from reference import report_from_csv
from test_solvers import FOUND_MU, FOUND_NU


def base_pair():
    return (
        DiscreteMeasure([-1, 0, 1], [0.25, 0.5, 0.25]),
        DiscreteMeasure([-2, 0, 2], [0.25, 0.5, 0.25]),
    )


# mot pair 6 of the benchmark's held-out seed-3 stability_approx inputs: mu has 40 atoms
# of weight 1/40, nu 58 atoms
HELDOUT_MU_ATOMS = [
    -0.9505039918065223, -0.9499514984747228, -0.9161600723160315, -0.9022972909509315, -0.8239539391019162,
    -0.8125657478375707, -0.7970478041508813, -0.7758757537754251, -0.6672838330243795, -0.6666238557375219,
    -0.5742312635670876, -0.4947788736413996, -0.4562258154633263, -0.30577552972485034, -0.29229589124896127,
    -0.24831226887684066, -0.15749983077517293, -0.09410596665306081, -0.04961161742251807, -0.001887283064012868,
    0.13040494484495535, 0.15029557834351648, 0.16644744937998723, 0.2272408201724272, 0.23395783835294726,
    0.24447555644024188, 0.3096292290466831, 0.3185322774699795, 0.355632941841717, 0.3568911430831776,
    0.5802804557090908, 0.6425684126453886, 0.6595894101058375, 0.7524348099515081, 0.8394965476449316,
    0.9401059081151062, 0.9564922784461507, 0.9569529038462556, 0.9709988070687678, 0.9836918883976529,
]
HELDOUT_NU_ATOMS = [
    -2.439688170219182, -2.211868184654987, -2.1990862969312976, -2.120846906457887, -1.9846399914115136,
    -1.8969712608447469, -1.775487343886351, -1.749376696049089, -1.7355401645094934, -1.692778102818136,
    -1.646197729142434, -1.5945606490407087, -1.4037225756194387, -1.3874943546016771, -1.230139800626258,
    -1.2017592819252714, -1.0694380868085167, -0.8399810230102704, -0.7259217441523069, -0.592509286670396,
    -0.5838386340204771, -0.5780397135168152, -0.5534183551297882, -0.4697409156468346, -0.4231740309036458,
    -0.27013673283549444, -0.2600195735397901, -0.2373742230088647, -0.08592602349904203, -0.085595220855939,
    0.11639328207093676, 0.13871995944022594, 0.14375322029323187, 0.28539656333206853, 0.40036298934608006,
    0.4171217225332482, 0.4325918416226018, 0.43764886174799145, 0.4538424129471741, 0.6282907774283037,
    0.940329992477345, 0.9584105765560951, 0.9850615591554437, 0.9912011573384243, 1.008546938579062,
    1.2857670140487407, 1.3623739867105757, 1.6595236061076672, 1.8334616269859332, 1.9696336470296103,
    2.0560800502573855, 2.0843007825615754, 2.1616764429334676, 2.1854546579507774, 2.4105272215004936,
    2.464192225974509, 2.4947187480451936, 2.506629263637617,
]
HELDOUT_NU_WEIGHTS = np.repeat(
    [0.017241379310344827, 0.017241379310344834, 0.017241379310344807, 0.017241379310344862, 0.017241379310344085],
    [4, 11, 14, 28, 1],
)

# the scale-0.05 pair of op 18 (quantile_discretize) of the benchmark's held-out seed-2
# stability_approx inputs: mu has 40 atoms of weight 1/40, nu 20 atoms
SMALL_MU_ATOMS = [
    -0.9699694973006199, -0.9218393104280078, -0.7705471951260938, -0.756733333214977, -0.7558889170814409,
    -0.6385726423750071, -0.6205544389614084, -0.5581674082730659, -0.526183044308248, -0.48160785780329585,
    -0.4757267679349828, -0.31534807179189883, -0.20857026178917626, -0.18145735416864706, -0.0255432930859405,
    -0.0065637933794606695, 0.0007450849214127864, 0.06157119829240165, 0.07277516031305908, 0.07421013700861923,
    0.14144886378003751, 0.14158970861208497, 0.16570799789181967, 0.16601524504282605, 0.22556584490391196,
    0.23818323315351053, 0.33264736721349886, 0.42335933024753647, 0.45157270469565747, 0.49979466914908177,
    0.5197436872295076, 0.5733399144547731, 0.5763410783053886, 0.6226090472742396, 0.6306365542494898,
    0.6372678162006269, 0.8399657909268712, 0.8606072087161152, 0.8659641437048469, 0.9900524650513303,
]
SMALL_NU_ATOMS = [
    -2.24212693916019, -2.0666868523959643, -1.8988971040008664, -1.58761302255273, -1.2819554628045755,
    -0.9560301969272755, -0.6274140199366942, -0.30836031860364327, -0.1814527199388712, -0.04315295847869681,
    0.12293828598421688, 0.3582360767256319, 0.44501591598408613, 0.6797092266853088, 1.2991006591911634,
    1.550830337160321, 1.6783592104861702, 1.7598993793176205, 1.9777224965239861, 2.271098538899189,
]
SMALL_NU_WEIGHTS = [
    0.05, 0.05, 0.04999999999999999, 0.05000000000000002, 0.04999999999999999,
    0.04999999999999999, 0.04999999999999999, 0.050000000000000044, 0.04999999999999999, 0.04999999999999999,
    0.050000000000000044, 0.04999999999999993, 0.050000000000000044, 0.04999999999999993, 0.050000000000000044,
    0.050000000000000044, 0.04999999999999993, 0.050000000000000044, 0.04999999999999993, 0.050000000000000044,
]


@st.composite
def spread_configs(draw):
    """Configs on mu with 1-4 atoms and nu = mu's atoms each spread into a
    binary kernel, for the problems that need no extra input."""
    n = draw(st.integers(1, 4))
    w = np.array(draw(st.lists(st.floats(0.1, 1), min_size=n, max_size=n)))
    mu = DiscreteMeasure(draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n)), w / w.sum())
    nu = DiscreteMeasure([], [])
    for x, wx in zip(mu.atoms, mu.weights):
        lo, hi = draw(st.floats(0, 3)), draw(st.floats(0, 3))
        nu = nu + binary_kernel(x, x - lo, x + hi).scaled(wx)
    scales = draw(st.lists(st.floats(0.01, 1), min_size=1, max_size=3, unique=True))
    return ExperimentConfig(
        mu=mu,
        nu=nu,
        problem=draw(st.sampled_from(["mot", "amer", "shadow"])),
        perturbation=draw(st.sampled_from(PERTURBATIONS)),
        scales=tuple(sorted(scales, reverse=True)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


class TestConfig:
    def test_defaults_valid(self):
        mu, nu = base_pair()
        cfg = ExperimentConfig(mu=mu, nu=nu)
        assert cfg.problem == "mot"

    def test_unknown_problem(self):
        mu, nu = base_pair()
        with pytest.raises(ConfigError):
            ExperimentConfig(mu=mu, nu=nu, problem="nope")

    def test_unknown_perturbation(self):
        mu, nu = base_pair()
        with pytest.raises(ConfigError):
            ExperimentConfig(mu=mu, nu=nu, perturbation="typo")

    def test_scales_must_decrease(self):
        mu, nu = base_pair()
        with pytest.raises(ConfigError):
            ExperimentConfig(mu=mu, nu=nu, scales=(0.1, 0.1))
        with pytest.raises(ConfigError):
            ExperimentConfig(mu=mu, nu=nu, scales=(0.05, 0.1))
        with pytest.raises(ConfigError):
            ExperimentConfig(mu=mu, nu=nu, scales=())

    def test_from_json(self):
        text = json.dumps(
            {
                "mu": {"atoms": [-1, 1], "weights": [0.5, 0.5]},
                "nu": {"atoms": [-2, 2], "weights": [0.5, 0.5]},
                "problem": "mot",
                "scales": [0.2, 0.1],
                "seed": 7,
            }
        )
        cfg = ExperimentConfig.from_json(text)
        assert cfg.seed == 7
        assert cfg.scales == (0.2, 0.1)

    def test_from_json_bad_marginals(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json('{"mu": {"atoms": [0]}, "nu": {}}')

    def test_from_json_unknown_key(self):
        text = json.dumps(
            {
                "mu": {"atoms": [0], "weights": [1.0]},
                "nu": {"atoms": [0], "weights": [1.0]},
                "frobnicate": 3,
            }
        )
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(text)


class TestPerturbations:
    def test_order_repair_invariant(self):
        mu, nu = base_pair()
        rng = np.random.default_rng(1)
        for family in ("quantile_discretize", "atom_jitter", "mass_jitter"):
            for scale in (0.3, 0.1, 0.01):
                mu_p, nu_p = perturb_marginals(mu, nu, family, scale, rng)
                ok, witness = check_convex_order(mu_p, nu_p, tol=1e-7)
                assert ok, (family, scale, witness)
                assert mean(nu_p) == pytest.approx(mean(mu_p), abs=1e-8)

    def test_quantile_discretize_deterministic(self):
        mu, nu = base_pair()
        rng = np.random.default_rng(0)
        a = perturb_marginals(mu, nu, "quantile_discretize", 0.5, rng)
        rng = np.random.default_rng(99)
        b = perturb_marginals(mu, nu, "quantile_discretize", 0.5, rng)
        assert np.allclose(a[1].atoms, b[1].atoms)


class TestRunAndEmit:
    def make_report(self, **kw):
        mu, nu = base_pair()
        cfg = ExperimentConfig(mu=mu, nu=nu, scales=(0.2, 0.1, 0.05), seed=3, **kw)
        return run_stability(cfg)

    def test_rows_and_status(self):
        rep = self.make_report()
        assert len(rep.rows) == 3
        for row in rep.rows:
            assert row["status"] == "ok"
            assert row["value_gap"] >= 0
            assert row["hausdorff_lower"] is not None
            assert row["hausdorff_upper"] >= row["hausdorff_lower"] - 1e-9

    def test_hausdorff_past_the_guard_on_the_perturbed_side(self):
        # quantile_discretize spreads nu's 3 atoms to 5: 15 plan entries on
        # the perturbed side, past the vertex-enumeration guard of 12
        mu, nu = base_pair()
        cfg = ExperimentConfig(mu=mu, nu=nu, perturbation="quantile_discretize", scales=(0.2,))
        (row,) = run_stability(cfg).rows
        assert row["status"] == "ok"
        assert row["hausdorff_lower"] is not None
        assert row["hausdorff_upper"] >= row["hausdorff_lower"] - 1e-9

    @settings(max_examples=20)
    @example(ExperimentConfig(mu=base_pair()[0], nu=base_pair()[1], scales=(0.2, 0.1, 0.05), seed=3))
    @given(spread_configs())
    def test_deterministic_emission(self, cfg):
        try:
            first = run_stability(cfg)
        except (RuntimeError, ValueError) as exc:
            # a base problem whose LP fails fails the same way again; shadow
            # couplings are built with no LP, and their base solve must not fail
            if cfg.problem == "shadow":
                raise
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                run_stability(cfg)
            return
        second = run_stability(cfg)
        for fmt in ("csv", "json", "plotdata"):
            assert emit(first, fmt) == emit(second, fmt)
        rows = report_from_csv(emit(first, "csv"))
        assert len(rows) == len(first.rows)
        for orig, back in zip(first.rows, rows):
            for key in set(ROW_FIELDS) - {"status", "reason"}:
                # equal reprs: the same float to the bit, nan and -0.0 included
                assert repr(back[key]) == repr(orig[key]), key

    def test_csv_round_trip(self):
        rep = self.make_report()
        rows = report_from_csv(emit(rep, "csv"))
        assert len(rows) == len(rep.rows)
        for orig, back in zip(rep.rows, rows):
            assert back["value_gap"] == orig["value_gap"]  # repr round-trip is exact
            assert back["scale"] == orig["scale"]
            assert back["status"] == orig["status"]

    def test_plotdata_curves(self):
        curves = json.loads(emit(self.make_report(), "plotdata"))
        assert "value_gap" in curves
        assert len(curves["value_gap"]) == 3
        assert curves["value_gap"][0][0] == 0.2

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            emit(self.make_report(), "xml")

    def test_timings_off_by_default(self):
        rep = self.make_report()
        assert all(row["time_s"] is None for row in rep.rows)
        rep_t = self.make_report(include_timings=True)
        assert all(row["time_s"] is not None for row in rep_t.rows)

    def test_shadow_problem_barrier_columns(self):
        mu, nu = base_pair()
        cfg = ExperimentConfig(
            mu=mu, nu=nu, problem="shadow", scales=(0.2, 0.05), seed=5, copula_m=4
        )
        rep = run_stability(cfg)
        for row in rep.rows:
            assert row["status"] == "ok"
            assert row["barrier_exceedance"] is not None
            assert row["kernel_tv"] is not None

    def test_shadow_base_pair_with_a_rounding_level_atom(self):
        # the shadow LP's base solve raised "negative kernel weight" on this pair
        cfg = ExperimentConfig(mu=FOUND_MU, nu=FOUND_NU, problem="shadow", scales=(0.2, 0.05), seed=5)
        rep = run_stability(cfg)
        assert [row["status"] for row in rep.rows] == ["ok", "ok"]

    def test_mot_plans_of_a_large_pair_have_no_negative_entry(self, monkeypatch):
        # without presolve at HiGHS's default primal feasibility tolerance
        # (1e-7), the perturbed plan held an entry of -9.9e-9 and the row
        # failed with "negative kernel weight"
        plans, solve = [], solvers.solve_lp

        def spy(p, start=None):
            sol = solve(p, start)
            plans.append(sol.x)
            return sol

        monkeypatch.setattr(solvers, "solve_lp", spy)
        mu = DiscreteMeasure(HELDOUT_MU_ATOMS, np.full(40, 1 / 40))
        nu = DiscreteMeasure(HELDOUT_NU_ATOMS, HELDOUT_NU_WEIGHTS)
        cfg = ExperimentConfig(mu=mu, nu=nu, problem="mot", perturbation="mass_jitter", scales=(0.2,), seed=1220963932)
        (row,) = run_stability(cfg).rows
        assert row["status"] == "ok", row["reason"]
        assert len(plans) == 2 and all(x.size >= lp_core.LARGE_COLS and x.min() >= 0.0 for x in plans)

    def test_mot_plan_of_a_pair_below_large_cols_has_no_negative_entry(self, monkeypatch):
        # with presolve on at HiGHS's default primal feasibility tolerance (1e-7),
        # the 800-column plan held an entry of -4.7e-8 and solve_mot raised
        # "negative kernel weight"
        plans, solve = [], solvers.solve_lp

        def spy(p, start=None):
            sol = solve(p, start)
            plans.append(sol.x)
            return sol

        monkeypatch.setattr(solvers, "solve_lp", spy)
        mu = DiscreteMeasure(SMALL_MU_ATOMS, np.full(40, 1 / 40))
        nu = DiscreteMeasure(SMALL_NU_ATOMS, SMALL_NU_WEIGHTS)
        solvers.solve_mot(mu, nu, solvers.CostSpec(fn=solvers.COSTS["abs"]))
        (x,) = plans
        assert x.size == 800 < lp_core.LARGE_COLS and x.min() >= 0.0

    @pytest.mark.parametrize("family", ["mass_jitter", "atom_jitter"])
    def test_perturbed_mot_solves_start_from_the_base_basis(self, family, monkeypatch):
        # each perturbed LP, solved again cold: the same value, from at least
        # twice the simplex iterations, so a start HiGHS ignored fails here
        solves, solve = [], solvers.solve_lp

        def spy(p, start=None):
            sol = solve(p, start)
            solves.append((p, start, sol))
            return sol

        monkeypatch.setattr(solvers, "solve_lp", spy)
        mu = DiscreteMeasure(HELDOUT_MU_ATOMS, np.full(40, 1 / 40))
        nu = DiscreteMeasure(HELDOUT_NU_ATOMS, HELDOUT_NU_WEIGHTS)
        cfg = ExperimentConfig(mu=mu, nu=nu, problem="mot", perturbation=family, scales=(0.2, 0.1, 0.05), seed=1220963932)
        rows = run_stability(cfg).rows
        (_, base_start, base), *perturbed = solves
        assert base_start is None and len(perturbed) == len(rows) == 3
        for row, (p, start, warm) in zip(rows, perturbed):
            assert row["status"] == "ok", row["reason"]
            assert start is base.basis and warm.stats["method"] == "highs-ds"
            cold = solve(p)
            assert abs(row["value_pert"] - cold.value) <= 1e-12 * abs(cold.value)
            assert warm.stats["simplex_iterations"] < cold.stats["simplex_iterations"] / 2

    def test_error_rows_are_tagged(self):
        # a jitter wide enough to push a VIX marginal below zero fails at
        # that scale but the report still comes back complete
        mu = DiscreteMeasure([1.0], [1.0])
        nu = DiscreteMeasure([0.7, 1.3], [0.5, 0.5])
        cfg = ExperimentConfig(mu=mu, nu=nu, problem="vix", scales=(2.5, 1.5), seed=0)
        rep = run_stability(cfg)
        statuses = [row["status"] for row in rep.rows]
        assert statuses == ["ok", "error"]
        assert "ValueError" in rep.rows[1]["reason"]

    def test_vix_rows_report_the_exact_value(self):
        mu = DiscreteMeasure([0.9, 1.1], [0.5, 0.5])
        nu = DiscreteMeasure([0.7, 1.0, 1.3], [0.25, 0.5, 0.25])
        rep = run_stability(ExperimentConfig(mu=mu, nu=nu, problem="vix", scales=(0.1, 0.05), seed=3))
        exact = vix_dual_lp(mu, nu, 1.0)["value"]
        assert [row["status"] for row in rep.rows] == ["ok", "ok"]
        assert all(abs(row["value_base"] - exact) <= 1e-9 for row in rep.rows)


class TestCli:
    def write_mot_input(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(
            json.dumps(
                {
                    "mu": {"atoms": [-1, 1], "weights": [0.5, 0.5]},
                    "nu": {"atoms": [-2, 2], "weights": [0.5, 0.5]},
                }
            )
        )
        return str(path)

    def test_mot_success(self, tmp_path, capsys):
        code = main(["mot", "--input", self.write_mot_input(tmp_path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(1.5, abs=1e-9)

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["mot", "--input", str(tmp_path / "missing.json")]) == 2

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["mot", "--input", str(path)]) == 2

    def test_order_failure_is_solver_error(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(
            json.dumps(
                {
                    "mu": {"atoms": [-2, 2], "weights": [0.5, 0.5]},
                    "nu": {"atoms": [-1, 1], "weights": [0.5, 0.5]},
                }
            )
        )
        assert main(["mot", "--input", str(path)]) == 3

    def test_stability_writes_files(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "mu": {"atoms": [-1, 1], "weights": [0.5, 0.5]},
                    "nu": {"atoms": [-2, 2], "weights": [0.5, 0.5]},
                    "scales": [0.2, 0.1],
                    "seed": 1,
                }
            )
        )
        prefix = str(tmp_path / "rep")
        code = main(
            ["stability", "--config", str(cfg), "--out-prefix", prefix, "--formats", "csv,json"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rows"] == 2
        rows = report_from_csv((tmp_path / "rep.csv").read_text())
        assert len(rows) == 2
        data = json.loads((tmp_path / "rep.json").read_text())
        assert data["schema_version"] == 1

    def test_vix_cli(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(
            json.dumps(
                {
                    "mu": {"atoms": [1.0], "weights": [1.0]},
                    "nu": {"atoms": [0.5, 1.5], "weights": [0.5, 0.5]},
                }
            )
        )
        code = main(["vix", "--input", str(path), "--bins", "50"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["d_lo"] <= out["d_hi"]
        assert out["p_value"] == pytest.approx(out["d_lo"], abs=1e-6)
