import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from emot.cli import main
from emot.convex_order import binary_kernel
from emot.measures import DiscreteMeasure, check_convex_order, mean
from emot.stability import (
    PERTURBATIONS,
    ROW_FIELDS,
    ConfigError,
    ExperimentConfig,
    emit,
    perturb_marginals,
    report_from_csv,
    run_stability,
)
from test_solvers import FOUND_MU, FOUND_NU


def base_pair():
    return (
        DiscreteMeasure([-1, 0, 1], [0.25, 0.5, 0.25]),
        DiscreteMeasure([-2, 0, 2], [0.25, 0.5, 0.25]),
    )


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
