import json

import numpy as np
import pytest

from emot import cli, lp_core, solvers
from emot.cli import main
from emot.lp_core import CertificateError, LPError
from emot.measures import DiscreteMeasure
from emot.solvers import COSTS, CostSpec, price_american, solve_mot, vix_dual_lp

MU = {-1.0: 2 / 3, 2.0: 1 / 3}
NU = {-3.0: 0.25, 0.0: 0.5, 3.0: 0.25}
PHI1 = {-1.0: 0.0, 2.0: 5.0}
PHI2 = {(-1.0, -3.0): 1.0, (2.0, 3.0): 4.0}  # zero elsewhere


def _amer_input(tmp_path, xs, ys):
    data = {
        "mu": {"atoms": xs, "weights": [MU[x] for x in xs]},
        "nu": {"atoms": ys, "weights": [NU[y] for y in ys]},
        "phi1": [PHI1[x] for x in xs],
        "phi2": [[PHI2.get((x, y), 0.0) for y in ys] for x in xs],
    }
    path = tmp_path / "amer.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "xs, ys",
    [([-1.0, 2.0], [-3.0, 0.0, 3.0]), ([2.0, -1.0], [-3.0, 0.0, 3.0]), ([2.0, -1.0], [3.0, -3.0, 0.0])],
)
def test_amer_price_ignores_atom_order(tmp_path, capsys, xs, ys):
    assert main(["amer", "--input", _amer_input(tmp_path, xs, ys)]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    mu, nu = DiscreteMeasure(list(MU), list(MU.values())), DiscreteMeasure(list(NU), list(NU.values()))
    phi2 = [[PHI2.get((x, y), 0.0) for y in nu.atoms] for x in mu.atoms]
    expected = price_american(mu, nu, [PHI1[x] for x in mu.atoms], phi2)["value"]
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(23 / 12, abs=1e-9)


def test_amer_merged_atoms_are_a_config_error(tmp_path, capsys):
    path = tmp_path / "amer.json"
    path.write_text(json.dumps({
        "mu": {"atoms": [0.0, 1e-14], "weights": [0.5, 0.5]},
        "nu": {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]},
        "phi1": [0.0, 1.0],
        "phi2": [[0.0, 0.0], [1.0, 1.0]],
    }))
    assert main(["amer", "--input", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("payoff", ["phi1", "phi2"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_amer_non_finite_payoff_is_a_config_error(tmp_path, capsys, payoff, bad):
    with open(_amer_input(tmp_path, [-1.0, 2.0], [-3.0, 0.0, 3.0])) as fh:
        data = json.load(fh)
    (data["phi1"] if payoff == "phi1" else data["phi2"][1])[0] = bad
    assert main(["amer", "--input", _input(tmp_path, data)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_input_is_a_config_error(tmp_path, capsys, bad):
    path = tmp_path / "mot.json"
    path.write_text(json.dumps({
        "mu": {"atoms": [0.0], "weights": [1.0]},
        "nu": {"atoms": [-1.0, bad], "weights": [0.5, 0.5]},
    }))
    assert main(["mot", "--input", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


# mu <=_cx nu: nu spreads each mu atom x to x - 1 and x + 1 (VIX: to x -+ 0.1)
SPREAD = {
    "mu": {"atoms": [-1.0, 0.0, 1.0], "weights": [0.25, 0.5, 0.25]},
    "nu": {"atoms": [-2.0, -1.0, 0.0, 1.0, 2.0], "weights": [0.125, 0.25, 0.25, 0.25, 0.125]},
}
POSITIVE = {
    "mu": {"atoms": [0.9, 1.0, 1.1], "weights": [0.25, 0.5, 0.25]},
    "nu": {"atoms": [0.8, 0.9, 1.0, 1.1, 1.2], "weights": [0.125, 0.25, 0.25, 0.25, 0.125]},
}
# repeated mu and nu atoms, whose weights are summed when the measure is built
REPEATED = {
    "mu": {"atoms": [1.3, 0.3, 0.3, -0.7, -0.7, -0.7], "weights": [0.05, 0.25, 0.18, 0.2, 0.13, 0.19]},
    "nu": {
        "atoms": [0.3, 2.3, -0.7, 1.3, -0.7, 1.3, -1.7, 0.3, -1.7, 0.3, -1.7, 0.3],
        "weights": [0.025, 0.025, 0.125, 0.125, 0.09, 0.09, 0.1, 0.1, 0.065, 0.065, 0.095, 0.095],
    },
}
LIFTED = {
    "mu_bar": {"atoms": [[-1.0, 0.2], [0.0, 0.5], [0.0, 0.8], [1.0, 0.5]], "weights": [0.25, 0.25, 0.25, 0.25]},
    "nu": SPREAD["nu"],
}
# the smallest `emot approx` input: a coupling that spreads -1 and 1 to -2, 0 and 2, with its own marginals
APPROX = {
    "coupling": {
        "first_marginal": {"atoms": [[-1.0, 0.0], [1.0, 0.0]], "weights": [0.5, 0.5]},
        "y_support": [-2.0, 0.0, 2.0],
        "kernels": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]],
    },
    "mu_bar": {"atoms": [[-1.0, 0.0], [1.0, 0.0]], "weights": [0.5, 0.5]},
    "nu": {"atoms": [-2.0, 0.0, 2.0], "weights": [0.25, 0.5, 0.25]},
}


def _with_kernels(kernels):
    return {**APPROX, "coupling": {**APPROX["coupling"], "kernels": kernels}}


def _exit_code(argv) -> int:
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _input(tmp_path, data, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "command, data",
    [
        ("mot", {**SPREAD, "mu": {"atoms": [0.0], "weights": [-1.0]}}),
        ("mot", {**SPREAD, "mu": {"atoms": [-1.0, 0.0, 1.0], "weights": [0.5, 0.5]}}),
        ("mot", {**SPREAD, "mu": {"atoms": [], "weights": []}}),
        ("mot", {**SPREAD, "nu": {"atoms": [], "weights": []}}),
        ("emot", {**LIFTED, "mu_bar": {"atoms": [[0.0, 0.5]], "weights": [-1.0]}}),
        ("vix", {**POSITIVE, "nu": {"atoms": [0.0, 2.0], "weights": [0.5, 0.5]}}),
        ("approx", _with_kernels([[0.5, 0.4, 0.0], [0.0, 0.5, 0.5]])),
        ("approx", _with_kernels([[0.5, 0.5], [0.5, 0.5]])),
        ("approx", _with_kernels([[float("nan"), 0.5, 0.0], [0.0, 0.5, 0.5]])),
    ],
    ids=["negative-weight", "lengths-differ", "empty-mu", "empty-nu", "negative-lifted-weight", "vix-nu-atom-at-0",
         "kernel-rows-off", "kernel-shape", "nan-kernel"],
)
def test_bad_marginal_is_a_config_error(tmp_path, capsys, command, data):
    assert main([command, "--input", _input(tmp_path, data)]) == 2
    assert "config error" in capsys.readouterr().err


def test_approx_refuses_a_first_marginal_heavier_than_the_couplings(tmp_path, capsys):
    data = {
        "coupling": {"first_marginal": {"atoms": [[0.0, 0.0]], "weights": [1.0]},
                     "y_support": [-1.0, 1.0], "kernels": [[0.5, 0.5]]},
        "mu_bar": {"atoms": [[0.01, 0.0]], "weights": [2.0]},
        "nu": {"atoms": [-1.0, 1.02], "weights": [1.0, 1.0]},
    }
    assert main(["approx", "--input", _input(tmp_path, data)]) == 3
    assert "equal masses" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, data, args",
    [
        ("mot", SPREAD, []),
        ("emot", LIFTED, []),
        ("shadow", SPREAD, ["--copula", "independence", "--m", "2"]),
        ("vix", POSITIVE, ["--bins", "4"]),
        ("decompose", SPREAD, []),
        ("mot", REPEATED, []),
        ("approx", APPROX, []),
    ],
)
@pytest.mark.parametrize("order", ["reversed", "rolled"])
def test_output_ignores_atom_order(tmp_path, command, data, args, order):
    def shuffled(n):
        idx = np.arange(n)
        return idx[::-1] if order == "reversed" else np.roll(idx, 1)

    def permuted(item):
        if "kernels" in item:  # a coupling: atoms with their kernel rows, y with the kernel columns
            rows, cols = shuffled(len(item["kernels"])), shuffled(len(item["y_support"]))
            return {"first_marginal": permuted(item["first_marginal"]),
                    "y_support": [item["y_support"][j] for j in cols],
                    "kernels": [[item["kernels"][i][j] for j in cols] for i in rows]}
        idx = shuffled(len(item["weights"]))
        return {key: [item[key][i] for i in idx] for key in ("atoms", "weights")}

    outputs = []
    for name, d in [("sorted", data), ("permuted", {key: permuted(m) for key, m in data.items()})]:
        out = tmp_path / f"{name}.out"
        assert main([command, "--input", _input(tmp_path, d, f"{name}.json"), "--out", str(out)] + args) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


FLAG_INPUTS = {"vix": POSITIVE, "shadow": SPREAD, "wmot": LIFTED, "approx": APPROX}


@pytest.mark.parametrize(
    "command, flags",
    [
        ("vix", ["--tau", "0"]), ("vix", ["--tau", "-1"]), ("vix", ["--bins", "0"]), ("shadow", ["--m", "0"]),
        ("wmot", ["--tol", "0"]), ("wmot", ["--tol", "-1"]), ("wmot", ["--tol", "nan"]),
        ("approx", ["--eps", "-0.5"]), ("approx", ["--eps", "2"]), ("approx", ["--eps", "nan"]),
    ],
)
def test_non_positive_flag_is_a_usage_error(tmp_path, capsys, command, flags):
    assert _exit_code([command, "--input", _input(tmp_path, FLAG_INPUTS[command])] + flags) == 2
    assert f"error: argument {flags[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags", [("wmot", ["--tol", "1e-6"]), ("approx", ["--eps", "0"]), ("approx", ["--eps", "1"])]
)
def test_flag_at_its_bound_runs(tmp_path, command, flags):
    assert _exit_code([command, "--input", _input(tmp_path, FLAG_INPUTS[command])] + flags) == 0


@pytest.mark.parametrize(
    "override",
    [
        {"seed": "x"},
        {"scales": ["a"]},
        {"problem": "shadow", "copula_m": 0},
        {"problem": "vix", "tau": 0},
        {"problem": "vix", "bins": 0},
        {"problem": "vix", "bins": 100},
        {"scales": [float("nan"), 0.1]},
        {"scales": [float("inf"), 0.1]},
        {"problem": "vix", "tau": float("inf")},
        {"problem": "vix", "tau": float("nan")},
        {"problem": "shadow", "barrier_threshold": -3},
        {"problem": "shadow", "barrier_threshold": float("inf")},
        {"problem": "shadow", "barrier_threshold": float("nan")},
        {"mu": {"atoms": [0], "weights": [0]}},  # no mass, as `emot mot` reads it
    ],
)
def test_bad_stability_config_is_a_config_error(tmp_path, capsys, override):
    config = {**POSITIVE, "problem": "mot", "scales": [0.1], **override}
    path = _input(tmp_path, config, "config.json")
    assert _exit_code(["stability", "--config", path, "--out-prefix", str(tmp_path / "report")]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_stability_format_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(config):
        raise AssertionError("the stability run started")

    monkeypatch.setattr(cli, "run_stability", no_run)
    config = _input(tmp_path, {**POSITIVE, "scales": [0.1]}, "config.json")
    prefix = str(tmp_path / "r")
    assert _exit_code(["stability", "--config", config, "--out-prefix", prefix, "--formats", "csv,bogus"]) == 2
    assert "error: argument --formats" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_infeasible_lp_is_an_lp_error_and_exit_3(tmp_path, capsys, monkeypatch):
    def infeasible(*args, **kwargs):
        raise LPError("infeasible", "LP infeasible: HiGHS model status Infeasible")

    monkeypatch.setattr(lp_core, "linprog", infeasible)
    mu, nu = (DiscreteMeasure(SPREAD[k]["atoms"], SPREAD[k]["weights"]) for k in ("mu", "nu"))
    with pytest.raises(LPError) as err:
        solve_mot(mu, nu, CostSpec(fn=COSTS["abs"]))
    assert err.value.status == "infeasible"
    assert main(["mot", "--input", _input(tmp_path, SPREAD)]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_shadow_calls_no_lp(tmp_path, monkeypatch):
    args = ["shadow", "--input", _input(tmp_path, SPREAD), "--copula", "independence", "--m", "2"]
    assert main(args + ["--out", str(tmp_path / "solved.out")]) == 0

    def no_lp(*args, **kwargs):
        raise AssertionError("emot shadow called HiGHS")

    monkeypatch.setattr(lp_core, "linprog", no_lp)
    assert main(args + ["--out", str(tmp_path / "built.out")]) == 0
    assert (tmp_path / "built.out").read_bytes() == (tmp_path / "solved.out").read_bytes()


def test_vix_solves_one_lp(tmp_path, monkeypatch):
    sizes = []

    def spy(lp):
        sizes.append(lp.n_vars)
        return lp_core.solve_lp(lp)

    monkeypatch.setattr(solvers, "solve_lp", spy)
    assert main(["vix", "--input", _input(tmp_path, POSITIVE), "--bins", "4"]) == 0
    # at x = 0.9, 1.0, 1.1: the two-point kernels y_j < x < y_k (1 x 3, 2 x 2, 3 x 1) and delta_x
    assert sizes == [(3 + 1) + (4 + 1) + (3 + 1)]


def test_vix_ignores_bins_and_says_so(tmp_path, capsys):
    outputs = []
    for name, flags in (("plain", []), ("bins", ["--bins", "4"])):
        out = tmp_path / f"{name}.out"
        assert main(["vix", "--input", _input(tmp_path, POSITIVE), "--out", str(out)] + flags) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().err))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == "" and "--bins is ignored" in outputs[1][1]
    data = json.loads(outputs[0][0])
    assert data["d_lo"] == data["d_hi"] == data["value"] and data["value"] - 1e-7 <= data["p_value"] <= data["value"]


def test_broken_vix_portfolio_is_a_certificate_error_and_exit_3(tmp_path, capsys, monkeypatch):
    n, m = (len(POSITIVE[k]["atoms"]) for k in ("mu", "nu"))

    def raised_psi(lp):
        sol = lp_core.solve_lp(lp)
        sol.duals_eq[n : n + m] += 1e-3
        return sol

    monkeypatch.setattr(solvers, "solve_lp", raised_psi)
    mu, nu = (DiscreteMeasure(POSITIVE[k]["atoms"], POSITIVE[k]["weights"]) for k in ("mu", "nu"))
    with pytest.raises(CertificateError):
        vix_dual_lp(mu, nu, 1.0)
    assert main(["vix", "--input", _input(tmp_path, POSITIVE), "--bins", "4"]) == 3
    assert "breaks an inequality" in capsys.readouterr().err


def test_one_parser_serves_successive_calls(tmp_path, capsys):
    # flags given in one call and left at their defaults in the next, and a
    # usage error between them, must not carry over through the shared parser
    calls = [
        ["shadow", "--input", _input(tmp_path, SPREAD, "spread.json"), "--copula", "independence", "--m", "2"],
        ["vix", "--input", _input(tmp_path, POSITIVE, "positive.json"), "--tau", "0.5"],
        ["shadow", "--input", str(tmp_path / "spread.json"), "--m", "0"],
        ["mot", "--input", str(tmp_path / "spread.json"), "--cost", "abs", "--sense", "max"],
        ["shadow", "--input", str(tmp_path / "spread.json")],
        ["vix", "--input", str(tmp_path / "positive.json")],
        ["decompose", "--input", str(tmp_path / "spread.json")],
        ["mot", "--input", str(tmp_path / "spread.json")],
    ]

    def printed(fresh):
        outputs = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            code = _exit_code(argv)
            out = capsys.readouterr().out
            outputs.append((code, json.loads(out) if code == 0 else out))
        return outputs

    shared = printed(fresh=False)
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _ in shared] == [0, 0, 2, 0, 0, 0, 0, 0]
    assert shared == printed(fresh=True)
    assert shared[0][1] != shared[4][1] and shared[1][1] != shared[5][1] and shared[3][1] != shared[7][1]
