import json

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from emot import lp_core, solvers
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
    expected = price_american(mu, nu, lambda x: PHI1[x], lambda x, y: PHI2.get((x, y), 0.0))["value"]
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
LIFTED = {
    "mu_bar": {"atoms": [[-1.0, 0.2], [0.0, 0.5], [0.0, 0.8], [1.0, 0.5]], "weights": [0.25, 0.25, 0.25, 0.25]},
    "nu": SPREAD["nu"],
}


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
    "command, data, args",
    [
        ("mot", SPREAD, []),
        ("emot", LIFTED, []),
        ("shadow", SPREAD, ["--copula", "independence", "--m", "2"]),
        ("vix", POSITIVE, ["--bins", "4"]),
        ("decompose", SPREAD, []),
    ],
)
@pytest.mark.parametrize("order", ["reversed", "rolled"])
def test_output_ignores_atom_order(tmp_path, command, data, args, order):
    def permuted(measure):
        idx = np.arange(len(measure["weights"]))
        idx = idx[::-1] if order == "reversed" else np.roll(idx, 1)
        return {key: [measure[key][i] for i in idx] for key in ("atoms", "weights")}

    outputs = []
    for name, d in [("sorted", data), ("permuted", {key: permuted(m) for key, m in data.items()})]:
        out = tmp_path / f"{name}.out"
        assert main([command, "--input", _input(tmp_path, d, f"{name}.json"), "--out", str(out)] + args) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "command, flags",
    [("vix", ["--tau", "0"]), ("vix", ["--tau", "-1"]), ("vix", ["--bins", "0"]), ("shadow", ["--m", "0"])],
)
def test_non_positive_flag_is_a_usage_error(tmp_path, command, flags):
    data = POSITIVE if command == "vix" else SPREAD
    assert _exit_code([command, "--input", _input(tmp_path, data)] + flags) == 2


@pytest.mark.parametrize(
    "override",
    [
        {"seed": "x"},
        {"scales": ["a"]},
        {"problem": "shadow", "copula_m": 0},
        {"problem": "vix", "tau": 0},
        {"problem": "vix", "bins": 0},
    ],
)
def test_bad_stability_config_is_a_config_error(tmp_path, capsys, override):
    config = {**POSITIVE, "problem": "mot", "scales": [0.1], **override}
    path = _input(tmp_path, config, "config.json")
    assert _exit_code(["stability", "--config", path, "--out-prefix", str(tmp_path / "report")]) == 2
    assert "config error" in capsys.readouterr().err


def test_infeasible_lp_is_an_lp_error_and_exit_3(tmp_path, capsys, monkeypatch):
    def infeasible(*args, **kwargs):
        return OptimizeResult(status=2, success=False, message="The problem is infeasible.")

    monkeypatch.setattr(lp_core, "linprog", infeasible)
    mu, nu = (DiscreteMeasure(SPREAD[k]["atoms"], SPREAD[k]["weights"]) for k in ("mu", "nu"))
    with pytest.raises(LPError) as err:
        solve_mot(mu, nu, CostSpec(fn=COSTS["abs"]))
    assert err.value.status == "infeasible"
    assert main(["mot", "--input", _input(tmp_path, SPREAD)]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_vix_solves_one_lp(tmp_path, monkeypatch):
    sizes = []

    def spy(lp):
        sizes.append(lp.n_vars)
        return lp_core.solve_lp(lp)

    monkeypatch.setattr(solvers, "solve_lp", spy)
    assert main(["vix", "--input", _input(tmp_path, POSITIVE), "--bins", "4"]) == 0
    assert sizes == [3 * 4 * 5]  # the lower-edge bin LP over (x, bin, y)


def test_broken_vix_portfolio_is_a_certificate_error_and_exit_3(tmp_path, capsys, monkeypatch):
    n, m = (len(POSITIVE[k]["atoms"]) for k in ("mu", "nu"))

    def raised_psi(lp):
        sol = lp_core.solve_lp(lp)
        sol.duals_eq[n : n + m] += 1e-3
        return sol

    monkeypatch.setattr(solvers, "solve_lp", raised_psi)
    mu, nu = (DiscreteMeasure(POSITIVE[k]["atoms"], POSITIVE[k]["weights"]) for k in ("mu", "nu"))
    with pytest.raises(CertificateError):
        vix_dual_lp(mu, nu, 1.0, 4)
    assert main(["vix", "--input", _input(tmp_path, POSITIVE), "--bins", "4"]) == 3
    assert "breaks an inequality" in capsys.readouterr().err
