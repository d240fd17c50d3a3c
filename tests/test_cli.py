import json

import numpy as np
import pytest

from emot.cli import main
from emot.measures import DiscreteMeasure
from emot.solvers import price_american

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
