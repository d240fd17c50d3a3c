"""Command-line interface for the martingale transport toolbox.

Inputs are JSON files; results are printed as JSON or written with
``--out``.  Exit codes: 0 success, 2 configuration / input error,
3 solver error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .approximation import approximate_coupling
from .convex_order import ConvexOrderError, irreducible_decomposition
from .couplings import DiscreteCoupling
from .measures import DiscreteMeasure, LiftedMeasure, NonFiniteError
from .solvers import (
    COSTS,
    KERNEL_COSTS,
    CostSpec,
    copula_lift,
    price_american,
    shadow_coupling,
    solve_extended_mot,
    solve_mot,
    solve_wmot_fw,
    vix_dual_lp,
)
from .stability import ConfigError, ExperimentConfig, emit, read_measure, run_stability

def _checked(kind, ok, what: str):
    """argparse type for a number of the given kind that ``ok`` accepts (NaN fails every comparison)."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _positive(kind):
    return _checked(kind, lambda v: v > 0, "positive")


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _measure(data: dict) -> DiscreteMeasure:
    return read_measure(DiscreteMeasure, data)


def _lifted(data: dict) -> LiftedMeasure:
    return read_measure(LiftedMeasure, data)


def _write(report: dict, out: str | None):
    # no indent: json's C encoder writes the report, where indent takes the Python one
    text = json.dumps(report, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# the file extension of each report format that `emot stability --formats` takes
_EXTENSIONS = {"csv": "csv", "json": "json", "plotdata": "plot.json"}


def cmd_mot(args) -> dict:
    data = _load(args.input)
    r = solve_mot(_measure(data["mu"]), _measure(data["nu"]), CostSpec(fn=COSTS[args.cost]), args.sense)
    return {"value": r["value"], "coupling": r["coupling"].to_dict()}


def cmd_emot(args) -> dict:
    data = _load(args.input)
    r = solve_extended_mot(
        _lifted(data["mu_bar"]), _measure(data["nu"]), CostSpec(fn=COSTS[args.cost]), args.sense
    )
    return {"value": r["value"], "coupling": r["coupling"].to_dict()}


def cmd_wmot(args) -> dict:
    data = _load(args.input)
    r = solve_wmot_fw(_lifted(data["mu_bar"]), _measure(data["nu"]), KERNEL_COSTS[args.cost], tol=args.tol)
    return {
        "value": r["value"],
        "fw_gap": r["fw_gap"],
        "iterations": r["iterations"],
        "coupling": r["coupling"].to_dict(),
    }


def _file_order(data: dict, m) -> np.ndarray:
    """Positions in the file of the sorted atoms of ``m``, built from ``data``."""
    atoms, weights = np.asarray(data["atoms"], dtype=float), np.asarray(data["weights"], dtype=float)
    kept = np.flatnonzero(weights > 0)
    if kept.size != len(m):
        raise ConfigError("atoms closer than the merge tolerance cannot be paired with payoffs")
    return kept[np.argsort(atoms[kept], kind="stable")]


def cmd_amer(args) -> dict:
    data = _load(args.input)
    mu, nu = _measure(data["mu"]), _measure(data["nu"])
    ix, iy = _file_order(data["mu"], mu), _file_order(data["nu"], nu)
    phi1 = np.asarray(data["phi1"], dtype=float)
    phi2 = np.asarray(data["phi2"], dtype=float)
    shape = (len(data["mu"]["atoms"]), len(data["nu"]["atoms"]))
    if phi1.shape != shape[:1] or phi2.shape != shape:
        raise ConfigError("phi1 needs one payoff per mu atom and phi2 one row per mu atom, one column per nu atom")
    if not (np.isfinite(phi1).all() and np.isfinite(phi2).all()):
        raise ConfigError("payoffs phi1 and phi2 must be finite")
    r = price_american(mu, nu, phi1[ix], phi2[np.ix_(ix, iy)])
    return {
        "value": r["value"],
        "exercise_mass": r["exercise_mass"],
        "continue_mass": r["continue_mass"],
    }


def cmd_vix(args) -> dict:
    if args.bins is not None:
        sys.stderr.write("emot vix: --bins is ignored, the VIX LP is exact\n")
    data = _load(args.input)
    mu, nu = _measure(data["mu"]), _measure(data["nu"])
    if min(mu.atoms.min(), nu.atoms.min()) <= 0:
        raise ConfigError("VIX marginals must be supported on (0, inf)")
    r = vix_dual_lp(mu, nu, args.tau)
    # the value is exact, so a reader of the bracket keys d_lo, d_hi gets it twice
    return {"value": r["value"], "d_lo": r["value"], "d_hi": r["value"], "p_value": r["p_value"], "tau": args.tau}


def cmd_shadow(args) -> dict:
    data = _load(args.input)
    mu, nu = _measure(data["mu"]), _measure(data["nu"])
    mb = copula_lift(mu, args.copula, args.m)
    r = shadow_coupling(mb, nu)
    return {"value": r["value"], "coupling": r["coupling"].to_dict()}


def cmd_decompose(args) -> dict:
    data = _load(args.input)
    d = irreducible_decomposition(_measure(data["mu"]), _measure(data["nu"]))
    return {
        "components": [
            {"interval": list(c.interval), "mu": c.mu.to_dict(), "nu": c.nu.to_dict()}
            for c in d.components
        ],
        "stationary": d.stationary.to_dict() if not d.stationary.is_zero else None,
    }


def cmd_approx(args) -> dict:
    data = _load(args.input)
    pi = read_measure(DiscreteCoupling, data["coupling"])
    out, diag = approximate_coupling(
        pi, _lifted(data["mu_bar"]), _measure(data["nu"]), args.eps
    )
    return {"aw1": diag["aw1"], "stages": diag["stages"], "coupling": out.to_dict()}


def cmd_stability(args) -> dict:
    with open(args.config) as fh:
        config = ExperimentConfig.from_json(fh.read())
    report = run_stability(config)
    written = []
    for fmt in args.formats:
        text = emit(report, fmt)
        path = f"{args.out_prefix}.{_EXTENSIONS[fmt]}"
        with open(path, "w") as fh:
            fh.write(text)
        written.append(path)
    return {"rows": len(report.rows), "files": written}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing changes no state of it,
    and a process that calls ``main`` many times saves the 2 ms it takes."""
    p = argparse.ArgumentParser(prog="emot", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--input", required=True, help="JSON input file")
        sp.add_argument("--out", help="output JSON path (default: stdout)")

    sp = sub.add_parser("mot", help="martingale optimal transport")
    common(sp)
    sp.add_argument("--cost", choices=sorted(COSTS), default="abs")
    sp.add_argument("--sense", choices=["min", "max"], default="min")
    sp.set_defaults(fn=cmd_mot)

    sp = sub.add_parser("emot", help="lifted martingale transport")
    common(sp)
    sp.add_argument("--cost", choices=sorted(COSTS), default="abs")
    sp.add_argument("--sense", choices=["min", "max"], default="min")
    sp.set_defaults(fn=cmd_emot)

    sp = sub.add_parser("wmot", help="convex kernel cost via Frank-Wolfe")
    common(sp)
    sp.add_argument("--cost", choices=sorted(KERNEL_COSTS), default="meanabs_sq")
    sp.add_argument("--tol", type=_positive(float), default=1e-8)
    sp.set_defaults(fn=cmd_wmot)

    sp = sub.add_parser("amer", help="two-date American option price")
    common(sp)
    sp.set_defaults(fn=cmd_amer)

    sp = sub.add_parser("vix", help="VIX subreplication value and portfolio")
    common(sp)
    sp.add_argument("--tau", type=_positive(float), default=1.0)
    sp.add_argument("--bins", type=_positive(int), help="ignored: the VIX LP is exact")
    sp.set_defaults(fn=cmd_vix)

    sp = sub.add_parser("shadow", help="shadow coupling from a copula lift")
    common(sp)
    sp.add_argument("--copula", choices=["hoeffding_frechet", "independence"], default="hoeffding_frechet")
    sp.add_argument("--m", type=_positive(int), default=8)
    sp.set_defaults(fn=cmd_shadow)

    sp = sub.add_parser("decompose", help="irreducible decomposition")
    common(sp)
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("approx", help="coupling approximation pipeline")
    common(sp)
    sp.add_argument("--eps", type=_checked(float, lambda v: 0 <= v <= 1, "in [0, 1]"), default=0.05)
    sp.set_defaults(fn=cmd_approx)

    sp = sub.add_parser("stability", help="stability experiment harness")
    sp.add_argument("--config", required=True, help="JSON config file")
    sp.add_argument("--out-prefix", default="stability_report")
    formats = _checked(lambda text: text.split(","), lambda fmts: set(fmts) <= set(_EXTENSIONS),
                       "a comma-separated list of csv, json and plotdata")
    sp.add_argument("--formats", type=formats, default="csv,json")
    sp.add_argument("--out", help="summary JSON path (default: stdout)")
    sp.set_defaults(fn=cmd_stability)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.fn(args)
    except (ConfigError, NonFiniteError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (ConvexOrderError, RuntimeError, ValueError, AssertionError) as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return 3
    _write(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
