"""Stability experiment harness: perturb marginals at decreasing scales,
repair convex order, re-solve, and report value and coupling gaps.

The base problem is solved first.  For mot its LP's basis then starts each
perturbed LP of the same shape (``solve_lp``'s start), so HiGHS's dual
simplex restarts from the base optimum instead of pivoting from scratch:
``atom_jitter`` and ``mass_jitter`` keep the shape; ``quantile_discretize``
changes nu's size, and a pair of another shape is solved cold.  A row
still depends only on the config, because its start is the base solve's,
which depends only on the base problem.

The base solve is shared across runs in one process: the last
``BASE_CACHE_SIZE`` base results are kept, least recently used first out,
keyed by what ``_solve`` reads (the problem, the bytes of mu's and nu's
atoms and weights, tau and copula_m), so runs of one pair under other
perturbation families, seeds or scales solve it once.  Every base solve
is deterministic (HiGHS gives bitwise the same result on every solve of
an LP), so a shared base changes no bit of a row.  A kept coupling's arrays are read-only, and a base solve
that raises keeps nothing.  Rows and reports are not kept: they repeat
only when one config runs twice, and keeping them would save no work a
study needs.

Reports are deterministic for a fixed config and seed: the random
generator is a seeded 64-bit PCG and serialization uses sorted keys with
round-trip-exact floats.  Wall-clock timings are therefore excluded from
emitted reports unless explicitly requested.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .convex_order import ConvexOrderError, convex_order_projection
from .couplings import _point_cost, adapted_wasserstein, hausdorff_mot
from .measures import (
    DiscreteMeasure,
    LiftedMeasure,
    quantile_discretize,
    total_variation,
    wasserstein_line,
)
from .solvers import (
    COSTS,
    KERNEL_COSTS,
    CostSpec,
    copula_lift,
    extract_barriers,
    price_american,
    shadow_coupling,
    solve_mot,
    solve_wmot_fw,
    vix_dual_lp,
)

SCHEMA_VERSION = 1

PERTURBATIONS = ("quantile_discretize", "atom_jitter", "mass_jitter")
PROBLEMS = ("mot", "wmot", "amer", "vix", "shadow")
BASE_CACHE_SIZE = 16  # base results kept, each with its coupling and basis
_BASES: OrderedDict = OrderedDict()  # least recently used first


class ConfigError(ValueError):
    pass


def read_measure(kind, data):
    """A measure or coupling ``kind`` read from an input's dict form; one it
    refuses, or one with no mass, is a ``ConfigError``."""
    try:
        m = kind.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind.__name__}: {exc}") from exc
    if m.mass <= 0:
        raise ConfigError(f"bad {kind.__name__}: empty measure")
    return m


def _is(value, kind) -> bool:
    """Whether value is a number of the ``numbers`` kind; a bool is not."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    mu: DiscreteMeasure
    nu: DiscreteMeasure
    problem: str = "mot"
    perturbation: str = "atom_jitter"
    scales: tuple = (0.1, 0.05, 0.025)
    seed: int = 0
    tau: float = 1.0
    copula_m: int = 8
    barrier_threshold: float = 0.25
    include_timings: bool = False

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}")
        if self.perturbation not in PERTURBATIONS:
            raise ConfigError(f"unknown perturbation {self.perturbation!r}")
        if not _is(self.seed, numbers.Integral):
            raise ConfigError("seed must be an integer")
        if not (_is(self.tau, numbers.Real) and 0 < self.tau < np.inf):
            raise ConfigError("tau must be positive and finite")
        if not (_is(self.barrier_threshold, numbers.Real) and 0 <= self.barrier_threshold < np.inf):
            raise ConfigError("barrier_threshold must be nonnegative and finite")
        if not (_is(self.copula_m, numbers.Integral) and self.copula_m >= 1):
            raise ConfigError("copula_m must be a positive integer")
        if not all(_is(s, numbers.Real) for s in self.scales):
            raise ConfigError("scales must be numbers")
        scales = tuple(float(s) for s in self.scales)
        if len(scales) == 0 or not all(0 < s < np.inf for s in scales):
            raise ConfigError("scales must be positive and finite")
        if any(s2 >= s1 for s1, s2 in zip(scales, scales[1:])):
            raise ConfigError("scales must be strictly decreasing")
        self.scales = scales

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        data = json.loads(text)
        try:
            mu = read_measure(DiscreteMeasure, data["mu"])
            nu = read_measure(DiscreteMeasure, data["nu"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad marginals in config: {exc}") from exc
        kwargs = {k: v for k, v in data.items() if k not in ("mu", "nu")}
        try:
            return ExperimentConfig(mu=mu, nu=nu, **kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass
class StabilityReport:
    schema_version: int
    problem: str
    perturbation: str
    seed: int
    rows: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "problem": self.problem,
            "perturbation": self.perturbation,
            "seed": self.seed,
            "rows": self.rows,
        }


ROW_FIELDS = [
    "scale",
    "status",
    "reason",
    "w1_mu",
    "w1_nu",
    "value_base",
    "value_pert",
    "value_gap",
    "aw_gap",
    "hausdorff_lower",
    "hausdorff_upper",
    "barrier_exceedance",
    "kernel_tv",
    "time_s",
]


def perturb_marginals(mu: DiscreteMeasure, nu: DiscreteMeasure, family: str, scale: float, rng):
    """One perturbation draw; the returned pair is repaired into convex order."""
    if family == "quantile_discretize":
        k = max(2, int(np.ceil(1.0 / scale)))
        mu_p = mu
        nu_raw = quantile_discretize(nu, k)
    elif family == "atom_jitter":
        mu_p = DiscreteMeasure(mu.atoms + scale * rng.uniform(-1, 1, len(mu)), mu.weights)
        nu_raw = DiscreteMeasure(nu.atoms + scale * rng.uniform(-1, 1, len(nu)), nu.weights)
    elif family == "mass_jitter":
        w = nu.weights * (1.0 + scale * rng.uniform(-1, 1, len(nu)))
        nu_raw = DiscreteMeasure(nu.atoms, w * (nu.mass / w.sum()))
        mu_p = mu
    else:
        raise ConfigError(f"unknown perturbation {family!r}")
    shift = mu_p.first_moment() / mu_p.mass - nu_raw.first_moment() / nu_raw.mass
    nu_raw = DiscreteMeasure(nu_raw.atoms + shift, nu_raw.weights)
    nu_p = convex_order_projection(mu_p, nu_raw)
    return mu_p, nu_p


def _barrier_exceedance(c_base, c_pert, threshold: float) -> tuple:
    """Mass where the perturbed barriers drift beyond the threshold on the
    region of genuinely binary base kernels, plus a total-variation
    diagnostic of the lifted first marginals."""
    bm0, _ = extract_barriers(c_base)
    bm1, _ = extract_barriers(c_pert)
    if len(bm1.weights):
        # each base atom is compared with the L1-nearest perturbed atom
        j = _point_cost(bm0.atoms, bm1.atoms).argmin(axis=1)
        drift = np.abs(bm1.t1[j] - bm0.t1) + np.abs(bm1.t2[j] - bm0.t2)
    else:
        drift = np.full(len(bm0.weights), np.inf)
    exceed = float(bm0.weights[(bm0.t1 != bm0.t2) & (drift > threshold)].sum())
    tv = total_variation(
        c_base.first_marginal.x_marginal(), c_pert.first_marginal.x_marginal()
    )
    return exceed, tv


def _solve(problem: str, mu, nu, cfg: ExperimentConfig, start=None):
    """The problem's value, its coupling (None for amer) and, for mot, its
    LP's basis (None otherwise), which ``start`` passes to a perturbed
    pair's solve."""
    if problem == "mot":
        r = solve_mot(mu, nu, CostSpec(fn=COSTS["abs"]), start=start)
        return r["value"], r["coupling"], r["basis"]
    if problem == "wmot":
        r = solve_wmot_fw(LiftedMeasure.from_measure(mu), nu, KERNEL_COSTS["meanabs_sq"], tol=1e-8)
        if r["fw_gap"] > 1e-6:
            raise RuntimeError(f"Frank-Wolfe gap {r['fw_gap']:.2e} above certificate")
        return r["value"], r["coupling"], None
    if problem == "amer":
        r = price_american(mu, nu, np.maximum(mu.atoms, 0.0), np.tile(np.maximum(nu.atoms, 0.0), (len(mu), 1)))
        return r["value"], None, None
    if problem == "vix":
        r = vix_dual_lp(mu, nu, cfg.tau)
        return r["value"], r["coupling"], None
    if problem == "shadow":
        mb = copula_lift(mu, "hoeffding_frechet", cfg.copula_m)
        r = shadow_coupling(mb, nu)
        return r["value"], r["coupling"], None
    raise ConfigError(f"unknown problem {problem!r}")


def _base_solve(config: ExperimentConfig):
    """``_solve`` on the config's base pair, shared with every earlier run
    of the same base problem among the last ``BASE_CACHE_SIZE``."""
    mu, nu = config.mu, config.nu
    key = (config.problem, mu.atoms.tobytes(), mu.weights.tobytes(), nu.atoms.tobytes(), nu.weights.tobytes(),
           config.tau, config.copula_m)
    base = _BASES.pop(key, None)
    if base is None:
        base = _solve(config.problem, mu, nu, config)
        coupling = base[1]
        if coupling is not None:
            for a in (coupling.y_support, coupling.kernels, coupling.first_marginal.atoms,
                      coupling.first_marginal.weights):
                a.flags.writeable = False
    _BASES[key] = base
    while len(_BASES) > BASE_CACHE_SIZE:
        _BASES.popitem(last=False)
    return base


def run_stability(config: ExperimentConfig) -> StabilityReport:
    """Run the perturbation ladder and collect per-scale gap rows.

    Any stage failure marks that scale's row with a tagged reason and the
    remaining scales still run.
    """
    rng = np.random.default_rng(config.seed)
    base_value, base_coupling, base_basis = _base_solve(config)
    rows = []
    for scale in config.scales:
        row = {f: None for f in ROW_FIELDS}
        row["scale"] = scale
        t0 = time.perf_counter()
        try:
            mu_p, nu_p = perturb_marginals(
                config.mu, config.nu, config.perturbation, scale, rng
            )
            row["w1_mu"] = wasserstein_line(config.mu, mu_p)
            row["w1_nu"] = wasserstein_line(config.nu, nu_p)
            value_p, coupling_p, _ = _solve(config.problem, mu_p, nu_p, config, base_basis)
            row["value_base"] = base_value
            row["value_pert"] = value_p
            row["value_gap"] = abs(value_p - base_value)
            if base_coupling is not None and coupling_p is not None:
                row["aw_gap"] = adapted_wasserstein(base_coupling, coupling_p)
            if config.problem == "mot" and len(config.mu) * len(config.nu) <= 12:
                h = hausdorff_mot(
                    LiftedMeasure.from_measure(config.mu),
                    config.nu,
                    LiftedMeasure.from_measure(mu_p),
                    nu_p,
                )
                row["hausdorff_lower"] = h["lower"]
                row["hausdorff_upper"] = h["upper"]
            if config.problem == "shadow":
                exceed, tv = _barrier_exceedance(
                    base_coupling, coupling_p, config.barrier_threshold
                )
                row["barrier_exceedance"] = exceed
                row["kernel_tv"] = tv
            row["status"] = "ok"
            row["reason"] = ""
        except (ConvexOrderError, RuntimeError, ValueError, AssertionError) as exc:
            row["status"] = "error"
            row["reason"] = f"{type(exc).__name__}: {exc}"
        if config.include_timings:
            row["time_s"] = time.perf_counter() - t0
        rows.append(row)
    return StabilityReport(SCHEMA_VERSION, config.problem, config.perturbation, config.seed, rows)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit(report: StabilityReport, fmt: str) -> str:
    """Serialize a report; floats use repr so values round-trip exactly."""
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ROW_FIELDS)
        for row in report.rows:
            writer.writerow([_fmt(row[f]) for f in ROW_FIELDS])
        return buf.getvalue()
    if fmt == "plotdata":
        curves: dict[str, list] = {}
        for key in ("value_gap", "aw_gap", "w1_nu", "barrier_exceedance"):
            series = [
                [row["scale"], row[key]]
                for row in report.rows
                if row["status"] == "ok" and row[key] is not None
            ]
            if series:
                curves[key] = series
        return json.dumps(curves, sort_keys=True, indent=2) + "\n"
    raise ConfigError(f"unknown format {fmt!r}")
