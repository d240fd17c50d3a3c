"""Finitely supported measures on the line and on the line with an information label.

Measures are immutable after construction: atoms are sorted, duplicates
(within ``MERGE_TOL``) are merged by summing weights, and all operations
are pure.  Masses other than 1 are allowed so that the same types can
carry subprobability pieces; metric operations for unequal-mass inputs
raise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

MERGE_TOL = 1e-12
MASS_TOL = 1e-12


class EmptyMeasureError(ValueError):
    """Raised when a metric or moment operation receives a zero measure."""


class MassMismatchError(ValueError):
    """Raised when two measures that must carry equal mass do not."""


class NonFiniteError(ValueError):
    """Raised when a measure is given a NaN or infinite atom or weight."""


def _check_finite(atoms: np.ndarray, weights: np.ndarray):
    if not (np.isfinite(atoms).all() and np.isfinite(weights).all()):
        raise NonFiniteError("atoms and weights must be finite")


def _merge_sorted(atoms: np.ndarray, weights: np.ndarray, tol: float = MERGE_TOL):
    """Merge neighbouring atoms closer than tol; weights are summed."""
    if atoms.size == 0:
        return atoms, weights
    out_a = [atoms[0]]
    out_w = [weights[0]]
    for a, w in zip(atoms[1:], weights[1:]):
        if a - out_a[-1] <= tol:
            # mass-weighted position keeps means exact under repeated merges
            tot = out_w[-1] + w
            out_a[-1] = (out_a[-1] * out_w[-1] + a * w) / tot
            out_w[-1] = tot
        else:
            out_a.append(a)
            out_w.append(w)
    return np.array(out_a), np.array(out_w)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative finite measure with finitely many atoms on the real line."""

    atoms: np.ndarray
    weights: np.ndarray
    mass: float = field(init=False)

    def __init__(self, atoms: Sequence[float], weights: Sequence[float]):
        atoms = np.asarray(atoms, dtype=float).ravel()
        weights = np.asarray(weights, dtype=float).ravel()
        if atoms.shape != weights.shape:
            raise ValueError("atoms and weights must have the same length")
        _check_finite(atoms, weights)
        if np.any(weights < -MERGE_TOL):
            raise ValueError("negative weight")
        keep = weights > 0
        atoms, weights = atoms[keep], weights[keep]
        order = np.argsort(atoms, kind="stable")
        atoms, weights = _merge_sorted(atoms[order], weights[order])
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "mass", float(weights.sum()))

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return self.atoms.size

    @property
    def is_zero(self) -> bool:
        return self.atoms.size == 0

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.weights)

    def first_moment(self) -> float:
        """Unnormalized first moment (sum of atom * weight)."""
        return float(np.dot(self.atoms, self.weights))

    def integrate(self, f) -> float:
        """Integral of a vectorizable function against the measure."""
        if self.is_zero:
            return 0.0
        return float(np.dot(np.asarray(f(self.atoms), dtype=float), self.weights))

    # -- algebra ---------------------------------------------------------

    def scaled(self, factor: float) -> "DiscreteMeasure":
        if factor < 0:
            raise ValueError("scaling factor must be nonnegative")
        return DiscreteMeasure(self.atoms, self.weights * factor)

    def normalized(self) -> "DiscreteMeasure":
        if self.mass <= 0:
            raise EmptyMeasureError("empty measure")
        return self.scaled(1.0 / self.mass)

    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        return DiscreteMeasure(
            np.concatenate([self.atoms, other.atoms]),
            np.concatenate([self.weights, other.weights]),
        )

    def restrict(self, lo: float, hi: float, closed: bool = True) -> "DiscreteMeasure":
        """Restriction to the interval [lo, hi] (or (lo, hi) when open)."""
        if closed:
            keep = (self.atoms >= lo) & (self.atoms <= hi)
        else:
            keep = (self.atoms > lo) & (self.atoms < hi)
        return DiscreteMeasure(self.atoms[keep], self.weights[keep])

    def restrict_outside(self, lo: float, hi: float) -> "DiscreteMeasure":
        keep = (self.atoms < lo) | (self.atoms > hi)
        return DiscreteMeasure(self.atoms[keep], self.weights[keep])

    def weight_at(self, x: float, tol: float = MERGE_TOL) -> float:
        i = np.searchsorted(self.atoms, x)
        for j in (i - 1, i):
            if 0 <= j < len(self) and abs(self.atoms[j] - x) <= tol:
                return float(self.weights[j])
        return 0.0

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"atoms": self.atoms.tolist(), "weights": self.weights.tolist()})

    @staticmethod
    def from_json(text: str) -> "DiscreteMeasure":
        data = json.loads(text)
        return DiscreteMeasure(data["atoms"], data["weights"])

    def __repr__(self) -> str:
        pairs = ", ".join(f"{a:g}: {w:g}" for a, w in zip(self.atoms, self.weights))
        return f"DiscreteMeasure({{{pairs}}})"


@dataclass(frozen=True)
class LiftedMeasure:
    """Measure on R x U where the information space U is a finite set of real labels."""

    atoms: np.ndarray  # shape (n, 2), lexicographically sorted rows (x, u)
    weights: np.ndarray

    def __init__(self, atoms: Sequence[Sequence[float]], weights: Sequence[float]):
        atoms = np.asarray(atoms, dtype=float).reshape(-1, 2)
        weights = np.asarray(weights, dtype=float).ravel()
        if atoms.shape[0] != weights.shape[0]:
            raise ValueError("atoms and weights must have the same length")
        _check_finite(atoms, weights)
        if np.any(weights < -MERGE_TOL):
            raise ValueError("negative weight")
        keep = weights > 0
        atoms, weights = atoms[keep], weights[keep]
        order = np.lexsort((atoms[:, 1], atoms[:, 0]))
        atoms, weights = atoms[order], weights[order]
        # merge pairs equal within tolerance in both coordinates
        out_a: list[np.ndarray] = []
        out_w: list[float] = []
        for a, w in zip(atoms, weights):
            if out_a and abs(a[0] - out_a[-1][0]) <= MERGE_TOL and abs(a[1] - out_a[-1][1]) <= MERGE_TOL:
                out_w[-1] += w
            else:
                out_a.append(a)
                out_w.append(w)
        atoms = np.array(out_a).reshape(-1, 2)
        weights = np.array(out_w)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.atoms.shape[0]

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @property
    def xs(self) -> np.ndarray:
        return self.atoms[:, 0]

    @property
    def us(self) -> np.ndarray:
        return self.atoms[:, 1]

    def x_marginal(self) -> DiscreteMeasure:
        return DiscreteMeasure(self.xs, self.weights)

    def u_marginal(self) -> DiscreteMeasure:
        return DiscreteMeasure(self.us, self.weights)

    def scaled(self, factor: float) -> "LiftedMeasure":
        return LiftedMeasure(self.atoms, self.weights * factor)

    def __add__(self, other: "LiftedMeasure") -> "LiftedMeasure":
        return LiftedMeasure(
            np.concatenate([self.atoms, other.atoms]),
            np.concatenate([self.weights, other.weights]),
        )

    def restrict_x(self, keep_mask: np.ndarray) -> "LiftedMeasure":
        return LiftedMeasure(self.atoms[keep_mask], self.weights[keep_mask])

    def to_json(self) -> str:
        return json.dumps({"atoms": self.atoms.tolist(), "weights": self.weights.tolist()})

    @staticmethod
    def from_json(text: str) -> "LiftedMeasure":
        data = json.loads(text)
        return LiftedMeasure(data["atoms"], data["weights"])

    @staticmethod
    def from_measure(m: DiscreteMeasure, label: float = 0.0) -> "LiftedMeasure":
        atoms = np.column_stack([m.atoms, np.full(len(m), label)])
        return LiftedMeasure(atoms, m.weights)


class QuantileView:
    """Generalized inverse of the CDF of a discrete measure.

    The quantile function is the right-continuous step function with
    Q(q) = atom_i for q in (c_{i-1}, c_i], c the cumulative weights.
    """

    def __init__(self, m: DiscreteMeasure):
        if m.is_zero:
            raise EmptyMeasureError("empty measure")
        self.measure = m
        self.cum = m.cumulative()

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        idx = np.searchsorted(self.cum, q, side="left")
        idx = np.clip(idx, 0, len(self.measure) - 1)
        return self.measure.atoms[idx]

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.measure.atoms, x, side="right")
        cum = np.concatenate([[0.0], self.cum])
        return cum[idx]

    def cell_restriction(self, q_lo: float, q_hi: float) -> DiscreteMeasure:
        """Submeasure carrying the quantile mass of (q_lo, q_hi]."""
        cum = np.concatenate([[0.0], self.cum])
        atoms, weights = [], []
        for i, a in enumerate(self.measure.atoms):
            w = min(cum[i + 1], q_hi) - max(cum[i], q_lo)
            if w > 0:
                atoms.append(a)
                weights.append(w)
        return DiscreteMeasure(atoms, weights)


# -- operations ----------------------------------------------------------


def mean(m: DiscreteMeasure) -> float:
    """Barycentre of a measure with positive mass."""
    if m.mass <= 0:
        raise EmptyMeasureError("empty measure")
    return m.first_moment() / m.mass


def wasserstein_line(m1: DiscreteMeasure, m2: DiscreteMeasure, p: float = 1.0) -> float:
    """p-Wasserstein distance on the line via the quantile formula.

    For equal-mass inputs with mass different from 1 this computes the
    normalized convention mass^(1/p) * W_p of the normalized measures,
    which equals the quantile integral over [0, mass].
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if m1.mass <= 0 or m2.mass <= 0:
        raise EmptyMeasureError("empty measure")
    if abs(m1.mass - m2.mass) > MASS_TOL * max(1.0, m1.mass):
        raise MassMismatchError(f"masses differ: {m1.mass} vs {m2.mass}")
    c1, c2 = m1.cumulative(), m2.cumulative()
    grid = np.union1d(c1, c2)
    grid = grid[grid <= min(c1[-1], c2[-1]) + MASS_TOL]
    seg = np.diff(np.concatenate([[0.0], grid]))
    q1 = m1.atoms[np.clip(np.searchsorted(c1, grid - 1e-15, side="left"), 0, len(m1) - 1)]
    q2 = m2.atoms[np.clip(np.searchsorted(c2, grid - 1e-15, side="left"), 0, len(m2) - 1)]
    if p == 1:
        return float(np.dot(np.abs(q1 - q2), seg))
    return float(np.dot(np.abs(q1 - q2) ** p, seg) ** (1.0 / p))


def potential_values(m: DiscreteMeasure, ys) -> np.ndarray:
    """Potential u_m(y) = integral of |y - x| dm(x), vectorized in y."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if m.is_zero:
        return np.zeros_like(ys)
    return np.abs(ys[:, None] - m.atoms[None, :]) @ m.weights


def check_convex_order(m1: DiscreteMeasure, m2: DiscreteMeasure, tol: float = 1e-9):
    """Decide m1 <=_cx m2 via potentials.

    Returns (ordered, witness); witness is a point where the potential of
    m1 exceeds that of m2 beyond tolerance, or None.  Both potentials are
    piecewise linear with kinks only at atoms, so checking mass, mean, and
    domination at the union of atoms is sufficient.
    """
    if m1.mass <= 0 or m2.mass <= 0:
        raise EmptyMeasureError("empty measure")
    scale = max(1.0, m1.mass, abs(m1.first_moment()), abs(m2.first_moment()))
    if abs(m1.mass - m2.mass) > tol * scale:
        return False, None
    if abs(m1.first_moment() - m2.first_moment()) > tol * scale:
        return False, None
    pts = np.union1d(m1.atoms, m2.atoms)
    gap = potential_values(m1, pts) - potential_values(m2, pts)
    i = int(np.argmax(gap))
    if gap[i] > tol * scale:
        return False, float(pts[i])
    return True, None


def quantile_discretize(m: DiscreteMeasure, k: int) -> DiscreteMeasure:
    """Conditional means on k equal quantile cells; mass and mean preserved.

    The output is dominated by m in convex order (Jensen on each cell).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if m.mass <= 0:
        raise EmptyMeasureError("empty measure")
    qv = QuantileView(m)
    atoms, weights = [], []
    for i in range(k):
        cell = qv.cell_restriction(i * m.mass / k, (i + 1) * m.mass / k)
        if cell.mass > 0:
            atoms.append(mean(cell))
            weights.append(cell.mass)
    return DiscreteMeasure(atoms, weights)


def total_variation(m1: DiscreteMeasure, m2: DiscreteMeasure) -> float:
    """Half the sum over the union support of absolute weight differences.

    The halving matches the usual probability convention, so that two
    mutually singular probabilities are at distance 1.
    """
    support = np.union1d(m1.atoms, m2.atoms)
    diff = 0.0
    for x in support:
        diff += abs(m1.weight_at(x) - m2.weight_at(x))
    return 0.5 * diff
