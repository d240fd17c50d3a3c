"""Finitely supported measures on the line and on the line with an information label.

Measures are immutable after construction, and all operations are pure.
``DiscreteMeasure`` (atoms are points) and ``LiftedMeasure`` (atoms are
(x, u) rows) share one constructor, their algebra (``scaled``, ``+``) and
one dict form, ``{"atoms": ..., "weights": ...}``, the form JSON inputs and
outputs hold.  One rule, ``merge_atoms``, decides which input atoms are one
atom, for both measure types, ``disintegrate`` and ``total_variation``; the
order in which atoms are given changes no bit of any result.  The
constructor validates and merges; ``scaled`` and ``restrict`` take a
positive multiple or a subset of arrays it made canonical, which are
canonical already, and skip that work.  Masses other than 1 are allowed
so that the same types can carry subprobability pieces; metric
operations for unequal-mass inputs raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

MERGE_TOL = 1e-12
MASS_TOL = 1e-12


class EmptyMeasureError(ValueError):
    """Raised when a metric or moment operation receives a zero measure."""


class MassMismatchError(ValueError):
    """Raised when two measures that must carry equal mass do not."""


class NonFiniteError(ValueError):
    """Raised when a measure is given a NaN or infinite atom or weight."""


def merge_atoms(keys: np.ndarray, weights: np.ndarray):
    """Which rows of ``keys`` (points, or (x, u) rows) are one atom.

    Points are sorted, ties broken by weight, so the order of the (point,
    weight) pairs cannot change the result.  A point joins the atom of the
    point before it when it is within ``MERGE_TOL`` of it.  An atom sits at
    its first point plus the mass-weighted mean offset of its points: a
    lone point or an exact repeat keeps its bits, and a near-tie keeps the
    first moment.  (x, u) rows are merged by x first, each row taking the x
    of its atom, then the rows at one x by u.  So any two atoms differ by
    more than ``MERGE_TOL`` in some coordinate, and merging the atoms again
    changes nothing.

    Returns the sorted atoms, their summed weights, the sorted order of the
    rows, and the atom of each sorted row.
    """
    if keys.ndim == 1:
        order = np.lexsort((weights, keys))
        keys = keys[order]
        apart = keys[1:] - keys[:-1] > MERGE_TOL
    else:
        xs, _, order, group = merge_atoms(keys[:, 0], weights)
        if len(xs) == len(keys):  # no two rows share an x atom
            return keys[order], weights[order], order, group
        x = np.empty(len(keys))
        x[order] = xs[group]
        order = np.lexsort((weights, keys[:, 1], x))
        keys = np.column_stack([x, keys[:, 1]])[order]
        apart = (keys[1:, 0] > keys[:-1, 0]) | (keys[1:, 1] - keys[:-1, 1] > MERGE_TOL)
    weights = weights[order]
    if apart.all():
        return keys, weights, order, np.arange(len(keys))
    new = np.concatenate([[True], apart])
    group = new.cumsum() - 1
    start = new.nonzero()[0]
    mass = np.add.reduceat(weights, start)
    atoms = keys[start]
    offset = keys - atoms[group]
    if offset.any():
        col = (-1,) + (1,) * (keys.ndim - 1)  # spreads a weight over its key's coordinates
        shift = np.add.reduceat(offset * weights.reshape(col), start)
        # an atom of zero mass (disintegrate counts them) stays at its first row
        atoms = atoms + shift / (mass + (mass == 0)).reshape(col)
    return atoms, mass, order, group


@dataclass(frozen=True, init=False)
class _Measure:
    """What both measure types share, whose atoms differ only in shape
    (``_ATOM_SHAPE``).  The constructor checks that atoms and weights are
    finite and that no weight is below -``MERGE_TOL``, drops the zero
    weights, merges the atoms by ``merge_atoms`` and stores the mass, which
    must be finite too."""

    atoms: np.ndarray
    weights: np.ndarray
    mass: float

    def __init__(self, atoms: Sequence, weights: Sequence[float]):
        atoms = np.asarray(atoms, dtype=float).reshape(self._ATOM_SHAPE)
        weights = np.asarray(weights, dtype=float).ravel()
        if len(atoms) != len(weights):
            raise ValueError("atoms and weights must have the same length")
        if not (np.isfinite(atoms).all() and np.isfinite(weights).all()):
            raise NonFiniteError("atoms and weights must be finite")
        if (weights < -MERGE_TOL).any():
            raise ValueError("negative weight")
        keep = weights > 0
        self._fill(*merge_atoms(atoms[keep], weights[keep])[:2])

    @classmethod
    def _trusted(cls, atoms: np.ndarray, weights: np.ndarray):
        """The measure of arrays already canonical, such as a subset of a
        measure's atoms or a positive multiple of its weights: the weights
        > 0 are kept, with no finite check, sort or merge."""
        keep = weights > 0
        m = object.__new__(cls)
        m._fill(atoms[keep], weights[keep])
        return m

    def _fill(self, atoms: np.ndarray, weights: np.ndarray):
        mass = float(weights.sum())
        if not np.isfinite(mass):
            raise NonFiniteError("the mass overflows")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "mass", mass)

    def __len__(self) -> int:
        return len(self.weights)

    # -- algebra ---------------------------------------------------------

    def scaled(self, factor: float):
        if factor < 0:
            raise ValueError("scaling factor must be nonnegative")
        if not np.isfinite(factor):
            raise NonFiniteError("scaling factor must be finite")
        return self._trusted(self.atoms, self.weights * factor)

    def __add__(self, other):
        return type(self)(
            np.concatenate([self.atoms, other.atoms]),
            np.concatenate([self.weights, other.weights]),
        )

    # -- dict form, as JSON holds it -------------------------------------

    def to_dict(self) -> dict:
        return {"atoms": self.atoms.tolist(), "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, data: dict):
        return cls(data["atoms"], data["weights"])


@dataclass(frozen=True, init=False)
class DiscreteMeasure(_Measure):
    """Nonnegative finite measure with finitely many atoms on the real line."""

    _ATOM_SHAPE = (-1,)

    # -- basic queries ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.atoms.size == 0

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.weights)

    def first_moment(self) -> float:
        """Unnormalized first moment (sum of atom * weight)."""
        return float(np.dot(self.atoms, self.weights))

    def restrict(self, lo: float, hi: float) -> "DiscreteMeasure":
        """Restriction to the open interval (lo, hi)."""
        keep = (self.atoms > lo) & (self.atoms < hi)
        return self._trusted(self.atoms[keep], self.weights[keep])

    def __repr__(self) -> str:
        pairs = ", ".join(f"{a:g}: {w:g}" for a, w in zip(self.atoms, self.weights))
        return f"DiscreteMeasure({{{pairs}}})"


@dataclass(frozen=True, init=False)
class LiftedMeasure(_Measure):
    """Measure on R x U where the information space U is a finite set of real
    labels; its atoms are (x, u) rows in lexicographic order."""

    _ATOM_SHAPE = (-1, 2)

    @property
    def xs(self) -> np.ndarray:
        return self.atoms[:, 0]

    @property
    def us(self) -> np.ndarray:
        return self.atoms[:, 1]

    def x_marginal(self) -> DiscreteMeasure:
        return DiscreteMeasure(self.xs, self.weights)

    @staticmethod
    def from_measure(m: DiscreteMeasure) -> "LiftedMeasure":
        """m with every atom at label 0."""
        return LiftedMeasure(np.column_stack([m.atoms, np.zeros(len(m))]), m.weights)


# -- operations ----------------------------------------------------------


def mean(m: DiscreteMeasure) -> float:
    """Barycentre of a measure with positive mass."""
    if m.mass <= 0:
        raise EmptyMeasureError("empty measure")
    return m.first_moment() / m.mass


def quantile_pieces(w1: np.ndarray, w2: np.ndarray):
    """The pieces of [0, mass] on which both quantile functions are constant,
    for two nonempty weight vectors in atom order: per piece, the index of
    its atom in w1, the index in w2 and its length.

    The levels are the union of both cumulative sums; at a tie w1's level
    comes first, so each side's index is the count of its own levels before
    the level, exactly.  Beyond the smaller total the pieces have zero
    length, and a tie gives a piece of zero length.
    """
    ca, cb = np.cumsum(w1), np.cumsum(w2)
    levels = np.concatenate([ca, cb])
    order = np.argsort(levels, kind="stable")
    levels = np.minimum(levels[order], min(ca[-1], cb[-1]))
    from_a = order < len(ca)
    ia = np.minimum(np.cumsum(from_a) - from_a, len(ca) - 1)
    ib = np.minimum(np.cumsum(~from_a) - ~from_a, len(cb) - 1)
    return ia, ib, np.diff(levels, prepend=0.0)


def comonotone_plan(w1: np.ndarray, w2: np.ndarray):
    """The north-west corner plan between two weight vectors in atom order,
    one row per entry of w1, with the ``quantile_pieces`` it is built from.

    Masses must agree up to 1e-9 relative, as for the transport LP; beyond
    that ``MassMismatchError``, since the plan would stop at the smaller
    total.  No entry is negative, and on the line the plan is W1-optimal.
    """
    if abs(w1.sum() - w2.sum()) > 1e-9 * max(1.0, w1.sum()):
        raise MassMismatchError(f"transport requires equal masses: {w1.sum()} vs {w2.sum()}")
    pieces = quantile_pieces(w1, w2)
    plan = np.zeros((len(w1), len(w2)))
    np.add.at(plan, pieces[:2], pieces[2])
    return plan, pieces


def wasserstein_line(m1: DiscreteMeasure, m2: DiscreteMeasure) -> float:
    """W1 distance on the line via the quantile formula over [0, mass], one
    term per ``quantile_pieces`` piece.

    For equal-mass inputs with mass different from 1 this computes mass
    times the W1 of the normalized measures.
    """
    if m1.mass <= 0 or m2.mass <= 0:
        raise EmptyMeasureError("empty measure")
    if abs(m1.mass - m2.mass) > MASS_TOL * max(1.0, m1.mass):
        raise MassMismatchError(f"masses differ: {m1.mass} vs {m2.mass}")
    ia, ib, seg = quantile_pieces(m1.weights, m2.weights)
    return float((np.abs(m1.atoms[ia] - m2.atoms[ib]) * seg).sum())


def cdf(m: DiscreteMeasure, ys) -> np.ndarray:
    """Mass of m at or left of each y."""
    return np.concatenate([[0.0], m.cumulative()])[np.searchsorted(m.atoms, ys, side="right")]


def potential_values(m: DiscreteMeasure, ys) -> np.ndarray:
    """Potential u_m(y) = integral of |y - x| dm(x), vectorized in y.

    With F and S the mass and first moment at or left of y, the potential
    is y (2F - mass) + first moment - 2S: one prefix sum of each.
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    prefix = np.zeros((2, len(m) + 1))
    prefix[:, 1:] = m.weights
    prefix[1, 1:] *= m.atoms
    prefix.cumsum(axis=1, out=prefix)
    F, S = prefix[:, np.searchsorted(m.atoms, ys, side="right")]
    return ys * (2.0 * F - prefix[0, -1]) + (prefix[1, -1] - 2.0 * S)


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


def cell_masses(m: DiscreteMeasure, levels) -> np.ndarray:
    """Mass of each atom of m inside each quantile cell (levels[c], levels[c+1]]:
    one row per cell, one column per atom, zero outside the cell."""
    if m.is_zero:
        raise EmptyMeasureError("empty measure")
    levels = np.asarray(levels, dtype=float)[:, None]
    cum = np.concatenate([[0.0], m.cumulative()])
    return np.maximum(np.minimum(cum[1:], levels[1:]) - np.maximum(cum[:-1], levels[:-1]), 0.0)


def quantile_discretize(m: DiscreteMeasure, k: int) -> DiscreteMeasure:
    """Conditional means on k equal quantile cells; mass and mean preserved.

    The output is dominated by m in convex order (Jensen on each cell).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if m.mass <= 0:
        raise EmptyMeasureError("empty measure")
    W = cell_masses(m, np.arange(k + 1) * m.mass / k)
    mass = W.sum(axis=1)
    full = mass > 0
    return DiscreteMeasure(W[full] @ m.atoms / mass[full], mass[full])


def total_variation(m1: DiscreteMeasure, m2: DiscreteMeasure) -> float:
    """Half the sum over the union support of absolute weight differences.

    The halving matches the usual probability convention, so that two
    mutually singular probabilities are at distance 1.
    """
    signed = np.concatenate([m1.weights, -m2.weights])
    # atoms of the two measures that merge_atoms would merge are one support point
    _, _, order, group = merge_atoms(np.concatenate([m1.atoms, m2.atoms]), np.abs(signed))
    return 0.5 * float(np.abs(np.bincount(group, signed[order])).sum())
