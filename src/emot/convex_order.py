"""Potential functions, irreducible decomposition, convex-order minimum and
Wasserstein projection in the convex order.

A potential u_m(y) = integral |y - x| m(dx) is piecewise linear and convex
with kinks exactly at the atoms of m.  Its slope right of y is 2F(y) - mass,
with F(y) the mass of m at or left of y, so the measure is recovered from a
potential's slopes as the jumps of F = (slope + mass)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measures import (
    DiscreteMeasure,
    EmptyMeasureError,
    MassMismatchError,
    cdf,
    check_convex_order,
    mean,
    potential_values,
)


class ConvexOrderError(ValueError):
    """Raised when a required convex-order relation fails; carries a witness."""

    def __init__(self, message: str, witness: Optional[float] = None):
        super().__init__(message)
        self.witness = witness


def require_convex_order(
    mu: DiscreteMeasure, nu: DiscreteMeasure, message: str = "marginals are not in convex order", tol: float = 1e-9
):
    """Raise ``ConvexOrderError(message, witness)`` unless ``check_convex_order``
    finds mu <=_cx nu at ``tol``."""
    ordered, witness = check_convex_order(mu, nu, tol)
    if not ordered:
        raise ConvexOrderError(message, witness)


# -- convex-order minimum ------------------------------------------------


def _lower_convex_hull(xs: np.ndarray, ys: np.ndarray):
    """Monotone-chain lower hull of the graph points (xs strictly increasing)."""
    hull: list[int] = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            cross = (xs[i1] - xs[i0]) * (ys[i] - ys[i0]) - (xs[i] - xs[i0]) * (ys[i1] - ys[i0])
            if cross <= 1e-15 * max(1.0, abs(ys[i])):
                hull.pop()
            else:
                break
        hull.append(i)
    return xs[hull], ys[hull]


def _merge_close(xs: np.ndarray) -> np.ndarray:
    """Sorted grid without the points closer than 1e-11 * span to their left neighbour."""
    span = max(1.0, xs[-1] - xs[0])
    return xs[np.concatenate([[True], np.diff(xs) > 1e-11 * span])]


def _measure_from_cdf(points: np.ndarray, F: np.ndarray, m: float) -> DiscreteMeasure:
    """Measure of mass m on the sorted points whose cumulative mass is F[k]
    between points[k] and points[k + 1], 0 left of the first point and m
    from the last one on.

    An atom weighs the jump of F at its point.  A weight of at most
    1e-12 * m is left by rounding and is dropped; the weights are then
    rescaled to mass m.
    """
    weights = np.diff(np.concatenate([[0.0], F, [m]]))
    if weights.min() < -1e-8 * max(1.0, m):
        raise AssertionError("potential has a concave kink")
    weights = np.where(weights > 1e-12 * m, weights, 0.0)
    total = weights.sum()
    if abs(total - m) > 1e-8 * max(1.0, m):
        raise AssertionError("potential slopes lost mass")
    return DiscreteMeasure(points, weights * (m / total))


def convex_min(rho: DiscreteMeasure, q: DiscreteMeasure) -> DiscreteMeasure:
    """Convex-order minimum: potential = lower convex envelope of min(u_rho, u_q).

    Requires equal mass and mean; the result is dominated by both inputs in
    convex order and dominates any common convex-order lower bound.
    """
    if rho.mass <= 0 or q.mass <= 0:
        raise EmptyMeasureError("empty measure")
    scale = max(1.0, rho.mass)
    if abs(rho.mass - q.mass) > 1e-9 * scale:
        raise MassMismatchError("convex_min requires equal masses")
    if abs(mean(rho) - mean(q)) > 1e-9 * max(1.0, abs(mean(rho))):
        raise ValueError("convex_min requires equal means")

    # both potentials are linear between joint atoms, so their minimum is
    # concave there and its lower convex envelope has kinks at atoms only
    xs = _merge_close(np.union1d(rho.atoms, q.atoms))
    h = np.minimum(potential_values(rho, xs), potential_values(q, xs))
    hx, hy = _lower_convex_hull(xs, h)
    return _measure_from_cdf(hx, (np.diff(hy) / np.diff(hx) + rho.mass) / 2.0, rho.mass)


# -- irreducible decomposition ------------------------------------------


@dataclass(frozen=True)
class IrreducibleComponent:
    interval: tuple
    mu: DiscreteMeasure
    nu: DiscreteMeasure


@dataclass(frozen=True)
class IrreducibleDecomposition:
    components: tuple
    stationary: DiscreteMeasure  # common part eta
    labels: np.ndarray  # each mu atom's component index, -1 where stationary; read-only


def irreducible_decomposition(mu: DiscreteMeasure, nu: DiscreteMeasure) -> IrreducibleDecomposition:
    """Decompose a convex-ordered pair along the maximal intervals {u_mu < u_nu}.

    Per component, nu gets its interior atoms plus endpoint atoms sized by a
    2x2 mass/mean matching system; eta is mu restricted to {u_mu = u_nu}.
    ``labels`` gives each atom of mu its component's index, -1 for the
    atoms of eta.  The order check, the strict gap and a component's width
    are taken at a tolerance of 1e-10 (relative to the pair's scale for the
    gap).
    """
    tol = 1e-10
    require_convex_order(mu, nu, "mu is not dominated by nu in convex order", tol)
    pts = np.union1d(mu.atoms, nu.atoms)
    gap = potential_values(nu, pts) - potential_values(mu, pts)
    scale = max(1.0, nu.mass, float(np.abs(pts).max()))
    # maximal runs pts[start:stop] of strict inequality; the gap is linear
    # between atoms and vanishes at the nu atoms on either side of a run,
    # which are the component's endpoints nu.atoms[ia] and nu.atoms[ib]
    strict = gap > tol * scale
    starts, stops = np.flatnonzero(np.diff(strict, prepend=False, append=False)).reshape(-1, 2).T
    ia = np.maximum(np.searchsorted(nu.atoms, pts[starts]) - 1, 0)
    ib = np.minimum(np.searchsorted(nu.atoms, pts[stops - 1], side="right"), len(nu) - 1)
    mu_pos = np.searchsorted(pts, mu.atoms)

    comp_out, labels = [], np.full(len(mu), -1)
    alphas, betas = [], []
    for start, stop, a, b in zip(starts, stops, nu.atoms[ia], nu.atoms[ib]):
        sel = (mu_pos >= start) & (mu_pos < stop)
        labels[sel] = len(comp_out)
        mu_n = DiscreteMeasure(mu.atoms[sel], mu.weights[sel])
        interior = nu.restrict(a, b)
        # endpoint masses alpha (at a) and beta (at b) from mass and mean match
        dm = mu_n.mass - interior.mass
        ds = mu_n.first_moment() - interior.first_moment()
        if b - a > tol:
            beta = (ds - dm * a) / (b - a)
            alpha = dm - beta
        else:
            alpha, beta = dm, 0.0
        if alpha < -1e-8 * scale or beta < -1e-8 * scale:
            raise AssertionError("negative endpoint allocation in decomposition")
        alpha, beta = max(alpha, 0.0), max(beta, 0.0)
        alphas.append(alpha)
        betas.append(beta)
        nu_n = interior + DiscreteMeasure([a, b], [alpha, beta])
        comp_out.append(IrreducibleComponent((float(a), float(b)), mu_n, nu_n))

    # components that share an endpoint atom split its nu mass
    booked = np.bincount(np.concatenate([ia, ib]), alphas + betas, minlength=len(nu))
    if np.any(booked > nu.weights + 1e-8 * scale):
        raise AssertionError("endpoint atom allocation exceeds available mass")
    stay = ~strict[mu_pos]
    labels.flags.writeable = False
    return IrreducibleDecomposition(tuple(comp_out), DiscreteMeasure(mu.atoms[stay], mu.weights[stay]), labels)


# -- Wasserstein projection in convex order ------------------------------


def _running_max_points(xs: np.ndarray, gs: np.ndarray):
    """Kink points (x, value) of y -> max_{z<=y} g(z), g piecewise linear
    through (xs, gs): the grid with the running maximum, plus a point where
    a segment rises through the running maximum, inserted before the
    segment's right end."""
    run = np.maximum.accumulate(gs)
    i = np.flatnonzero((gs[1:] > run[:-1]) & (gs[:-1] < run[:-1]))
    xc = xs[i] + (run[i] - gs[i]) / (gs[i + 1] - gs[i]) * (xs[i + 1] - xs[i])
    return np.insert(xs, i + 1, xc), np.insert(run, i + 1, run[i])


def convex_order_projection(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Closest measure to nu in W1 among those dominating mu in convex order.

    nu is first translated to the mean of mu (domination forces that mean).
    The projection's potential is u_nu + d where d is the unimodal envelope
    min(running max from the left, running max from the right) of the
    positive potential gap (u_mu - u_nu)^+: the envelope is convex on top
    of u_nu, dominates u_mu, and its peak value max(u_mu - u_nu)^+ is a
    lower bound for the projection distance, so the construction is exact.
    This choice of minimizer is 1-Lipschitz in mu and 2-Lipschitz in nu.

    The result is read off cumulative masses, with no slope taken from
    potential values: between the envelope's kink points its cumulative
    mass is F_nu where d is flat, and (1 - theta) F_nu + theta F_mu where d
    follows the chord of the clipped gap over a grid segment, with theta
    the share of the gap's change that survives the clipping (exactly 1
    where the gap is >= 0 at both ends).
    """
    if mu.mass <= 0 or nu.mass <= 0:
        raise EmptyMeasureError("empty measure")
    m = mu.mass
    if abs(m - nu.mass) > 1e-9 * max(1.0, m):
        raise MassMismatchError("projection requires equal masses")
    shift = mu.first_moment() / m - nu.first_moment() / nu.mass
    nu = DiscreteMeasure(nu.atoms + shift, nu.weights)

    xs = np.union1d(mu.atoms, nu.atoms)
    diff = potential_values(mu, xs) - potential_values(nu, xs)
    # outside the joint support both potentials are m |y - mean|, so the gap
    # is zero at the grid's ends; setting it drops the prefix sums' rounding
    diff[[0, -1]] = 0.0
    gap = np.maximum(diff, 0.0)
    # both running maxima reach the peak at the gap's first maximum, so the
    # envelope is the left one up to it and the right one after it
    peak = xs[np.argmax(gap)]
    lx, lv = _running_max_points(xs, gap)
    rx, rv = _running_max_points(-xs[::-1], gap[::-1])
    rx, rv = -rx[::-1], rv[::-1]
    ex = np.concatenate([lx[lx <= peak], rx[rx > peak]])
    ev = np.concatenate([lv[lx <= peak], rv[rx > peak]])
    # pieces between kink points; a crossing that rounds onto a grid point
    # leaves a piece of no length, which carries no mass
    k = np.flatnonzero(np.diff(ex) > 0)
    left = ex[k]
    follow = ev[k + 1] != ev[k]
    i = np.searchsorted(xs, left[follow], side="right") - 1
    theta = np.zeros(k.size)
    theta[follow] = (gap[i + 1] - gap[i]) / (diff[i + 1] - diff[i])
    return _measure_from_cdf(np.append(left, ex[-1]), (1.0 - theta) * cdf(nu, left) + theta * cdf(mu, left), m)

