"""Closed-form profile fields and fractional-Laplacian quadrature at points.

The operator is evaluated through the symmetrized difference

    (c_ns / 2) * integral of (2 f(x) - f(x+z) - f(x-z)) / |z|^(n+2s) dz,

split at an inner radius tied to the distance from the support boundary.
Inside, a Gauss-Jacobi rule absorbs the r^(1-2s) radial weight exactly;
outside, the 2 f(x) tail is analytic and the field part integrates along
rays, with a Jacobi end-point rule when the field exposes its quadratic
profile (so the (.)_+^s edge is handled by the weight, not the nodes).
Quadrature is implemented for n = 2.
A batch of points is integrated in blocks of ``_BLOCK`` points, with the
node grids of a block held in one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .domains import (ImplicitDomain, ball, boundary_distance, box_corners, ellipsoid,
                      _smoothstep)
from .specfun import FracParams, ParameterDomainError, gamma_ns, gamma_nse


_TOL = 0.01  # self-error, relative to max(1, |value|), that counts as converged
_INNER_RADIUS = 0.05  # smallest admissible distance from a kinked support's boundary
# Largest order evaluated.  As s -> 1 the inner rule puts nearly all its
# weight on its first node, at r ~ 2 r0 (1 - s) / m^2, where
# 2 f(x) - f(x+z) - f(x-z) cancels to rounding, so the error grows as
# (1 - s)^-2.  At points 0.05-0.052 from the boundary of the ball and of
# stretched balls up to 0.2499 it is at most 1.6e-3 at s = 0.98 and 8.1e-3
# at s = 0.99, above ``_TOL`` from s ~ 0.995 while ``error`` can still
# meet it, and from 1 - s ~ 1e-12 the two rules agree on garbage.
_S_MAX = 0.98
_SPLIT = 0.5  # inner/outer cutoff as a fraction of that distance
_BLOCK = 8  # points per vectorised quadrature pass (about 2 MB of node arrays)


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts for :func:`frlap_eval`."""

    inner_radial: int = 64
    inner_angular: int = 64
    outer_panels: int = 12


@dataclass(frozen=True)
class ScalarField:
    """A scalar profile with known support and enough metadata to integrate it.

    ``power_quad = (Q, amp)`` declares the closed form
    ``amp * (1 - x^T Q x)_+^s``; the quadrature uses it to split rays
    exactly at the support crossing.  Globally smooth fields carry their
    own ``inner_scale``, the inner/outer cutoff radius; fields without one
    have an s-Holder edge at the support boundary.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    support: ImplicitDomain
    params: FracParams
    power_quad: Optional[tuple] = None
    inner_scale: Optional[float] = None


@dataclass(frozen=True)
class FrlapResult:
    """Floats and a bool for one point; arrays, one entry per point, for a batch."""

    value: float | np.ndarray
    error: float | np.ndarray
    converged: bool | np.ndarray


def power_field(p: FracParams, Q: np.ndarray, amp: float,
                support: ImplicitDomain) -> ScalarField:
    """Field ``amp * (1 - x^T Q x)_+^s`` with the given support domain.

    ``Q`` is 2 x 2.  The quadratic form is summed as
    ``(((x0 Q00 x0 + x0 Q01 x1) + x1 Q10 x0) + x1 Q11 x1)``, every product
    taken left to right, element by element: each point of a batch gets
    the bits of its own ``(1, 2)`` call, whatever the batch's shape.  A bare
    2-vector is not a batch: its power is numpy's scalar pow, which can
    round the last bit differently from the array pow.  ``_frlap_value``'s
    f(x) and the seminorm pair's ends take that bare call on purpose.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (2, 2):
        raise ParameterDomainError(f"power_field takes a 2 x 2 Q, got shape {Q.shape}")
    (q00, q01), (q10, q11) = Q.tolist()
    s = p.s

    def eval_(pts):
        pts = np.asarray(pts, dtype=float)
        x0, x1 = pts[..., 0], pts[..., 1]
        q = (((x0 * q00) * x0 + (x0 * q01) * x1) + (x1 * q10) * x0) + (x1 * q11) * x1
        return amp * np.maximum(0.0, 1.0 - q) ** s

    return ScalarField(eval=eval_, support=support, params=p, power_quad=(Q, float(amp)))


def torsion_ball(p: FracParams) -> ScalarField:
    """Torsion profile of the unit ball; its operator value is one inside."""
    return power_field(p, np.eye(2), gamma_ns(p), ball(np.zeros(2), 1.0))


def torsion_ellipsoid(p: FracParams, eps: float) -> ScalarField:
    """Torsion profile of the (1+eps)-stretched ball."""
    a = 1.0 + float(eps)
    Q = np.diag([1.0 / a**2, 1.0])
    return power_field(p, Q, gamma_nse(p, eps), ellipsoid(eps))


def radial_cutoff(r):
    """Smooth cutoff: one on [0, 1/2], zero from 1 on, monotone between."""
    r = np.asarray(r, dtype=float)
    return 1.0 - _smoothstep((r - 0.5) * 2.0)


def barrier(p: FracParams, a, rho: float) -> ScalarField:
    """Antisymmetric two-bump field ``rho^(2s) x_1 (cutoff + mirrored cutoff)``.

    ``a`` must sit in the open half-space {x_1 > 0} with the whole bump,
    i.e. ``a_1 >= rho``; the mirror bump at the reflected center makes the
    field exactly odd in x_1.
    """
    a = np.asarray(a, dtype=float)
    rho = float(rho)
    if not 0.0 < rho <= 1.0 / 16.0:
        raise ParameterDomainError(f"barrier radius restricted to (0, 1/16], got {rho!r}")
    if not a[0] >= rho:
        raise ParameterDomainError("barrier center must keep its bump in {x1 > 0}")
    a_mirror = a.copy()
    a_mirror[0] = -a_mirror[0]
    amp = rho ** (2.0 * p.s)

    def eval_(pts):
        pts = np.asarray(pts, dtype=float)
        d1 = np.linalg.norm(pts - a, axis=-1)
        d2 = np.linalg.norm(pts - a_mirror, axis=-1)
        return amp * pts[..., 0] * (radial_cutoff(d1 / rho) + radial_cutoff(d2 / rho))

    def level(pts):
        pts = np.asarray(pts, dtype=float)
        d1 = np.linalg.norm(pts - a, axis=-1)
        d2 = np.linalg.norm(pts - a_mirror, axis=-1)
        return np.minimum(d1, d2) - rho

    lo = np.minimum(a, a_mirror) - rho
    hi = np.maximum(a, a_mirror) + rho
    support = ImplicitDomain(level=level, bbox=np.stack([lo, hi]))
    return ScalarField(eval=eval_, support=support, params=p, inner_scale=rho / 2.0)


@lru_cache(maxsize=64)
def _jacobi_rule(m: int, alpha: float, beta: float):
    # imported here, not at the top: scipy.special is most of the time of
    # ``import fracshape``, and commands such as ``constants`` never build a rule
    from scipy.special import roots_jacobi

    return roots_jacobi(m, alpha, beta)


def _outer_power(f, X, s, r0, angles, n_nodes):
    """Per-ray field integrals for power-profile fields, one row per point.

    Along each direction the profile is amp * (|A|(r*-r)(r-r**))^s with
    quadratic-root crossings r**, r*; Gauss-Jacobi with weight (r*-r)^s
    integrates the remaining smooth factor.  The ray coefficients B and C
    and the node sums are taken point by point.
    """
    Q, amp = f.power_quad
    omega = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    A = -np.einsum("ki,ij,kj->k", omega, Q, omega)
    B = np.stack([-2.0 * (omega @ (Q @ x)) for x in X])
    C = np.array([[1.0 - float(x @ (Q @ x))] for x in X])
    disc = np.sqrt(B * B - 4.0 * A * C)
    r_exit = (-B - disc) / (2.0 * A)
    r_back = (-B + disc) / (2.0 * A)
    u, w = _jacobi_rule(n_nodes, float(s), 0.0)
    half = 0.5 * (r_exit - r0[:, None])
    r = r0[:, None, None] + half[:, None, :] * (u[:, None] + 1.0)
    smooth = amp * (np.abs(A) * (r - r_back[:, None, :])) ** s * r ** (-1.0 - 2.0 * s)
    return half ** (1.0 + s) * np.stack([np.einsum("i,ik->k", w, sm) for sm in smooth])


def _outer_panels(f, x, s, r0, angles, n_panels):
    """Per-ray field integral by graded Gauss-Legendre panels (smooth fields)."""
    r_out = float(np.max(np.linalg.norm(box_corners(f.support.bbox) - x, axis=-1)))
    if r_out <= r0:
        return np.zeros(angles.size)
    breaks = r0 * (r_out / r0) ** (np.arange(n_panels + 1) / n_panels)
    u, w = _jacobi_rule(16, 0.0, 0.0)  # Gauss-Legendre
    omega = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    total = np.zeros(angles.size)
    for k in range(n_panels):
        half = 0.5 * (breaks[k + 1] - breaks[k])
        mid = 0.5 * (breaks[k + 1] + breaks[k])
        r = mid + half * u
        pts = x[None, None, :] + r[:, None, None] * omega[None, :, :]
        vals = f.eval(pts) * r[:, None] ** (-1.0 - 2.0 * s)
        total += half * np.einsum("i,ik->k", w, vals)
    return total


def _frlap_value(f: ScalarField, X: np.ndarray, r0: np.ndarray, nr: int, na: int,
                 n_panels: int) -> np.ndarray:
    """Operator values at the points ``X`` (b, 2) with inner radii ``r0`` (b,).

    The field is evaluated on (b, ...) node arrays at once.  f(x) and the
    powers of r0 are taken point by point as Python floats, since numpy's
    array pow can differ from the scalar pow in the last ulp, and so are
    the node sums; each value thus has the bits of a batch of one.
    """
    s = f.params.s
    c = f.params.c_ns
    fx = np.array([float(f.eval(x)) for x in X])

    # Inner ball: polar, Gauss-Jacobi radius against the r^(1-2s) weight,
    # midpoint angles on [0, pi) (the symmetrized difference is pi-periodic).
    u, w = _jacobi_rule(nr, 0.0, 1.0 - 2.0 * s)
    r = r0[:, None] * (u + 1.0) / 2.0
    theta = (np.arange(na) + 0.5) * (math.pi / na)
    omega = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    Z = r[:, :, None, None] * omega
    Xg = X[:, None, None, :]
    g = (2.0 * fx)[:, None, None] - f.eval(Xg + Z) - f.eval(Xg - Z)
    g_r2 = g / r[:, :, None] ** 2

    # Outer region: the 2 f(x) tail integrates in closed form; the field
    # part goes ray by ray over the full circle.
    phi = (np.arange(2 * na) + 0.5) * (math.pi / na)
    if f.power_quad is not None:
        per_ray = _outer_power(f, X, s, r0, phi, max(16, 4 * n_panels))
    else:
        per_ray = [_outer_panels(f, x, s, float(rx), phi, n_panels) for x, rx in zip(X, r0)]

    out = np.empty(len(X))
    for i in range(len(X)):
        ri, fi = float(r0[i]), float(fx[i])
        scale = (ri / 2.0) ** (2.0 - 2.0 * s)
        inner = 2.0 * (math.pi / na) * scale * float(np.einsum("i,ij->", w, g_r2[i]))
        tail = 2.0 * fi * (2.0 * math.pi * ri ** (-2.0 * s) / (2.0 * s))
        field_part = (math.pi / na) * float(np.sum(per_ray[i]))
        outer = tail - 2.0 * field_part
        out[i] = 0.5 * c * (inner + outer)
    return out


def frlap_eval(f: ScalarField, x, acc: Optional[QuadratureConfig] = None) -> FrlapResult:
    """Fractional Laplacian of ``f`` at the point ``x`` (2,), or at each row
    of a batch ``x`` (k, 2) (n = 2 only).

    ``error`` is |fine rule - half-resolution rule|, which indicates the
    error but does not bound it: against the exact torsion value it is the
    smaller on about 30-60% of points (where both are at rounding level),
    and near distance 0.05 it overstates it 3e4-1e5 times.  ``converged``
    says whether ``error`` meets ``_TOL`` relative to max(1, |value|).  One
    point gives floats and a bool, a batch gives arrays of length k, and
    each point of a batch gets the bits of its own one-point call.  A batch
    is checked in point order and raises the error of its first point that
    is outside the support or too close to its boundary.  Orders above
    ``_S_MAX`` are refused.
    """
    acc = acc or QuadratureConfig()
    x = np.asarray(x, dtype=float)
    if f.params.n != 2 or x.ndim not in (1, 2) or x.shape[-1] != 2:
        raise ParameterDomainError("quadrature implemented for n = 2 points only")
    if not f.params.s <= _S_MAX:
        raise ParameterDomainError(
            f"s={f.params.s!r} out of the quadrature's range (must be <= {_S_MAX})")
    pts = x.reshape(-1, 2)
    if f.inner_scale is None:
        outside = f.support.level(pts) >= 0.0
        n_in = int(outside.argmax()) if outside.any() else len(pts)
        delta = boundary_distance(f.support, pts[:n_in])
        close = np.flatnonzero(delta <= _INNER_RADIUS)
        if close.size:
            raise ParameterDomainError(
                f"point too close to the support boundary (dist {float(delta[close[0]]):.3g} "
                f"<= {_INNER_RADIUS:g})")
        if n_in < len(pts):
            raise ParameterDomainError("evaluation point must be interior to the support")
        r0 = _SPLIT * delta
    else:
        r0 = np.full(len(pts), f.inner_scale)
    value, coarse = np.empty(len(pts)), np.empty(len(pts))
    for i in range(0, len(pts), _BLOCK):
        blk = slice(i, i + _BLOCK)
        value[blk] = _frlap_value(f, pts[blk], r0[blk], acc.inner_radial,
                                  acc.inner_angular, acc.outer_panels)
        coarse[blk] = _frlap_value(f, pts[blk], r0[blk], max(8, acc.inner_radial // 2),
                                   max(8, acc.inner_angular // 2), max(3, acc.outer_panels // 2))
    with np.errstate(invalid="ignore"):  # inf - inf is nan, silently, as in float arithmetic
        err = np.abs(value - coarse)
    converged = err <= _TOL * np.maximum(1.0, np.abs(value))
    if x.ndim == 1:
        return FrlapResult(value=float(value[0]), error=float(err[0]),
                           converged=bool(converged[0]))
    return FrlapResult(value=value, error=err, converged=converged)
