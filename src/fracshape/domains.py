"""Implicit domains: balls, stretched ellipsoids, bump-perturbed disks, erosion.

Domains are planar and level-set based (negative inside).  All callables
stored on a domain are vectorized over a trailing coordinate axis: points
have shape ``(..., 2)`` and values come back with shape ``(...,)``.

Every boundary quantity read off the charts (support values, radial extremes,
distances, the moving-plane excess) uses one primitive: a uniform
node grid per chart (``chart_nodes``), the caller's best nodes, and a golden
section within two node spacings of each (``polish``, the package's only
golden-section search), which maps each chart's brackets with that chart and
polishes the brackets of all charts in one loop.  ``chart_extreme`` is that
primitive for an extremum of a function of the boundary point, and serves
support values, radial extremes and the coincidence sup; no domain carries a
closed form for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .specfun import ParameterDomainError


class ProjectionError(RuntimeError):
    """Boundary projection failed to reach its residual tolerance."""


@dataclass(frozen=True)
class Chart:
    """One-parameter boundary patch ``t in [lo, hi] -> point``.

    ``dense`` marks patches whose features need a finer default sampling
    (the bump support, for instance).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float
    dense: bool = False


@dataclass(frozen=True)
class DiskDeviation:
    """Certificate that the domain agrees with the disk of ``radius``
    (centered at the origin) outside ``box``, a ``(2, 2)`` array of
    (lower, upper) corners, or everywhere when ``box`` is None.

    Used by the measure estimators to split off a closed-form disk part.
    """

    radius: float
    box: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ImplicitDomain:
    level: Callable[[np.ndarray], np.ndarray]
    bbox: np.ndarray
    exact_sdf: Optional[Callable[[np.ndarray], np.ndarray]] = None
    boundary_param: Optional[tuple] = None
    interior_ball_radius: Optional[float] = None
    normal: Optional[Callable[[np.ndarray], np.ndarray]] = None
    disk_deviation: Optional[DiskDeviation] = None

    def contains(self, pts) -> np.ndarray:
        return self.level(np.asarray(pts, dtype=float)) < 0.0


def box_corners(box: np.ndarray) -> np.ndarray:
    """The four corners, shape ``(4, 2)``, of a ``(2, 2)`` box of (lower, upper) corners."""
    return np.array([[box[i, 0], box[j, 1]] for i in (0, 1) for j in (0, 1)])


# ---------------------------------------------------------------------------
# balls


def ball(center, r) -> ImplicitDomain:
    center = np.atleast_1d(np.asarray(center, dtype=float))
    rf = float(r)
    if not rf > 0.0:
        raise ParameterDomainError(f"ball radius must be positive, got {r!r}")

    def sdf(pts):
        pts = np.asarray(pts, dtype=float)
        return np.linalg.norm(pts - center, axis=-1) - rf

    def normal(pts):
        pts = np.asarray(pts, dtype=float)
        d = pts - center
        return d / np.maximum(np.linalg.norm(d, axis=-1, keepdims=True), 1e-300)

    def arc(t):
        t = np.asarray(t, dtype=float)
        return center + rf * np.stack([np.cos(t), np.sin(t)], axis=-1)

    return ImplicitDomain(
        level=sdf,
        bbox=np.stack([center - rf, center + rf]),
        exact_sdf=sdf,
        boundary_param=(Chart(arc, 0.0, 2.0 * math.pi),),
        interior_ball_radius=rf,
        normal=normal,
        disk_deviation=DiskDeviation(radius=rf) if np.all(center == 0.0) else None,
    )


# ---------------------------------------------------------------------------
# stretched disks with semi-axes (1+eps, 1)


def _ellipse_distance(p1, p2, a):
    """Unsigned distance from (p1, p2) to the ellipse x^2/a^2 + y^2 = 1, a >= 1,
    elementwise over arrays of any shape.

    The foot is (a^2 p1 / (u + c), p2 / u) with c = a^2 - 1, where u solves
    (a p1 / (u + c))^2 + (p2 / u)^2 = 1 (u = t + 1 for the Lagrange
    parameter t).  The left side falls in u, and the root lies in
    [p2, hypot(a p1, p2)]: at the lower end the second term alone is 1, at
    the upper end the sum is at most 1 (D. Eberly, "Distance from a point
    to an ellipse, an ellipsoid, or a hyperellipsoid", 2013).  Both ends are
    positive floats, so one bisection reaches the float spacing of u
    everywhere; it takes at most 100 steps and stops once the bracket no
    longer moves.  Points are measured from height max(|p2|, 1e-12): the
    distance is 1-Lipschitz, so a point within 1e-12 of the major axis moves
    by at most 1e-12.
    """
    p1 = np.abs(np.asarray(p1, dtype=float))
    p2 = np.maximum(np.abs(np.asarray(p2, dtype=float)), 1e-12)
    ap1, c = a * p1, a * a - 1.0
    lo, hi = p2, np.hypot(ap1, p2)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        pos = (ap1 / (mid + c)) ** 2 + (p2 / mid) ** 2 > 1.0
        if (mid == np.where(pos, lo, hi)).all():
            break  # the end that would move to mid is mid already
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    u = 0.5 * (lo + hi)
    f1, f2 = a * a * p1 / (u + c), p2 / u
    res = np.abs((f1 / a) ** 2 + f2 ** 2 - 1.0)
    if np.any(res > 1e-10):
        raise ProjectionError(
            f"ellipse projection residual {float(np.max(res)):.3e} above 1e-10")
    return np.hypot(p1 - f1, p2 - f2)


def ellipsoid(eps) -> ImplicitDomain:
    """Unit disk stretched by 1+eps along the first axis."""
    epsf = float(eps)
    if not 0.0 <= epsf < 0.25:
        raise ParameterDomainError(f"ellipsoid stretch restricted to [0, 1/4), got {eps!r}")
    a = 1.0 + epsf

    def level(pts):
        pts = np.asarray(pts, dtype=float)
        return (pts[..., 0] / a) ** 2 + pts[..., 1] ** 2 - 1.0

    def sdf(pts):
        pts = np.asarray(pts, dtype=float)
        d = _ellipse_distance(pts[..., 0], pts[..., 1], a)
        return np.where(level(pts) < 0.0, -d, d)

    def normal(pts):
        pts = np.asarray(pts, dtype=float)
        g = np.stack([pts[..., 0] / a**2, pts[..., 1]], axis=-1)
        return g / np.maximum(np.linalg.norm(g, axis=-1, keepdims=True), 1e-300)

    def arc(t):
        t = np.asarray(t, dtype=float)
        return np.stack([a * np.cos(t), np.sin(t)], axis=-1)

    return ImplicitDomain(
        level=level,
        bbox=np.array([[-a, -1.0], [a, 1.0]]),
        exact_sdf=sdf,
        boundary_param=(Chart(arc, 0.0, 2.0 * math.pi),),
        interior_ball_radius=1.0 / a,
        normal=normal,
    )


# ---------------------------------------------------------------------------
# bump-perturbed disk


def _smoothstep(v):
    """C-infinity monotone step: 0 for v <= 0, 1 for v >= 1, NaN for NaN.

    The two exponentials are taken only on the open interval (0, 1).
    """
    v = np.asarray(v, dtype=float)
    out = np.where(v <= 0.0, 0.0, np.where(v >= 1.0, 1.0, v))
    mid = (v > 0.0) & (v < 1.0)
    vm = v[mid]
    e0 = np.exp(-1.0 / np.maximum(vm, 1e-300))
    e1 = np.exp(-1.0 / (1.0 - vm))
    out[mid] = e0 / (e0 + e1)
    return out


def odd_cutoff(t):
    """Smooth odd bump: equals 2t on [-1/4, 1/4], vanishes outside (-3/4, 3/4),
    and stays within [-1, 1]."""
    t = np.asarray(t, dtype=float)
    taper = 1.0 - _smoothstep((np.abs(t) - 0.25) * 2.0)
    return 2.0 * t * taper


def bump_profile(eps: float, alpha: float):
    """Lower-boundary graph ``psi`` of the bump-perturbed disk: the circle
    graph minus an odd bump of height ~eps centered at tau = eps^(1-1/alpha)
    with width eps^(1/alpha).
    """
    eps = float(eps)
    alpha = float(alpha)
    center = eps ** (1.0 - 1.0 / alpha)
    width = eps ** (1.0 / alpha)

    def psi(tau):
        tau = np.asarray(tau, dtype=float)
        return -np.sqrt(1.0 - tau * tau) - eps * odd_cutoff((tau - center) / width)

    return psi


# Angular extent of the circular arc that the graph chart replaces:
# cos(theta) in (0, 1/2) and sin(theta) < -1/2 means theta in (3pi/2, 5pi/3).
_ARC_LO = 5.0 * math.pi / 3.0
_ARC_HI = 3.0 * math.pi / 2.0 + 2.0 * math.pi


def bump_domain(eps, alpha) -> ImplicitDomain:
    """Unit disk with a localized boundary bump of height ~eps.

    The boundary follows the unit circle except over the strip
    ``(0, 1/2) x (-3/2, -1/2)``, where it is the graph of ``bump_profile``.
    ``alpha`` controls the bump aspect ratio; the bump center sits at
    ``eps^(1-1/alpha)``, which is also the scale of the critical plane the
    moving-planes scan is expected to find.
    """
    epsf = float(eps)
    alphaf = float(alpha)
    if not alphaf > 1.0:
        raise ParameterDomainError(f"bump aspect exponent must exceed 1, got {alpha!r}")
    if not 0.0 < epsf <= 0.05:
        raise ParameterDomainError(f"bump height restricted to (0, 0.05], got {eps!r}")
    center = epsf ** (1.0 - 1.0 / alphaf)
    width = epsf ** (1.0 / alphaf)
    if center + width >= 0.5:
        raise ParameterDomainError(
            f"bump support [{center - width:.3g}, {center + width:.3g}] leaves the strip; "
            "reduce eps")
    psi = bump_profile(epsf, alphaf)

    def level(pts):
        pts = np.asarray(pts, dtype=float)
        x1, x2 = pts[..., 0], pts[..., 1]
        in_strip = (x1 > 0.0) & (x1 < 0.5) & (x2 > -1.5) & (x2 < -0.5)
        out = np.asarray(np.hypot(x1, x2) - 1.0)
        out[in_strip] = psi(x1[in_strip]) - x2[in_strip]
        return out

    def circle_chart(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.cos(t), np.sin(t)], axis=-1)

    def graph_chart(t):
        t = np.asarray(t, dtype=float)
        return np.stack([t, psi(t)], axis=-1)

    sup_lo = max(0.0, center - width)
    sup_hi = min(0.5, center + width)
    charts = (
        Chart(circle_chart, _ARC_LO, _ARC_HI),
        Chart(graph_chart, 0.0, 0.5),
        Chart(graph_chart, sup_lo, sup_hi, dense=True),
    )

    # Bounding box for where the domain can deviate from the unit disk.
    taus = np.linspace(sup_lo, sup_hi, 4097)
    circ_y = -np.sqrt(1.0 - taus**2)
    psi_y = psi(taus)
    pad = 1e-3 * max(epsf, 1e-12)
    box = np.array([
        [max(0.0, sup_lo - 1e-3 * width), min(circ_y.min(), psi_y.min()) - pad],
        [min(0.5, sup_hi + 1e-3 * width), max(circ_y.max(), psi_y.max()) + pad],
    ])

    margin = 1.0 + 2.0 * epsf
    return ImplicitDomain(
        level=level,
        bbox=np.array([[-margin, -margin], [margin, margin]]),
        boundary_param=charts,
        disk_deviation=DiskDeviation(radius=1.0, box=box),
    )


# ---------------------------------------------------------------------------
# boundary sampling and distances


def chart_nodes(ch: Chart, m: int, phase: float = 0.5):
    """Uniform node grid on a chart: ``m`` nodes, or ``4 m`` on a dense chart.

    Node ``k`` sits at parameter ``lo + (k + phase) * spacing``.  Returns
    ``(t, points, spacing)``.
    """
    m = m * (4 if ch.dense else 1)
    t = ch.lo + (ch.hi - ch.lo) * (np.arange(m) + phase) / m
    return t, np.asarray(ch.fn(t), dtype=float), (ch.hi - ch.lo) / m


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - np.sqrt(5.0)) / 2.0


def polish(g, parts, maximize: bool):
    """Golden-section extremum of ``g`` of chart points within two node
    spacings of each start.  ``parts`` holds ``(chart, t0, spacing)``
    triples, ``t0`` 1-d: each chart's brackets are clipped to its range and
    mapped by its ``fn``, and ``g`` gets all the points, stacked in the
    order of ``parts`` on axis ``u.ndim - 1`` of the parameters ``u``.
    Each of at most 70 steps makes one call, ``g`` of both probes on a
    leading axis of length 2, and the loop stops early at the brackets'
    fixed point, where every later step would be the same.  The final call
    gets the midpoints alone.  Returns stacked ``(t, value)``; where ``g``
    is not unimodal on a bracket, the extremum found may be a local one."""
    lo = np.concatenate([np.maximum(ch.lo, t0 - 2.0 * sp) for ch, t0, sp in parts])
    hi = np.concatenate([np.minimum(ch.hi, t0 + 2.0 * sp) for ch, t0, sp in parts])
    split = np.cumsum([np.size(t0) for _, t0, _ in parts])[:-1]

    def fn(u):
        pts = [ch.fn(uk) for (ch, _, _), uk in zip(parts, np.split(u, split, axis=-1))]
        return np.asarray(g(np.concatenate(pts, axis=u.ndim - 1)))

    for _ in range(70):
        c = lo + _INVPHI2 * (hi - lo)
        d = lo + _INVPHI * (hi - lo)
        v = fn(np.stack([c, d]))
        keep_left = v[0] >= v[1] if maximize else v[0] <= v[1]
        if np.where(keep_left, d == hi, c == lo).all():
            break  # the end that would move is there already
        hi = np.where(keep_left, d, hi)
        lo = np.where(keep_left, lo, c)
    mid = 0.5 * (lo + hi)
    return mid, fn(mid)


def chart_extreme(charts, g, m: int, k: int, maximize: bool) -> float:
    """Extremum of ``g(point)`` over the charts: the ``k`` best of each
    chart's ``m`` nodes, all polished in one call.  The nodes are ranked by
    a stable sort, so of tied nodes the first is taken."""
    parts = []
    for ch in charts:
        t, pts, spacing = chart_nodes(ch, m)
        v = np.asarray(g(pts), dtype=float)
        parts.append((ch, t[np.argsort(-v if maximize else v, kind="stable")[:k]], spacing))
    _, vals = polish(g, parts, maximize)
    return float(vals[np.argmax(vals) if maximize else np.argmin(vals)])


def _chart_min_distance(d: ImplicitDomain, pts: np.ndarray) -> np.ndarray:
    """Distance from each point to the sampled-and-refined boundary.  Each
    chart gets its own KD-tree: charts may overlap (the bump's dense support
    chart lies on its graph chart) and a node's parameter is chart-local."""
    # imported here, not at the top: scipy.spatial is most of the time of
    # ``import fracshape``, and only this search uses it
    from scipy.spatial import cKDTree

    pts = np.asarray(pts, dtype=float)
    flat = pts.reshape(-1, pts.shape[-1])
    parts = []
    for ch in d.boundary_param:
        t, nodes, spacing = chart_nodes(ch, 2048)
        parts.append((ch, t[cKDTree(nodes).query(flat)[1]], spacing))
    each = np.tile(flat, (len(parts), 1))  # every point once per chart
    _, dist = polish(lambda q: np.linalg.norm(q - each, axis=-1), parts, maximize=False)
    return dist.reshape(len(parts), -1).min(axis=0).reshape(pts.shape[:-1])


def boundary_distance(d: ImplicitDomain, x) -> np.ndarray:
    """Unsigned distance to the domain boundary (exact SDF when available)."""
    x = np.asarray(x, dtype=float)
    if d.exact_sdf is not None:
        out = np.abs(d.exact_sdf(x))
    elif d.boundary_param:
        out = _chart_min_distance(d, x)
    else:
        raise ProjectionError("no exact SDF and no boundary parametrization")
    if out.ndim == 0:
        return float(out)
    return out


def signed_distance(d: ImplicitDomain, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if d.exact_sdf is not None:
        return d.exact_sdf(x)
    dist = boundary_distance(d, x)
    return np.where(d.level(x) < 0.0, -dist, dist)


# ---------------------------------------------------------------------------
# erosion


def erode(d: ImplicitDomain, rho) -> ImplicitDomain:
    """Inner parallel set {x in domain : dist(x, boundary) > rho}.

    Requires ``rho`` below the domain's interior ball radius so the offset
    boundary is again a graph over the original one (the eroded SDF is then
    just the parent SDF shifted by rho).
    """
    rhof = float(rho)
    if any(v is None for v in (d.interior_ball_radius, d.exact_sdf, d.boundary_param,
                               d.normal)):
        raise ParameterDomainError(
            "erosion needs a known interior ball radius, exact SDF, charts and normal")
    if not 0.0 < rhof < d.interior_ball_radius:
        raise ParameterDomainError(
            f"erosion depth must lie in (0, {d.interior_ball_radius:g}), got {rho!r}")

    def sdf(pts, _sdf=d.exact_sdf):
        return _sdf(pts) + rhof

    def offset(ch):
        def fn(t, _fn=ch.fn):
            q = np.asarray(_fn(t), dtype=float)
            return q - rhof * d.normal(q)
        return Chart(fn, ch.lo, ch.hi, ch.dense)

    return ImplicitDomain(
        level=sdf,
        bbox=d.bbox.copy(),
        exact_sdf=sdf,
        boundary_param=tuple(offset(ch) for ch in d.boundary_param),
        interior_ball_radius=d.interior_ball_radius - rhof,
        normal=d.normal,
    )


# ---------------------------------------------------------------------------
# radial extremes


def radial_extreme(d: ImplicitDomain, maximize: bool) -> float:
    """Farthest (``maximize``) or nearest boundary point's distance from the
    origin, chart-refined."""
    m = max(256, 4096 // len(d.boundary_param))
    return chart_extreme(d.boundary_param, lambda q: np.linalg.norm(q, axis=-1), m, 4,
                         maximize)


def radial_extremes(d: ImplicitDomain):
    """(rho_i, rho_e): nearest and farthest boundary point from the origin,
    chart-refined."""
    return radial_extreme(d, maximize=False), radial_extreme(d, maximize=True)
