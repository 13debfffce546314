"""Quasi-random measure estimation: volumes, symmetric differences, slabs,
and the boundary-weighted singular integral.

Sampling is scrambled-Halton, seed-indexed, so every estimate is
bit-reproducible.  Error bars are 3 sigma with the variance taken from an
auxiliary pseudorandom draw: the low-discrepancy points are not
independent, so their own spread is no variance estimate.  Whenever a
domain certifies where it deviates from a centered disk, the slab
estimator splits off the disk part in closed form and only samples the
small deviation box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import ImplicitDomain, boundary_distance, radial_extremes
from .movingplanes import CriticalPlaneResult, reflect, reflected_box

_AUX_SEED_OFFSET = 0x5EED


class MeasureParameterError(ValueError):
    """Out-of-range arguments to a measure estimator."""


@dataclass(frozen=True)
class MeasureEstimate:
    value: float
    error: float
    method: str
    n_samples: int


def halton_points(n: int, dim: int, seed: int) -> np.ndarray:
    """First ``n`` scrambled Halton points in [0,1)^dim for this seed.

    Prefixes agree: the first half of a 2n draw is the n draw.
    """
    # imported here, not at the top: scipy.stats is over half the time of
    # ``import fracshape``, and commands such as ``constants`` and
    # ``critical-plane`` never draw a point
    from scipy.stats import qmc

    sampler = qmc.Halton(d=dim, scramble=True, seed=seed)
    return sampler.random(n)


def _box_volume(box: np.ndarray) -> float:
    return float(np.prod(box[1] - box[0]))


def _mean_3sigma(pred, box: np.ndarray, n: int, seed: int):
    """QMC mean of ``pred`` over the box plus an aux-PRNG 3 sigma width."""
    lo, hi = box[0], box[1]
    pts = lo + (hi - lo) * halton_points(n, lo.size, seed)
    vals = np.asarray(pred(pts), dtype=float)
    mean = float(np.mean(vals))
    rng = np.random.default_rng(seed + _AUX_SEED_OFFSET)
    aux = lo + (hi - lo) * rng.random((min(n, 8192), lo.size))
    aux_vals = np.asarray(pred(aux), dtype=float)
    var = float(np.var(aux_vals))
    return mean, 3.0 * math.sqrt(var / n)


def mc_volume(pred, box, n: int, seed: int = 0) -> MeasureEstimate:
    """Volume of {x in box : pred(x)} by quasi-random hit counting."""
    if n < 1:
        raise MeasureParameterError(f"sample count must be >= 1, got {n!r}")
    box = np.asarray(box, dtype=float)
    vol = _box_volume(box)
    mean, bar = _mean_3sigma(lambda p: np.asarray(pred(p), dtype=float), box, n, seed)
    return MeasureEstimate(value=vol * mean, error=vol * bar, method="monte-carlo",
                           n_samples=n)


def _hull_box(*boxes) -> np.ndarray:
    los = np.stack([b[0] for b in boxes])
    his = np.stack([b[1] for b in boxes])
    return np.stack([los.min(axis=0), his.max(axis=0)])


def sym_diff_measure(d: ImplicitDomain, res: CriticalPlaneResult, n: int,
                     seed: int = 0) -> MeasureEstimate:
    """Measure of the symmetric difference between the domain and its
    reflection across the critical plane."""
    e, lam = np.asarray(res.e, dtype=float), float(res.lam)
    box = _hull_box(d.bbox, reflected_box(d.bbox, lam, e))

    def pred(pts):
        return d.contains(pts) ^ d.contains(reflect(pts, lam, e))

    return mc_volume(pred, box, n, seed)


def _disk_slab_closed_form(gamma: float, lam: float, radius: float) -> float:
    """Band-restricted symmetric difference of a centered disk and its
    reflection across {x1 = lam}, in closed form.

    Per column the difference height is the gap between the two circle
    graphs; integrating gives 4 [ 2 A(lam) - A(lam-gamma) - A(lam+gamma) ]
    with A the circle-area antiderivative, arguments clipped to the disk.
    """
    lam = abs(lam)

    def anti(t):
        t = min(max(t, -radius), radius)
        return 0.5 * (t * math.sqrt(max(radius * radius - t * t, 0.0))
                      + radius * radius * math.asin(t / radius))

    val = 4.0 * (2.0 * anti(lam) - anti(lam - gamma) - anti(lam + gamma))
    return max(val, 0.0)


def slab_measure(d: ImplicitDomain, res: CriticalPlaneResult, gamma: float, n: int,
                 seed: int = 0) -> MeasureEstimate:
    """Measure of the symmetric difference restricted to the band of
    half-width ``gamma`` around the critical plane.

    When the domain certifies its deviation-from-disk box, the disk part
    of the band measure is closed-form and sampling covers only the (tiny)
    deviation region; otherwise plain band-restricted QMC.
    """
    if not 0.0 < gamma <= 0.25:
        raise MeasureParameterError(f"band half-width restricted to (0, 1/4], got {gamma!r}")
    e, lam = np.asarray(res.e, dtype=float), float(res.lam)

    def in_band(pts):
        return np.abs(np.sum(pts * e, axis=-1) - lam) <= gamma

    def sym_diff(pts):
        return d.contains(pts) ^ d.contains(reflect(pts, lam, e))

    dev = d.disk_deviation
    if dev is not None and d.dim == 2:
        base = _disk_slab_closed_form(gamma, lam, dev.radius)
        # The plane offset itself is only known to res.tol; propagate that
        # through the closed-form part.
        err_geom = (_disk_slab_closed_form(gamma, abs(lam) + res.tol, dev.radius)
                    - _disk_slab_closed_form(gamma, max(abs(lam) - res.tol, 0.0),
                                             dev.radius))
        if dev.box is None:
            return MeasureEstimate(value=base, error=err_geom, method="closed-form",
                                   n_samples=0)
        region = _hull_box(dev.box, reflected_box(dev.box, lam, e))
        disk = np.zeros(2)

        def correction(pts):
            in_disk = np.linalg.norm(pts - disk, axis=-1) < dev.radius
            in_disk_r = np.linalg.norm(reflect(pts, lam, e) - disk, axis=-1) < dev.radius
            f = sym_diff(pts).astype(float)
            g = (in_disk ^ in_disk_r).astype(float)
            return in_band(pts) * (f - g)

        mean, bar = _mean_3sigma(correction, region, n, seed)
        area = _box_volume(region)
        return MeasureEstimate(value=base + area * mean, error=area * bar + err_geom,
                               method="monte-carlo", n_samples=n)

    box = _hull_box(d.bbox, reflected_box(d.bbox, lam, e))
    axis = int(np.argmax(np.abs(e)))
    if abs(abs(float(e[axis])) - 1.0) < 1e-14:
        # Axis-aligned plane: clip the sampling box to the band itself.
        box = box.copy()
        box[0, axis] = max(box[0, axis], lam * e[axis] - gamma)
        box[1, axis] = min(box[1, axis], lam * e[axis] + gamma)
        if box[0, axis] >= box[1, axis]:
            return MeasureEstimate(value=0.0, error=0.0, method="closed-form",
                                   n_samples=0)
    return mc_volume(lambda p: in_band(p) & sym_diff(p), box, n, seed)


def boundary_weighted_integral(d: ImplicitDomain, s: float, n: int,
                               seed: int = 0) -> MeasureEstimate:
    """Integral of y1 (dist to domain boundary / dist to unit circle)^s over
    the right-half region inside the domain but outside the unit disk.

    Stratified in 13 geometric shells hugging the circle.  The ratio grows
    without bound at the circle (the gap vanishes, the numerator does not),
    so the innermost shell uses a t^(-s) importance map in the radial gap
    to keep the weighted integrand bounded.
    """
    if d.dim != 2:
        raise MeasureParameterError("boundary-weighted integral implemented in 2D")
    if not 0.0 < s < 1.0:
        raise MeasureParameterError(f"exponent must lie in (0, 1), got {s!r}")
    rho_e = radial_extremes(d)[1]
    h = rho_e - 1.0
    if h <= 1e-12:
        return MeasureEstimate(value=0.0, error=0.0, method="closed-form",
                               n_samples=0)
    h *= 1.0 + 1e-9

    n_shells = 13
    per = max(16, n // n_shells)
    total, var_sum, used = 0.0, 0.0, 0
    rng = np.random.default_rng(seed + _AUX_SEED_OFFSET)

    def weighted(t, theta):
        r = 1.0 + t
        pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        delta_dom = np.asarray(boundary_distance(d, pts), dtype=float)
        ratio = delta_dom / np.maximum(t, 1e-300)
        inside = d.contains(pts)
        return np.where(inside, pts[..., 0] * ratio ** s, 0.0) * r

    for k in range(n_shells):
        t_hi = h * 2.0 ** (-k)
        t_lo = 0.0 if k == n_shells - 1 else h * 2.0 ** (-k - 1)
        u = halton_points(per, 2, seed + k)
        uv = rng.random((min(per, 4096), 2))

        def shell_vals(uu):
            theta = -0.5 * math.pi + math.pi * uu[:, 1]
            if k == n_shells - 1:
                # Importance map concentrates radial samples at the circle.
                tt = t_hi * uu[:, 0] ** (1.0 / (1.0 - s))
                jac = t_hi * uu[:, 0] ** (s / (1.0 - s)) / (1.0 - s)
            else:
                tt = t_lo + (t_hi - t_lo) * uu[:, 0]
                jac = t_hi - t_lo
            return weighted(tt, theta) * jac * math.pi

        vals = shell_vals(u)
        total += float(np.mean(vals))
        var_sum += float(np.var(shell_vals(uv))) / per
        used += per
    return MeasureEstimate(value=total, error=3.0 * math.sqrt(var_sum),
                           method="monte-carlo", n_samples=used)
