"""Quasi-random measure estimation: volumes, symmetric differences, slabs,
and the boundary-weighted singular integral.

Sampling is scrambled-Halton, seed-indexed, so every estimate is
bit-reproducible.  A volume or slab estimate evaluates its integrand f once,
on the n points of one Halton stream, and reports their mean with the bar
3 sigma_f / sqrt(n), where sigma_f^2 = Var f(U).  The variance of those
same n values, mean(f^2) - mean(f)^2, is itself a QMC estimate of
sigma_f^2, so no second draw is needed.  The bar is the plain Monte Carlo
scale, not a calibrated error of the QMC mean.  The boundary-weighted
integral draws 13 shell streams, shell k at seed ``seed + k``, and
evaluates their points together in blocks of ``_BLOCK`` points; each
shell's mean and bar come from its own slice of the values.  Whenever a
domain certifies where it deviates from a centered disk, the slab estimator
splits off the disk part in closed form and only samples the small
deviation box.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domains import ImplicitDomain, boundary_distance, box_corners, radial_extreme
from .movingplanes import CriticalPlaneResult, reflect
from .specfun import ParameterDomainError

# Most points the boundary-weighted integral masks, or sends through the
# distance search, at once: the chart search holds a few arrays of this many
# points.
_BLOCK = 4096


@dataclass(frozen=True)
class MeasureEstimate:
    value: float
    error: float
    method: str
    n_samples: int


def _half_words(seed: int):
    """PCG64(seed)'s raw 64-bit words, each split into 32-bit halves, low
    half first (the order of numpy's ``next_uint32``).  A draw reads about
    132 halves, so one block of 72 words nearly always serves it."""
    gen = np.random.PCG64(seed)
    while True:
        yield from gen.random_raw(72).astype("<u8").view("<u4").tolist()


def _shuffle(b: int, halves) -> list:
    """Fisher-Yates shuffle of 0..b-1: for i = b-1 .. 1, swap i with j, a
    half masked to the bits of i and redrawn while it exceeds i (numpy's
    ``random_interval``)."""
    perm = list(range(b))
    for i in range(b - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = next(halves) & mask
        while j > i:
            j = next(halves) & mask
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def halton_points(n: int, seed: int) -> np.ndarray:
    """First ``n`` scrambled Halton points in [0,1)^2 for this seed.

    Owen's randomized Halton (A. B. Owen, "A randomized Halton algorithm
    in R", arXiv:1706.02808, 2017): coordinate i is the radical inverse in
    the i-th prime base b (2, then 3), each digit j mapped through its own
    random permutation of 0..b-1, for every j with 1 - b^-(j+1) < 1.  The
    permutations are Fisher-Yates shuffles of 0..b-1 (``_shuffle``), base
    by base and digit by digit, on the half-words of one
    ``np.random.PCG64(seed)`` stream, so the bytes rest only on
    ``SeedSequence`` and PCG64's raw output.  That is what
    ``np.random.default_rng(seed).shuffle(np.arange(b))`` draws, and the
    digit terms are summed in digit order, so the points are SciPy's
    scrambled Halton points for this seed, bit for bit.  A base-2 shuffle
    takes one half-word and never redraws: it swaps 1 with 0 when the
    half-word is even.

    A column is built a digit at a time: index h b^j + l, for l < b^j,
    sums the terms of l and then digit j's term for h, so digit j is one
    broadcast add over at most b^(j+1) indices.  Once every index is
    covered, the remaining digits are 0 and add their constant terms.

    Prefixes agree: the first half of a 2n draw is the n draw.
    """
    halves = _half_words(seed)
    out = np.empty((n, 2))
    for col, b in enumerate((2, 3)):
        digits = math.ceil(54 / math.log2(b)) - 1
        if b == 2:
            perms = [(0, 1) if h & 1 else (1, 0) for h in itertools.islice(halves, digits)]
        else:
            perms = [_shuffle(b, halves) for _ in range(digits)]
        acc = np.zeros(1)  # the sums of the indices below b^j
        b2r = 1.0 / b
        for perm in perms:
            if acc.size < n:
                term = np.array(perm[:min(b, -(-n // acc.size))]) * b2r
                acc = (term[:, None] + acc).ravel()
            elif perm[0]:  # adding +0.0 to a sum >= 0 keeps its bits
                acc += perm[0] * b2r
            b2r /= b
        out[:, col] = acc[:n]
    return out


def _box_volume(box: np.ndarray) -> float:
    return float(np.prod(box[1] - box[0]))


def _draw(box: np.ndarray, n: int, seed: int) -> np.ndarray:
    """The first ``n`` scrambled Halton points of this seed, mapped onto the box."""
    lo, hi = box[0], box[1]
    return lo + (hi - lo) * halton_points(n, seed)


def _mean_3sigma(vals):
    """QMC mean of the integrand values and their 3 sigma / sqrt(n) bar, both
    from the same ``n`` values."""
    vals = np.asarray(vals, dtype=float)
    return float(np.mean(vals)), 3.0 * math.sqrt(float(np.var(vals)) / vals.size)


def mc_volume(pred, box, n: int, seed: int = 0) -> MeasureEstimate:
    """Volume of {x in box : pred(x)} by quasi-random hit counting."""
    if n < 1:
        raise ParameterDomainError(f"sample count must be >= 1, got {n!r}")
    box = np.asarray(box, dtype=float)
    vol = _box_volume(box)
    mean, bar = _mean_3sigma(pred(_draw(box, n, seed)))
    return MeasureEstimate(value=vol * mean, error=vol * bar, method="monte-carlo",
                           n_samples=n)


def _mirror_hull(box: np.ndarray, lam: float, e) -> np.ndarray:
    """Bounding box of ``box`` (a ``(2, 2)`` array of lower and upper
    corners) together with its mirror image across the plane {x.e = lam}."""
    corners = box_corners(box)
    both = np.concatenate([corners, reflect(corners, lam, e)])
    return np.stack([both.min(axis=0), both.max(axis=0)])


def _sym_diff(d: ImplicitDomain, lam: float, e):
    """Indicator of the symmetric difference of the domain and its mirror
    image across {x.e = lam}."""
    def pred(pts):
        return d.contains(pts) ^ d.contains(reflect(pts, lam, e))

    return pred


def sym_diff_measure(d: ImplicitDomain, res: CriticalPlaneResult, n: int,
                     seed: int = 0) -> MeasureEstimate:
    """Measure of the symmetric difference between the domain and its
    reflection across the critical plane."""
    e, lam = np.asarray(res.e, dtype=float), float(res.lam)
    return mc_volume(_sym_diff(d, lam, e), _mirror_hull(d.bbox, lam, e), n, seed)


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
        raise ParameterDomainError(f"band half-width restricted to (0, 1/4], got {gamma!r}")
    e, lam = np.asarray(res.e, dtype=float), float(res.lam)

    def in_band(pts):
        return np.abs(pts[:, 0] * e[0] + pts[:, 1] * e[1] - lam) <= gamma

    dev = d.disk_deviation
    if dev is not None:
        base = _disk_slab_closed_form(gamma, lam, dev.radius)
        # The plane offset itself is only known to res.tol; propagate that
        # through the closed-form part as the width of its values' interval
        # (at a tiny gamma rounding can order the two ends either way).
        err_geom = abs(_disk_slab_closed_form(gamma, abs(lam) + res.tol, dev.radius)
                       - _disk_slab_closed_form(gamma, max(abs(lam) - res.tol, 0.0),
                                                dev.radius))
        if dev.box is None:
            return MeasureEstimate(value=base, error=err_geom, method="closed-form",
                                   n_samples=0)
        region = _mirror_hull(dev.box, lam, e)

        def correction(pts):
            mirrored = reflect(pts, lam, e)
            in_disk = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2) < dev.radius
            in_disk_r = np.sqrt(mirrored[:, 0] ** 2 + mirrored[:, 1] ** 2) < dev.radius
            f = (d.contains(pts) ^ d.contains(mirrored)).astype(float)
            g = (in_disk ^ in_disk_r).astype(float)
            return in_band(pts) * (f - g)

        mean, bar = _mean_3sigma(correction(_draw(region, n, seed)))
        area = _box_volume(region)
        # The correction's mean is signed, so when the band measure is within
        # its bar of 0 the sum can dip below it; a measure is >= 0, and 0 with
        # the same bar still covers the interval the sum stood for.
        return MeasureEstimate(value=max(base + area * mean, 0.0),
                               error=area * bar + err_geom,
                               method="monte-carlo", n_samples=n)

    box = _mirror_hull(d.bbox, lam, e)
    axis = int(np.argmax(np.abs(e)))
    if abs(abs(float(e[axis])) - 1.0) < 1e-14:
        # Axis-aligned plane: clip the sampling box to the band itself.
        box = box.copy()
        box[0, axis] = max(box[0, axis], lam * e[axis] - gamma)
        box[1, axis] = min(box[1, axis], lam * e[axis] + gamma)
        if box[0, axis] >= box[1, axis]:
            return MeasureEstimate(value=0.0, error=0.0, method="closed-form",
                                   n_samples=0)
    sym_diff = _sym_diff(d, lam, e)
    return mc_volume(lambda p: in_band(p) & sym_diff(p), box, n, seed)


def boundary_weighted_integral(d: ImplicitDomain, s: float, n: int,
                               seed: int = 0) -> MeasureEstimate:
    """Integral of y1 (dist to domain boundary / dist to unit circle)^s over
    the right-half region inside the domain but outside the unit disk.

    Stratified in 13 geometric shells hugging the circle.  The ratio grows
    without bound at the circle (the gap vanishes, the numerator does not),
    so the innermost shell uses a t^(-s) importance map in the radial gap
    to keep the weighted integrand bounded.  The integrand vanishes outside
    the domain, so only the shells' points that lie inside go through the
    boundary distance search, all shells together, ``_BLOCK`` at a time;
    every other point contributes 0.

    Nothing is sampled when h = rho_e - 1 <= 1e-12: the value is 0 and the
    error the integral over the annulus 1 < |x| < rho_e (h padded by 4 ulps
    of rho_e), 2 h (1+h)^2 pi s / sin(pi s), which bounds any domain inside
    B(rho_e) since there dist(x, boundary) <= rho_e - |x|; 0 if h <= 0.
    """
    if not 0.0 < s < 1.0:
        raise ParameterDomainError(f"exponent must lie in (0, 1), got {s!r}")
    rho_e = radial_extreme(d, maximize=True)
    h = rho_e - 1.0
    if h <= 1e-12:
        h = h + 4.0 * float(np.spacing(rho_e)) if h > 0.0 else 0.0
        bar = 2.0 * h * (1.0 + h) ** 2 * math.pi * s / math.sin(math.pi * s)
        return MeasureEstimate(value=0.0, error=bar, method="closed-form",
                               n_samples=0)
    h *= 1.0 + 1e-9

    n_shells = 13
    per = max(16, n // n_shells)
    t, theta = np.empty(n_shells * per), np.empty(n_shells * per)
    jacs = []
    for k in range(n_shells):
        uu = halton_points(per, seed + k)
        sl = slice(k * per, (k + 1) * per)
        t_hi = h * 2.0 ** (-k)
        if k == n_shells - 1:
            # Importance map concentrates radial samples at the circle.
            t[sl] = t_hi * uu[:, 0] ** (1.0 / (1.0 - s))
            jacs.append(t_hi * uu[:, 0] ** (s / (1.0 - s)) / (1.0 - s))
        else:
            t_lo = h * 2.0 ** (-k - 1)
            t[sl] = t_lo + (t_hi - t_lo) * uu[:, 0]
            jacs.append(t_hi - t_lo)
        theta[sl] = -0.5 * math.pi + math.pi * uu[:, 1]

    # Mask block by block (all n points at once would raise the peak memory),
    # then search only the points inside.
    inside, inside_pts = [], []
    for i in range(0, t.size, _BLOCK):
        b = slice(i, i + _BLOCK)
        r = 1.0 + t[b]
        pts = np.stack([r * np.cos(theta[b]), r * np.sin(theta[b])], axis=-1)
        keep = d.contains(pts)
        inside.append(i + np.flatnonzero(keep))
        inside_pts.append(pts[keep])
    inside, inside_pts = np.concatenate(inside), np.concatenate(inside_pts)

    weighted = np.zeros(t.size)
    for i in range(0, inside.size, _BLOCK):
        j, q = inside[i:i + _BLOCK], inside_pts[i:i + _BLOCK]
        ratio = boundary_distance(d, q) / np.maximum(t[j], 1e-300)
        weighted[j] = q[:, 0] * ratio ** s * (1.0 + t[j])

    total, bar_sq = 0.0, 0.0
    for k, jac in enumerate(jacs):
        mean, bar = _mean_3sigma(weighted[k * per:(k + 1) * per] * jac * math.pi)
        total += mean
        bar_sq += bar * bar
    return MeasureEstimate(value=total, error=math.sqrt(bar_sq), method="monte-carlo",
                           n_samples=n_shells * per)
