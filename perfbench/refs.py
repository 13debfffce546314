"""Reference computations the benchmark checks the program against.

Everything here is written from the mathematical definitions (the bump
profile, the stretched-ball torsion constant), not from fracshape code,
so an agreement is evidence rather than a tautology.  numpy and scipy
are imported only when this module is loaded, which the runner does
after the timed operations, so nothing here shifts `setup_s`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.spatial import cKDTree

# Level excess that counts as a genuine inclusion violation in the
# moving-plane reference; the same threshold the scan documents.
VIOLATION_EPS = 1e-12


# ---------------------------------------------------------------------------
# the bump-perturbed disk: unit disk whose lower boundary over 0 < x < 1/2 is
# the graph psi(x) = -sqrt(1 - x^2) - eps * h((x - c) / w), c = eps^(1-1/alpha),
# w = eps^(1/alpha), with h the smooth odd cutoff (h(t) = 2t on |t| <= 1/4,
# h = 0 for |t| >= 3/4)


def _smoothstep(v):
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a = np.where(v > 0.0, np.exp(-1.0 / np.where(v > 0.0, v, 1.0)), 0.0)
        b = np.where(v < 1.0, np.exp(-1.0 / np.where(v < 1.0, 1.0 - v, 1.0)), 0.0)
    return a / (a + b)


def _odd_cutoff(t):
    t = np.asarray(t, dtype=float)
    return 2.0 * t * (1.0 - _smoothstep(2.0 * (np.abs(t) - 0.25)))


class Bump:
    """Closed-form geometry of the bump domain (strip 0 < x < 1/2, -3/2 < y < -1/2)."""

    def __init__(self, eps: float, alpha: float = 2.0):
        self.eps = float(eps)
        self.c = self.eps ** (1.0 - 1.0 / alpha)
        self.w = self.eps ** (1.0 / alpha)

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        return (-np.sqrt(np.maximum(1.0 - x * x, 0.0))
                - self.eps * _odd_cutoff((x - self.c) / self.w))

    def lower(self, x):
        x = np.asarray(x, dtype=float)
        circ = -np.sqrt(np.maximum(1.0 - x * x, 0.0))
        return np.where((x > 0.0) & (x < 0.5), self.psi(x), circ)

    @staticmethod
    def upper(x):
        x = np.asarray(x, dtype=float)
        return np.sqrt(np.maximum(1.0 - x * x, 0.0))

    def level(self, pts):
        x, y = pts[..., 0], pts[..., 1]
        strip = (x > 0.0) & (x < 0.5) & (y > -1.5) & (y < -0.5)
        return np.where(strip, self.psi(np.where(strip, x, 0.0)) - y, np.hypot(x, y) - 1.0)

    def support(self):
        """Interval outside which the graph is the circle."""
        return self.c - 0.75 * self.w, self.c + 0.75 * self.w

    def boundary(self, n: int) -> np.ndarray:
        """About ``n`` boundary points: half on the circle arc, half on the graph,
        the graph half crowded onto the bump support."""
        m = n // 4
        theta = np.linspace(-math.pi / 3.0, 1.5 * math.pi, 2 * m)
        arc = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        lo, hi = self.support()
        xs = np.concatenate([np.linspace(0.0, 0.5, m), np.linspace(max(lo, 0.0), hi, m)])
        graph = np.stack([xs, self.psi(xs)], axis=-1)
        return np.concatenate([arc, graph])


def slab_column_integral(bump: Bump, lam: float, gamma: float):
    """Band-restricted symmetric difference of the bump domain and its mirror
    image across {x = lam}, as the 1D column integral
    int_{lam-gamma}^{lam+gamma} |L(x)-L(2lam-x)| + |U(x)-U(2lam-x)| dx.

    Returns ``(value, quadrature error estimate)``.
    """
    lo, hi = lam - gamma, lam + gamma
    s_lo, s_hi = bump.support()
    kinks = sorted({p for p in (lam, 0.0, 0.5, s_lo, s_hi, 2 * lam, 2 * lam - 0.5,
                                2 * lam - s_lo, 2 * lam - s_hi) if lo < p < hi})

    def lower_gap(x):
        return abs(float(bump.lower(x) - bump.lower(2.0 * lam - x)))

    def upper_gap(x):
        return abs(float(bump.upper(x) - bump.upper(2.0 * lam - x)))

    total, err = 0.0, 0.0
    for fn in (lower_gap, upper_gap):
        v, e = integrate.quad(fn, lo, hi, points=kinks, limit=400,
                              epsabs=1e-14, epsrel=1e-12)
        total += v
        err += e
    return total, err


def dense_critical_lambda(bump: Bump, tol: float, n_points: int = 4_000_000,
                          stride: int = 16) -> float:
    """Critical offset of the moving-plane scan in direction (1, 0), by brute
    force: reflect every dense boundary point beyond {x = mu} and test the
    image against the closed-form level set.

    A downward scan in steps of Lambda/200 on every ``stride``-th point finds
    the first violating step and bisection on the same points narrows it to
    1e-6; bisection on all points then pins the offset to ``tol``.  A
    violation on the subset is one on all points, so only the upper end of
    the bracket needs re-checking when the point set grows.
    """
    pts = bump.boundary(n_points)
    order = np.argsort(-pts[:, 0])
    x, y = pts[order, 0], pts[order, 1]

    def violates(mu, step=1):
        k = int(np.searchsorted(-x, -mu, side="left"))  # points with x > mu
        xr, yr = 2.0 * mu - x[:k:step], y[:k:step]
        strip = (xr > 0.0) & (xr < 0.5) & (yr > -1.5) & (yr < -0.5)
        if np.any(np.hypot(xr[~strip], yr[~strip]) - 1.0 > VIOLATION_EPS):
            return True
        return bool(np.any(bump.psi(xr[strip]) - yr[strip] > VIOLATION_EPS))

    def bisect(lo, hi, width, step):
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            if violates(mid, step):
                lo = mid
            else:
                hi = mid
        return lo, hi

    top = float(x[0])
    step_mu = top / 200.0
    hi, mu = top, top - step_mu
    while not violates(mu, stride):
        hi, mu = mu, mu - step_mu
        if mu < -top:
            raise RuntimeError("dense reflection never violates")
    lo, hi = bisect(mu, hi, 1e-6, stride)
    while violates(hi):
        lo, hi = hi, hi + 2.0 * (hi - lo)
    lo, hi = bisect(lo, hi, tol, 1)
    return 0.5 * (lo + hi)


def power_fit(xs, ys):
    """Least-squares slope and r^2 of log y against log x."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    slope, icpt = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + icpt)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    return float(slope), 1.0 - float(resid @ resid) / ss_tot


def boundary_layer_integral(bump: Bump, s: float, n_theta: int = 600, n_t: int = 48,
                            n_poly: int = 500_000):
    """Integral of x1 (dist to the domain boundary / (|x| - 1))^s over the part
    of the domain outside the unit disk with x1 > 0.

    That sliver lies between the circle and the bump graph where the graph dips
    below the circle.  In polar coordinates the radial gap t = |x| - 1 runs over
    (0, T(theta)); the substitution t = T u^(1/(1-s)) absorbs the t^(-s) edge,
    and Gauss-Legendre rules in u and theta do the rest.  Distances come from a
    KD-tree over a dense boundary polyline.  Returns ``(value, estimate of the
    quadrature error)``, the latter from halving both node counts.
    """
    s_lo, s_hi = bump.support()
    # graph below the circle: x in (c, c + 3w/4); find where the dip ends
    xs = np.linspace(max(s_lo, 0.0), s_hi, 20001)
    below = bump.psi(xs) < -np.sqrt(1.0 - xs * xs)
    x_a, x_b = float(xs[below].min()), float(xs[below].max())
    pad = 2.0 * (xs[1] - xs[0])
    x_a, x_b = max(x_a - pad, 0.0), x_b + pad
    tree = cKDTree(bump.boundary(n_poly))

    def radial_gap(theta):
        # boundary radius along the ray through (cos, sin)(theta): solve
        # psi(r cos) = r sin for r >= 1 by bisection (the ray crosses the graph once)
        c, sn = np.cos(theta), np.sin(theta)
        r_lo = np.ones_like(theta)
        r_hi = np.full_like(theta, 1.0 + 4.0 * bump.eps + 1e-9)
        for _ in range(80):
            r = 0.5 * (r_lo + r_hi)
            inside = bump.psi(r * c) < r * sn
            r_lo, r_hi = np.where(inside, r, r_lo), np.where(inside, r_hi, r)
        return np.maximum(0.5 * (r_lo + r_hi) - 1.0, 0.0)

    # x runs from x_a to x_b as theta increases from th_a to th_b
    th_a = math.atan2(-math.sqrt(1.0 - x_a * x_a), x_a)
    th_b = math.atan2(-math.sqrt(1.0 - x_b * x_b), x_b)

    def rule(nth, nt):
        gt, gw = np.polynomial.legendre.leggauss(nth)
        theta = th_a + (th_b - th_a) * 0.5 * (gt + 1.0)
        wth = 0.5 * (th_b - th_a) * gw
        T = radial_gap(theta)
        ut, uw = np.polynomial.legendre.leggauss(nt)
        u = 0.5 * (ut + 1.0)
        wu = 0.5 * uw
        t = T[:, None] * u[None, :] ** (1.0 / (1.0 - s))
        r = 1.0 + t
        pts = np.stack([r * np.cos(theta)[:, None], r * np.sin(theta)[:, None]], axis=-1)
        dist, _ = tree.query(pts.reshape(-1, 2))
        dist = dist.reshape(t.shape)
        # t^(-s) dt = T^(1-s) / (1-s) du
        f = pts[..., 0] * dist ** s * r * T[:, None] ** (1.0 - s) / (1.0 - s)
        return float(np.sum(wth[:, None] * wu[None, :] * f))

    fine = rule(n_theta, n_t)
    coarse = rule(n_theta // 2, n_t // 2)
    return fine, abs(fine - coarse)


# ---------------------------------------------------------------------------
# stretched ball


def torsion_constant(s: float, n: int = 2) -> float:
    """gamma_{n,s} with (-Delta)^s [gamma (1 - |x|^2)_+^s] = 1 in the unit ball."""
    return math.gamma(n / 2.0) / (4.0 ** s * math.gamma(1.0 + s) * math.gamma(n / 2.0 + s))


def seminorm_ratio_limit(s: float) -> float:
    """Small-stretch limit of seminorm / eps: s gamma_{2,s} (3/4)^(s-1)."""
    return s * torsion_constant(s) * 0.75 ** (s - 1.0)
