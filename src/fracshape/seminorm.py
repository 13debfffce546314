"""The stretched-ball boundary seminorm and the offset-ellipse chart behind
its small-stretch limit.

On the stretched ball and the eps = 0 circle quotient the Lipschitz sup is
the coincidence limit: one closed-form rate, maximized along the chart.  One
pair search checks it (quasi-random pairs plus pairs 1e-4 of the span apart,
golden-polished); a pair that beats it less its rounding allowance marks the
result unconverged.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .domains import Chart, chart_extreme, chart_grids, polish
from .frlap import torsion_ellipsoid
from .measures import halton_points
from .specfun import FracParams, ParameterDomainError, gamma_ns, gamma_nse


_N_REFINE = 32  # best sampled pairs that go on to golden-section polish
_ROUNDS = 3  # polish rounds, each one pass per pair coordinate
_GRID = 2048  # chart nodes for the diagonal pairs and the coincidence rate
_PAIR_BLOCK = 16384  # sampled pairs whose quotients are taken at once
# A pair's numerator |f(x) - f(y)| carries rounding: the chart points are
# rounded off the curve, where the field's normal slope is O(1), and the
# field evaluation rounds again.  The worst polished pair seen, at
# (s, eps) = (0.75, 0.02) with a chord of 2.6e-7, overshoots the coincidence
# sup by about 70 ulps of |f|; 256 ulps covers that more than three times.
_ROUNDING_ULPS = 256.0
_MARGIN = 1e-9  # relative lead over the closed form that flags a pair


@dataclass(frozen=True)
class OptimBudget:
    """Effort knobs for the pair search that checks the closed form."""

    n_pairs: int = 100_000
    seed: int = 0


@dataclass(frozen=True)
class SeminormResult:
    value: float
    converged: bool


def _offset_coefficients(e: float, tau):
    """Coefficients a(tau), b(tau) of the offset chart, with the root
    sqrt(1 + q tau^2) they share; q = (1 + e)^2 - 1."""
    tau = np.asarray(tau, dtype=float)
    root = np.sqrt(1.0 + (2.0 * e + e * e) * tau * tau)
    return 1.0 + e - 1.0 / (2.0 * root), 1.0 - (1.0 + e) / (2.0 * root), root


def _offset_profile(e: float, tau):
    """Offset-chart algebra at tau = |r|: a, b, the slope a'(tau) (b' is
    (1 + e) a'), the torsion profile X = 1 - x1^2/(1+e)^2 - x2^2 at the
    chart point and dX/dtau.

    Every term of dX/dtau is O(e) as written (a/(1+e) - b is
    q / (2 (1+e) root)), so it keeps full relative accuracy as e -> 0.
    """
    tau = np.asarray(tau, dtype=float)
    a, b, root = _offset_coefficients(e, tau)
    q = 2.0 * e + e * e
    da = q * tau / (2.0 * root ** 3)
    c = a / (1.0 + e)
    x = 1.0 - (1.0 - tau * tau) * c * c - tau * tau * b * b
    dx = (tau * q * (c + b) / ((1.0 + e) * root)
          - 2.0 * (1.0 - tau * tau) * c * da / (1.0 + e)
          - 2.0 * tau * tau * b * (1.0 + e) * da)
    return a, b, da, x, dx


def ellipsoid_chart(eps: float) -> Chart:
    """Chart r in [-1, 1] -> 1/2-inward offset of the (1+eps)-stretched
    circle, covering the x1 >= 0 half: the half boundary of the eroded
    stretched ball.

    The offset point along the inward normal of the stretched circle
    works out to (a(|r|) sqrt(1-r^2), b(|r|) r) with ``_offset_coefficients``;
    at eps = 0 it degenerates to the circle of radius 1/2.
    """
    e = float(eps)
    if not 0.0 <= e < 1.0:
        raise ParameterDomainError(f"chart stretch restricted to [0, 1), got {eps!r}")

    def phi_eps(r):
        r = np.asarray(r, dtype=float)
        a, b, _ = _offset_coefficients(e, np.abs(r))
        return np.stack([a * np.sqrt(np.maximum(0.0, 1.0 - r * r)), b * r], axis=-1)

    return Chart(phi_eps, -1.0, 1.0)


def _best_pair(values, chart: Chart, budget: OptimBudget):
    """Ambient ends (x, y) of the pair that best bounds sup |f(x)-f(y)|/|x-y|
    from below: quasi-random pairs plus pairs 1e-4 of the span apart, the
    best ``_N_REFINE`` polished one end at a time against the other."""
    lo, hi = chart.lo, chart.hi
    span = hi - lo

    def end(t):
        x = np.asarray(chart.fn(t), dtype=float)
        return x, np.asarray(values(x), dtype=float)

    def quotient(x, fx, y, fy):
        den = np.linalg.norm(x - y, axis=-1)
        return np.where(den > 1e-14 * max(1.0, span),
                        np.abs(fx - fy) / np.maximum(den, 1e-300), 0.0)

    def polish_end(t0, fixed, width):
        # polish calls g last at the t it returns: that end is the polished one
        moved = None

        def g(x):
            nonlocal moved
            moved = x, np.asarray(values(x), dtype=float)
            return quotient(*moved, *fixed)

        t, _, v = polish(g, [(chart, t0, width / 2.0)], maximize=True)
        return t, moved, v

    u = halton_points(budget.n_pairs, budget.seed)
    # Diagonal candidates: the sup of a smooth quotient often lives in the
    # coincidence limit, which blind pair sampling approaches only slowly.
    grid = lo + span * (np.arange(_GRID) + 0.5) / _GRID
    h = 1e-4 * span
    t_a = np.concatenate([lo + span * u[:, 0], grid, grid])
    t_b = np.concatenate([lo + span * u[:, 1], np.minimum(grid + h, hi),
                          np.maximum(grid - h, lo)])

    # in blocks, which bounds the peak memory; the quotient is elementwise,
    # so the blocks give the bits of one pass
    vals = np.concatenate([quotient(*end(t_a[i:i + _PAIR_BLOCK]), *end(t_b[i:i + _PAIR_BLOCK]))
                           for i in range(0, t_a.size, _PAIR_BLOCK)])
    top = np.argsort(vals)[-_N_REFINE:]
    t, tt = t_a[top], t_b[top]
    b, width = end(tt), span / 100.0
    for _ in range(_ROUNDS):
        t, a, _ = polish_end(t, b, width)
        tt, b, v = polish_end(tt, a, width)
        width /= 20.0
    k = int(np.argmax(v))
    return a[0][k], b[0][k]


def _closed_form_seminorm(values, chart: Chart, rate,
                          budget: Optional[OptimBudget]) -> SeminormResult:
    """Seminorm of ``values`` along ``chart`` whose sup is the coincidence
    limit of ``rate``: ``rate(t)`` = |d f(phi(t))/dt| / |phi'(t)| is the
    limit of the pair quotient as both ends meet at t, and its max over the
    chart range, read off a grid in t itself (an identity chart), is the
    closed form.  The result is the larger of that closed form and the best pair's
    quotient less its rounding allowance (``_ROUNDING_ULPS`` of its larger
    field value, over its chord).  Unconverged only when the pair wins by
    more than ``_MARGIN``: an off-diagonal maximizer needs a real search.

    ``values`` is f on blocks of points, each value of its own point only;
    the pair's ends take bare one-point calls (scalar pow, see power_field).
    """
    grids = chart_grids([Chart(lambda r: r, chart.lo, chart.hi)], _GRID)
    closed = chart_extreme(grids, rate, 1, maximize=True)[0]
    x, y = _best_pair(values, chart, budget or OptimBudget())
    fx, fy = float(values(x)), float(values(y))
    allowance = _ROUNDING_ULPS * float(np.spacing(max(abs(fx), abs(fy))))
    pair = (abs(fx - fy) - allowance) / float(np.linalg.norm(x - y))
    if pair > closed:
        return SeminormResult(pair, converged=pair <= closed * (1.0 + _MARGIN))
    return SeminormResult(closed, converged=True)


def ellipsoid_ratio_limit(p: FracParams) -> float:
    """Small-stretch limit of the boundary seminorm over the stretch size."""
    return p.s * gamma_ns(p) * 0.75 ** (p.s - 1.0)


def _torsion_rate(p: FracParams, eps: float, r):
    """Coincidence rate gamma_nse |s X^(s-1) X'(tau)| / |phi_eps'(r)| of the
    stretched-ball torsion field, tau = |r|; numerator and denominator are
    both taken times sqrt(1 - r^2), which keeps them finite at |r| = 1."""
    tau = np.abs(np.asarray(r, dtype=float))
    a, b, da, x, dx = _offset_profile(eps, tau)
    w = np.sqrt(1.0 - tau * tau)
    speed = np.hypot(a * tau - da * w * w, w * ((1.0 + eps) * da * tau + b))
    return gamma_nse(p, eps) * p.s * x ** (p.s - 1.0) * np.abs(dx) * w / speed


def ellipsoid_seminorm(p: FracParams, eps: float,
                       budget: Optional[OptimBudget] = None) -> SeminormResult:
    """Boundary seminorm of the stretched-ball torsion profile on the
    1/2-offset surface (n = 2).

    The chart covers the x1 >= 0 half; both the curve and the profile are
    even in x1 and in x2, so straddling pairs never beat same-half pairs
    (reflecting one endpoint keeps the numerator and shrinks the chord).
    The sup is the coincidence limit, maximized in closed form.  A value
    below the smallest normal float (zero or subnormal, at a subnormal
    stretch) has lost its digits to underflow and is reported unconverged.
    """
    if p.n != 2:
        raise ParameterDomainError("offset-chart seminorm implemented for n = 2")
    if not 0.0 < eps < 0.25:
        raise ParameterDomainError(f"stretch restricted to (0, 1/4), got {eps!r}")
    res = _closed_form_seminorm(torsion_ellipsoid(p, eps).eval, ellipsoid_chart(eps),
                                lambda r: _torsion_rate(p, eps, r), budget)
    if res.value < sys.float_info.min:
        return replace(res, converged=False)
    return res


def richardson_limit(eps_values, ratios) -> float:
    """Polynomial extrapolation of (eps, ratio) data to eps = 0.

    Neville's scheme; with an O(eps) error model this is Richardson
    extrapolation on an arbitrary geometric grid.
    """
    x = [float(v) for v in eps_values]
    t = [float(v) for v in ratios]
    if len(x) != len(t) or len(x) < 2:
        raise ParameterDomainError("need at least two (eps, ratio) points to extrapolate")
    m = len(x)
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            t[i] = t[i] + (t[i] - t[i - 1]) * x[i] / (x[i - j] - x[i])
    return t[m - 1]


def phi0_quotient_sup(budget: Optional[OptimBudget] = None) -> float:
    """sup of |r^2 - rt^2| / |phi0(r) - phi0(rt)| on the half circle
    phi0(r) = (sqrt(1 - r^2), r) / 2, where r^2 = 4 x2^2.  The coincidence
    rate 2|r| / |phi0'(r)| = 4|r| sqrt(1 - r^2) peaks at |r| = 1/sqrt(2): 2.
    """
    return _closed_form_seminorm(lambda x: 4.0 * x[..., 1] ** 2, ellipsoid_chart(0.0),
                                 lambda r: 4.0 * np.abs(r) * np.sqrt(1.0 - r * r),
                                 budget).value
