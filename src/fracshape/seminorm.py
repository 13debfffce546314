"""Lipschitz seminorms on parametrized boundary curves and the offset-ellipse
chart machinery behind the stretched-ball seminorm limit.

The seminorm sup is attacked by dense quasi-random pair sampling seeded
with diagonal (nearly coincident) candidates, then coordinate-wise
golden-section polish of the best pairs.  Values are high-confidence
lower bounds of the true sup; the known limits make under-estimation
visible in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .domains import Chart
from .measures import halton_points
from .optim import golden_max
from .specfun import FracParams, ParameterDomainError, gamma_ns


_N_REFINE = 32  # best sampled pairs that go on to golden-section polish
_ROUNDS = 3  # polish rounds, each one pass per pair coordinate


@dataclass(frozen=True)
class OptimBudget:
    """Effort knobs for the pair-sampling sup search."""

    n_pairs: int = 100_000
    seed: int = 0


@dataclass(frozen=True)
class SeminormResult:
    value: float
    pair: np.ndarray
    n_pairs: int
    converged: bool


@dataclass(frozen=True)
class EllipsoidChart:
    """Offset-curve parametrization of the half boundary of the eroded
    stretched ball, together with its profile coefficients."""

    eps: float
    a_eps: Callable[[np.ndarray], np.ndarray]
    b_eps: Callable[[np.ndarray], np.ndarray]
    phi_eps: Callable[[np.ndarray], np.ndarray]


def ellipsoid_chart(eps: float) -> EllipsoidChart:
    """Chart r in [-1, 1] -> 1/2-inward offset of the (1+eps)-stretched
    circle, covering the x1 >= 0 half (n = 2).

    The offset point along the inward normal of the stretched circle
    works out to (a(|r|) sqrt(1-r^2), b(|r|) r) with the coefficients
    below; at eps = 0 it degenerates to the circle of radius 1/2.
    """
    e = float(eps)
    if not 0.0 <= e < 1.0:
        raise ParameterDomainError(f"chart stretch restricted to [0, 1), got {eps!r}")
    q = (1.0 + e) ** 2 - 1.0

    def a_eps(tau):
        tau = np.asarray(tau, dtype=float)
        return 1.0 + e - 1.0 / (2.0 * np.sqrt(1.0 + q * tau * tau))

    def b_eps(tau):
        tau = np.asarray(tau, dtype=float)
        return 1.0 - (1.0 + e) / (2.0 * np.sqrt(1.0 + q * tau * tau))

    def phi_eps(r):
        r = np.asarray(r, dtype=float)
        tau = np.abs(r)
        return np.stack([a_eps(tau) * np.sqrt(np.maximum(0.0, 1.0 - r * r)),
                         b_eps(tau) * r], axis=-1)

    return EllipsoidChart(eps=e, a_eps=a_eps, b_eps=b_eps, phi_eps=phi_eps)


def _pair_sup(num_fn, den_fn, lo: float, hi: float, budget: OptimBudget,
              anchors=()):
    """sup over parameter pairs of num/den by sampling plus refinement.

    ``anchors`` seed extra near-diagonal pairs around known maximizer
    locations.  Returns (value, (t, t_tilde), converged).
    """
    span = hi - lo

    def quotient(t, tt):
        num = np.asarray(num_fn(t, tt), dtype=float)
        den = np.asarray(den_fn(t, tt), dtype=float)
        return np.where(den > 1e-14 * max(1.0, span), num / np.maximum(den, 1e-300), 0.0)

    u = halton_points(budget.n_pairs, 2, budget.seed)
    t_a = lo + span * u[:, 0]
    t_b = lo + span * u[:, 1]

    # Diagonal candidates: the sup of a smooth quotient often lives in the
    # coincidence limit, which blind pair sampling approaches only slowly.
    grid = lo + span * (np.arange(2048) + 0.5) / 2048.0
    diag_a, diag_b = [], []
    for h in (1e-4 * span, 1e-6 * span):
        diag_a.extend([grid, grid])
        diag_b.append(np.minimum(grid + h, hi))
        diag_b.append(np.maximum(grid - h, lo))
    for anchor in anchors:
        for h in (1e-3, 1e-5, 1e-7):
            diag_a.extend([np.array([anchor])] * 2)
            diag_b.append(np.array([min(anchor + h * span, hi)]))
            diag_b.append(np.array([max(anchor - h * span, lo)]))
    t_a = np.concatenate([t_a] + diag_a)
    t_b = np.concatenate([t_b] + diag_b)

    vals = quotient(t_a, t_b)
    order = np.argsort(vals)
    top = order[-_N_REFINE:]
    best_t, best_tt = t_a[top].copy(), t_b[top].copy()
    best = float(vals[order[-1]])

    width = span / 100.0
    improved = np.inf
    for _ in range(_ROUNDS):
        before = best
        tt_fixed = best_tt

        def g_first(t):
            return quotient(t, tt_fixed)

        best_t, _ = golden_max(g_first, np.maximum(best_t - width, lo),
                               np.minimum(best_t + width, hi))
        t_fixed = best_t

        def g_second(tt):
            return quotient(t_fixed, tt)

        best_tt, v = golden_max(g_second, np.maximum(best_tt - width, lo),
                                np.minimum(best_tt + width, hi))
        best = max(best, float(np.max(v)))
        width /= 20.0
        improved = best - before
    k = int(np.argmax(quotient(best_t, best_tt)))
    pair = (float(best_t[k]), float(best_tt[k]))
    converged = improved <= 1e-8 * max(1.0, best)
    return best, pair, converged


def lipschitz_seminorm(field, chart: Chart, budget: Optional[OptimBudget] = None,
                       anchors=()) -> SeminormResult:
    """Lower bound on sup |f(x)-f(y)|/|x-y| over the parametrized curve.

    ``field`` is either a callable on points or anything with a vectorized
    ``eval`` attribute.  The achieving pair is reported in ambient
    coordinates.
    """
    budget = budget or OptimBudget()
    values = field.eval if hasattr(field, "eval") else field

    def num_fn(t, tt):
        return np.abs(np.asarray(values(chart.fn(t)), dtype=float)
                      - np.asarray(values(chart.fn(tt)), dtype=float))

    def den_fn(t, tt):
        diff = np.asarray(chart.fn(t), dtype=float) - np.asarray(chart.fn(tt), dtype=float)
        return np.linalg.norm(diff, axis=-1)

    value, (t, tt), converged = _pair_sup(num_fn, den_fn, chart.lo, chart.hi,
                                          budget, anchors=anchors)
    pair = np.stack([np.asarray(chart.fn(t), dtype=float),
                     np.asarray(chart.fn(tt), dtype=float)])
    return SeminormResult(value=value, pair=pair, n_pairs=budget.n_pairs,
                          converged=converged)


def ellipsoid_ratio_limit(p: FracParams) -> float:
    """Small-stretch limit of the boundary seminorm over the stretch size."""
    return p.s * gamma_ns(p) * 0.75 ** (p.s - 1.0)


def ellipsoid_seminorm(p: FracParams, eps: float,
                       budget: Optional[OptimBudget] = None) -> SeminormResult:
    """Boundary seminorm of the stretched-ball torsion profile on the
    1/2-offset surface (n = 2).

    The chart covers the x1 >= 0 half; both the curve and the profile are
    even in x1 and in x2, so straddling pairs never beat same-half pairs
    (reflecting one endpoint keeps the numerator and shrinks the chord).
    """
    from .frlap import torsion_ellipsoid

    if p.n != 2:
        raise ParameterDomainError("offset-chart seminorm implemented for n = 2")
    if not 0.0 < eps < 0.25:
        raise ParameterDomainError(f"stretch restricted to (0, 1/4), got {eps!r}")
    chart = ellipsoid_chart(eps)
    field = torsion_ellipsoid(p, eps)
    # The coincidence-limit maximizers sit near |r| = 1/sqrt(2).
    anchors = (-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    return lipschitz_seminorm(field, Chart(chart.phi_eps, -1.0, 1.0),
                              budget=budget, anchors=anchors)


def ellipsoid_seminorm_ratio(p: FracParams, eps: float,
                             budget: Optional[OptimBudget] = None) -> float:
    return ellipsoid_seminorm(p, eps, budget=budget).value / float(eps)


def richardson_limit(eps_values, ratios) -> float:
    """Polynomial extrapolation of (eps, ratio) data to eps = 0.

    Neville's scheme; with an O(eps) error model this is Richardson
    extrapolation on an arbitrary geometric grid.
    """
    x = [float(v) for v in eps_values]
    t = [float(v) for v in ratios]
    if len(x) != len(t) or len(x) < 2:
        raise ValueError("need at least two (eps, ratio) points to extrapolate")
    m = len(x)
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            t[i] = t[i] + (t[i] - t[i - 1]) * x[i] / (x[i - j] - x[i])
    return t[m - 1]


def phi0_quotient(r, rt) -> np.ndarray:
    """Closed quotient | |r|^2 - |rt|^2 | / |phi0(r) - phi0(rt)| (n = 2)."""
    chart = ellipsoid_chart(0.0)
    num = np.abs(np.asarray(r, dtype=float) ** 2 - np.asarray(rt, dtype=float) ** 2)
    den = np.linalg.norm(chart.phi_eps(r) - chart.phi_eps(rt), axis=-1)
    return num / den


def phi0_quotient_sup(budget: Optional[OptimBudget] = None) -> float:
    """sup of the squared-radius increment over the half-circle chord.

    The sup is approached along coincident pairs at |r| = 1/sqrt(2) and
    equals 2; the search seeds that family explicitly.
    """
    budget = budget or OptimBudget()
    chart = ellipsoid_chart(0.0)

    def num_fn(t, tt):
        return np.abs(np.asarray(t, dtype=float) ** 2 - np.asarray(tt, dtype=float) ** 2)

    def den_fn(t, tt):
        return np.linalg.norm(chart.phi_eps(t) - chart.phi_eps(tt), axis=-1)

    anchors = (-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    value, _, _ = _pair_sup(num_fn, den_fn, -1.0, 1.0, budget, anchors=anchors)
    return value


# ---------------------------------------------------------------------------
# first-order profile of the composed torsion value along the chart


def psi_profile(s: float, eps: float, tau):
    """First-order-in-eps remainder of the normalized torsion value along
    the offset chart, as a function of tau = |r|.

    Converges to zero pointwise; its derivative bound is what turns the
    pointwise chart limit into a limit of the pair sup.  Accepts s = 1
    (the profile formula itself degenerates gracefully).
    """
    tau = np.asarray(tau, dtype=float)
    e = float(eps)
    chart = ellipsoid_chart(e)
    x = (1.0 - chart.a_eps(tau) ** 2 * (1.0 - tau * tau) / (1.0 + e) ** 2
         - chart.b_eps(tau) ** 2 * tau * tau)
    return (x ** s - 0.75 ** s) / e + 0.5 * s * 0.75 ** (s - 1.0) * (1.0 - tau * tau)


def psi_profile_derivative(s: float, eps: float, tau):
    """Closed-form d(psi_profile)/d(tau).

    The product-rule core is d/dtau of the composed profile power; the
    full derivative divides it by eps and subtracts the quadratic ramp's
    slope s tau (3/4)^(s-1).
    """
    tau = np.asarray(tau, dtype=float)
    e = float(eps)
    q = 2.0 * e + e * e
    root = np.sqrt(1.0 + q * tau * tau)
    a = 1.0 + e - 1.0 / (2.0 * root)
    b = 1.0 - (1.0 + e) / (2.0 * root)
    one = (1.0 + q * tau * tau) ** 1.5
    core = (-tau ** 3 * (1.0 + e) * q * b / one
            + 2.0 * tau * a * a / (1.0 + e) ** 2
            - 2.0 * tau * b * b
            - (1.0 - tau * tau) * tau * q * a / ((1.0 + e) ** 2 * one))
    x = 1.0 - (1.0 - tau * tau) * a * a / (1.0 + e) ** 2 - tau * tau * b * b
    return s * core * x ** (s - 1.0) / e - s * tau * 0.75 ** (s - 1.0)

