import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from fracshape import seminorm
from fracshape.domains import Chart, ellipsoid, signed_distance
from fracshape.frlap import torsion_ellipsoid
from fracshape.measures import halton_points
from fracshape.seminorm import (OptimBudget, ellipsoid_chart,
                                ellipsoid_ratio_limit, ellipsoid_seminorm,
                                phi0_quotient_sup, richardson_limit)
from fracshape.specfun import FracParams, ParameterDomainError

P = FracParams(2, 0.5)
SMALL = OptimBudget(n_pairs=20_000)


def circle_chart():
    return Chart(lambda t: np.stack([np.cos(t), np.sin(t)], axis=-1),
                 0.0, 2.0 * math.pi)


def pair_quotient(f, chart=None):
    """|f(x) - f(y)| / |x - y| at the ends the private pair search returns."""
    x, y = seminorm._best_pair(f, chart or circle_chart(), SMALL)
    return float(np.abs(f(x) - f(y)) / np.linalg.norm(x - y))


class TestLipschitzSeminorm:

    def test_coordinate_on_circle(self):
        # |cos a - cos b| / chord = |sin((a+b)/2)|, so the sup is exactly 1
        quot = pair_quotient(lambda x: x[..., 0])
        assert quot == pytest.approx(1.0, abs=1e-9)
        assert quot <= 1.0 + 1e-12

    def test_constant_field_is_flat(self):
        assert pair_quotient(lambda x: np.full(x.shape[:-1], 3.7)) == 0.0

    def test_scale_covariance(self):
        def f(x):
            return np.sin(3.0 * x[..., 0]) + x[..., 1]

        base = pair_quotient(f)
        for c in (-2.0, 0.0):
            assert pair_quotient(lambda x: c * f(x)) == abs(c) * base  # exact: zero and power-of-two scaling
        # a non power-of-two factor can flip near-tied candidate rankings, so
        # the refined pair only matches to optimizer resolution, not an ulp
        assert pair_quotient(lambda x: 3.0 * f(x)) == pytest.approx(3.0 * base, rel=1e-9)

    def test_reports_achieving_pair(self):
        # the ends are chart points, and their polished quotient beats every
        # sampled pair's
        chart = circle_chart()
        x, y = seminorm._best_pair(lambda x: x[..., 1], chart, SMALL)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-15)
        u = chart.lo + (chart.hi - chart.lo) * halton_points(SMALL.n_pairs, SMALL.seed)
        a, b = chart.fn(u[:, 0]), chart.fn(u[:, 1])
        sampled = np.abs(a[:, 1] - b[:, 1]) / np.linalg.norm(a - b, axis=-1)
        assert abs(x[1] - y[1]) / np.linalg.norm(x - y) >= float(np.max(sampled))

    def test_more_pairs_never_lose_ground(self):
        sem_small = ellipsoid_seminorm(P, 0.01, budget=OptimBudget(n_pairs=10_000))
        sem_big = ellipsoid_seminorm(P, 0.01, budget=OptimBudget(n_pairs=40_000))
        assert sem_big.value >= sem_small.value - 1e-9


class TestOffsetChart:

    def test_zero_stretch_is_the_half_circle(self):
        chart = ellipsoid_chart(0.0)
        r = np.linspace(-1.0, 1.0, 101)
        want = np.stack([0.5 * np.sqrt(1 - r * r), 0.5 * r], axis=-1)
        assert chart.fn(r) == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.2])
    def test_curve_sits_half_inside_the_stretched_ball(self, eps):
        chart = ellipsoid_chart(eps)
        dom = ellipsoid(eps)
        r = np.linspace(-0.999, 0.999, 401)
        d = signed_distance(dom, chart.fn(r))
        assert np.max(np.abs(d + 0.5)) < 1e-6

    def test_chart_converges_to_circle_linearly(self):
        r = np.linspace(-1.0, 1.0, 301)
        base = ellipsoid_chart(0.0).fn(r)
        for eps in (0.02, 0.01):
            gap = np.linalg.norm(ellipsoid_chart(eps).fn(r) - base, axis=-1)
            assert np.max(gap) < 2.0 * eps

    def test_stretch_validation(self):
        with pytest.raises(ParameterDomainError):
            ellipsoid_chart(-0.1)
        with pytest.raises(ParameterDomainError):
            ellipsoid_chart(1.0)


class TestSeminormRatio:

    def test_limit_constant(self):
        assert ellipsoid_ratio_limit(P) == pytest.approx(2.0 / (math.pi * math.sqrt(3.0)),
                                                         rel=1e-14)

    def test_ratio_approaches_limit(self):
        lim = ellipsoid_ratio_limit(P)
        r1 = ellipsoid_seminorm(P, 0.02, budget=SMALL).value / 0.02
        r2 = ellipsoid_seminorm(P, 0.005, budget=SMALL).value / 0.005
        assert abs(r2 - lim) < abs(r1 - lim)
        assert r2 == pytest.approx(lim, rel=0.01)

    def test_richardson_is_exact_on_polynomials(self):
        eps = [0.04, 0.02, 0.01]
        lin = [1.0 + 3.0 * e for e in eps]
        quad = [2.0 - e + 0.5 * e * e for e in eps]
        assert richardson_limit(eps, lin) == pytest.approx(1.0, abs=1e-12)
        assert richardson_limit(eps, quad) == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(ParameterDomainError, match="need at least two"):
            richardson_limit([0.1], [1.0])

    def test_parameter_validation(self):
        with pytest.raises(ParameterDomainError):
            ellipsoid_seminorm(P, 0.3)
        with pytest.raises(ParameterDomainError):
            ellipsoid_seminorm(FracParams(3, 0.5), 0.01)


class TestClosedForm:

    @pytest.mark.parametrize("eps", [0.02, 0.01])
    def test_rate_matches_differences(self, eps):
        # chord quotients of the real field about r, central in r and
        # Richardson-extrapolated over steps h and 2h
        r = np.array([-0.9, -0.7, -0.5, -0.2, 0.1, 0.3, 0.6, 0.7071, 0.8, 0.95])
        for s in (0.25, 0.5, 0.75):
            p = FracParams(2, s)
            f = torsion_ellipsoid(p, eps).eval
            phi = ellipsoid_chart(eps).fn

            def quotient(h):
                return (np.abs(f(phi(r + h)) - f(phi(r - h)))
                        / np.linalg.norm(phi(r + h) - phi(r - h), axis=-1))

            fd = (4.0 * quotient(3e-4) - quotient(6e-4)) / 3.0
            assert seminorm._torsion_rate(p, eps, r) == pytest.approx(fd, rel=1e-8)

    # rows whose pair search alone reported a roundoff-swamped value as
    # converged on some seed
    @pytest.mark.parametrize("s, eps", [(0.25, 0.005), (0.25, 0.01), (0.5, 1e-9),
                                        (0.75, 0.005)])
    def test_clean_rows_at_seed_700(self, s, eps):
        p = FracParams(2, s)
        res = ellipsoid_seminorm(p, eps, budget=OptimBudget(seed=700))
        assert res.converged
        assert abs(res.value / eps - ellipsoid_ratio_limit(p)) <= 0.5 * eps + 1e-3

    def test_seed_does_not_move_the_value(self):
        p = FracParams(2, 0.75)
        a, b = (ellipsoid_seminorm(p, 0.005, budget=OptimBudget(seed=k)).value
                for k in (0, 700))
        assert a == pytest.approx(b, rel=1e-6)

    def test_tiny_stretch_reaches_the_limit(self):
        lim = ellipsoid_ratio_limit(P)
        res = ellipsoid_seminorm(P, 1e-9)
        assert res.converged
        assert abs(res.value / 1e-9 - lim) <= 1e-6 * lim

    @pytest.mark.parametrize("eps", [5e-324, 1e-310])
    def test_underflowed_seminorm_is_unconverged(self, eps):
        res = ellipsoid_seminorm(P, eps, budget=SMALL)
        assert res.value < sys.float_info.min and not res.converged

    def test_halved_rate_loses_to_the_pair_search(self, monkeypatch):
        rate = seminorm._torsion_rate
        monkeypatch.setattr(seminorm, "_torsion_rate",
                            lambda p, eps, r: 0.5 * rate(p, eps, r))
        res = ellipsoid_seminorm(P, 0.01, budget=SMALL)
        assert not res.converged
        assert res.value / 0.01 == pytest.approx(ellipsoid_ratio_limit(P), rel=0.02)

    def test_each_polish_pass_values_its_fixed_end_once(self, monkeypatch):
        # a polish pass moves one end of each refined pair against the other,
        # which stays put: its field values are taken once, not per step
        shapes = []
        field = seminorm.torsion_ellipsoid

        def counted(p, eps):
            f = field(p, eps)

            def eval_(pts):
                shapes.append(np.shape(pts))
                return f.eval(pts)

            return replace(f, eval=eval_)

        monkeypatch.setattr(seminorm, "torsion_ellipsoid", counted)
        ellipsoid_seminorm(P, 0.01, budget=SMALL)
        refined = shapes.count((seminorm._N_REFINE, 2))
        assert 0 < refined <= 2 * seminorm._ROUNDS + 2


class TestQuotient:

    def test_sup_is_two(self):
        assert phi0_quotient_sup(OptimBudget(n_pairs=20_000)) == pytest.approx(2.0, abs=1e-3)

    def test_chords_are_stable_under_small_stretch(self):
        # the chart chord length moves by O(eps) relative to the circle chord
        eps = 0.01
        u = halton_points(100_000, seed=8)
        r, rt = 2.0 * u[:, 0] - 1.0, 2.0 * u[:, 1] - 1.0
        keep = np.abs(r - rt) > 1e-6
        r, rt = r[keep], rt[keep]
        c0 = ellipsoid_chart(0.0)
        ce = ellipsoid_chart(eps)
        den0 = np.linalg.norm(c0.fn(r) - c0.fn(rt), axis=-1)
        dene = np.linalg.norm(ce.fn(r) - ce.fn(rt), axis=-1)
        ratio = dene / den0
        assert np.all(ratio > 1.0 - 5.0 * eps)
        assert np.all(ratio < 1.0 + 5.0 * eps)


def psi_profile(s, eps, tau):
    """First-order-in-eps remainder of the normalized torsion value
    X^s along the offset chart, tau = |r|; it converges to zero pointwise."""
    x = seminorm._offset_profile(eps, tau)[3]
    return (x ** s - 0.75 ** s) / eps + 0.5 * s * 0.75 ** (s - 1.0) * (1.0 - tau * tau)


def psi_profile_derivative(s, eps, tau):
    """d(psi_profile)/d(tau) from the closed-form dX/dtau of the offset
    profile, the slope the coincidence rate is built on."""
    _, _, _, x, dx = seminorm._offset_profile(eps, tau)
    return s * dx * x ** (s - 1.0) / eps - s * tau * 0.75 ** (s - 1.0)


class TestProfile:

    def test_vanishes_at_zero_stretch_limit(self):
        tau = np.linspace(0.05, 0.95, 19)
        for eps in (1e-2, 1e-3):
            assert np.max(np.abs(psi_profile(0.5, eps, tau))) < 2.0 * eps

    # tau-grid strictly inside (0, 1) for the slope checks
    TAU = (np.arange(256) + 0.5) / 256

    def test_closed_derivative_matches_differences(self):
        eps, h = 0.01, 1e-5
        num = (psi_profile(0.5, eps, self.TAU + h)
               - psi_profile(0.5, eps, self.TAU - h)) / (2 * h)
        assert psi_profile_derivative(0.5, eps, self.TAU) == pytest.approx(
            num, rel=1e-4, abs=1e-8)

    def test_slope_bound_is_stable_across_eps(self):
        a, b = (float(np.max(np.abs(psi_profile_derivative(P.s, eps, self.TAU)))) / eps
                for eps in (1e-2, 1e-3))
        assert 0.0 < a < 1.0 and 0.0 < b < 1.0
        assert 0.5 < a / b < 2.0

    def test_limit_exponent_degenerates_gracefully(self):
        tau = np.linspace(0.05, 0.95, 19)
        v = psi_profile(1.0, 0.01, tau)
        d = psi_profile_derivative(1.0, 0.01, tau)
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(d))


def test_chart_dataclass_fields():
    chart = ellipsoid_chart(0.05)
    assert isinstance(chart, Chart)
    assert [f.name for f in fields(Chart)] == ["fn", "lo", "hi"]
    assert (chart.lo, chart.hi) == (-1.0, 1.0)
    a, b, _ = seminorm._offset_coefficients(0.05, 0.0)
    assert a == pytest.approx(0.55)
    assert b == pytest.approx(1.0 - 1.05 / 2.0)
