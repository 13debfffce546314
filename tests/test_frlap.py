import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracshape.domains import ball
from fracshape.frlap import (EvaluationPointError, QuadratureConfig,
                             UnsupportedDimensionError, barrier, frlap_eval,
                             power_field, torsion_ball, torsion_ellipsoid)
from fracshape.specfun import FracParams, gamma_ns

POINTS = [np.array(q) for q in [(0.0, 0.0), (0.3, 0.1), (-0.5, 0.4), (0.0, -0.7)]]


class TestTorsionIdentity:

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_ball_profile_has_unit_image(self, s):
        f = torsion_ball(FracParams(2, s))
        for x in POINTS:
            r = frlap_eval(f, x)
            assert r.converged
            assert r.value == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("eps", [0.05, 0.1])
    def test_stretched_profile_has_unit_image(self, eps):
        f = torsion_ellipsoid(FracParams(2, 0.5), eps)
        for x in POINTS:
            r = frlap_eval(f, x)
            assert r.converged
            assert r.value == pytest.approx(1.0, abs=1e-6)

    def test_linearity_in_amplitude(self):
        p = FracParams(2, 0.5)
        f2 = power_field(p, np.eye(2), 2.0 * gamma_ns(p), ball(np.zeros(2), 1.0))
        r = frlap_eval(f2, np.array([0.2, -0.3]))
        assert r.value == pytest.approx(2.0, abs=2e-6)

    def test_rotation_invariance(self):
        f = torsion_ball(FracParams(2, 0.75))
        x = np.array([0.4, 0.2])
        rot = math.atan2(x[1], x[0])
        y = np.linalg.norm(x) * np.array([math.cos(rot + 1.1), math.sin(rot + 1.1)])
        a, b = frlap_eval(f, x), frlap_eval(f, y)
        assert a.value == pytest.approx(b.value, abs=a.error + b.error + 1e-9)


class TestEvaluationGuards:

    def test_rejects_points_outside_support(self):
        f = torsion_ball(FracParams(2, 0.5))
        with pytest.raises(EvaluationPointError):
            frlap_eval(f, np.array([1.0, 0.0]))
        with pytest.raises(EvaluationPointError):
            frlap_eval(f, np.array([1.4, 0.2]))

    def test_rejects_points_hugging_the_boundary(self):
        f = torsion_ball(FracParams(2, 0.5))
        with pytest.raises(EvaluationPointError):
            frlap_eval(f, np.array([0.97, 0.0]))  # distance 0.03 < inner_radius

    def test_rejects_other_dimensions(self):
        f = torsion_ball(FracParams(3, 0.5))
        with pytest.raises(UnsupportedDimensionError):
            frlap_eval(f, np.zeros(3))

    def test_error_estimate_brackets_truth_on_torsion(self):
        f = torsion_ball(FracParams(2, 0.5))
        r = frlap_eval(f, np.array([0.25, 0.55]))
        assert abs(r.value - 1.0) <= max(10.0 * r.error, 1e-9)


class TestQuadratureConfig:

    def test_refinement_tightens_torsion(self):
        f = torsion_ball(FracParams(2, 0.5))
        x = np.array([0.1, 0.2])
        coarse = frlap_eval(f, x, QuadratureConfig(inner_radial=12, inner_angular=12,
                                                   outer_panels=4))
        fine = frlap_eval(f, x)
        assert abs(fine.value - 1.0) <= abs(coarse.value - 1.0) + 1e-12


class TestBarrier:

    def test_antisymmetry_is_exact(self):
        p = FracParams(2, 0.5)
        phi = barrier(p, a=(0.125, 0.0), rho=1.0 / 16.0)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.3, 0.3, size=(512, 2))
        mirrored = pts * np.array([-1.0, 1.0])
        assert np.array_equal(phi.eval(pts), -phi.eval(mirrored))

    def test_sandwich_near_the_center(self):
        p = FracParams(2, 0.25)
        rho = 1.0 / 16.0
        a = np.array([0.125, 0.0])
        phi = barrier(p, a=a, rho=rho)
        rng = np.random.default_rng(11)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=10_000)
        radii = (rho / 2.0) * np.sqrt(rng.uniform(0.0, 1.0, size=10_000))
        pts = a + radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        lower = rho ** (2 * p.s) * pts[:, 0]
        vals = phi.eval(pts)
        assert np.all(vals >= lower * (1.0 - 1e-12))
        assert np.all(vals <= 2.0 * lower * (1.0 + 1e-12))

    def test_operator_value_is_finite_and_converged(self):
        p = FracParams(2, 0.5)
        phi = barrier(p, a=(0.125, 0.0), rho=1.0 / 16.0)
        r = frlap_eval(phi, np.array([0.125, 0.02]))
        assert np.isfinite(r.value)
        assert r.converged

    def test_geometry_validation(self):
        p = FracParams(2, 0.5)
        with pytest.raises(ValueError):
            barrier(p, a=(0.01, 0.0), rho=1.0 / 16.0)  # bump would cross the axis
        with pytest.raises(ValueError):
            barrier(p, a=(0.5, 0.0), rho=0.2)  # rho above the allowed cap


@given(st.floats(min_value=0.15, max_value=0.85),
       st.floats(min_value=-0.6, max_value=0.6),
       st.floats(min_value=-0.6, max_value=0.6))
@settings(max_examples=15)
def test_torsion_identity_property(s, x1, x2):
    if math.hypot(x1, x2) > 0.75:
        x1 *= 0.5
        x2 *= 0.5
    r = frlap_eval(torsion_ball(FracParams(2, s)), np.array([x1, x2]))
    assert r.value == pytest.approx(1.0, abs=1e-4)
