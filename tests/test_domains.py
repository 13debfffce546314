import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracshape.domains import (DomainParameterError, ball, boundary_distance,
                               boundary_samples, bump_domain, bump_profile,
                               ellipsoid, erode, odd_cutoff, radial_extremes,
                               shape_metrics, signed_distance)
from fracshape.measures import halton_points
from fracshape.specfun import FracParams

P = FracParams(2, 0.5)

# Signed distances to the ellipse x^2/1.1^2 + y^2 = 1, frozen from projection
# onto a 3e6-vertex polyline (chord error << 1e-9).
ELLIPSE_DIST_REF = [
    ((1.3, 0.4), 0.26965071172371036),
    ((0.2, 1.2), 0.21412625627524987),
    ((0.5, 0.5), -0.33710610066316543),
    ((-1.0, -0.9), 0.29263158243848203),
    ((1.05, 0.0), -0.050000000000000044),
]


class TestBall:

    def test_sdf_is_radial(self):
        d = ball((0.5, -1.0), 2.0)
        pts = np.array([[0.5, 1.0], [0.5, -1.0], [3.5, -1.0]])
        assert signed_distance(d, pts) == pytest.approx([0.0, -2.0, 1.0])

    def test_contains(self):
        d = ball((0.0, 0.0), 1.0)
        assert d.contains(np.array([0.2, 0.3]))
        assert not d.contains(np.array([1.2, 0.3]))

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainParameterError):
            ball((0.0, 0.0), 0.0)

    @given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
    def test_sdf_matches_norm(self, x, y):
        d = ball((0.0, 0.0), 1.5)
        assert signed_distance(d, np.array([x, y])) == pytest.approx(
            math.hypot(x, y) - 1.5, abs=1e-12)


class TestEllipsoid:

    @pytest.mark.parametrize("q, ref", ELLIPSE_DIST_REF)
    def test_exact_distance_against_polyline(self, q, ref):
        d = ellipsoid(P, 0.1)
        assert signed_distance(d, np.array(q)) == pytest.approx(ref, abs=1e-7)

    def test_boundary_samples_sit_on_level(self):
        d = ellipsoid(P, 0.2)
        samples = boundary_samples(d, 512)
        assert np.max(np.abs(d.level(samples))) < 1e-12

    def test_radial_extremes(self):
        d = ellipsoid(P, 0.15)
        rho_i, rho_e = radial_extremes(d)
        assert rho_i == pytest.approx(1.0, abs=1e-9)
        assert rho_e == pytest.approx(1.15, abs=1e-9)

    @pytest.mark.parametrize("eps", [0.1, 0.02, 0.005, 1e-9])
    def test_shape_metrics_recover_stretch(self, eps):
        # the centroid start is the exact centre, so the gap is the stretch
        m = shape_metrics(ellipsoid(P, eps))
        assert abs(m.rho_shape - eps) <= 1e-12
        assert np.linalg.norm(m.center) <= 1e-12

    def test_stretch_range(self):
        with pytest.raises(DomainParameterError):
            ellipsoid(P, 0.25)
        with pytest.raises(DomainParameterError):
            ellipsoid(P, -0.01)

    @given(st.floats(min_value=0.0, max_value=0.24), st.floats(min_value=0, max_value=2 * math.pi))
    def test_boundary_distance_vanishes_on_boundary(self, eps, t):
        d = ellipsoid(P, eps)
        q = np.array([(1 + eps) * math.cos(t), math.sin(t)])
        assert abs(signed_distance(d, q)) < 1e-9


class TestErosion:

    def test_eroded_ball_is_smaller_ball(self):
        d = erode(ball((0.0, 0.0), 1.0), 0.3)
        pts = np.array([[0.0, 0.0], [0.7, 0.0], [0.9, 0.0]])
        assert signed_distance(d, pts) == pytest.approx([-0.7, 0.0, 0.2], abs=1e-12)

    def test_membership_identity_on_ellipsoid(self):
        # x in parent  <=>  dist(x, eroded) <= rho, checked via the exact
        # parent sdf: eroded + rho-ball recovers the parent.
        eps, rho = 0.1, 0.5
        parent = ellipsoid(P, eps)
        inner = erode(parent, rho)
        pts = 1.3 * (2.0 * halton_points(20_000, 2, seed=9) - 1.0)
        parent_side = signed_distance(parent, pts) <= -1e-6
        dilated_side = signed_distance(inner, pts) <= rho - 1e-6
        assert np.array_equal(parent_side, dilated_side)

    def test_offset_charts_track_level(self):
        inner = erode(ellipsoid(P, 0.2), 0.4)
        samples = boundary_samples(inner, 256)
        assert np.max(np.abs(inner.level(samples))) < 1e-9

    def test_depth_must_fit_interior_ball(self):
        with pytest.raises(DomainParameterError):
            erode(ball((0.0, 0.0), 1.0), 1.0)


class TestBumpFamily:

    def test_cutoff_is_odd_and_compact(self):
        t = np.linspace(-1.0, 1.0, 2001)
        v = odd_cutoff(t)
        assert v == pytest.approx(-odd_cutoff(-t))
        assert np.all(v[np.abs(t) >= 0.75] == 0.0)
        assert odd_cutoff(0.25) == pytest.approx(0.5)  # linear core 2t
        assert np.max(np.abs(v)) <= 1.0

    def test_profile_follows_circle_off_support(self):
        eps, alpha = 1e-3, 2.0
        psi = bump_profile(eps, alpha)
        center, width = eps ** (1 - 1 / alpha), eps ** (1 / alpha)
        tau = np.array([center + 0.8 * width, center - 0.8 * width])
        assert np.all(np.abs(psi(tau) + np.sqrt(1 - tau**2)) == 0.0)
        tau_in = center + 0.25 * width
        assert abs(psi(tau_in) + math.sqrt(1 - tau_in**2)) > 0.1 * eps

    def test_bump_perturbs_radii_at_scale_eps(self):
        eps = 1e-3
        d = bump_domain(eps, 2.0)
        rho_i, rho_e = radial_extremes(d)
        assert 0.5 * eps < rho_e - 1.0 < 1.5 * eps
        assert 0.5 * eps < 1.0 - rho_i < 1.5 * eps

    def test_level_sign_convention(self):
        d = bump_domain(1e-2, 2.0)
        assert d.contains(np.array([0.0, 0.0]))
        assert not d.contains(np.array([0.0, 1.5]))

    def test_boundary_samples_on_level(self):
        d = bump_domain(1e-2, 2.0)
        samples = boundary_samples(d, 1024)
        assert np.max(np.abs(d.level(samples))) < 1e-10

    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    def test_chart_distance_against_polyline(self, eps):
        # Reference: brute-force projection onto a 250k-vertex polyline of
        # the boundary (the arc off the strip plus the graph over it); its
        # chord error stays below 1e-9.
        d = bump_domain(eps, 2.0)
        psi = bump_profile(eps, 2.0)
        center = width = math.sqrt(eps)
        theta = np.linspace(5 * math.pi / 3, 7 * math.pi / 2, 150_001)
        tau = np.linspace(0.0, 0.5, 100_001)
        pieces = [np.stack([np.cos(theta), np.sin(theta)], axis=-1),
                  np.stack([tau, psi(tau)], axis=-1)]

        def reference(q):
            best = np.inf
            for verts in pieces:
                a, ab = verts[:-1], np.diff(verts, axis=0)
                w = np.clip(np.sum((q - a) * ab, axis=1) / np.sum(ab * ab, axis=1), 0.0, 1.0)
                best = min(best, float(np.min(np.linalg.norm(a + w[:, None] * ab - q, axis=1))))
            return best

        # Points above and below the graph, over the bump (where the graph
        # chart and the dense support chart overlap) and beyond it, plus
        # points off the arc; distances range over 1e-4 .. 0.3.
        deltas = np.array([1e-4, 1e-3, 1e-2, 0.1, 0.3])
        taus = np.concatenate([center + width * np.array([-0.9, -0.5, 0.0, 0.3, 0.6, 0.9]),
                               [0.25, 0.45]])
        q_graph = [(t, float(psi(t)) + sgn * dl) for t in taus for dl in deltas
                   for sgn in (1.0, -1.0)]
        q_arc = [(r * math.cos(th), r * math.sin(th)) for th in (0.3, 2.0, 4.0)
                 for r in (0.7, 0.99, 0.9999, 1.0001, 1.01, 1.3)]
        qs = np.array(q_graph + q_arc)
        want = np.array([reference(q) for q in qs])
        assert np.any(d.contains(qs)) and not np.all(d.contains(qs))
        assert boundary_distance(d, qs) == pytest.approx(want, rel=0.0, abs=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(DomainParameterError):
            bump_domain(1e-3, 1.0)
        with pytest.raises(DomainParameterError):
            bump_domain(0.2, 2.0)

    def test_deviation_box_brackets_the_bump(self):
        eps, alpha = 1e-3, 2.0
        d = bump_domain(eps, alpha)
        box = d.disk_deviation.box
        center = eps ** (1 - 1 / alpha)
        assert box[0, 0] <= center <= box[1, 0]
        # every boundary point that leaves the unit circle lies in the box
        samples = boundary_samples(d, 4096)
        off_circle = np.abs(np.linalg.norm(samples, axis=-1) - 1.0) > 1e-9
        dev = samples[off_circle]
        assert np.all((dev >= box[0] - 1e-12) & (dev <= box[1] + 1e-12))
