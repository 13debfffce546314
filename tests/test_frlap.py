import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracshape import frlap
from fracshape.domains import ball, boundary_distance
from fracshape.frlap import (QuadratureConfig, barrier, frlap_eval, power_field,
                             torsion_ball, torsion_ellipsoid)
from fracshape.measures import halton_points
from fracshape.specfun import FracParams, ParameterDomainError, gamma_ns

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
        with pytest.raises(ParameterDomainError, match="must be interior to the support"):
            frlap_eval(f, np.array([1.0, 0.0]))
        with pytest.raises(ParameterDomainError, match="must be interior to the support"):
            frlap_eval(f, np.array([1.4, 0.2]))

    def test_rejects_points_hugging_the_boundary(self):
        f = torsion_ball(FracParams(2, 0.5))
        with pytest.raises(ParameterDomainError, match="too close to the support boundary"):
            frlap_eval(f, np.array([0.97, 0.0]))  # distance 0.03 < inner_radius

    def test_rejects_other_dimensions(self):
        f = torsion_ball(FracParams(3, 0.5))
        with pytest.raises(ParameterDomainError, match="implemented for n = 2"):
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


def _batch_field(name, s, eps):
    p = FracParams(2, s)
    if name == "ball":
        return torsion_ball(p)
    if name == "ellipsoid":
        return torsion_ellipsoid(p, eps)
    return barrier(p, a=(0.125, 0.0), rho=1.0 / 16.0)


_BATCH_FIELDS = st.sampled_from(
    [("ball", s, None) for s in (0.25, 0.5, 0.75)]
    + [("ellipsoid", s, eps) for s in (0.25, 0.5, 0.75) for eps in (0.02, 1e-9)]
    + [("barrier", s, None) for s in (0.25, 0.75)])


def _reference_value(f, x, r0, nr, na, n_panels):
    """The quadrature for one point, written without a point axis: the
    reference whose bits the batched blocks must keep."""
    s, c = f.params.s, f.params.c_ns
    fx = float(f.eval(x))
    u, w = frlap._jacobi_rule(nr, 0.0, 1.0 - 2.0 * s)
    r = r0 * (u + 1.0) / 2.0
    scale = (r0 / 2.0) ** (2.0 - 2.0 * s)
    theta = (np.arange(na) + 0.5) * (math.pi / na)
    omega = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    Z = r[:, None, None] * omega[None, :, :]
    g = 2.0 * fx - f.eval(x[None, None, :] + Z) - f.eval(x[None, None, :] - Z)
    inner = 2.0 * (math.pi / na) * scale * float(np.einsum("i,ij->", w, g / r[:, None] ** 2))
    tail = 2.0 * fx * (2.0 * math.pi * r0 ** (-2.0 * s) / (2.0 * s))
    phi = (np.arange(2 * na) + 0.5) * (math.pi / na)
    if f.power_quad is None:
        per_ray = frlap._outer_panels(f, x, s, r0, phi, n_panels)
    else:
        Q, amp = f.power_quad
        om = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        A = -np.einsum("ki,ij,kj->k", om, Q, om)
        B = -2.0 * (om @ (Q @ x))
        C = 1.0 - float(x @ (Q @ x))
        disc = np.sqrt(B * B - 4.0 * A * C)
        r_exit = (-B - disc) / (2.0 * A)
        r_back = (-B + disc) / (2.0 * A)
        u, w = frlap._jacobi_rule(max(16, 4 * n_panels), float(s), 0.0)
        half = 0.5 * (r_exit - r0)
        rr = r0 + half[None, :] * (u[:, None] + 1.0)
        smooth = amp * (np.abs(A)[None, :] * (rr - r_back[None, :])) ** s * rr ** (-1.0 - 2.0 * s)
        per_ray = half ** (1.0 + s) * np.einsum("i,ik->k", w, smooth)
    field_part = (math.pi / na) * float(np.sum(per_ray))
    outer = tail - 2.0 * field_part
    return 0.5 * c * (inner + outer)


def _bits(value, error, converged):
    return float(value).hex(), float(error).hex(), bool(converged)


def _reference_eval(f, x):
    if f.inner_scale is None:
        r0 = frlap._SPLIT * float(boundary_distance(f.support, x))
    else:
        r0 = f.inner_scale
    value = _reference_value(f, x, r0, 64, 64, 12)
    err = abs(value - _reference_value(f, x, r0, 32, 32, 6))
    return value, err, err <= frlap._TOL * max(1.0, abs(value))


class TestBatch:

    @given(field=_BATCH_FIELDS, k=st.sampled_from([1, frlap._BLOCK + 3]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_batch_has_the_bits_of_single_calls(self, field, k, seed):
        f = _batch_field(*field)
        rng = np.random.default_rng(seed)
        rad, ang = 0.85 * np.sqrt(rng.uniform(size=k)), rng.uniform(0.0, 2.0 * math.pi, size=k)
        X = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=-1)
        want = [_bits(*_reference_eval(f, x)) for x in X]
        assert [_bits(*astuple(frlap_eval(f, x))) for x in X] == want
        batch = frlap_eval(f, X)
        assert [_bits(*r) for r in zip(batch.value, batch.error, batch.converged)] == want

    def test_batch_measures_its_distances_in_one_call(self, monkeypatch):
        seen, real = [], frlap.boundary_distance

        def counting(d, x):
            seen.append(len(x))
            return real(d, x)

        monkeypatch.setattr(frlap, "boundary_distance", counting)
        X = np.array([[0.04 * i - 0.4, 0.03 * i - 0.3] for i in range(20)])
        res = frlap_eval(torsion_ellipsoid(FracParams(2, 0.5), 0.02), X)
        assert seen == [20] and res.value.shape == (20,)

    @pytest.mark.parametrize("bad", [
        [(0.97, 0.0), (0.0, 0.99)],  # two too close: the first one's distance
        [(0.0, 0.99), (1.2, 0.0)],   # too close before outside
        [(1.2, 0.0), (0.0, 0.99)],   # outside before too close
    ])
    def test_batch_raises_for_its_first_bad_point(self, bad):
        f = torsion_ball(FracParams(2, 0.5))
        X = np.array([(0.1, 0.2)] + bad + [(0.3, -0.1)])
        with pytest.raises(ParameterDomainError, match="support") as single:
            frlap_eval(f, np.array(bad[0]))
        with pytest.raises(ParameterDomainError, match="support") as batch:
            frlap_eval(f, X)
        assert str(batch.value) == str(single.value)


_FORM_SHAPES = [(2,), (1, 2), (37, 2), (3, 7, 2), (8, 64, 64, 2)]


def _einsum_profile(Q, amp, s, pts):
    """The profile as it was written with ``einsum``: the reference for Qs
    with a zero off-diagonal."""
    return amp * np.maximum(0.0, 1.0 - np.einsum("...i,ij,...j", pts, Q, pts)) ** s


class TestQuadraticForm:

    @given(field=st.sampled_from([("ball", s, None) for s in (0.25, 0.5, 0.75)]
                                 + [("ellipsoid", s, eps) for s in (0.25, 0.5, 0.75)
                                    for eps in (0.2, 0.02, 1e-9)]),
           shape=st.sampled_from(_FORM_SHAPES), fortran=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_diagonal_q_has_the_bits_of_einsum(self, field, shape, fortran, seed):
        f = _batch_field(*field)
        Q, amp = f.power_quad
        pts = np.random.default_rng(seed).uniform(-1.3, 1.3, size=shape)
        if fortran:
            pts = np.asfortranarray(pts)
        got = np.asarray(f.eval(pts))
        want = np.asarray(_einsum_profile(Q, amp, f.params.s, pts))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(q=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
           s=st.sampled_from([0.25, 0.5, 0.75]), shape=st.sampled_from(_FORM_SHAPES[1:4]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_each_row_has_the_bits_of_its_own_call(self, q, s, shape, seed):
        # any Q, off-diagonal too: the form is elementwise, so no shape
        # changes the order of its additions
        f = power_field(FracParams(2, s), np.reshape(q, (2, 2)), 1.5, ball(np.zeros(2), 1.0))
        pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape)
        rows = pts.reshape(-1, 2)
        batch = np.asarray(f.eval(pts)).reshape(-1)
        own = np.concatenate([f.eval(x[None, :]) for x in rows])
        assert batch.tobytes() == own.tobytes()

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_bare_vectors_take_the_scalar_pow(self, s):
        # a (1, 2) row has the bits of the batch; a bare 2-vector has those of
        # float arithmetic, whose pow can round the last bit differently from
        # numpy's array pow (a few hundred of these points differ where that
        # pow is vectorized, as with AVX-512)
        f = torsion_ellipsoid(FracParams(2, s), 0.02)
        (q00, _), (_, q11) = f.power_quad[0].tolist()
        amp = f.power_quad[1]
        pts = 2.0 * halton_points(4096, seed=0) - 1.0
        batch = f.eval(pts)
        rows = np.concatenate([f.eval(x[None, :]) for x in pts])
        assert rows.tobytes() == batch.tobytes()
        bare = np.array([float(f.eval(x)) for x in pts])
        scalar = np.array([amp * max(0.0, 1.0 - ((x * q00) * x + (y * q11) * y)) ** s
                           for x, y in pts.tolist()])
        assert bare.tobytes() == scalar.tobytes()
        assert np.all(np.abs(bare - batch) <= 4.0 * np.spacing(batch))

    def test_q_must_be_two_by_two(self):
        with pytest.raises(ParameterDomainError, match="2 x 2"):
            power_field(FracParams(2, 0.5), np.eye(3), 1.0, ball(np.zeros(2), 1.0))
