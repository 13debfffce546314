import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracshape.specfun import (FracParams, ParameterDomainError,
                               gamma, gamma_ns, gamma_nse, gauss_2f1,
                               normalization_constant)

# Reference values frozen from mpmath at 50 digits:
#   mp.gamma(x); mp.hyp2f1(a, b, c, z);
#   s*4**s*mp.gamma(n/2+s)/(mp.pi**(n/2)*mp.gamma(1-s));
#   2**(-2s)*mp.gamma(n/2)/(mp.gamma((n+2s)/2)*mp.gamma(1+s)), and the same
#   divided by (1+e)*mp.hyp2f1((n+2s)/2, 1/2, n/2, 1-(1+e)**2).

GAMMA_REF = {
    0.5: 1.772453850905516,
    4.5: 11.631728396567448,
    0.1: 9.51350769866873,
    7.0: 720.0,
}

HYP_REF = [
    (1.5, 0.5, 1.0, -0.4, 0.7810934043730903),
    (2.25, 0.5, 1.5, -0.33, 0.8122389675944577),
    (1.5, 0.5, 1.0, -0.21, 0.8682605971092923),
]

C_REF = {
    (2, 0.25): 0.08324198387542507,
    (2, 0.5): 0.15915494309189535,
    (2, 0.75): 0.17116712969055234,
    (3, 0.3): 0.05859356245150589,
}

G_REF = {
    (2, 0.5): 0.6366197723675814,
    (2, 0.25): 0.8606822266341461,
    (3, 0.75): 0.30090111122547003,
}

GE_REF = [
    (2, 0.5, 0.1, 0.6665570792152884),
    (2, 0.25, 0.05, 0.8710827296040488),
    (3, 0.4, 0.2, 0.6234753375772057),
]


class TestGamma:

    @pytest.mark.parametrize("x", sorted(GAMMA_REF))
    def test_reference_values(self, x):
        assert gamma(x) == pytest.approx(GAMMA_REF[x], rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
    def test_poles_raise(self, x):
        with pytest.raises(ParameterDomainError, match="gamma has a pole"):
            gamma(x)

    def test_overflow_raises(self):
        with pytest.raises(ParameterDomainError, match="x=172"):
            gamma(172.0)
        assert gamma(171.5) == math.gamma(171.5)  # the largest values keep their bits

    @given(st.floats(min_value=0.01, max_value=20.0))
    def test_recurrence(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


class TestGauss2F1:

    @pytest.mark.parametrize("a, b, c, z, ref", HYP_REF)
    def test_reference_values(self, a, b, c, z, ref):
        assert gauss_2f1(a, b, c, z) == pytest.approx(ref, rel=1e-13)

    def test_at_zero(self):
        assert gauss_2f1(1.7, 0.3, 2.2, 0.0) == 1.0

    @given(st.floats(min_value=-0.9, max_value=-1e-3))
    def test_log_identity(self, z):
        # 2F1(1, 1; 2; z) = -log(1-z)/z
        assert gauss_2f1(1.0, 1.0, 2.0, z) == pytest.approx(
            -math.log1p(-z) / z, rel=1e-12)

    def test_out_of_range_raises(self):
        with pytest.raises(ParameterDomainError):
            gauss_2f1(1.0, 1.0, 2.0, 0.5)
        with pytest.raises(ParameterDomainError):
            gauss_2f1(1.0, 1.0, 2.0, -1.0)


class TestConstants:

    @pytest.mark.parametrize("key", sorted(C_REF))
    def test_normalization(self, key):
        n, s = key
        assert normalization_constant(n, s) == pytest.approx(C_REF[key], rel=1e-13)

    @pytest.mark.parametrize("key", sorted(G_REF))
    def test_ball_amplitude(self, key):
        n, s = key
        assert gamma_ns(FracParams(n, s)) == pytest.approx(G_REF[key], rel=1e-13)

    def test_half_s_is_two_over_pi(self):
        assert gamma_ns(FracParams(2, 0.5)) == pytest.approx(2.0 / math.pi, rel=1e-15)

    @pytest.mark.parametrize("n, s, eps, ref", GE_REF)
    def test_stretched_amplitude(self, n, s, eps, ref):
        assert gamma_nse(FracParams(n, s), eps) == pytest.approx(ref, rel=1e-12)

    def test_stretched_amplitude_at_zero_stretch(self):
        p = FracParams(2, 0.35)
        assert gamma_nse(p, 0.0) == pytest.approx(gamma_ns(p), rel=1e-14)

    def test_stretch_range(self):
        with pytest.raises(ParameterDomainError):
            gamma_nse(FracParams(2, 0.5), 0.25)
        with pytest.raises(ParameterDomainError):
            gamma_nse(FracParams(2, 0.5), -0.01)


class TestFracParams:

    def test_carries_normalization(self):
        p = FracParams(2, 0.5)
        assert p.c_ns == pytest.approx(C_REF[(2, 0.5)], rel=1e-13)

    @pytest.mark.parametrize("n, s", [(0, 0.5), (2, 0.0), (2, 1.0), (2, -0.3), (2, 1.5)])
    def test_rejects_bad_parameters(self, n, s):
        with pytest.raises(ParameterDomainError):
            FracParams(n, s)

    @given(st.integers(min_value=1, max_value=6),
           st.floats(min_value=0.05, max_value=0.95))
    def test_constants_positive(self, n, s):
        p = FracParams(n, s)
        assert p.c_ns > 0.0
        assert gamma_ns(p) > 0.0
