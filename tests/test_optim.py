import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fracshape.optim import golden_max, golden_min

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - np.sqrt(5.0)) / 2.0


def two_call_golden_max(fn, lo, hi):
    """Reference golden section that evaluates its two probes in two calls."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float)).copy()
    hi = np.atleast_1d(np.asarray(hi, dtype=float)).copy()
    for _ in range(70):
        c = lo + _INVPHI2 * (hi - lo)
        d = lo + _INVPHI * (hi - lo)
        keep_left = np.asarray(fn(c)) >= np.asarray(fn(d))
        hi = np.where(keep_left, d, hi)
        lo = np.where(keep_left, lo, c)
    mid = 0.5 * (lo + hi)
    return mid, np.asarray(fn(mid))


# smooth functions with one maximum at a, each broadcasting over any leading axis
PEAKS = {
    "parabola": lambda a: lambda t: -(t - a) ** 2,
    "cosine": lambda a: lambda t: np.cos(0.5 * (t - a)),
    "gaussian": lambda a: lambda t: np.exp(-np.square(t - a)),
    "sech": lambda a: lambda t: 1.0 / np.cosh(t - a),
}

_finite = dict(allow_nan=False, allow_infinity=False)
_peak = st.sampled_from(sorted(PEAKS))
_center = st.floats(-3.0, 3.0, **_finite)
_bracket = st.tuples(st.floats(-5.0, 5.0, **_finite), st.floats(1e-6, 4.0, **_finite))


def _as_brackets(pairs):
    lo = np.array([p[0] for p in pairs])
    return lo, lo + np.array([p[1] for p in pairs])


def _assert_same_bits(got, want, scalar):
    if scalar:
        assert isinstance(got[0], float) and isinstance(got[1], float)
        want = (float(want[0][0]), float(want[1].reshape(-1)[0]))
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


class TestGoldenSection:

    def test_one_call_per_step(self):
        calls = []

        def fn(t):
            calls.append(np.shape(t))
            return -(t - 0.3) ** 2

        golden_max(fn, np.zeros(3), np.ones(3))
        assert len(calls) == 71
        assert calls[:70] == [(2, 3)] * 70 and calls[70] == (3,)

    def test_stops_at_the_brackets_fixed_point(self):
        # near t = 1e3 a 1e-3 bracket is 8.8e9 ulps wide, which golden steps
        # shrink to a few ulps, where the ends stop moving, in under 50 steps
        calls = []

        def fn(t):
            calls.append(np.shape(t))
            return -(t - 1000.0003) ** 2

        lo, hi = np.array([1000.0, 999.9995]), np.array([1000.001, 1000.0005])
        got = golden_max(fn, lo, hi)
        assert len(calls) < 71 and calls[-1] == (2,)
        _assert_same_bits(got, two_call_golden_max(fn, lo, hi), scalar=False)

    @settings(max_examples=60)
    @given(_peak, _center, _bracket)
    def test_scalar_bracket_matches_two_calls(self, name, a, bracket):
        fn = PEAKS[name](a)
        lo, hi = bracket[0], bracket[0] + bracket[1]
        arg, val = two_call_golden_max(fn, lo, hi)
        _assert_same_bits(golden_max(fn, lo, hi), (arg, val), scalar=True)
        _assert_same_bits(golden_min(lambda t: -fn(t), lo, hi), (arg, -val), scalar=True)

    @settings(max_examples=60)
    @given(_peak, _center, st.lists(_bracket, min_size=1, max_size=8))
    def test_vector_brackets_match_two_calls(self, name, a, pairs):
        fn = PEAKS[name](a)
        lo, hi = _as_brackets(pairs)
        arg, val = two_call_golden_max(fn, lo, hi)
        _assert_same_bits(golden_max(fn, lo, hi), (arg, val), scalar=False)
        _assert_same_bits(golden_min(lambda t: -fn(t), lo, hi), (arg, -val), scalar=False)
