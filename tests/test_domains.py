import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracshape import domains, seminorm
from fracshape.domains import (POLISH_XTOL, Chart, _chart_min_distance, _ellipse_distance,
                               _smoothstep, ball, boundary_distance, bump_domain, bump_profile,
                               chart_extreme, chart_grids, ellipsoid, erode, odd_cutoff, polish,
                               radial_extremes, signed_distance)
from fracshape.measures import halton_points
from fracshape.movingplanes import critical_lambda, support_value
from fracshape.specfun import FracParams, ParameterDomainError


def boundary_samples(d, n):
    """Midpoint nodes of every boundary chart, at least ``n`` in all: a chart
    gets ``max(64, n // charts)`` nodes."""
    m = max(64, n // len(d.boundary_param))
    return np.concatenate([pts for _, _, pts, _ in chart_grids(d.boundary_param, m)])


# Signed distances to the ellipse x^2/1.1^2 + y^2 = 1, frozen from projection
# onto a 3e6-vertex polyline (chord error << 1e-9).
ELLIPSE_DIST_REF = [
    ((1.3, 0.4), 0.26965071172371036),
    ((0.2, 1.2), 0.21412625627524987),
    ((0.5, 0.5), -0.33710610066316543),
    ((-1.0, -0.9), 0.29263158243848203),
    ((1.05, 0.0), -0.050000000000000044),
]


def _hundred_step_distance(p1, p2, a):
    """The distance to the ellipse x^2/a^2 + y^2 = 1 by exactly 100
    bisection steps in u = t + 1 on [p2, hypot(a p1, p2)]: the solve without
    an early stop."""
    p1 = np.abs(p1)
    p2 = np.maximum(np.abs(p2), 1e-12)
    ap1, c = a * p1, a * a - 1.0
    lo, hi = p2, np.hypot(ap1, p2)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        pos = (ap1 / (mid + c)) ** 2 + (p2 / mid) ** 2 > 1.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    u = 0.5 * (lo + hi)
    return np.hypot(p1 - a * a * p1 / (u + c), p2 - p2 / u)


def _polar_distance(x, a, b):
    """Distance from ``x`` to the ellipse by a dense angle grid, refined
    twice around its best node."""
    lo, hi = 0.0, 2.0 * math.pi
    for _ in range(3):
        theta = np.linspace(lo, hi, 400_001)
        dist = np.hypot(x[0] - a * np.cos(theta), x[1] - b * np.sin(theta))
        k = int(np.argmin(dist))
        lo, hi = theta[max(k - 2, 0)], theta[min(k + 2, theta.size - 1)]
    return float(dist[k])


@functools.lru_cache(maxsize=None)
def _cached_polar_distance(x1, x2, a):
    """``_polar_distance`` of (x1, x2), once per point: examples repeat points."""
    return _polar_distance((x1, x2), a, 1.0)


_NEAR_BOUNDARY = st.tuples(st.floats(0.0, 2.0 * math.pi),
                           st.floats(-1e-3, 1e-3)).map(
    lambda td: ("rim", td[0], td[1]))
_NEAR_AXIS = st.tuples(st.floats(-1.3, 1.3), st.floats(0.0, 2e-12)).map(
    lambda xy: ("axis", xy[0], xy[1]))
_ANYWHERE = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(
    lambda xy: ("xy", xy[0], xy[1]))


# Test-local copies of the three loops that chart_extreme replaced: each
# ranks a chart's nodes, polishes the best ones and keeps the best of those
# nodes and their polishes.

def _loop_support(d, e):
    e = np.asarray(e, dtype=float) / float(np.linalg.norm(e))
    best = -math.inf
    for ch in d.boundary_param:
        (_, t, pts, spacing), = chart_grids([ch], 4096)
        v = pts @ e
        top = np.argsort(v)[-4:]
        _, _, v_pol = polish(lambda q: q @ e, [(ch, t[top], spacing)], maximize=True)
        best = max(best, float(np.max(v[top])), float(np.max(v_pol)))
    return best


def _loop_radial_extremes(d):
    lo_best, hi_best = np.inf, -np.inf
    m = max(256, 4096 // len(d.boundary_param))
    for ch in d.boundary_param:
        (_, t, pts, spacing), = chart_grids([ch], m)
        r = np.linalg.norm(pts, axis=-1)

        def gap(q):
            return np.linalg.norm(q, axis=-1)

        # of tied nodes the first is taken: on the circle the radii tie, and
        # a frozen bracket keeps the bits of the node it started from
        low, high = np.argsort(r, kind="stable")[:4], np.argsort(-r, kind="stable")[:4]
        _, _, v_lo = polish(gap, [(ch, t[low], spacing)], maximize=False)
        _, _, v_hi = polish(gap, [(ch, t[high], spacing)], maximize=True)
        lo_best = min(lo_best, float(np.min(r[low])), float(np.min(v_lo)))
        hi_best = max(hi_best, float(np.max(r[high])), float(np.max(v_hi)))
    return lo_best, hi_best


def _loop_coincidence_sup(rate, lo, hi, grid=2048):
    t = lo + (hi - lo) * (np.arange(grid) + 0.5) / grid
    v = rate(t)
    k = int(np.argmax(v))
    _, _, value = polish(rate, [(Chart(lambda r: r, lo, hi), t[k:k + 1], (hi - lo) / grid)],
                         maximize=True)
    return max(float(v[k]), float(value[0]))


def _hex(values):
    return [float(v).hex() for v in values]


_EXTREME_DOMAINS = {
    "ball": lambda: ball((0.0, 0.0), 1.0),
    "ellipsoid:0.1": lambda: ellipsoid(0.1),
    "bump:1e-3": lambda: bump_domain(1e-3, 2.0),
}


def _ellipse_support(a):
    """sup of x.e over the ellipse x^2/a^2 + y^2 <= 1, in closed form."""
    return lambda e: math.sqrt((a * e[0]) ** 2 + e[1] ** 2)


# test-local oracles: sup x.e in closed form
_CLOSED_FORM_SUPPORTS = [
    ("ball", ball((0.0, 0.0), 1.0), lambda e: 1.0),
    ("ball:0.5", ball((0.0, 0.0), 0.5), lambda e: 0.5),
] + [(f"ellipsoid:{eps}", ellipsoid(eps), _ellipse_support(1.0 + eps))
     for eps in (0.01, 0.1, 0.2)]
# (name, domain, rho_e); rho_i is 1 on each
_CLOSED_FORM_RADII = [("ball", ball((0.0, 0.0), 1.0), 1.0)] + [
    (f"ellipsoid:{eps}", ellipsoid(eps), 1.0 + eps) for eps in (0.0, 1e-9, 0.005, 0.1, 0.2)]
_STRETCHED_BALL_ROWS = [(s, eps) for s in (0.25, 0.5, 0.75)
                        for eps in (0.02, 0.01, 0.005)] + [(0.5, 1e-9)]


class TestChartExtreme:

    @pytest.mark.parametrize("name", sorted(_EXTREME_DOMAINS))
    def test_support_value_keeps_the_loop_bits(self, name):
        d = _EXTREME_DOMAINS[name]()
        for e in [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (1.0, 1.0),
                  (0.3, -1.0), (-0.6, 0.8), (1.0, 0.2)]:
            assert _hex([support_value(d, e)]) == _hex([_loop_support(d, e)]), e

    @pytest.mark.parametrize("name, d, support", _CLOSED_FORM_SUPPORTS,
                             ids=[c[0] for c in _CLOSED_FORM_SUPPORTS])
    def test_support_value_matches_the_closed_form(self, name, d, support):
        # 36 directions, 10 degrees apart, each within 2 ulps of sup x.e
        for k in range(36):
            e = np.array([math.cos(k * math.pi / 18.0), math.sin(k * math.pi / 18.0)])
            want = support(e / np.linalg.norm(e))
            assert abs(support_value(d, e) - want) <= 2.0 * np.spacing(want), (name, k)

    @pytest.mark.parametrize("name, d, rho_e", _CLOSED_FORM_RADII,
                             ids=[c[0] for c in _CLOSED_FORM_RADII])
    def test_radial_extremes_match_the_closed_form(self, name, d, rho_e):
        # the frozen polish still reads the extreme radii to 2 ulps
        rho_i, got = radial_extremes(d)
        assert abs(rho_i - 1.0) <= 2.0 * np.spacing(1.0)
        assert abs(got - rho_e) <= 2.0 * np.spacing(rho_e)

    @pytest.mark.parametrize("name", sorted(_EXTREME_DOMAINS))
    def test_radial_extremes_keep_the_loop_bits(self, name):
        d = _EXTREME_DOMAINS[name]()
        assert _hex(radial_extremes(d)) == _hex(_loop_radial_extremes(d))

    @pytest.mark.parametrize("s, eps", _STRETCHED_BALL_ROWS)
    def test_coincidence_sup_keeps_the_loop_bits(self, s, eps):
        # the rate is even in r: the grid's mirror nodes tie exactly
        p = FracParams(2, s)

        def rate(r):
            return seminorm._torsion_rate(p, eps, r)

        grids = chart_grids([Chart(lambda r: r, -1.0, 1.0)], 2048)
        got, _ = chart_extreme(grids, rate, 1, maximize=True)
        assert _hex([got]) == _hex([_loop_coincidence_sup(rate, -1.0, 1.0)])

    @pytest.mark.parametrize("maximize", [True, False])
    def test_first_of_tied_nodes_wins(self, maximize, monkeypatch):
        # two exact mirror extrema at t = -1/2 and 1/2 on a grid symmetric about 0
        sign = -1.0 if maximize else 1.0
        chart = Chart(lambda r: r, -1.0, 1.0)
        grids = chart_grids([chart], 64)
        _, t, pts, spacing = grids[0]
        v = sign * (pts * pts - 0.25) ** 2
        assert np.array_equal(v, v[::-1])
        starts = []

        def capture(g, parts, maximize, **kw):
            starts.extend(t0 for _, t0, _ in parts)
            return polish(g, parts, maximize, **kw)

        monkeypatch.setattr(domains, "polish", capture)
        value, _ = chart_extreme(grids, lambda r: sign * (r * r - 0.25) ** 2, 1, maximize)
        # the node nearest -1/2 is polished, not its mirror at 1/2
        assert len(starts) == 1 and starts[0].shape == (1,)
        assert starts[0][0] < 0.0 and abs(starts[0][0] + 0.5) < spacing
        assert abs(value) <= 1e-15

    @pytest.mark.parametrize("maximize", [True, False])
    def test_ball_radius_is_never_worse_than_its_best_node(self, maximize):
        # on the unit circle a node's rounded norm can beat the polish of its
        # bracket: the node is kept then
        d = ball((0.0, 0.0), 1.0)
        grids = chart_grids(d.boundary_param, 4096)

        def radius(q):
            return np.linalg.norm(q, axis=-1)

        r = radius(grids[0][2])
        got, point = chart_extreme(grids, radius, 4, maximize)
        assert got >= r.max() if maximize else got <= r.min()
        assert radius(point) == got

    @settings(max_examples=80)
    @given(st.sampled_from([True, False]), st.sampled_from([1, 4]),
           st.integers(8, 64), st.floats(1.0, 300.0), st.floats(1.0, 300.0),
           st.floats(-2.0, 2.0))
    def test_never_worse_than_the_best_node(self, maximize, k, m, a, b, c):
        # an objective that oscillates within a few node spacings, so a
        # polish can settle on a local extremum worse than its node
        charts = [Chart(lambda t: np.stack([np.cos(t), np.sin(t)], axis=-1), 0.0, 2.0 * math.pi),
                  Chart(lambda t: np.stack([t, c * t * t], axis=-1), -1.0, 1.0)]

        def g(q):
            return np.sin(a * q[..., 0]) + np.cos(b * q[..., 1] + c)

        grids = chart_grids(charts, m)
        nodes = np.concatenate([g(pts) for _, _, pts, _ in grids])
        got, point = chart_extreme(grids, g, k, maximize)
        assert got >= nodes.max() if maximize else got <= nodes.min()
        assert point.shape == (2,)
        assert g(point) == pytest.approx(got, rel=0.0, abs=1e-12)


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - np.sqrt(5.0)) / 2.0


def two_call_golden_max(fn, lo, hi, xtol=POLISH_XTOL):
    """Reference golden section that evaluates its two probes in two calls
    and always takes 70 steps; a bracket no wider than
    ``xtol * max(1, |lo|)`` stays as it is."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float)).copy()
    hi = np.atleast_1d(np.asarray(hi, dtype=float)).copy()
    for _ in range(70):
        frozen = hi - lo <= xtol * np.maximum(1.0, np.abs(lo))
        c = lo + _INVPHI2 * (hi - lo)
        d = lo + _INVPHI * (hi - lo)
        keep_left = np.asarray(fn(c)) >= np.asarray(fn(d))
        hi = np.where(keep_left & ~frozen, d, hi)
        lo = np.where(keep_left | frozen, lo, c)
    mid = 0.5 * (lo + hi)
    return mid, np.asarray(fn(mid))


def polish_bracket(fn, lo, hi, maximize=True, xtol=POLISH_XTOL):
    """``polish`` over exactly ``[lo, hi]``: each bracket gets an identity
    chart whose range is the bracket, and the reach around ``t0`` covers it."""
    t0, spacing = lo, hi - lo
    assert np.array_equal(np.maximum(lo, t0 - 2.0 * spacing), lo)
    assert np.array_equal(np.minimum(hi, t0 + 2.0 * spacing), hi)
    parts = [(Chart(lambda r: r, lo[k], hi[k]), t0[k:k + 1], spacing[k])
             for k in range(lo.size)]
    t, _, v = polish(fn, parts, maximize, xtol=xtol)
    return t, v


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
_xtol = st.sampled_from([0.0, POLISH_XTOL])


def _as_brackets(pairs):
    lo = np.array([p[0] for p in pairs])
    return lo, lo + np.array([p[1] for p in pairs])


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


class TestPolish:

    @pytest.mark.parametrize("xtol, steps", [(0.0, 70), (POLISH_XTOL, 38)],
                             ids=["fixed-point", "frozen"])
    def test_one_call_per_step(self, xtol, steps):
        # a unit bracket shrinks by 0.618 a step: below 1.49e-8 after 38
        # steps, while 70 steps leave it wider than its float spacing near 0.3
        calls = []

        def fn(t):
            calls.append(np.shape(t))
            return -(t - 0.3) ** 2

        polish_bracket(fn, np.zeros(3), np.ones(3), xtol=xtol)
        assert calls == [(2, 3)] * steps + [(3,)]

    def test_stops_at_the_brackets_fixed_point(self):
        # near t = 1e3 a 1e-3 bracket is 8.8e9 ulps wide, which golden steps
        # shrink to a few ulps, where the ends stop moving, in under 50 steps
        calls = []

        def fn(t):
            calls.append(np.shape(t))
            return -(t - 1000.0003) ** 2

        lo, hi = np.array([1000.0, 999.9995]), np.array([1000.001, 1000.0005])
        got = polish_bracket(fn, lo, hi, xtol=0.0)
        assert len(calls) < 71 and calls[-1] == (2,)
        _assert_same_bits(got, two_call_golden_max(fn, lo, hi, xtol=0.0))
        # the fixed point's bits, which a freeze of 0 keeps
        assert _hex(got[0]) == ["0x1.f40009d495182p+9", "0x1.f40009d495180p+9"]
        assert _hex(got[1]) == ["-0x1.0000000000000p-86", "-0x1.2000000000000p-83"]

    def test_freezes_a_bracket_at_its_relative_width(self):
        # at t = 1e3 the freeze width is 1.49e-5: 1e-3 -> 1.49e-5 takes 9
        # steps, and the frozen midpoint is within half that of the peak
        calls = []

        def fn(t):
            calls.append(np.shape(t))
            return -(t - 1000.0003) ** 2

        lo, hi = np.array([1000.0, 999.9995]), np.array([1000.001, 1000.0005])
        got = polish_bracket(fn, lo, hi)
        assert len(calls) == 10
        _assert_same_bits(got, two_call_golden_max(fn, lo, hi))
        reach = 0.5 * POLISH_XTOL * 1000.0
        assert np.all(np.abs(got[0] - 1000.0003) <= reach) and np.all(got[1] >= -reach ** 2)

    def test_each_chart_maps_its_own_brackets(self):
        # brackets on three charts of other ranges and maps, clipped at both
        # ends, in one call: the bits of one polish per chart, and one call
        # of all the stacked points per step
        circle = Chart(lambda t: np.stack([np.cos(t), np.sin(t)], axis=-1), 0.0, 6.0)
        charts = [circle, Chart(lambda t: np.stack([t, t * t - 1.0], axis=-1), -1.0, 1.0),
                  Chart(lambda t: np.stack([np.full_like(t, 2.0), t], axis=-1), -0.5, 0.5)]
        parts = list(zip(charts, [np.array([0.1, 3.0, 5.9]), np.array([-0.99, 0.4]),
                                  np.array([0.45])], [0.3, 0.05, 0.2]))
        shapes = []

        def g(q):
            shapes.append(q.shape)
            return -np.linalg.norm(q - np.array([0.3, -0.7]), axis=-1)

        got = polish(g, parts, maximize=True)
        assert set(shapes[:-1]) == {(2, 6, 2)} and shapes[-1] == (6, 2)
        want = [polish(g, [p], maximize=True) for p in parts]
        for got_k, want_k in zip(got, zip(*want)):
            np.testing.assert_array_equal(got_k, np.concatenate(want_k))

    @pytest.mark.parametrize("make", [lambda: ellipsoid(0.1), lambda: bump_domain(1e-3, 2.0),
                                      lambda: erode(ellipsoid(0.1), 0.5)],
                             ids=["ellipsoid-0.1", "bump-1e-3", "eroded-ellipsoid-0.1"])
    @pytest.mark.parametrize("xtol", [0.0, POLISH_XTOL], ids=["fixed-point", "frozen"])
    def test_returned_points_are_the_charts_at_the_returned_t(self, make, xtol):
        # the points of the final call: each chart's own map of its midpoints
        d = make()
        grids = chart_grids(d.boundary_param, 64)
        parts = [(ch, t[::9], spacing) for ch, t, _, spacing in grids]
        t, pts, v = polish(lambda q: q @ np.array([0.6, -0.8]), parts, True, xtol=xtol)
        split = np.cumsum([t0.size for _, t0, _ in parts])[:-1]
        for (ch, _, _), tk, pk in zip(parts, np.split(t, split), np.split(pts, split)):
            np.testing.assert_array_equal(pk, ch.fn(tk))
        np.testing.assert_array_equal(v, pts @ np.array([0.6, -0.8]))

    @settings(max_examples=60)
    @given(_peak, _center, _bracket, _xtol)
    def test_one_element_bracket_matches_two_calls(self, name, a, bracket, xtol):
        fn = PEAKS[name](a)
        lo, hi = np.array([bracket[0]]), np.array([bracket[0] + bracket[1]])
        arg, val = two_call_golden_max(fn, lo, hi, xtol)
        got = polish_bracket(fn, lo, hi, xtol=xtol)
        assert got[0].shape == got[1].shape == (1,)
        _assert_same_bits(got, (arg, val))
        _assert_same_bits(polish_bracket(lambda t: -fn(t), lo, hi, maximize=False, xtol=xtol),
                          (arg, -val))

    @settings(max_examples=60)
    @given(_peak, _center, st.lists(_bracket, min_size=1, max_size=8), _xtol)
    def test_vector_brackets_match_two_calls(self, name, a, pairs, xtol):
        fn = PEAKS[name](a)
        lo, hi = _as_brackets(pairs)
        arg, val = two_call_golden_max(fn, lo, hi, xtol)
        _assert_same_bits(polish_bracket(fn, lo, hi, xtol=xtol), (arg, val))
        _assert_same_bits(polish_bracket(lambda t: -fn(t), lo, hi, maximize=False, xtol=xtol),
                          (arg, -val))

    @settings(max_examples=60)
    @given(_peak, _center, st.lists(_bracket, min_size=2, max_size=8), _xtol)
    def test_batch_mates_do_not_move_a_bracket(self, name, a, pairs, xtol):
        # brackets of different widths freeze at different steps: each keeps
        # the (t, value) bits of its polish alone
        fn = PEAKS[name](a)
        lo, hi = _as_brackets(pairs)
        t, v = polish_bracket(fn, lo, hi, xtol=xtol)
        for k in range(lo.size):
            _assert_same_bits((t[k:k + 1], v[k:k + 1]),
                              polish_bracket(fn, lo[k:k + 1], hi[k:k + 1], xtol=xtol))


@pytest.fixture
def objective_calls(monkeypatch):
    """Counts the calls every ``polish`` makes of its objective."""
    calls = [0]

    def counted(g, parts, maximize, **kw):
        def g_counted(q):
            calls[0] += 1
            return g(q)
        return polish(g_counted, parts, maximize, **kw)

    monkeypatch.setattr(domains, "polish", counted)
    return calls


class TestPolishBudget:
    # objective calls at the brackets' fixed point, before the freeze: 764
    # for the plane, 71 for the distance block; each bound is half of that

    def test_bump_plane(self, objective_calls):
        critical_lambda(bump_domain(1e-3, 2.0), (1.0, 0.0), tol=1e-8, seed=0)
        assert objective_calls[0] <= 382

    def test_bump_distance_block(self, objective_calls):
        u = halton_points(4096, 0)
        pts = np.stack([0.1 * u[:, 0], -1.02 + 0.04 * u[:, 1]], axis=-1)
        _chart_min_distance(bump_domain(1e-3, 2.0), pts)
        assert objective_calls[0] <= 35


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
        with pytest.raises(ParameterDomainError, match="ball radius must be positive"):
            ball((0.0, 0.0), 0.0)

    @given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
    def test_sdf_matches_norm(self, x, y):
        d = ball((0.0, 0.0), 1.5)
        assert signed_distance(d, np.array([x, y])) == pytest.approx(
            math.hypot(x, y) - 1.5, abs=1e-12)


class TestEllipsoid:

    @pytest.mark.parametrize("q, ref", ELLIPSE_DIST_REF)
    def test_exact_distance_against_polyline(self, q, ref):
        d = ellipsoid(0.1)
        assert signed_distance(d, np.array(q)) == pytest.approx(ref, abs=1e-7)

    def test_boundary_samples_sit_on_level(self):
        d = ellipsoid(0.2)
        samples = boundary_samples(d, 512)
        assert np.max(np.abs(d.level(samples))) < 1e-12

    def test_radial_extremes(self):
        d = ellipsoid(0.15)
        rho_i, rho_e = radial_extremes(d)
        assert rho_i == pytest.approx(1.0, abs=1e-9)
        assert rho_e == pytest.approx(1.15, abs=1e-9)

    @pytest.mark.parametrize("eps", [0.1, 0.02, 0.005, 1e-9])
    def test_shape_metrics_recover_stretch(self, eps):
        # the probe's rho_shape: the annulus width about the centre, the origin
        rho_i, rho_e = radial_extremes(ellipsoid(eps))
        assert abs((rho_e - rho_i) - eps) <= 1e-12

    def test_stretch_range(self):
        with pytest.raises(ParameterDomainError, match="ellipsoid stretch restricted"):
            ellipsoid(0.25)
        with pytest.raises(ParameterDomainError, match="ellipsoid stretch restricted"):
            ellipsoid(-0.01)

    @settings(max_examples=60, deadline=None)
    @given(eps=st.sampled_from([0.0, 1e-9, 0.005, 0.01, 0.02, 0.1, 0.2]),
           pts=st.lists(st.one_of(_NEAR_BOUNDARY, _NEAR_AXIS, _ANYWHERE),
                        min_size=1, max_size=40))
    def test_early_stop_keeps_the_hundred_step_bits(self, eps, pts):
        a = 1.0 + eps
        xy = np.array([(a * math.cos(u) * (1.0 + v), math.sin(u) * (1.0 + v))
                       if kind == "rim" else (u, v) for kind, u, v in pts])
        want = _hundred_step_distance(xy[:, 0], xy[:, 1], a)
        assert _ellipse_distance(xy[:, 0], xy[:, 1], a).tobytes() == want.tobytes()
        sdf = ellipsoid(eps).exact_sdf
        for k in range(len(xy)):  # one point: 1-d coordinates and a bare (2,) point
            one = _ellipse_distance(xy[k:k + 1, 0], xy[k:k + 1, 1], a)
            assert one.tobytes() == want[k:k + 1].tobytes()
            bare = sdf(xy[k])
            assert bare.shape == () and abs(bare).tobytes() == want[k].tobytes()
        grid = sdf(np.resize(xy, (3, 4, 2)))  # the points, cycled
        assert grid.shape == (3, 4)
        assert np.abs(grid).tobytes() == np.resize(want, (3, 4)).tobytes()
        # within 1e-12 of the major axis the point is measured from height
        # 1e-12, which moves its distance by at most 1e-12
        for k, (kind, _, _) in enumerate(pts):
            if kind == "axis":
                assert abs(want[k] - _cached_polar_distance(*xy[k], a)) <= 1.5e-12
        if eps == 0.0:  # the unit circle
            circle = np.abs(np.hypot(xy[:, 0], xy[:, 1]) - 1.0)
            assert np.max(np.abs(want - circle)) <= 1.5e-12

    @pytest.mark.parametrize("eps, x", [
        (0.01, (0.001, 1e-6)),
        (0.1, (-9.02275566e-4, 8.88625002e-7)),
    ])
    def test_distance_near_the_centre(self, eps, x):
        # the root t sits within O(x2) of -1, below the float spacing of t
        # there; the solve in u = t + 1, bracketed from below by x2, finds
        # the foot
        got = boundary_distance(ellipsoid(eps), np.array(x))
        assert got == pytest.approx(_polar_distance(x, 1.0 + eps, 1.0), abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=0.24), st.floats(min_value=0, max_value=2 * math.pi))
    def test_boundary_distance_vanishes_on_boundary(self, eps, t):
        d = ellipsoid(eps)
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
        parent = ellipsoid(eps)
        inner = erode(parent, rho)
        pts = 1.3 * (2.0 * halton_points(20_000, seed=9) - 1.0)
        parent_side = signed_distance(parent, pts) <= -1e-6
        dilated_side = signed_distance(inner, pts) <= rho - 1e-6
        assert np.array_equal(parent_side, dilated_side)

    def test_offset_charts_track_level(self):
        inner = erode(ellipsoid(0.2), 0.4)
        samples = boundary_samples(inner, 256)
        assert np.max(np.abs(inner.level(samples))) < 1e-9

    @pytest.mark.parametrize("drop", ["exact_sdf", "normal", "boundary_param"])
    def test_needs_exact_sdf_charts_and_normal(self, drop):
        d = dataclasses.replace(ball((0.0, 0.0), 1.0), **{drop: None})
        with pytest.raises(ParameterDomainError, match="erosion needs"):
            erode(d, 0.3)

    def test_an_eroded_domain_is_not_eroded_again(self):
        # the parent's normal is the gradient of its level, which at an
        # interior point is not the normal of the parallel curve: charts
        # offset along it would leave the curve (by 1.2e-3 for two erosions
        # of 0.3 against one of 0.6 here)
        inner = erode(ellipsoid(0.2), 0.3)
        assert inner.normal is None and inner.interior_ball_radius is None
        with pytest.raises(ParameterDomainError, match="erosion needs"):
            erode(inner, 0.3)

    def test_depth_must_fit_interior_ball(self):
        with pytest.raises(ParameterDomainError, match="erosion depth must lie in"):
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

        # Points above and below the graph, over the bump (nearest to the
        # graph chart) and beyond it (nearest to the arc), plus points off
        # the arc; distances range over 1e-4 .. 0.3.
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

    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    def test_chart_distance_keeps_the_loop_bits(self, eps):
        # one polish over every (chart, point) bracket against a polish per
        # chart, on points over the circle beyond the bump (nearest to the
        # arc), over the bump (nearest to the graph chart), near the strip
        # and around the disk
        from scipy.spatial import cKDTree

        d = bump_domain(eps, 2.0)
        psi = bump_profile(eps, 2.0)
        u = halton_points(40, seed=4)
        tau = np.concatenate([0.25 + 0.2 * u[:20, 0],
                              math.sqrt(eps) * (0.05 + 1.9 * u[20:, 0])])
        over = np.stack([tau, psi(tau) + np.linspace(-0.02, 0.02, tau.size)], axis=-1)
        strip = np.array([0.0, -1.2]) + np.array([0.5, 0.4]) * halton_points(40, seed=5)
        around = 1.3 * (2.0 * halton_points(40, seed=6) - 1.0)
        qs = np.concatenate([over, strip, around])

        want = np.full(len(qs), np.inf)
        for ch in d.boundary_param:
            (_, t, nodes, spacing), = chart_grids([ch], 2048)
            _, _, dist = polish(lambda q: np.linalg.norm(q - qs, axis=-1),
                                [(ch, t[cKDTree(nodes).query(qs)[1]], spacing)],
                                maximize=False)
            want = np.minimum(want, dist)
        assert tau[20:].max() <= d.boundary_param[1].hi < tau[:20].min()  # the graph's end
        np.testing.assert_array_equal(boundary_distance(d, qs), want)
        np.testing.assert_array_equal(boundary_distance(d, qs.reshape(4, 30, 2)),
                                      want.reshape(4, 30))

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_charts_partition_the_boundary(self, alpha):
        # the arc and the graph over the support meet end to end: no node of
        # one chart lies on another chart, and the arc's ends are the graph's
        from scipy.spatial import cKDTree

        d = bump_domain(1e-3, alpha)
        for a in d.boundary_param:
            (_, _, pts, _), = chart_grids([a], 2048)
            for b in d.boundary_param:
                if b is a:
                    continue
                (_, t, nodes, spacing), = chart_grids([b], 2048)
                _, _, dist = polish(lambda q: np.linalg.norm(q - pts, axis=-1),
                                    [(b, t[cKDTree(nodes).query(pts)[1]], spacing)],
                                    maximize=False)
                assert dist.min() > 1e-9
        # up to the rounding of the arc's parameter (its float spacing near
        # 4 pi is 1.8e-15)
        arc, graph = d.boundary_param
        np.testing.assert_allclose(arc.fn(np.array([arc.lo, arc.hi])),
                                   graph.fn(np.array([graph.hi, graph.lo])),
                                   rtol=0.0, atol=1e-14)

    def test_parameter_validation(self):
        with pytest.raises(ParameterDomainError, match="bump aspect exponent must exceed 1"):
            bump_domain(1e-3, 1.0)
        with pytest.raises(ParameterDomainError, match="bump height restricted"):
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


def _old_smoothstep(v):
    """The step as it was written before it was masked to (0, 1): both
    exponentials on every point."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        e0 = np.where(v > 0.0, np.exp(-1.0 / np.maximum(v, 1e-300)), 0.0)
        e1 = np.where(v < 1.0, np.exp(-1.0 / np.maximum(1.0 - v, 1e-300)), 0.0)
        return e0 / (e0 + e1)


def _old_bump_level(eps, alpha, pts):
    """The bump level as it was written before: ``psi`` (over the old step)
    on every point, with out-of-strip points sent to tau = 0."""
    center, width = eps ** (1.0 - 1.0 / alpha), eps ** (1.0 / alpha)

    def psi(tau):
        t = (tau - center) / width
        taper = 1.0 - _old_smoothstep((np.abs(t) - 0.25) * 2.0)
        return -np.sqrt(1.0 - tau * tau) - eps * (2.0 * t * taper)

    pts = np.asarray(pts, dtype=float)
    x1, x2 = pts[..., 0], pts[..., 1]
    in_strip = (x1 > 0.0) & (x1 < 0.5) & (x2 > -1.5) & (x2 < -0.5)
    circ = np.hypot(x1, x2) - 1.0
    graph = psi(np.where(in_strip, x1, 0.0)) - x2
    return np.where(in_strip, graph, circ)


def _same_bits_nan_aware(got, want):
    """Equal bytes, except that a NaN may carry either sign."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


_STEP_EDGES = np.array([
    0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 5e-324, -5e-324,
    1e-310, -1e-310, 2.2250738585072014e-308, 1e-300, 0.5, -1.0, 2.0, 1e308, -1e308,
    np.inf, -np.inf, np.nan, -np.nan, np.nextafter(0.0, 1.0) * 7, 1.0 - 2.0 ** -53])


class TestBumpKernelsKeepTheirBits:

    def test_smoothstep_edges(self):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = _smoothstep(_STEP_EDGES)
        _same_bits_nan_aware(got, _old_smoothstep(_STEP_EDGES))
        for v in _STEP_EDGES:
            _same_bits_nan_aware(_smoothstep(v), _old_smoothstep(v))
        assert _smoothstep(-0.0) == 0.0 and _smoothstep(1.0) == 1.0
        assert np.signbit(_smoothstep(np.array([-0.0, -5e-324, -np.inf]))).sum() == 0

    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(), (7,), (3, 5), (200,)]))
    @settings(max_examples=60, deadline=None)
    def test_smoothstep_random_arrays(self, seed, shape):
        rng = np.random.default_rng(seed)
        v = rng.uniform(-0.5, 1.5, size=shape)
        if v.ndim:
            picks = rng.integers(0, v.size, size=max(1, v.size // 4))
            v.flat[picks] = rng.choice(_STEP_EDGES, size=picks.size)
        _same_bits_nan_aware(_smoothstep(v), _old_smoothstep(v))

    @pytest.mark.parametrize("eps", [1e-3, 3e-5, 1e-2])
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from([(2,), (1, 2), (37, 2), (3, 7, 2)]))
    @settings(max_examples=25, deadline=None)
    def test_bump_level(self, eps, seed, shape):
        rng = np.random.default_rng(seed)
        # around the strip (0, 1/2) x (-3/2, -1/2), a third of them on its
        # edges x1 = 0 and x1 = 1/2
        pts = rng.uniform((-0.1, -1.6), (0.6, -0.4), size=shape)
        edge = pts.reshape(-1, 2)[::3]  # a view: writing it writes pts
        edge[:, 0] = rng.choice([0.0, -0.0, 0.5], size=len(edge))
        d = bump_domain(eps, 2.0)
        _same_bits_nan_aware(d.level(pts), _old_bump_level(eps, 2.0, pts))
