import functools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from fracshape import domains
from fracshape.domains import ball, bump_domain, chart_grids, ellipsoid
from fracshape.movingplanes import (_VIOLATION_EPS, TAG_ORTHOGONAL, TAG_TANGENCY,
                                    TAG_UNRESOLVED, critical_lambda, reflect,
                                    support_value, to_record, violation)
from fracshape.specfun import ParameterDomainError


finite = st.floats(min_value=-5, max_value=5)


def scan_grids(d, seed):
    """The node grids ``critical_lambda`` scans at ``seed``: 8192 nodes in
    all, their phase shifted by the seed."""
    return chart_grids(d.boundary_param, max(64, 8192 // len(d.boundary_param)),
                       (0.5 + seed * 0.6180339887498949) % 1.0)


def refined_scan(d, e, tol, seed=0):
    """Reference ``(lam, case_tag, Lambda, witness)``: the critical-plane scan
    with a refined ``violation`` call at every step of the downward scan."""
    e = np.asarray(e, dtype=float) / float(np.linalg.norm(e))
    lam_top, lam_bot = support_value(d, e), -support_value(d, -e)
    grids = scan_grids(d, seed)

    def violated(mu):
        return violation(d, grids, mu, e, refine=True)[0] > _VIOLATION_EPS

    step = (lam_top - lam_bot) / 400.0
    hi_mu, lo_mu = lam_top, None
    mu = lam_top - step
    while mu > lam_bot - 0.5 * step:
        if violated(mu):
            lo_mu = mu
            break
        hi_mu = mu
        mu -= step
    if lo_mu is None:
        return lam_bot, TAG_UNRESOLVED, lam_top, None
    while hi_mu - lo_mu > tol:
        mid = 0.5 * (lo_mu + hi_mu)
        if not lo_mu < mid < hi_mu:
            break
        if violated(mid):
            lo_mu = mid
        else:
            hi_mu = mid
    lam = 0.5 * (lo_mu + hi_mu)
    witness = violation(d, grids, lo_mu, e, refine=True)[1]
    case = TAG_ORTHOGONAL if abs(float(witness @ e) - lam) <= 10.0 * tol else TAG_TANGENCY
    return lam, case, lam_top, witness


class TestReflect:

    def test_example(self):
        assert reflect(np.array([3.0, 1.0]), 0.0, np.array([1.0, 0.0])) == pytest.approx([-3.0, 1.0])

    def test_points_on_plane_are_fixed(self):
        e = np.array([0.0, 1.0])
        x = np.array([[1.0, 0.7], [-2.0, 0.7]])
        assert reflect(x, 0.7, e) == pytest.approx(x)

    @given(finite, finite, finite, st.floats(min_value=0.0, max_value=2 * math.pi))
    def test_involution(self, x1, x2, mu, angle):
        e = np.array([math.cos(angle), math.sin(angle)])
        x = np.array([x1, x2])
        assert reflect(reflect(x, mu, e), mu, e) == pytest.approx(x, abs=1e-9)

    @given(st.sampled_from([(2,), (5, 2), (3, 4, 2)]).flatmap(
               lambda shape: hnp.arrays(float, shape, elements=finite)),
           finite, st.floats(min_value=0.0, max_value=2 * math.pi))
    @example(np.array([-0.0, -1.0]), 0.0, 0.0)  # np.sum gives +0.0 for -0.0 + -0.0
    def test_keeps_the_last_axis_bits(self, x, mu, angle):
        e = np.array([math.cos(angle), math.sin(angle)])
        old = x - 2.0 * (np.sum(x * e, axis=-1) - mu)[..., None] * e
        assert reflect(x, mu, e).tobytes() == old.tobytes()

    @given(finite, finite, finite)
    def test_preserves_distance_to_plane(self, x1, x2, mu):
        e = np.array([1.0, 0.0])
        x = np.array([x1, x2])
        y = reflect(x, mu, e)
        assert (y @ e - mu) == pytest.approx(-(x @ e - mu), abs=1e-9)


class TestSupportValue:

    def test_ball_support_is_radius(self):
        d = ball((0.0, 0.0), 1.0)
        for angle in (0.0, 0.4, 2.0, 4.5):
            e = np.array([math.cos(angle), math.sin(angle)])
            assert support_value(d, e) == pytest.approx(1.0, abs=1e-9)

    def test_shifted_ball(self):
        d = ball((0.5, 0.0), 1.0)
        assert support_value(d, np.array([1.0, 0.0])) == pytest.approx(1.5, abs=1e-9)
        assert support_value(d, np.array([-1.0, 0.0])) == pytest.approx(0.5, abs=1e-9)

    def test_ellipsoid_long_axis(self):
        d = ellipsoid(0.2)
        assert support_value(d, np.array([1.0, 0.0])) == pytest.approx(1.2, abs=1e-9)
        assert support_value(d, np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-9)

    def test_zero_direction_is_an_input_error(self):
        d = ball((0.0, 0.0), 1.0)
        for call in (support_value, critical_lambda):
            with pytest.raises(ParameterDomainError, match="nonzero vector"):
                call(d, np.zeros(2))


class TestCriticalPlane:

    # the contract for a reflection-symmetric domain along a symmetry axis:
    # the scan stops at the centre up to tol and sampling residue (lambda
    # between -3.4e-7 and -3.0e-7 at tol 1e-6), tagged internal-tangency
    @pytest.mark.parametrize("e", [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)],
                             ids=["+x", "-x", "+y", "-y"])
    @pytest.mark.parametrize("make", [
        lambda: ball((0.0, 0.0), 1.0),
        lambda: ellipsoid(0.1),
        lambda: ellipsoid(0.01),
    ], ids=["ball", "ellipsoid-0.1", "ellipsoid-0.01"])
    def test_symmetric_domains_stop_at_center(self, make, e):
        res = critical_lambda(make(), np.array(e), tol=1e-6)
        assert abs(res.lam) <= 2e-6
        assert res.case_tag == TAG_TANGENCY

    def test_bisection_stops_at_float_spacing(self, monkeypatch):
        # tol far below the float spacing near lambda: the bisection must stop
        # once the midpoint no longer splits the bracket
        d, e = ellipsoid(0.1), np.array([1.0, 1.0])
        coarse = critical_lambda(d, e, tol=1e-8)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            assert len(calls) < 1000, "bisection did not terminate"
            return violation(*args, **kwargs)

        monkeypatch.setattr("fracshape.movingplanes.violation", counted)
        fine = critical_lambda(d, e, tol=1e-300)
        assert fine.lam == pytest.approx(coarse.lam, abs=1e-8)
        assert fine.case_tag != TAG_UNRESOLVED

    def test_tol_below_float_spacing_is_raised_to_it(self):
        # the reported tol is the resolution reached
        res = critical_lambda(bump_domain(1e-3, 2.0), np.array([1.0, 0.0]), tol=1e-300)
        assert res.tol == np.spacing(abs(res.Lambda))
        assert res.case_tag != TAG_UNRESOLVED

    # oblique planes whose refined excess near lambda is flat at the
    # violation threshold, so any fresh verdict near lambda is set by rounding
    @pytest.mark.parametrize("make, theta, tol, lam", [
        (lambda: ellipsoid(0.1), 82.5, 1e-14, 0.02474205892712849),
        (lambda: ellipsoid(0.1), 187.5, 1e-14, 0.027127512908790397),
        (lambda: ellipsoid(0.1), 337.5, 1e-14, 0.07313020921802749),
        (lambda: ellipsoid(0.1), 82.5, 1e-300, 0.024742058927129412),
        (lambda: ellipsoid(0.1), 187.5, 1e-300, 0.027127512908785636),
        (lambda: ellipsoid(0.1), 337.5, 1e-300, 0.07313020921802263),
        # the scan misses a spike of excess narrower than a node spacing
        # here, so this lambda is the sampled boundary's, below the curve's
        # 4.3589e-4; it moved with the bump's node grid
        (lambda: bump_domain(1e-3, 2.0), 127.5, 1e-300, 0.00043057160524323393),
        (lambda: bump_domain(1e-3, 2.0), 337.5, 1e-300, 0.0008311973921850044),
        (lambda: bump_domain(1e-3, 2.0), 352.5, 1e-300, 0.002043185625947604),
    ], ids=["ellipsoid-82.5-1e-14", "ellipsoid-187.5-1e-14", "ellipsoid-337.5-1e-14",
            "ellipsoid-82.5-1e-300", "ellipsoid-187.5-1e-300", "ellipsoid-337.5-1e-300",
            "bump-127.5-1e-300", "bump-337.5-1e-300", "bump-352.5-1e-300"])
    def test_flat_excess_at_the_threshold_still_tags_the_contact(self, make, theta, tol, lam):
        # the witness comes from the violated bracket end, so the tag is a
        # contact; lambda is the bisection's and keeps this program's value.
        # Rounding sets it only to about 6e-13 (the symmetric copies of a
        # direction spread that far, test_symmetric_copies_agree), so a
        # change to the arithmetic near lambda re-pins these rows
        t = math.radians(theta)
        res = critical_lambda(make(), np.array([math.cos(t), math.sin(t)]), tol=tol)
        assert res.case_tag in (TAG_TANGENCY, TAG_ORTHOGONAL)
        assert res.lam == pytest.approx(lam, rel=0.0, abs=1e-13)

    @pytest.mark.parametrize("make", [lambda: ellipsoid(0.1), lambda: bump_domain(1e-3, 2.0)],
                             ids=["ellipsoid-0.1", "bump-1e-3"])
    def test_frozen_polish_keeps_the_oblique_planes(self, make, monkeypatch):
        # 24 directions at tol 1e-8 against the same scan with every polish
        # run to its fixed point: the same tag, and lambda and Lambda to 4
        # ulps of Lambda, the scale of the offsets that the scan steps from
        d = make()
        es = [np.array([math.cos(t), math.sin(t)])
              for t in np.radians((np.arange(24) + 0.5) * 15.0)]
        frozen = [critical_lambda(d, e, tol=1e-8) for e in es]
        monkeypatch.setattr(domains, "polish", functools.partial(domains.polish, xtol=0.0))
        for e, got in zip(es, frozen):
            want = critical_lambda(d, e, tol=1e-8)
            assert got.case_tag == want.case_tag, e
            ulp = np.spacing(abs(want.Lambda))
            assert abs(got.lam - want.lam) <= 4.0 * ulp, e
            assert abs(got.Lambda - want.Lambda) <= 4.0 * ulp, e

    @pytest.mark.parametrize("theta", (np.arange(6) + 0.5) * 15.0)
    def test_symmetric_copies_agree(self, theta):
        # the ellipse is symmetric in both axes, so e, its mirror images and
        # -e have one critical offset; at tol 1e-14 rounding spreads the
        # scan's four lambdas by up to about 6e-13, and no value is pinned
        d, t = ellipsoid(0.1), math.radians(theta)
        c, s = math.cos(t), math.sin(t)
        lams = [critical_lambda(d, np.array(e), tol=1e-14).lam
                for e in ((c, s), (c, -s), (-c, s), (-c, -s))]
        assert max(lams) - min(lams) <= 1e-12, lams

    @pytest.mark.parametrize("make, e, tol", [
        (lambda: ball((0.0, 0.0), 1.0), (1.0, 0.0), 1e-6),
        (lambda: ellipsoid(0.1), (1.0, 1.0), 1e-6),
        (lambda: bump_domain(1e-3, 2.0), (1.0, 0.0), 1e-8),
        (lambda: bump_domain(1e-4, 2.0), (1.0, 0.0), 1e-8),
        (lambda: bump_domain(1e-2, 2.0), (0.0, 1.0), 1e-6),
    ], ids=["ball", "ellipsoid-0.1-e11", "bump-1e-3", "bump-1e-4", "bump-1e-2-e01"])
    def test_coarse_scan_matches_refined_scan(self, make, e, tol):
        d = make()
        lam, case, lam_top, witness = refined_scan(d, e, tol)
        res = critical_lambda(d, np.array(e), tol=tol)
        assert (res.lam, res.case_tag, res.Lambda) == (lam, case, lam_top)
        if e == (1.0, 0.0):
            np.testing.assert_array_equal(res.witness, witness)
        else:
            np.testing.assert_allclose(res.witness, witness, rtol=0.0, atol=1e-9)

    def test_refined_calls_mend_a_late_raw_pass(self, monkeypatch):
        # a raw pass that sees violations only 3 steps below the critical
        # offset still gives the all-refined scan's result
        d, e = ball((0.0, 0.0), 1.0), (1.0, 0.0)
        want = refined_scan(d, e, 1e-6)
        seen_below = want[0] - 3 * 2.0 / 400.0  # the disk's width is 2

        def late(*args, refine=True, **kw):
            if refine or args[2] < seen_below:
                return violation(*args, refine=refine, **kw)
            return -math.inf, None

        monkeypatch.setattr("fracshape.movingplanes.violation", late)
        res = critical_lambda(d, np.array(e), tol=1e-6)
        assert (res.lam, res.case_tag, res.Lambda) == want[:3]
        np.testing.assert_array_equal(res.witness, want[3])

    def test_refines_only_near_the_critical_offset(self, monkeypatch):
        refined = []

        def counted(*args, refine=True, **kw):
            refined.append(refine)
            return violation(*args, refine=refine, **kw)

        monkeypatch.setattr("fracshape.movingplanes.violation", counted)
        critical_lambda(bump_domain(1e-3, 2.0), np.array([1.0, 0.0]), tol=1e-8)
        assert sum(refined) <= 12

    @pytest.mark.parametrize("make, e", [
        (lambda: bump_domain(1e-3, 2.0), (1.0, 0.0)),
        (lambda: bump_domain(1e-2, 2.0), (0.0, 1.0)),
        (lambda: ellipsoid(0.1), (1.0, 1.0)),
    ], ids=["bump-1e-3", "bump-1e-2-e01", "ellipsoid-0.1-e11"])
    def test_refined_excess_never_below_raw(self, make, e):
        # the premise of polishing only raw-clean midpoints: at every scan
        # offset a raw violation is also a refined one
        d = make()
        e = np.asarray(e) / np.linalg.norm(e)
        lam_top, lam_bot = support_value(d, e), -support_value(d, -e)
        grids = scan_grids(d, 0)
        step = (lam_top - lam_bot) / 400.0
        mu = lam_top - step
        while mu > lam_bot - 0.5 * step:
            assert violation(d, grids, mu, e)[0] >= violation(d, grids, mu, e, refine=False)[0]
            mu -= step

    @pytest.mark.parametrize("make, e", [
        (lambda: bump_domain(1e-3, 2.0), (1.0, 0.0)),
        (lambda: ellipsoid(0.1), (1.0, 1.0)),
    ], ids=["bump-1e-3", "ellipsoid-0.1-e11"])
    def test_unrefined_pass_is_the_worst_node_excess(self, make, e):
        # the reflected level on the cap, minus the distance to the plane
        # off it, maximized over every node of the scan grids; no point
        d = make()
        e = np.asarray(e) / np.linalg.norm(e)
        lam_top, lam_bot = support_value(d, e), -support_value(d, -e)
        grids = scan_grids(d, 0)
        nodes = np.concatenate([pts for _, _, pts, _ in grids])
        step = (lam_top - lam_bot) / 400.0
        for k in (1, 10, 100, 200, 399):
            mu = lam_top - k * step
            side = nodes @ e - mu
            cap = side > 0.0
            worst = max(np.max(-np.abs(side[~cap]), initial=-np.inf),
                        np.max(d.level(reflect(nodes[cap], mu, e)), initial=-np.inf))
            value, point = violation(d, grids, mu, e, refine=False)
            assert point is None
            assert value == pytest.approx(worst, abs=1e-14)

    def test_scan_step_follows_the_domain_width(self):
        # Lambda near 0 with the far support at -2: a step of Lambda/200
        # would take 400,000 scan offsets, a step of width/400 takes 200
        start = time.perf_counter()
        res = critical_lambda(ball((-0.999, 0.0), 1.0), np.array([1.0, 0.0]), tol=1e-6)
        assert time.perf_counter() - start < 5.0
        assert res.lam == pytest.approx(-0.999, abs=2e-6)
        assert res.case_tag == TAG_TANGENCY

    def test_shifted_ball_finds_its_center(self):
        res = critical_lambda(ball((0.3, -0.2), 0.8), np.array([1.0, 0.0]), tol=1e-7)
        assert res.lam == pytest.approx(0.3, abs=1e-6)

    def test_bump_scaling_prefactor(self):
        # the perturbation crest sits at sqrt(eps); the plane stops just past it
        eps = 1e-3
        res = critical_lambda(bump_domain(eps, 2.0), np.array([1.0, 0.0]), tol=1e-7)
        assert res.case_tag == TAG_TANGENCY
        assert res.lam / math.sqrt(eps) == pytest.approx(1.3425, abs=0.01)

    def test_bump_offsets_shrink_with_eps(self):
        lams = []
        for eps in (1e-3, 1e-4):
            res = critical_lambda(bump_domain(eps, 2.0), np.array([1.0, 0.0]), tol=1e-7)
            lams.append(res.lam)
        assert lams[1] < lams[0]
        assert lams[1] / lams[0] == pytest.approx(math.sqrt(0.1), rel=0.05)

    def test_plane_sits_inside_support_interval(self):
        d = bump_domain(1e-3, 2.0)
        e = np.array([1.0, 0.0])
        res = critical_lambda(d, e, tol=1e-6)
        assert -support_value(d, -e) <= res.lam <= res.Lambda
        assert res.Lambda == pytest.approx(support_value(d, e), abs=1e-9)

    def test_witness_is_reported_near_contact(self):
        res = critical_lambda(bump_domain(1e-3, 2.0), np.array([1.0, 0.0]), tol=1e-7)
        assert res.witness is not None
        # reflected witness sits essentially on the boundary on the far side
        assert res.witness[0] < res.lam

    def test_determinism(self):
        d = bump_domain(1e-3, 2.0)
        a = critical_lambda(d, np.array([1.0, 0.0]), tol=1e-7, seed=5)
        b = critical_lambda(d, np.array([1.0, 0.0]), tol=1e-7, seed=5)
        assert a.lam == b.lam and a.Lambda == b.Lambda
        assert np.array_equal(a.witness, b.witness)

    def test_record_is_json_ready(self):
        res = critical_lambda(ball((0.0, 0.0), 1.0), np.array([0.0, 1.0]))
        rec = json.loads(json.dumps(to_record(res)))
        assert set(rec) == {"e", "Lambda", "lambda", "case", "witness", "tol"}
        assert rec["Lambda"] == pytest.approx(1.0, abs=1e-9)
