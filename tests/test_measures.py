import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import roots_jacobi

from fracshape import measures
from fracshape.domains import (ball, boundary_distance, bump_domain, ellipsoid,
                               radial_extremes)
from fracshape.measures import (MeasureEstimate, boundary_weighted_integral,
                                halton_points, mc_volume, slab_measure,
                                sym_diff_measure)
from fracshape.movingplanes import CriticalPlaneResult, critical_lambda
from fracshape.specfun import ParameterDomainError

E1 = np.array([1.0, 0.0])


def plane_at(lam, e=E1, tol=1e-9):
    return CriticalPlaneResult(e=np.asarray(e, dtype=float), Lambda=1.0, lam=lam,
                               case_tag="internal-tangency", witness=None, tol=tol)


class TestMcVolume:

    def test_disk_area_within_reported_bars(self):
        d = ball((0.0, 0.0), 1.0)
        hits = 0
        for seed in range(50):
            est = mc_volume(d.contains, d.bbox, 20_000, seed=seed)
            if abs(est.value - math.pi) <= est.error:
                hits += 1
        assert hits >= 47  # 3-sigma bars should cover ~99.7%

    def test_prefix_property(self):
        for n in (1000, 1001):
            big = halton_points(2 * n + 1, seed=3)
            small = halton_points(n, seed=3)
            assert np.array_equal(big[:n], small)

    def test_one_pass_gives_mean_and_bar(self):
        d = ball((0.0, 0.0), 1.0)
        seen = []

        def pred(pts):
            seen.append(pts.copy())
            return d.contains(pts)

        n = 5000
        est = mc_volume(pred, d.bbox, n, seed=3)
        assert len(seen) == 1 and seen[0].shape == (n, 2)
        vals = d.contains(seen[0]).astype(float)
        vol = float(np.prod(d.bbox[1] - d.bbox[0]))
        assert est.value == vol * float(np.mean(vals))
        assert est.error == pytest.approx(3.0 * vol * math.sqrt(np.var(vals) / n),
                                          rel=1e-14)

    def test_seed_determinism(self):
        d = ball((0.0, 0.0), 1.0)
        a = mc_volume(d.contains, d.bbox, 10_000, seed=12)
        b = mc_volume(d.contains, d.bbox, 10_000, seed=12)
        assert a == b


class TestHalton:

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_matches_scipy_bit_for_bit(self, seed):
        from scipy.stats import qmc

        # at and around 2^8, 3^7 and 2^16, where a column takes one more
        # digit level
        for n in (0, 1, 2, 255, 256, 257, 1000, 2186, 2187, 2188, 4097, 65535, 65536,
                  65537):
            want = qmc.Halton(d=2, scramble=True, seed=seed).random(n)
            got = halton_points(n, seed)
            assert got.shape == want.shape == (n, 2)
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.sampled_from([0, 1, 2, 3, 16, 307, 4097]))
    @example(0, 307)
    @example(2**64 - 1, 4097)
    @example(178, 16)  # redraws often enough to need a second block of raw words
    def test_matches_the_generator_shuffle_draw(self, seed, n):
        assert halton_points(n, seed).tobytes() == _generator_shuffle_halton(n, seed).tobytes()

    # float.hex of (x1, x2) at indices 0, 1 and 306: a numpy whose PCG64 or
    # SeedSequence output changed would move them
    PINNED = {
        0: ("0x1.9600b82ecb948p-4", "0x1.b9a95a7ee723ap-5",
            "0x1.32c01705d9729p-1", "0x1.70efeafd43c79p-1",
            "0x1.57802e0bb2e52p-2", "0x1.82d8590ec04fcp-8"),
        7: ("0x1.a2c8da8460058p-4", "0x1.de90c970b89a3p-1",
            "0x1.34591b508c00bp-1", "0x1.1276e836c689bp-2",
            "0x1.5ab236a118016p-2", "0x1.f941127b9b74ap-1"),
        2**64 - 1: ("0x1.23ce156f32db0p-2", "0x1.fd36ea7ee56bcp-1",
                    "0x1.91e70ab7996d8p-1", "0x1.4fc32a53202cdp-2",
                    "0x1.1ce156f32db00p-6", "0x1.c9f1bc7e319fbp-1"),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_pinned_points(self, seed):
        pts = halton_points(307, seed)[[0, 1, 306]]
        assert tuple(float(v).hex() for v in pts.ravel()) == self.PINNED[seed]


def _generator_shuffle_halton(n, seed):
    """The scrambled Halton draw with its digit permutations from numpy's
    ``Generator.shuffle``, as SciPy and ``halton_points`` once took them."""
    rng = np.random.default_rng(seed)
    out = np.empty((n, 2))
    for col, b in enumerate((2, 3)):
        acc = np.zeros(1)
        b2r = 1.0 / b
        for _ in range(math.ceil(54 / math.log2(b)) - 1):
            perm = np.arange(b)
            rng.shuffle(perm)
            term = perm * b2r
            if acc.size < n:
                acc = (term[:min(b, -(-n // acc.size)), None] + acc).ravel()
            elif term[0]:
                acc += term[0]
            b2r /= b
        out[:, col] = acc[:n]
    return out


class TestSymmetricDifference:

    def test_disk_against_closed_form(self):
        # reflecting the unit disk across {x1 = t} leaves a lens of overlap;
        # |B xor B'| = 2 pi - 4 (acos t - t sqrt(1 - t^2))
        t = 0.2
        d = ball((0.0, 0.0), 1.0)
        want = 2.0 * math.pi - 4.0 * (math.acos(t) - t * math.sqrt(1 - t * t))
        est = sym_diff_measure(d, plane_at(t), 400_000, seed=1)
        assert est.value == pytest.approx(want, abs=3.0 * est.error)
        assert est.error < 0.05

    def test_reflection_at_zero_vanishes(self):
        d = ellipsoid(0.1)
        est = sym_diff_measure(d, plane_at(0.0), 100_000, seed=0)
        assert est.value <= 3.0 * max(est.error, 1e-9)


class TestSlabMeasure:

    def test_centered_disk_gives_zero_with_honest_error(self):
        d = ball((0.0, 0.0), 1.0)
        res = critical_lambda(d, E1, tol=1e-6)
        est = slab_measure(d, res, 0.2, 10_000)
        assert est.method == "closed-form"
        assert est.value == pytest.approx(0.0, abs=1e-5)
        assert est.error > 0.0  # the plane is only known to tol

    def test_monotone_in_band_width(self):
        d = bump_domain(1e-3, 2.0)
        res = critical_lambda(d, E1, tol=1e-7)
        vals = [slab_measure(d, res, g, 100_000, seed=4).value
                for g in (0.05, 0.1, 0.2)]
        assert vals[0] < vals[1] < vals[2]

    def test_deviation_shortcut_matches_plain_sampling(self):
        d = bump_domain(1e-2, 2.0)
        res = critical_lambda(d, E1, tol=1e-7)
        fast = slab_measure(d, res, 0.2, 200_000, seed=5)
        plain = slab_measure(dataclasses.replace(d, disk_deviation=None), res,
                             0.2, 400_000, seed=6)
        assert fast.value == pytest.approx(plain.value,
                                           abs=3.0 * (fast.error + plain.error))
        assert fast.error < plain.error

    def test_correction_reflects_its_points_once(self, monkeypatch):
        sizes, real = [], measures.reflect

        def counting(pts, lam, e):
            sizes.append(len(pts))
            return real(pts, lam, e)

        monkeypatch.setattr(measures, "reflect", counting)
        est = slab_measure(bump_domain(1e-3, 2.0), plane_at(0.03), 0.2, 5000, seed=1)
        assert est.method == "monte-carlo" and sizes.count(5000) == 1

    @pytest.mark.parametrize("eps, alpha", [(1e-3, 2.0), (1e-2, 1.5)])
    @pytest.mark.parametrize("e", [(1.0, 0.0), (0.6, -0.8)])
    def test_correction_keeps_the_last_axis_bits(self, eps, alpha, e):
        d = bump_domain(eps, alpha)
        res = critical_lambda(d, np.array(e), tol=1e-6)
        for gamma in (0.2, 0.01):
            new = slab_measure(d, res, gamma, 20_000, seed=2)
            old = _last_axis_slab_measure(d, res, gamma, 20_000, seed=2)
            assert new.method == "monte-carlo"
            assert (new.value.hex(), new.error.hex()) == (old.value.hex(), old.error.hex())

    def test_thin_band_estimate_is_never_negative(self):
        # at n = 807 the signed correction outweighs the closed-form disk part
        # (the sum read -6.4e-7 +- 9.5e-6); the 200,000-point estimate is
        # 1.36e-6 +- 4.3e-7, inside the reported interval of the small one
        e = np.array([1.25, 0.0625]) / math.hypot(1.25, 0.0625)
        d, res = bump_domain(0.0078125, 1.5), plane_at(0.16328125, e=e, tol=5e-4)
        small = slab_measure(d, res, 0.001953125, 807)
        big = slab_measure(d, res, 0.001953125, 200_000)
        assert small.value == 0.0 and small.error > 0.0
        assert abs(big.value - small.value) <= small.error + big.error

    def test_band_width_validation(self):
        d = ball((0.0, 0.0), 1.0)
        res = plane_at(0.0)
        for g in (0.0, 0.3, -0.1):
            with pytest.raises(ParameterDomainError, match="band half-width restricted"):
                slab_measure(d, res, g, 1000)


def _last_axis_slab_measure(d, res, gamma, n, seed):
    """slab_measure's deviation-box branch with its dot products, reflection
    and disk tests taken over the last axis (``np.sum`` and
    ``np.linalg.norm``), as it once was."""
    e, lam = np.asarray(res.e, dtype=float), float(res.lam)
    dev = d.disk_deviation
    base = measures._disk_slab_closed_form(gamma, lam, dev.radius)
    err_geom = abs(measures._disk_slab_closed_form(gamma, abs(lam) + res.tol, dev.radius)
                   - measures._disk_slab_closed_form(gamma, max(abs(lam) - res.tol, 0.0),
                                                     dev.radius))
    region = measures._mirror_hull(dev.box, lam, e)
    pts = measures._draw(region, n, seed)
    mirrored = pts - 2.0 * (np.sum(pts * e, axis=-1) - lam)[..., None] * e
    in_band = np.abs(np.sum(pts * e, axis=-1) - lam) <= gamma
    f = (d.contains(pts) ^ d.contains(mirrored)).astype(float)
    g = ((np.linalg.norm(pts, axis=-1) < dev.radius)
         ^ (np.linalg.norm(mirrored, axis=-1) < dev.radius)).astype(float)
    mean, bar = measures._mean_3sigma(in_band * (f - g))
    area = measures._box_volume(region)
    return MeasureEstimate(value=max(base + area * mean, 0.0), error=area * bar + err_geom,
                           method="monte-carlo", n_samples=n)

BWI_DOMAINS = {
    "bump:1e-3": lambda: bump_domain(1e-3, 2.0),
    "bump:1e-2": lambda: bump_domain(1e-2, 2.0),
    "ellipsoid": lambda: ellipsoid(0.1),
    "ball": lambda: ball((0.0, 0.0), 1.05),
}


def per_shell_integral(d, s, n, seed):
    """The boundary-weighted integral as one integrand call per shell, each
    shell reduced on its own array: the reference the blocked estimator must
    match bit for bit."""
    h = radial_extremes(d)[1] - 1.0
    h *= 1.0 + 1e-9
    per = max(16, n // 13)
    total, bar_sq = 0.0, 0.0
    for k in range(13):
        uu = halton_points(per, seed + k)
        t_hi = h * 2.0 ** (-k)
        t_lo = 0.0 if k == 12 else h * 2.0 ** (-k - 1)
        theta = -0.5 * math.pi + math.pi * uu[:, 1]
        if k == 12:
            t = t_hi * uu[:, 0] ** (1.0 / (1.0 - s))
            jac = t_hi * uu[:, 0] ** (s / (1.0 - s)) / (1.0 - s)
        else:
            t = t_lo + (t_hi - t_lo) * uu[:, 0]
            jac = t_hi - t_lo
        r = 1.0 + t
        pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        ratio = np.asarray(boundary_distance(d, pts), dtype=float) / np.maximum(t, 1e-300)
        weighted = np.where(d.contains(pts), pts[..., 0] * ratio ** s, 0.0) * r
        vals = weighted * jac * math.pi
        total += float(np.mean(vals))
        bar = 3.0 * math.sqrt(float(np.var(vals)) / per)
        bar_sq += bar * bar
    return MeasureEstimate(value=total, error=math.sqrt(bar_sq), method="monte-carlo",
                           n_samples=13 * per)


class TestBoundaryWeightedIntegral:

    @pytest.mark.parametrize("s, h", [(0.5, 0.05), (0.25, 0.02)])
    def test_enlarged_disk_against_quadrature(self, s, h):
        # On B_{1+h} the integral reduces to
        #   2 * int_0^h (1+t)^2 ((h-t)/t)^s dt,
        # a Gauss-Jacobi integral with weight (1-x)^s (1+x)^(-s).
        nodes, weights = roots_jacobi(80, s, -s)
        u = 0.5 * (nodes + 1.0)
        want = h * float(np.sum(weights * (1.0 + h * u) ** 2))
        d = ball((0.0, 0.0), 1.0 + h)
        est = boundary_weighted_integral(d, s, 300_000, seed=2)
        assert est.value == pytest.approx(want, rel=0.02)

    # rho_e - 1 at most 1e-12 takes the closed form; the frozen polish of
    # rho_e must keep these there
    @pytest.mark.parametrize("make", [lambda: ball((0.0, 0.0), 1.0),
                                      lambda: ball((0.0, 0.0), 1e-3), lambda: ellipsoid(0.0),
                                      lambda: ball((0.0, 0.0), 0.5),
                                      lambda: ball((0.0, 0.0), 1.0 - 1e-9)],
                             ids=["ball:1", "ball:1e-3", "ellipsoid:0", "ball:0.5",
                                  "ball:1-1e-9"])
    def test_unit_disk_is_exactly_zero(self, make):
        est = boundary_weighted_integral(make(), 0.5, 1000)
        assert est == MeasureEstimate(value=0.0, error=0.0, method="closed-form",
                                      n_samples=0)

    @pytest.mark.parametrize("h", [1e-13, 5e-13])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.9])
    def test_cut_off_bar_covers_the_thin_annulus(self, h, s):
        # below the cut-off the value is 0 and the error must cover the
        # exact integral of ball:1+h, 2 int_0^h (1+t)^2 ((h-t)/t)^s dt
        radius = 1.0 + h
        h = radius - 1.0  # the excess of the float radius
        exact = 2.0 * quad(lambda t: (1.0 + t) ** 2, 0.0, h, weight="alg", wvar=(-s, s))[0]
        est = boundary_weighted_integral(ball((0.0, 0.0), radius), s, 1000)
        assert (est.value, est.method, est.n_samples) == (0.0, "closed-form", 0)
        assert exact <= est.error <= 1.05 * exact

    def test_grows_with_protrusion(self):
        lo = boundary_weighted_integral(ball((0.0, 0.0), 1.04), 0.5, 50_000, seed=1)
        hi = boundary_weighted_integral(ball((0.0, 0.0), 1.08), 0.5, 50_000, seed=1)
        assert hi.value > lo.value

    @pytest.mark.parametrize("dom, n", [("bump:1e-2", 1300), ("ball", 60_000)])
    def test_distance_search_sees_each_inside_point_once(self, monkeypatch, dom, n):
        masked, searched = [], []
        d = BWI_DOMAINS[dom]()

        def recording_level(pts, _level=d.level):
            masked.append(np.array(pts))
            return _level(pts)

        def recording_distance(d, pts):
            searched.append(np.array(pts))
            return boundary_distance(d, pts)

        monkeypatch.setattr(measures, "boundary_distance", recording_distance)
        est = boundary_weighted_integral(dataclasses.replace(d, level=recording_level),
                                         0.5, n, seed=0)
        sampled = np.concatenate(masked)
        inside = d.contains(sampled)
        assert len(sampled) == est.n_samples
        np.testing.assert_array_equal(np.concatenate(searched), sampled[inside])
        assert max(map(len, masked + searched)) <= measures._BLOCK == 4096
        if dom == "ball":  # every point is inside: the search spans several blocks
            assert inside.all() and len(searched) > 1 and est.n_samples == 59_995
        else:  # a few points are inside: one search call
            assert 0 < inside.sum() < 100 and len(searched) == 1

    @pytest.mark.parametrize("dom", ["bump:1e-3", "bump:1e-2", "ellipsoid", "ball"])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n", [100, 1300, 4000])
    @pytest.mark.parametrize("s", [0.25, 0.5])
    def test_blocks_keep_the_per_shell_bits(self, dom, seed, n, s):
        d = BWI_DOMAINS[dom]()
        got = boundary_weighted_integral(d, s, n, seed=seed)
        want = per_shell_integral(d, s, n, seed)
        assert (got.value.hex(), got.error.hex()) == (want.value.hex(), want.error.hex())
        assert got.n_samples == want.n_samples

    def test_a_shell_split_across_blocks_keeps_its_bits(self):
        d = bump_domain(1e-3, 2.0)
        got = boundary_weighted_integral(d, 0.5, 60_000, seed=0)
        want = per_shell_integral(d, 0.5, 60_000, 0)
        assert (got.value.hex(), got.error.hex()) == (want.value.hex(), want.error.hex())

    def test_exponent_validation(self):
        d = ball((0.0, 0.0), 1.1)
        for s in (0.0, 1.0, -0.2):
            with pytest.raises(ParameterDomainError, match="exponent must lie in"):
                boundary_weighted_integral(d, s, 1000)
