"""End-to-end acceptance gate.

Each test exercises one headline capability at its stated tolerance and
prints a single PASS/FAIL line with the measured numbers, so the whole
gate reads off one ``pytest tests/test_acceptance.py -v -s`` run.  The
thresholds here are the contract; the unit suites cover the internals.
"""

import math
import time

import numpy as np

from fracshape.domains import (ball, boundary_distance, bump_domain, chart_grids,
                               ellipsoid, erode, signed_distance)
from fracshape.experiments import (counterexample_scan, exponent_fit,
                                   geometric_lemma_check)
from fracshape.frlap import (QuadratureConfig, barrier, frlap_eval,
                             torsion_ball, torsion_ellipsoid)
from fracshape.measures import (MeasureEstimate, halton_points, mc_volume,
                                sym_diff_measure)
from fracshape.movingplanes import CriticalPlaneResult
from fracshape.seminorm import (ellipsoid_ratio_limit, ellipsoid_seminorm,
                                phi0_quotient_sup, richardson_limit)
from fracshape.specfun import FracParams, gamma_ns


def boundary_samples(d, n):
    """Midpoint nodes of every boundary chart, at least ``n`` in all: a chart
    gets ``max(64, n // charts)`` nodes."""
    m = max(64, n // len(d.boundary_param))
    return np.concatenate([pts for _, _, pts, _ in chart_grids(d.boundary_param, m)])


BOX = np.array([[-1.0, -1.0], [1.0, 1.0]])


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _interior_points(dom, k: int, min_dist: float) -> np.ndarray:
    pts = halton_points(65536, seed=0)
    lo, hi = dom.bbox
    pts = lo + pts * (hi - lo)
    keep = dom.contains(pts) & (boundary_distance(dom, pts) >= min_dist)
    return pts[keep][:k]


def test_01_ball_torsion_solves_the_unit_problem():
    t0 = time.perf_counter()
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        p = FracParams(2, s)
        field = torsion_ball(p)
        res = frlap_eval(field, _interior_points(ball(np.zeros(2), 1.0), 20, 0.2))
        worst = max(worst, float(np.max(np.abs(res.value - 1.0))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.01 and elapsed < 120.0
    _report("01 ball torsion", ok,
            f"max |(-lap)^s u0 - 1| = {worst:.3e} over 60 pts (tol 1e-2), "
            f"{elapsed:.1f}s (limit 120s)")


def test_02_ellipsoid_torsion_solves_the_unit_problem():
    p = FracParams(2, 0.5)
    dom = ellipsoid(0.1)
    field = torsion_ellipsoid(p, 0.1)
    res = frlap_eval(field, _interior_points(dom, 20, 0.2))
    worst = float(np.max(np.abs(res.value - 1.0)))
    _report("02 ellipsoid torsion", worst <= 0.02,
            f"max |(-lap)^s u_eps - 1| = {worst:.3e} over 20 pts (tol 2e-2)")


def test_03_seminorm_ratio_extrapolates_to_the_limit():
    p = FracParams(2, 0.5)
    grid = [0.02, 0.01, 0.005]
    ratios = [ellipsoid_seminorm(p, e).value / e for e in grid]
    lim = ellipsoid_ratio_limit(p)
    extrap = richardson_limit(grid, ratios)
    rel = abs(extrap - lim) / lim
    order = exponent_fit([(e, abs(r - lim)) for e, r in zip(grid, ratios)]).slope
    ok = rel <= 0.02 and abs(order - 1.0) <= 0.2
    _report("03 seminorm limit", ok,
            f"extrapolated {extrap:.8f} vs {lim:.8f} (rel {rel:.2e}, tol 2e-2), "
            f"convergence order {order:.3f} (want 1 +- 0.2)")


def test_04_circle_chord_quotient_sup():
    sup = phi0_quotient_sup()
    _report("04 chord quotient sup", abs(sup - 2.0) <= 1e-3,
            f"sup = {sup:.6f} (want 2 +- 1e-3)")


def test_05_bump_family_exhibits_square_root_rates():
    t0 = time.perf_counter()
    res = counterexample_scan(2.0, [1e-3, 3e-4, 1e-4, 3e-5, 1e-5], 0.2)
    elapsed = time.perf_counter() - t0
    rows_ok = all(r["flag"] == "" and r["case"] == "internal-tangency"
                  and r["lam"] >= math.sqrt(r["eps"]) for r in res.rows)
    lam, slab = res.lambda_fit, res.slab_fit
    fits_ok = (abs(lam.slope - 0.5) <= 0.05 and abs(slab.slope - 0.5) <= 0.05
               and lam.r2 >= 0.99 and slab.r2 >= 0.99)
    ok = rows_ok and fits_ok and elapsed < 600.0
    _report("05 counterexample rates", ok,
            f"lambda exponent {lam.slope:.4f} (r2 {lam.r2:.6f}), "
            f"slab exponent {slab.slope:.4f} (r2 {slab.r2:.6f}), "
            f"rows clean: {rows_ok}, {elapsed:.1f}s (limit 600s)")


def test_06_lemma_normalization_separates_the_scalings():
    res = geometric_lemma_check(2.0, [1e-3, 1e-4, 1e-5], [0.2],
                                tol=1e-9, n_slab=600_000)
    thm = [r["ratio_thm52"] for r in res]
    lin = [r["ratio_linear"] for r in res]
    band = max(thm) / min(thm)
    growth = lin[-1] / lin[0]
    ok = band <= 3.0 and growth >= 10.0
    _report("06 lemma normalization", ok,
            f"calibrated ratio band {band:.3f} (limit 3), "
            f"naive ratio growth {growth:.4f} over two decades (want >= 10)")


def test_07_erosion_dilation_round_trip():
    dom = ellipsoid(0.1)
    inner = erode(dom, 0.5)

    pts = halton_points(100_000, seed=3)
    lo, hi = dom.bbox
    pts = lo + pts * (hi - lo)
    sd_parent = signed_distance(dom, pts)
    sd_dilated = signed_distance(inner, pts) - 0.5
    clear = (np.abs(sd_parent) > 1e-6) & (np.abs(sd_dilated) > 1e-6)
    violations = int(np.count_nonzero((sd_parent[clear] < 0)
                                      != (sd_dilated[clear] < 0)))

    # the offset charts must trace the same inner level set geometrically
    chart_drift = float(np.max(np.abs(
        signed_distance(dom, boundary_samples(inner, 4096)) + 0.5)))

    ok = violations == 0 and chart_drift < 1e-6
    _report("07 erosion round trip", ok,
            f"{violations} membership violations on 1e5 pts (band 1e-6), "
            f"offset-chart drift {chart_drift:.2e}")


def test_08_boundary_ratio_attains_the_sharp_constant():
    p = FracParams(2, 0.5)
    field = torsion_ball(p)
    pts = halton_points(16384, seed=5)
    pts = 2.0 * pts - 1.0
    r = np.linalg.norm(pts, axis=-1)
    keep = r < 1.0 - 1e-9
    pts, r = pts[keep][:10_000], r[keep][:10_000]
    ratio = field.eval(pts) / (1.0 - r) ** p.s
    inf_ratio = float(np.min(ratio))
    g = gamma_ns(p)
    ok = g - 1e-12 <= inf_ratio <= 1.01 * g
    _report("08 boundary growth constant", ok,
            f"inf u0/delta^s = {inf_ratio:.6f} vs gamma = {g:.6f} "
            f"(within 1%) over 1e4 interior pts")


def test_09_barrier_antisymmetry_sandwich_and_operator_bound():
    p = FracParams(2, 0.5)
    a = np.array([0.125, 0.0])
    rho = 1.0 / 16.0
    phi = barrier(p, a, rho)

    pts = halton_points(10_000, seed=7) * 2.0 - 1.0
    mirrored = pts * np.array([-1.0, 1.0])
    antisym = np.array_equal(phi.eval(pts), -phi.eval(mirrored))

    u = halton_points(10_000, seed=9)
    rad = 0.5 * rho * np.sqrt(u[:, 0])
    ang = 2.0 * math.pi * u[:, 1]
    near = a + rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    vals = phi.eval(near)
    floor = rho ** (2 * p.s) * near[:, 0]
    sandwich = bool(np.all(vals >= floor - 1e-12)
                    and np.all(vals <= 2.0 * floor + 1e-12))

    angles = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    probes = a + 0.4 * rho * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    fine = QuadratureConfig(inner_radial=96, inner_angular=96, outer_panels=16)
    sup_default = max(abs(frlap_eval(phi, x).value) / x[0] for x in probes)
    sup_fine = max(abs(frlap_eval(phi, x, fine).value) / x[0] for x in probes)
    drift = abs(sup_fine - sup_default) / sup_default

    ok = antisym and sandwich and drift < 0.2
    _report("09 barrier", ok,
            f"antisymmetry exact: {antisym}, sandwich on 1e4 pts: {sandwich}, "
            f"sup |(-lap)^s phi|/x1 = {sup_default:.4f} -> {sup_fine:.4f} "
            f"under refinement (drift {drift:.1%}, limit 20%)")


def test_10_measure_engine_calibration():
    disk = ball(np.zeros(2), 1.0)
    hits = 0
    for seed in range(50):
        est = mc_volume(disk.contains, BOX, 100_000, seed=seed)
        hits += abs(est.value - math.pi) <= est.error

    lam = 0.2
    plane = CriticalPlaneResult(e=np.array([1.0, 0.0]), Lambda=1.0, lam=lam,
                                case_tag="internal-tangency", witness=None,
                                tol=1e-9)
    est = sym_diff_measure(disk, plane, 200_000, seed=11)
    closed = 2.0 * math.pi - 4.0 * (math.acos(lam) - lam * math.sqrt(1 - lam * lam))
    sym_ok = abs(est.value - closed) <= est.error

    ok = hits >= 47 and sym_ok
    _report("10 measure engine", ok,
            f"area within 3-sigma for {hits}/50 seeds (need 47), "
            f"sym-diff {est.value:.5f} vs closed form {closed:.5f} "
            f"(gap {abs(est.value - closed):.2e} <= {est.error:.2e})")
