import math

import numpy as np
import pytest

from fracshape.experiments import (config_hash, counterexample_scan, exponent_fit,
                                   geometric_lemma_check, stability_probe, write_table)
from fracshape.seminorm import OptimBudget
from fracshape.specfun import FracParams, ParameterDomainError

P = FracParams(2, 0.5)

# each table's columns in the order README's CSV schemas list them; a table
# writes the keys of its first row, in their order
PROBE_COLUMNS = ("eps", "rho_shape", "seminorm", "flag")
SCAN_COLUMNS = ("eps", "lam", "slab", "slab_err", "case", "flag")
LEMMA_COLUMNS = ("eps", "gamma", "lam", "gap", "slab", "slab_err",
                 "ratio_thm52", "ratio_lem53", "ratio_linear", "flag")


class TestExponentFit:

    def test_recovers_exact_power_law(self):
        pts = [(x, 3.0 * x * x) for x in (0.1, 0.2, 0.4)]
        fit = exponent_fit(pts)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-12)
        assert fit.r2 == 1.0

    def test_flat_data_has_zero_slope(self):
        fit = exponent_fit([(x, 5.0) for x in (0.1, 0.2, 0.4, 0.8)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_survives_multiplicative_noise(self):
        rng = np.random.default_rng(41)
        xs = np.geomspace(1e-4, 1e-1, 12)
        ys = np.sqrt(xs) * (1.0 + 0.01 * rng.standard_normal(12))
        fit = exponent_fit(list(zip(xs, ys)))
        assert fit.slope == pytest.approx(0.5, abs=0.02)
        assert fit.r2 > 0.999

    def test_slope_ignores_vertical_rescaling(self):
        pts = [(x, x ** 0.7 + 0.01 * x) for x in (0.05, 0.1, 0.2, 0.4)]
        a = exponent_fit(pts).slope
        b = exponent_fit([(x, 7.3 * y) for x, y in pts]).slope
        assert abs(a - b) < 1e-12

    def test_rejects_degenerate_input(self):
        assert exponent_fit([(0.1, 1.0), (0.2, 2.0)]) is None
        assert exponent_fit([(0.1, 1.0), (0.1, 2.0), (0.2, 3.0)]) is None
        # three distinct x whose logs coincide in floats: no slope either
        x = 1e-3
        assert exponent_fit([(x, 1.0), (x * (1 + 2**-52), 2.0), (x * (1 + 2**-51), 3.0)]) is None
        with pytest.raises(ParameterDomainError, match="strictly positive coordinates"):
            exponent_fit([(0.1, 1.0), (0.2, -2.0), (0.4, 3.0)])
        with pytest.raises(ParameterDomainError, match="strictly positive coordinates"):
            exponent_fit([(0.0, 1.0), (0.2, 2.0), (0.4, 3.0)])


class TestStabilityProbe:

    def test_seminorm_tracks_shape_distance(self):
        budget = OptimBudget(n_pairs=20_000)
        probe = stability_probe(P, [0.02, 0.01, 0.005], budget=budget)
        assert [r["eps"] for r in probe.rows] == [0.02, 0.01, 0.005]
        for row in probe.rows:
            assert row["rho_shape"] == pytest.approx(row["eps"], abs=1e-4)
            assert row["flag"] == ""
        assert probe.fit is not None
        assert probe.fit.slope == pytest.approx(1.0, abs=0.05)

    def test_single_point_grid_reports_without_fitting(self):
        probe = stability_probe(P, [0.01], budget=OptimBudget(n_pairs=10_000))
        assert len(probe.rows) == 1
        assert probe.fit is None

    def test_rounding_level_shape_is_flagged_and_kept_out_of_the_fit(self):
        budget = OptimBudget(n_pairs=2_000)
        probe = stability_probe(P, [0.02, 0.01, 1e-9, 1e-13], budget=budget)
        assert [r["flag"] for r in probe.rows] == ["", "", "", "shape-below-resolution"]
        assert [x for x, _ in probe.fit.points] == [r["seminorm"] for r in probe.rows[:3]]
        assert stability_probe(P, [0.02, 0.01, 1e-13], budget=budget).fit is None

    def test_repeated_stretch_gives_no_fit(self):
        probe = stability_probe(P, [0.01] * 3, budget=OptimBudget(n_pairs=2_000))
        assert len(probe.rows) == 3 and probe.fit is None

    def test_grid_validation(self):
        with pytest.raises(ParameterDomainError):
            stability_probe(P, [0.3])
        with pytest.raises(ParameterDomainError):
            stability_probe(P, [])


class TestCounterexampleScan:

    def test_square_root_rates_at_alpha_two(self):
        res = counterexample_scan(2.0, [1e-3, 3e-4, 1e-4], 0.2,
                                  tol=1e-8, n_slab=50_000)
        for row in res.rows:
            assert tuple(row) == SCAN_COLUMNS
            assert row["case"] == "internal-tangency"
            assert row["flag"] == ""
            assert row["lam"] >= math.sqrt(row["eps"])
        assert res.lambda_fit.slope == pytest.approx(0.5, abs=0.05)
        assert res.slab_fit.slope == pytest.approx(0.5, abs=0.05)
        assert res.lambda_fit.r2 > 0.99

    def test_exponent_follows_contact_order(self):
        res = counterexample_scan(4.0, [1e-3, 3e-4, 1e-4], 0.2,
                                  tol=1e-8, n_slab=50_000)
        assert res.lambda_fit.slope == pytest.approx(0.75, abs=0.05)
        assert res.slab_fit.slope == pytest.approx(0.75, abs=0.05)

    def test_unresolvable_offsets_are_flagged_not_fitted(self):
        res = counterexample_scan(2.0, [1e-3, 3e-4, 1e-4], 0.2,
                                  tol=1e-3, n_slab=10_000)
        assert all("lambda-below-resolution" in r["flag"] for r in res.rows)
        assert res.lambda_fit is None
        assert res.slab_fit is None

    def test_closed_gamma_bound_is_accepted(self):
        res = counterexample_scan(2.0, [1e-3], 0.25, n_slab=1000)
        assert len(res.rows) == 1 and res.rows[0]["slab"] > 0.0

    def test_parameter_validation(self):
        with pytest.raises(ParameterDomainError):
            counterexample_scan(1.0, [1e-3], 0.2)
        with pytest.raises(ParameterDomainError):
            counterexample_scan(2.0, [1e-3], 0.3)


class TestLemmaCheck:

    def test_bounded_and_unbounded_ratio_columns(self):
        res = geometric_lemma_check(2.0, [1e-3, 1e-4], [0.2],
                                    tol=1e-8, n_slab=50_000)
        assert len(res) == 2
        first, last = res[0], res[-1]
        assert tuple(first) == LEMMA_COLUMNS
        # the lemma-form ratios stay within a tight band while the naive
        # normalization grows by roughly sqrt(10) per decade of eps
        assert last["ratio_thm52"] == pytest.approx(first["ratio_thm52"], rel=0.1)
        growth = last["ratio_linear"] / first["ratio_linear"]
        assert 2.0 < growth < 5.0

    def test_degenerate_gap_rows_are_skipped(self):
        # a bump of height 1e-13 leaves an annulus gap at rounding level
        res = geometric_lemma_check(2.0, [1e-13], [0.2], tol=1e-6, n_slab=10_000)
        row = res[0]
        assert row["gap"] <= 1e-12
        assert row["flag"] == "skip"
        assert all(math.isnan(row[k])
                   for k in ("ratio_thm52", "ratio_lem53", "ratio_linear"))

    def test_underflowing_denominators_are_skipped(self):
        # gamma * gap underflows to zero at the smallest subnormal gamma
        res = geometric_lemma_check(2.0, [0.03125], [5e-324, 0.125], tol=1e-3, n_slab=100)
        tiny, wide = res
        assert tiny["gap"] > 1e-12 and tiny["gamma"] * tiny["gap"] == 0.0
        assert tiny["flag"] == "skip"
        assert all(math.isnan(tiny[k])
                   for k in ("ratio_thm52", "ratio_lem53", "ratio_linear"))
        assert wide["flag"] != "skip" and math.isfinite(wide["ratio_thm52"])


class TestArtifacts:

    def test_table_bytes_are_reproducible(self, tmp_path):
        rows = [{"eps": 1e-3, "lam": 0.04245, "slab": 0.011, "slab_err": 1e-5,
                 "case": "internal-tangency", "flag": ""}]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_table(a, rows)
        write_table(b, rows)
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.splitlines()[0] == ",".join(SCAN_COLUMNS)
        assert "0.001" in text

    def test_hash_depends_on_content_not_key_order(self):
        assert config_hash({"a": 1, "b": 2.5}) == config_hash({"b": 2.5, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})
        assert len(config_hash({"a": 1})) == 12

    def test_probe_fieldnames_cover_rows(self):
        probe = stability_probe(P, [0.01], budget=OptimBudget(n_pairs=5_000))
        assert tuple(probe.rows[0]) == PROBE_COLUMNS
