"""Trend fitting, confidence bands, parity estimation, and the t quantile."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from leadshare.errors import TooFewPoints, ZeroVariance
from leadshare.forecast import (
    PARITY_THRESHOLDS,
    RegressionFit,
    _edge_crossing,
    confidence_band,
    fit_points,
    forecast_series,
    ols_fit,
    parity_year,
    write_forecast,
)
from leadshare.metrics import RegionSeries
from leadshare.tdist import t_cdf, t_quantile


def series(points, metric="LeadShare"):
    return RegionSeries(
        pair=("China", "U.S."), focal="China", metric=metric,
        points=tuple(points), filter_desc="all",
    )


def exact_line(slope, intercept, years):
    return [(y, slope * y + intercept) for y in years]


class TestFit:
    def test_frozen_three_point_fit(self):
        fit = fit_points([(2010, 0.1), (2011, 0.2), (2012, 0.3)])
        assert fit.slope == pytest.approx(0.1, abs=1e-12)
        assert fit.intercept == pytest.approx(-200.9, abs=1e-9)
        assert fit.dof == 1
        assert fit.x_mean == pytest.approx(2011.0)
        assert fit.s_xx == pytest.approx(2.0)
        assert fit.residual_variance == pytest.approx(0.0, abs=1e-20)
        assert fit.x_max == 2012

    def test_matches_polyfit(self):
        rng = np.random.default_rng(4)
        years = list(range(2005, 2021))
        values = 0.01 * np.array(years) - 19.5 + rng.normal(0, 0.02, len(years))
        fit = fit_points(list(zip(years, values)))
        slope, intercept = np.polyfit(years, values, 1)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept, abs=1e-6)
        resid = values - (fit.slope * np.array(years) + fit.intercept)
        assert fit.residual_variance == pytest.approx(
            float(resid @ resid) / (len(years) - 2), rel=1e-9
        )

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_points([(2010, 0.1), (2011, 0.2)])

    def test_zero_x_variance(self):
        with pytest.raises(ZeroVariance):
            fit_points([(2010, 0.1), (2010, 0.2), (2010, 0.3)])

    def test_window_is_inclusive(self):
        s = series(exact_line(0.01, -19.9, range(2000, 2025)))
        fit = ols_fit(s, window=(2010, 2020))
        assert fit.x_max == 2020
        assert fit.dof == 11 - 2

    def test_window_too_narrow(self):
        s = series(exact_line(0.01, -19.9, range(2000, 2025)))
        with pytest.raises(TooFewPoints):
            ols_fit(s, window=(2010, 2011))

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(-100, 100),
        st.integers(-1000, 1000),
        st.integers(4, 12),
    )
    def test_exact_line_recovery(self, slope_m, intercept_m, n):
        slope = slope_m / 1000.0
        intercept = intercept_m / 10.0
        fit = fit_points(exact_line(slope, intercept, range(2000, 2000 + n)))
        assert abs(fit.slope - slope) <= 1e-9 * max(1.0, abs(slope))
        assert abs(fit.intercept - intercept) <= 1e-6 * max(1.0, abs(intercept))


class TestTDist:
    def test_quantile_frozen_values(self):
        # reference values from standard t tables
        assert t_quantile(0.975, 1) == pytest.approx(12.7062047362, abs=1e-9)
        assert t_quantile(0.975, 10) == pytest.approx(2.2281388520, abs=1e-9)
        assert t_quantile(0.95, 5) == pytest.approx(2.0150483733, abs=1e-9)
        assert t_quantile(0.995, 2) == pytest.approx(9.9248432009, abs=1e-9)
        assert t_quantile(0.975, 30) == pytest.approx(2.0422724563, abs=1e-9)

    @pytest.mark.parametrize("dof", [1, 2, 3, 5, 10, 30, 100])
    @pytest.mark.parametrize("p", [0.6, 0.9, 0.95, 0.975, 0.995])
    def test_quantile_against_scipy(self, p, dof):
        assert t_quantile(p, dof) == pytest.approx(
            scipy.stats.t.ppf(p, dof), abs=1e-9
        )

    def test_quantile_memo_matches_uncached(self):
        for p in (0.025, 0.05, 0.6, 0.9, 0.95, 0.975, 0.995):
            for dof in (1, 2, 3.5, 5, 10, 30, 100):
                cached = t_quantile(p, dof)
                assert t_quantile(p, dof) == cached
                assert t_quantile.__wrapped__(p, dof) == cached

    @pytest.mark.parametrize("dof", [1, 4, 25])
    @pytest.mark.parametrize("x", [-6.0, -1.5, -0.3, 0.0, 0.7, 2.0, 8.0])
    def test_cdf_against_scipy(self, x, dof):
        assert t_cdf(x, dof) == pytest.approx(
            scipy.stats.t.cdf(x, dof), abs=1e-12
        )

    @given(st.floats(-20, 20), st.integers(1, 50))
    @settings(max_examples=100)
    def test_cdf_symmetry(self, x, dof):
        assert t_cdf(x, dof) + t_cdf(-x, dof) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            t_quantile(1.0, 5)
        with pytest.raises(ValueError):
            t_quantile(0.5, 0)
        with pytest.raises(ValueError):
            t_cdf(0.0, -1)


class TestBand:
    def fit_with_noise(self, seed=1):
        rng = np.random.default_rng(seed)
        years = list(range(2010, 2022))
        values = 0.012 * np.array(years) - 24.0 + rng.normal(0, 0.03, len(years))
        return fit_points(list(zip(years, values)))

    def test_band_matches_direct_formula(self):
        fit = self.fit_with_noise()
        tq = t_quantile(0.975, fit.dof)
        for x in [2010.0, 2015.5, 2021.0, 2040.0]:
            lo, hi = confidence_band(fit, x)
            point = fit.slope * x + fit.intercept
            half = tq * math.sqrt(
                fit.residual_variance
                * (1.0 / fit.n + (x - fit.x_mean) ** 2 / fit.s_xx)
            )
            assert lo == pytest.approx(point - half, abs=1e-12)
            assert hi == pytest.approx(point + half, abs=1e-12)

    def test_band_narrowest_at_x_mean(self):
        fit = self.fit_with_noise()
        widths = []
        for x in [fit.x_mean - 10, fit.x_mean - 1, fit.x_mean, fit.x_mean + 3]:
            lo, hi = confidence_band(fit, x)
            widths.append(hi - lo)
        assert min(widths) == widths[2]

    def test_band_collapses_on_exact_fit(self):
        fit = fit_points(exact_line(0.01, -19.9, range(2010, 2020)))
        lo, hi = confidence_band(fit, 2030.0)
        point = fit.slope * 2030.0 + fit.intercept
        assert lo == pytest.approx(point, abs=1e-9)
        assert hi == pytest.approx(point, abs=1e-9)


class TestParity:
    def test_closed_form_crossing(self):
        fit = fit_points(exact_line(0.012, -24.25, range(2010, 2022)))
        est = parity_year(fit, 0.5, horizon=2100)
        # 0.012 x - 24.25 = 0.5  =>  x = 24.75 / 0.012 = 2062.5
        assert est.point_year == pytest.approx(2062.5, abs=1e-6)
        assert not est.already_reached
        # band collapses onto the fit line, so the edges agree with the point
        assert est.lower_year == pytest.approx(2062.5, abs=1e-4)
        assert est.upper_year == pytest.approx(2062.5, abs=1e-4)

    def test_already_reached_depends_on_threshold(self):
        fit = fit_points(exact_line(0.012, -24.25, range(2010, 2022)))
        # fitted value at the last observed year is 0.002
        assert not parity_year(fit, 0.5, horizon=2100).already_reached
        reached = parity_year(fit, 0.0, horizon=2100)
        assert reached.already_reached
        assert reached.point_year is not None
        assert reached.point_year <= fit.x_max

    def test_falling_series_reached(self):
        fit = fit_points(exact_line(-0.01, 20.15, range(2010, 2022)))
        # values fall through 0.0 at 2015, inside the window
        est = parity_year(fit, 0.0, horizon=2100)
        assert est.already_reached
        assert est.point_year == pytest.approx(2015.0, abs=1e-6)

    def test_band_edge_ordering_rising(self):
        rng = np.random.default_rng(7)
        years = list(range(2008, 2022))
        values = 0.01 * np.array(years) - 19.95 + rng.normal(0, 0.01, len(years))
        fit = fit_points(list(zip(years, values)))
        est = parity_year(fit, 0.5, horizon=3000)
        assert est.lower_year is not None and est.upper_year is not None
        assert est.lower_year <= est.point_year <= est.upper_year

    def test_band_edge_ordering_falling(self):
        rng = np.random.default_rng(8)
        years = list(range(2008, 2022))
        values = -0.01 * np.array(years) + 20.6 + rng.normal(0, 0.01, len(years))
        fit = fit_points(list(zip(years, values)))
        est = parity_year(fit, 0.0, horizon=3000)
        assert est.lower_year is not None and est.upper_year is not None
        # crossings follow the trend: on a falling series the lower band
        # edge reaches the threshold first, so the named bounds swap order
        assert est.upper_year <= est.point_year <= est.lower_year

    def test_never_within_horizon(self):
        fit = fit_points(exact_line(0.0001, -0.1, range(2010, 2022)))
        est = parity_year(fit, 0.5, horizon=2100)
        assert est.point_year is None
        assert not est.already_reached

    def test_flat_line_below_threshold(self):
        fit = fit_points([(y, 0.2) for y in range(2010, 2016)])
        assert fit.slope == 0.0
        est = parity_year(fit, 0.5, horizon=2100)
        assert est.point_year is None
        assert est.lower_year is None and est.upper_year is None
        assert not est.already_reached

    def test_flat_line_above_threshold(self):
        fit = fit_points([(y, 0.8) for y in range(2010, 2016)])
        est = parity_year(fit, 0.5, horizon=2100)
        assert est.already_reached

    def test_band_edges_sit_on_threshold(self):
        rng = np.random.default_rng(99)
        hits = 0
        for trial in range(50):
            years = list(range(2006, 2022))
            slope = rng.uniform(0.005, 0.02)
            values = slope * np.array(years) + (0.3 - slope * 2021) + rng.normal(
                0, 0.02, len(years)
            )
            fit = fit_points(list(zip(years, values)))
            est = parity_year(fit, 0.5, horizon=3000)
            if est.lower_year is not None and not est.already_reached:
                lo, hi = confidence_band(fit, est.lower_year)
                assert hi == pytest.approx(0.5, abs=1e-5)
                hits += 1
            if est.upper_year is not None and not est.already_reached:
                lo, hi = confidence_band(fit, est.upper_year)
                assert lo == pytest.approx(0.5, abs=1e-5)
        assert hits > 10


def band_edge_on_grid(fit, sign, grid):
    """Band edge straight from the band formula, vectorized over grid."""
    t_crit = t_quantile(0.5 + fit.confidence_level / 2.0, fit.dof)
    half = t_crit * np.sqrt(
        fit.residual_variance * (1.0 / fit.n + (grid - fit.x_mean) ** 2 / fit.s_xx)
    )
    return fit.intercept + fit.slope * grid + sign * half


class TestEdgeCrossingOracle:
    """The quadratic band-edge solve against a dense grid of the band."""

    @settings(max_examples=300, deadline=None)
    @given(
        trend=st.sampled_from((1, -1, 0)),
        magnitude=st.floats(1e-4, 0.05),
        n=st.integers(3, 30),
        start=st.integers(1990, 2015),
        level=st.floats(-0.5, 1.5),
        # down to near-exact fits, whose band is almost zero
        log_sigma=st.floats(-12.0, -0.5),
        threshold=st.sampled_from((0.5, 0.0)),
        reach=st.floats(0.0, 300.0),
        sign=st.sampled_from((1, -1)),
    )
    def test_crossing_matches_dense_grid(
        self, trend, magnitude, n, start, level, log_sigma, threshold, reach, sign
    ):
        xs = np.arange(start, start + n, dtype=float)
        x_mean = float(xs.mean())
        slope = trend * magnitude
        fit = RegressionFit(
            slope=slope, intercept=level - slope * x_mean, n=n, x_mean=x_mean,
            s_xx=float(((xs - x_mean) ** 2).sum()),
            residual_variance=10.0 ** (2.0 * log_sigma),
            dof=n - 2, x_max=float(xs[-1]),
        )
        horizon = fit.x_max + reach
        x = _edge_crossing(fit, threshold, sign, horizon)
        # crossings count in the trend's direction (for a flat trend, the
        # edge moving away from the line past x_mean); a crossing against
        # the trend is no parity
        direction = trend if trend != 0 else sign
        if x is not None:
            assert x <= horizon
            lo, hi = confidence_band(fit, x)
            edge = hi if sign == 1 else lo
            assert edge == pytest.approx(threshold, abs=1e-8 * (1.0 + hi - lo))
            before, after = band_edge_on_grid(fit, sign, np.array([x - 1e-3, x + 1e-3]))
            assert direction * (after - before) >= -1e-9
            return
        # never: no grid step where the edge crosses in that direction
        grid = np.linspace(xs[0] if trend else fit.x_mean, horizon, 20001)
        g = direction * (band_edge_on_grid(fit, sign, grid) - threshold)
        clear = np.abs(g) > 1e-9
        g, grid = g[clear], grid[clear]
        crossed = np.nonzero((g[:-1] < 0.0) & (g[1:] > 0.0))[0]
        assert crossed.size == 0, f"edge crosses near {grid[crossed[0]]}"


class TestForecastSeries:
    def test_default_thresholds(self):
        assert PARITY_THRESHOLDS == {
            "LeadShare": 0.5,
            "SupporterShare": 0.5,
            "LeadPremium": 0.0,
        }
        share = forecast_series(
            series(exact_line(0.012, -24.25, range(2010, 2022))), horizon=2100
        )
        assert share.parity.threshold == 0.5
        assert share.parity.point_year == pytest.approx(2062.5, abs=1e-6)
        premium = forecast_series(
            series(exact_line(0.012, -24.25, range(2010, 2022)), metric="LeadPremium"),
            horizon=2100,
        )
        # premium parity sits at 0.0, crossed at x = 24.25 / 0.012
        assert premium.parity.threshold == 0.0
        assert premium.parity.point_year == pytest.approx(24.25 / 0.012, abs=1e-6)
        assert premium.parity.already_reached

    def test_explicit_threshold_override(self):
        row = forecast_series(
            series(exact_line(0.012, -24.25, range(2010, 2022))),
            horizon=2200,
            threshold=0.8,
        )
        assert row.parity.point_year == pytest.approx(25.05 / 0.012, abs=1e-6)

    def test_short_series_rejected(self):
        with pytest.raises(TooFewPoints):
            forecast_series(series([(2010, 0.1), (2011, 0.2)]), horizon=2100)

    def test_never_serialized_as_word(self, tmp_path):
        row = forecast_series(
            series(exact_line(0.0001, -0.1, range(2010, 2022))), horizon=2100
        )
        assert row.parity.point_year is None
        path = tmp_path / "forecast.tsv"
        write_forecast([row], path)
        body = path.read_text(encoding="utf-8").splitlines()[1]
        assert body.split("\t")[7:10] == ["never", "never", "never"]

    def test_coverage_near_nominal(self):
        # the 95% band should contain the true mean response at x_mean
        # in roughly 95% of repeated noisy samples
        rng = np.random.default_rng(321)
        years = np.arange(2010, 2022)
        slope_true, intercept_true = 0.012, -24.0
        covered = 0
        trials = 200
        for _ in range(trials):
            values = slope_true * years + intercept_true + rng.normal(0, 0.05, len(years))
            fit = fit_points(list(zip(years.tolist(), values.tolist())))
            truth = slope_true * fit.x_mean + intercept_true
            lo, hi = confidence_band(fit, fit.x_mean)
            covered += int(lo <= truth <= hi)
        assert 0.90 <= covered / trials <= 1.0
