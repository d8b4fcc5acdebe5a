"""Trend regression, confidence bands, and parity-year solving.

A metric series is fit by ordinary least squares over an inclusive year
window (default 2010-2021).  The 95% band is the confidence band for the
mean response,

    yhat(x) +- t(dof, 0.975) * sqrt(s2 * (1/n + (x - x_mean)^2 / s_xx)),

which collapses to the fitted line when residuals are zero.  Parity is
reported three ways: the fitted line's threshold crossing (point_year),
the upper band edge's crossing (lower_year, the optimistic bound), and
the lower band edge's crossing (upper_year).  For falling series the
role of the two edges swaps automatically because crossings follow the
trend direction.  Crossings beyond the horizon are reported as "never";
a crossing earlier than the fit window is legitimate output and pairs
with the already_reached flag.

Band-edge crossings solve the squared band equation, a quadratic in x,
and keep the root where the edge moves with the trend; an edge with no
such root never crosses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .errors import TooFewPoints, ZeroVariance
from .metrics import LEAD_PREMIUM, LEAD_SHARE, SUPPORTER_SHARE, RegionSeries
from .records import write_tsv
from .tdist import t_quantile

DEFAULT_WINDOW = (2010, 2021)
DEFAULT_HORIZON = 2200.0
DEFAULT_CONFIDENCE = 0.95

PARITY_THRESHOLDS = {
    LEAD_SHARE: 0.5,
    SUPPORTER_SHARE: 0.5,
    LEAD_PREMIUM: 0.0,
}


@dataclass(frozen=True)
class RegressionFit:
    slope: float
    intercept: float
    n: int
    x_mean: float
    s_xx: float
    residual_variance: float
    dof: int
    confidence_level: float = DEFAULT_CONFIDENCE
    # the latest year among the fitted points; parity uses it for the
    # already-reached test
    x_max: float = 0.0

    def value_at(self, x: float) -> float:
        return self.intercept + self.slope * x


def fit_points(
    points: Sequence[tuple[float, float]],
    confidence_level: float = DEFAULT_CONFIDENCE,
) -> RegressionFit:
    if len(points) < 3:
        raise TooFewPoints(f"need at least 3 points, got {len(points)}")
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    n = len(xs)
    x_mean = sum(xs) / n
    y_mean = sum(ys) / n
    s_xx = sum((x - x_mean) ** 2 for x in xs)
    if s_xx == 0.0:
        raise ZeroVariance("all points share one x value")
    s_xy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = s_xy / s_xx
    intercept = y_mean - slope * x_mean
    sse = sum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
    dof = n - 2
    return RegressionFit(
        slope=slope,
        intercept=intercept,
        n=n,
        x_mean=x_mean,
        s_xx=s_xx,
        residual_variance=sse / dof,
        dof=dof,
        confidence_level=confidence_level,
        x_max=max(xs),
    )


def ols_fit(
    series: RegionSeries,
    window: tuple[int, int] = DEFAULT_WINDOW,
    confidence_level: float = DEFAULT_CONFIDENCE,
) -> RegressionFit:
    points = [(x, y) for x, y in series.points if window[0] <= x <= window[1]]
    return fit_points(points, confidence_level)


def _half_width(fit: RegressionFit, x: float, t_crit: float) -> float:
    return t_crit * math.sqrt(
        fit.residual_variance * (1.0 / fit.n + (x - fit.x_mean) ** 2 / fit.s_xx)
    )


def _t_critical(fit: RegressionFit) -> float:
    return t_quantile(0.5 + fit.confidence_level / 2.0, fit.dof)


def confidence_band(fit: RegressionFit, x: float) -> tuple[float, float]:
    center = fit.value_at(x)
    if fit.residual_variance == 0.0:
        return (center, center)
    half = _half_width(fit, x, _t_critical(fit))
    return (center - half, center + half)


@dataclass(frozen=True)
class ParityForecast:
    threshold: float
    point_year: Optional[float]
    lower_year: Optional[float]
    upper_year: Optional[float]
    already_reached: bool


def _line_crossing(fit: RegressionFit, threshold: float) -> Optional[float]:
    if fit.slope == 0.0:
        return None
    return (threshold - fit.intercept) / fit.slope


def _edge_slope(
    fit: RegressionFit, x: float, sign: int, alpha: float, beta: float
) -> float:
    width = math.sqrt(alpha + beta * (x - fit.x_mean) ** 2)
    if width == 0.0:
        return fit.slope
    return fit.slope + sign * beta * (x - fit.x_mean) / width


def _quadratic_roots(qa: float, qb: float, qc: float, disc: float) -> list[float]:
    if abs(qa) > 1e-300:
        if disc < 0.0:
            return []
        sq = math.sqrt(disc)
        return [(-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)]
    return [-qc / qb] if qb != 0.0 else []


def _edge_crossing(
    fit: RegressionFit, threshold: float, sign: int, horizon: float
) -> Optional[float]:
    """Forward crossing year of one band edge, None when never by horizon.

    sign +1 is the upper edge, -1 the lower edge.
    """
    if fit.residual_variance == 0.0:
        x = _line_crossing(fit, threshold)
        return x if x is not None and x <= horizon else None
    t_crit = _t_critical(fit)
    alpha = t_crit * t_crit * fit.residual_variance / fit.n
    beta = t_crit * t_crit * fit.residual_variance / fit.s_xx
    b = fit.slope

    def on_edge(x: float) -> bool:
        # the squared equation merges both edges; keep this edge's roots,
        # where the line sits sign*width on the far side of the threshold
        diff = fit.value_at(x) - threshold
        width = math.sqrt(alpha + beta * (x - fit.x_mean) ** 2)
        return abs(diff + sign * width) <= 1e-9 * (1.0 + width)

    # (line - threshold)^2 = alpha + beta (x - x_mean)^2, quadratic in x
    d0 = fit.intercept - threshold
    qa = b * b - beta
    qb = 2.0 * b * d0 + 2.0 * beta * fit.x_mean
    qc = d0 * d0 - alpha - beta * fit.x_mean * fit.x_mean
    roots = _quadratic_roots(qa, qb, qc, qb * qb - 4.0 * qa * qc)
    valid = [x for x in roots if on_edge(x)]
    if not valid:
        # a near-exact fit (band about 0) cancels the digits of the terms
        # above; in u = x - x_mean the discriminant is a sum of products
        d = fit.value_at(fit.x_mean) - threshold
        us = _quadratic_roots(
            qa, 2.0 * b * d, d * d - alpha, 4.0 * (alpha * qa + beta * d * d)
        )
        valid = [x for x in (fit.x_mean + u for u in us) if on_edge(x)]
    pick: Optional[float] = None
    if b != 0.0:
        matching = [
            x
            for x in valid
            if _edge_slope(fit, x, sign, alpha, beta) * b >= -1e-12
        ]
        if matching:
            # moving with the trend; the crossing furthest along is the
            # forward one for convex edges, the earliest for concave ones
            pick = max(matching) if sign == (1 if b > 0 else -1) else min(matching)
    else:
        forward = [x for x in valid if x >= fit.x_mean]
        if forward:
            pick = min(forward)
    return pick if pick is not None and pick <= horizon else None


def parity_year(
    fit: RegressionFit, threshold: float, horizon: float = DEFAULT_HORIZON
) -> ParityForecast:
    if fit.slope == 0.0:
        point = None
        reached = fit.intercept >= threshold
    else:
        x = _line_crossing(fit, threshold)
        point = x if x is not None and x <= horizon else None
        end_value = fit.value_at(fit.x_max)
        reached = end_value >= threshold if fit.slope > 0 else end_value <= threshold
    lower = _edge_crossing(fit, threshold, +1, horizon)
    upper = _edge_crossing(fit, threshold, -1, horizon)
    return ParityForecast(
        threshold=threshold,
        point_year=point,
        lower_year=lower,
        upper_year=upper,
        already_reached=reached,
    )


@dataclass(frozen=True)
class ForecastRow:
    series: RegionSeries
    fit: RegressionFit
    parity: ParityForecast


def forecast_series(
    series: RegionSeries,
    window: tuple[int, int] = DEFAULT_WINDOW,
    confidence_level: float = DEFAULT_CONFIDENCE,
    horizon: float = DEFAULT_HORIZON,
    threshold: Optional[float] = None,
) -> ForecastRow:
    fit = ols_fit(series, window, confidence_level)
    if threshold is None:
        threshold = PARITY_THRESHOLDS[series.metric]
    return ForecastRow(series, fit, parity_year(fit, threshold, horizon))


_FORECAST_HEADER = (
    "pair\tfocal\tmetric\tfilter\tthreshold\tslope\tintercept\t"
    "point_year\tlower_year\tupper_year\talready_reached"
)


def _fmt_year(x: Optional[float]) -> str:
    return "never" if x is None else f"{x:.9f}"


def write_forecast(rows: Iterable[ForecastRow], path: Path) -> None:
    write_tsv(path, _FORECAST_HEADER, (
        f"{'|'.join(r.series.pair)}\t{r.series.focal}\t{r.series.metric}\t{r.series.filter_desc}\t"
        f"{r.parity.threshold:.9f}\t{r.fit.slope:.9f}\t{r.fit.intercept:.9f}\t"
        f"{_fmt_year(r.parity.point_year)}\t{_fmt_year(r.parity.lower_year)}\t"
        f"{_fmt_year(r.parity.upper_year)}\t"
        f"{'true' if r.parity.already_reached else 'false'}"
        for r in rows
    ))
