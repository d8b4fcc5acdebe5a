"""Leader/supporter counting and the share metrics built on it.

Scored rows are aggregated per (region pair, year) into leader and
supporter counts, optionally restricted by paper tags (technology area,
scientific field, impact-factor bin) or, for Belt-and-Road series, by the
income class of the partner-side countries.  The BRI restriction collapses
all partner regions into one synthetic side label ("BRI:HighIncome" or
"BRI:LowIncome") so each income class yields a single series against China.

Lead Share of a focal side = leaders[focal] / (leaders[A] + leaders[B]).
Supporter Share is the same ratio over supporters.  Lead Premium is Lead
Share minus Supporter Share.  Years where a ratio's denominator is zero
are undefined and excluded from series rather than imputed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .errors import (
    ConfigError,
    InconsistentPair,
    MalformedRecord,
    NoLeaders,
    NoSupporters,
)

LEAD_SHARE = "LeadShare"
SUPPORTER_SHARE = "SupporterShare"
LEAD_PREMIUM = "LeadPremium"
METRIC_NAMES = (LEAD_SHARE, SUPPORTER_SHARE, LEAD_PREMIUM)

COUNT_AUTHOR_PAPER = "author_paper"
COUNT_UNIQUE_AUTHOR = "unique_author"

BRI_FOCAL_REGION = "China"


@dataclass(frozen=True)
class ScoredAuthorship:
    """One classified author×paper observation with its paper's tags."""

    paper_id: str
    author_id: str
    region: str
    year: int
    lead_prob: float
    is_leader: bool
    areas: frozenset[str]
    fields: frozenset[str]
    if_bin: int
    bri_class: str
    country: str


@dataclass(frozen=True)
class FilterSpec:
    """Row/paper restrictions applied during aggregation.

    areas/fields keep papers whose tag set intersects the given set;
    if_bins keeps papers whose bin is listed; bri_class keeps only
    (China, partner) papers and restricts partner-side rows to countries
    of that income class.  threshold, when set, counts a row as a leader
    iff its lead_prob is strictly above it, in place of the row's stored
    is_leader.
    """

    areas: Optional[frozenset[str]] = None
    fields: Optional[frozenset[str]] = None
    if_bins: Optional[frozenset[int]] = None
    bri_class: Optional[str] = None
    threshold: Optional[float] = None

    def describe(self) -> str:
        parts = []
        if self.areas is not None:
            parts.append("areas=" + "|".join(sorted(self.areas)))
        if self.fields is not None:
            parts.append("fields=" + "|".join(sorted(self.fields)))
        if self.if_bins is not None:
            parts.append("if_bins=" + "|".join(str(b) for b in sorted(self.if_bins)))
        if self.bri_class is not None:
            parts.append("bri=" + self.bri_class)
        if self.threshold is not None:
            parts.append(f"threshold={self.threshold:g}")
        return ";".join(parts) if parts else "all"


@dataclass(frozen=True)
class PairYearCounts:
    pair: tuple[str, str]
    year: int
    leaders: Mapping[str, int]
    supporters: Mapping[str, int]
    filter_desc: str = "all"


def group_by_paper(
    rows: Iterable[ScoredAuthorship],
) -> Iterator[list[ScoredAuthorship]]:
    """Group a stream whose rows are contiguous per paper."""
    batch: list[ScoredAuthorship] = []
    for row in rows:
        if batch and row.paper_id != batch[0].paper_id:
            yield batch
            batch = []
        batch.append(row)
    if batch:
        yield batch


def aggregate(
    rows: Iterable[ScoredAuthorship],
    filters: Optional[FilterSpec] = None,
    *,
    counting_mode: str = COUNT_AUTHOR_PAPER,
) -> list[PairYearCounts]:
    """Tally leaders and supporters per (pair, year) under the filters.

    Rows must arrive grouped by paper (contiguous paper_id runs).  In
    unique_author mode a scientist counts once per (pair, year, side,
    role) no matter how many papers they appear on.  This is the one place
    that decides, for counting, whether a row is a leader.
    """
    if filters is None:
        filters = FilterSpec()
    if counting_mode not in (COUNT_AUTHOR_PAPER, COUNT_UNIQUE_AUTHOR):
        raise ConfigError(f"unknown counting mode {counting_mode!r}")
    desc = filters.describe()
    threshold = filters.threshold
    leaders: dict[tuple[tuple[str, str], int], Counter] = {}
    supporters: dict[tuple[tuple[str, str], int], Counter] = {}
    seen: set[tuple] = set()

    for paper_rows in group_by_paper(rows):
        regions = {r.region for r in paper_rows}
        if len(regions) != 2:
            raise InconsistentPair(
                f"paper {paper_rows[0].paper_id!r} rows span regions "
                f"{sorted(regions)}, expected exactly 2"
            )
        first = paper_rows[0]
        if filters.areas is not None and not (first.areas & filters.areas):
            continue
        if filters.fields is not None and not (first.fields & filters.fields):
            continue
        if filters.if_bins is not None and first.if_bin not in filters.if_bins:
            continue
        pair = tuple(sorted(regions))
        kept = paper_rows
        if filters.bri_class is not None:
            if BRI_FOCAL_REGION not in regions:
                continue
            partner_label = f"BRI:{filters.bri_class}"
            kept = []
            partner_found = False
            for row in paper_rows:
                if row.region == BRI_FOCAL_REGION:
                    kept.append(row)
                elif row.bri_class == filters.bri_class:
                    partner_found = True
                    kept.append(row)
            if not partner_found:
                continue
            pair = tuple(sorted((BRI_FOCAL_REGION, partner_label)))
        for row in kept:
            side = (
                row.region
                if filters.bri_class is None or row.region == BRI_FOCAL_REGION
                else f"BRI:{filters.bri_class}"
            )
            is_leader = (
                row.is_leader if threshold is None else row.lead_prob > threshold
            )
            if counting_mode == COUNT_UNIQUE_AUTHOR:
                key = (pair, row.year, side, row.author_id, is_leader)
                if key in seen:
                    continue
                seen.add(key)
            bucket = leaders if is_leader else supporters
            bucket.setdefault((pair, row.year), Counter())[side] += 1

    out = []
    for pair, year in sorted(set(leaders) | set(supporters)):
        lead_counts = leaders.get((pair, year), Counter())
        supp_counts = supporters.get((pair, year), Counter())
        out.append(
            PairYearCounts(
                pair=pair,
                year=year,
                leaders={pair[0]: lead_counts[pair[0]], pair[1]: lead_counts[pair[1]]},
                supporters={
                    pair[0]: supp_counts[pair[0]],
                    pair[1]: supp_counts[pair[1]],
                },
                filter_desc=desc,
            )
        )
    return out


def _check_focal(counts: PairYearCounts, focal: str) -> None:
    if focal not in counts.pair:
        raise ConfigError(f"focal {focal!r} is not in pair {counts.pair}")


def lead_share(counts: PairYearCounts, focal: str) -> float:
    _check_focal(counts, focal)
    total = counts.leaders[counts.pair[0]] + counts.leaders[counts.pair[1]]
    if total == 0:
        raise NoLeaders(f"no leaders for {counts.pair} in {counts.year}")
    return counts.leaders[focal] / total


def supporter_share(counts: PairYearCounts, focal: str) -> float:
    _check_focal(counts, focal)
    total = counts.supporters[counts.pair[0]] + counts.supporters[counts.pair[1]]
    if total == 0:
        raise NoSupporters(f"no supporters for {counts.pair} in {counts.year}")
    return counts.supporters[focal] / total


def lead_premium(counts: PairYearCounts, focal: str) -> float:
    return lead_share(counts, focal) - supporter_share(counts, focal)


_METRIC_FNS: dict[str, Callable[[PairYearCounts, str], float]] = {
    LEAD_SHARE: lead_share,
    SUPPORTER_SHARE: supporter_share,
    LEAD_PREMIUM: lead_premium,
}


@dataclass(frozen=True)
class RegionSeries:
    pair: tuple[str, str]
    focal: str
    metric: str
    points: tuple[tuple[int, float], ...]
    filter_desc: str = "all"


def build_series(
    countsets: Iterable[PairYearCounts],
    pair: tuple[str, str],
    focal: str,
    metric: str,
) -> RegionSeries:
    """One point per year with a defined value, ascending by year."""
    if metric not in _METRIC_FNS:
        raise ConfigError(f"unknown metric {metric!r}")
    fn = _METRIC_FNS[metric]
    points = []
    desc = "all"
    for counts in sorted(
        (c for c in countsets if c.pair == tuple(pair)), key=lambda c: c.year
    ):
        desc = counts.filter_desc
        try:
            points.append((counts.year, fn(counts, focal)))
        except (NoLeaders, NoSupporters):
            continue
    return RegionSeries(
        pair=tuple(pair), focal=focal, metric=metric,
        points=tuple(points), filter_desc=desc,
    )


def write_counts(countsets: Iterable[PairYearCounts], path: Path) -> None:
    lines = ["pair\tyear\tregion\tleaders\tsupporters\tfilter"]
    for c in countsets:
        for region in c.pair:
            lines.append(
                f"{c.pair[0]}|{c.pair[1]}\t{c.year}\t{region}\t"
                f"{c.leaders[region]}\t{c.supporters[region]}\t{c.filter_desc}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_counts(path: Path) -> list[PairYearCounts]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "pair\tyear\tregion\tleaders\tsupporters\tfilter":
        raise MalformedRecord(1, "header", "unexpected counts header")
    acc: dict[tuple[tuple[str, str], int, str], dict[str, tuple[int, int]]] = {}
    for line_no, raw in enumerate(lines[1:], start=2):
        parts = raw.split("\t")
        if len(parts) != 6:
            raise MalformedRecord(line_no, "<line>", f"expected 6 columns, got {len(parts)}")
        sides = parts[0].split("|")
        if len(sides) != 2:
            raise MalformedRecord(line_no, "pair", f"bad pair {parts[0]!r}")
        key = ((sides[0], sides[1]), int(parts[1]), parts[5])
        acc.setdefault(key, {})[parts[2]] = (int(parts[3]), int(parts[4]))
    out = []
    for (pair, year, desc), per_region in sorted(acc.items()):
        if set(per_region) != set(pair):
            raise MalformedRecord(0, "region", f"incomplete rows for {pair} {year}")
        out.append(
            PairYearCounts(
                pair=pair,
                year=year,
                leaders={r: per_region[r][0] for r in pair},
                supporters={r: per_region[r][1] for r in pair},
                filter_desc=desc,
            )
        )
    return out


def write_series(series_list: Iterable[RegionSeries], path: Path) -> None:
    lines = ["pair\tfocal\tmetric\tfilter\tyear\tvalue"]
    for s in series_list:
        for year, value in s.points:
            lines.append(
                f"{s.pair[0]}|{s.pair[1]}\t{s.focal}\t{s.metric}\t"
                f"{s.filter_desc}\t{year}\t{value:.9f}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_series(path: Path) -> list[RegionSeries]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "pair\tfocal\tmetric\tfilter\tyear\tvalue":
        raise MalformedRecord(1, "header", "unexpected series header")
    acc: dict[tuple, list[tuple[int, float]]] = {}
    for line_no, raw in enumerate(lines[1:], start=2):
        parts = raw.split("\t")
        if len(parts) != 6:
            raise MalformedRecord(line_no, "<line>", f"expected 6 columns, got {len(parts)}")
        sides = parts[0].split("|")
        if len(sides) != 2 or parts[2] not in METRIC_NAMES:
            raise MalformedRecord(line_no, "<line>", f"bad series row {raw!r}")
        key = ((sides[0], sides[1]), parts[1], parts[2], parts[3])
        acc.setdefault(key, []).append((int(parts[4]), float(parts[5])))
    out = []
    for (pair, focal, metric, desc), points in acc.items():
        out.append(
            RegionSeries(
                pair=pair, focal=focal, metric=metric,
                points=tuple(sorted(points)), filter_desc=desc,
            )
        )
    return out
