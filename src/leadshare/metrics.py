"""Leader/supporter counting and the share metrics built on it.

Scored rows are aggregated per (region pair, year) into leader and
supporter counts, optionally restricted by paper tags (technology area,
scientific field, impact-factor bin) or, for Belt-and-Road series, by the
income class of the partner-side countries.  The BRI restriction collapses
all partner regions into one synthetic side label ("BRI:HighIncome" or
"BRI:LowIncome") so each income class yields a single series against China.

Counting runs on a `ScoredTable`, the scored rows as numpy columns: each
filter is a mask and each tally one np.bincount.

Lead Share of a focal side = leaders[focal] / (leaders[A] + leaders[B]).
Supporter Share is the same ratio over supporters.  Lead Premium is Lead
Share minus Supporter Share.  Years where a ratio's denominator is zero
are undefined and excluded from series rather than imputed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    InconsistentPair,
    NoLeaders,
    NoSupporters,
)
from .records import check_unique, read_tsv, sorted_distinct, tsv_rows, write_tsv

LEAD_SHARE = "LeadShare"
SUPPORTER_SHARE = "SupporterShare"
LEAD_PREMIUM = "LeadPremium"
METRIC_NAMES = (LEAD_SHARE, SUPPORTER_SHARE, LEAD_PREMIUM)

COUNT_AUTHOR_PAPER = "author_paper"
COUNT_UNIQUE_AUTHOR = "unique_author"

BRI_FOCAL_REGION = "China"


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

    def admits(self, tags: PaperTags) -> bool:
        """Whether a paper whose first row has these tags passes the area,
        field and impact-factor filters."""
        return (
            (self.areas is None or not self.areas.isdisjoint(tags.areas))
            and (self.fields is None or not self.fields.isdisjoint(tags.fields))
            and (self.if_bins is None or tags.if_bin in self.if_bins)
        )

    def admits_all(self) -> bool:
        """Whether admits holds for every paper: no filter on its tags."""
        return self.areas is None and self.fields is None and self.if_bins is None


@dataclass(frozen=True)
class PairYearCounts:
    pair: tuple[str, str]
    year: int
    leaders: Mapping[str, int]
    supporters: Mapping[str, int]
    filter_desc: str = "all"


class PaperTags(NamedTuple):
    """The tags of one scored row: its paper's topic and impact-factor
    tags and its author's country with that country's income class."""

    areas: frozenset[str]
    fields: frozenset[str]
    if_bin: int
    bri_class: str
    country: str


class ScoredTable:
    """Scored rows as numpy columns, in row order.

    Paper ids, author ids, regions and tags are stored once each and coded
    per row (`paper` indexes `papers`, and so on); the constructor takes
    each column's values (a dict's keys will do) and codes, and sorts the
    distinct regions, so region codes follow string order.  A paper is a
    contiguous run of rows with one paper_id: `run` numbers the runs per
    row and `run_starts` holds each run's first row.  A run is bilateral
    when it spans exactly two regions; then `pair` codes its row's entry
    in `pairs` and `side` marks rows of the pair's second region.
    """

    def __init__(
        self, papers: Iterable[str], paper: Sequence[int], authors: Iterable[str],
        author: Sequence[int], regions: Iterable[str], region: Sequence[int],
        year: np.ndarray, lead_prob: np.ndarray, is_leader: np.ndarray,
        tags: Iterable[PaperTags], tag: Sequence[int],
    ):
        self.papers, self.paper = tuple(papers), np.asarray(paper, np.int64)
        self.authors, self.author = tuple(authors), np.asarray(author, np.int64)
        names = tuple(regions)
        self.regions = tuple(sorted(set(names)))
        self.region = np.array([self.regions.index(n) for n in names], np.int64)[region]
        self.year, self.lead_prob, self.is_leader = year, lead_prob, is_leader
        self.tags, self.tag = tuple(tags), np.asarray(tag, np.int64)

        starts = np.ones(len(self.paper), dtype=bool)
        starts[1:] = self.paper[1:] != self.paper[:-1]
        self.run = np.cumsum(starts) - 1
        self.run_starts = np.flatnonzero(starts)
        lo = np.minimum.reduceat(self.region, self.run_starts)[self.run]
        hi = np.maximum.reduceat(self.region, self.run_starts)[self.run]
        self.run_bilateral = np.logical_and.reduceat(
            (lo != hi) & ((self.region == lo) | (self.region == hi)), self.run_starts
        )
        n = len(self.regions)
        pair_codes, self.pair = np.unique(lo * n + hi, return_inverse=True)
        self.pairs = [
            (self.regions[c // n], self.regions[c % n]) for c in pair_codes.tolist()
        ]
        self.side = self.region == hi
        # one decoded table may serve several stages
        for column in vars(self).values():
            if isinstance(column, np.ndarray):
                column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.paper)


def aggregate(
    table: ScoredTable,
    filters: Optional[FilterSpec] = None,
    *,
    counting_mode: str = COUNT_AUTHOR_PAPER,
) -> list[PairYearCounts]:
    """Tally leaders and supporters per (pair, year) under the filters.

    A paper is a contiguous run of rows with one paper_id; its filters
    read the tags of its first row.  In unique_author mode a scientist
    counts once per (pair, year, side, role) no matter how many papers
    they appear on.  This is the one place that decides, for counting,
    whether a row is a leader.
    """
    if filters is None:
        filters = FilterSpec()
    if counting_mode not in (COUNT_AUTHOR_PAPER, COUNT_UNIQUE_AUTHOR):
        raise ConfigError(f"unknown counting mode {counting_mode!r}")
    bad = np.flatnonzero(~table.run_bilateral)
    if bad.size:
        first = table.run_starts[bad[0]]
        regions = sorted_distinct(table.region[table.run == bad[0]])
        raise InconsistentPair(
            f"paper {table.papers[table.paper[first]]!r} rows span regions "
            f"{[table.regions[c] for c in regions]}, expected exactly 2"
        )
    keep = np.ones(len(table), dtype=bool)
    if not filters.admits_all():
        admitted = np.array([filters.admits(t) for t in table.tags], dtype=bool)
        keep = admitted[table.tag[table.run_starts]][table.run]
    pairs, pair, side = table.pairs, table.pair, table.side
    if filters.bri_class is not None:
        focal = table.region == (
            table.regions.index(BRI_FOCAL_REGION)
            if BRI_FOCAL_REGION in table.regions else -1
        )
        in_class = [t.bri_class == filters.bri_class for t in table.tags]
        partner = ~focal & np.array(in_class, dtype=bool)[table.tag]
        keep &= (focal | partner) & (
            np.logical_or.reduceat(focal, table.run_starts)
            & np.logical_or.reduceat(partner, table.run_starts)
        )[table.run]
        pairs = [tuple(sorted((BRI_FOCAL_REGION, f"BRI:{filters.bri_class}")))]
        pair = np.zeros(len(table), dtype=np.int64)
        side = focal == (pairs[0][1] == BRI_FOCAL_REGION)
    leader = (
        table.is_leader if filters.threshold is None
        else table.lead_prob > filters.threshold
    )

    # one bincount over the key (pair and year group, side, leader); in
    # unique_author mode repeats of (key, author) are dropped first
    kept = np.flatnonzero(keep)
    years, year_idx = np.unique(table.year[kept], return_inverse=True)
    groups, group_idx = np.unique(
        pair[kept] * len(years) + year_idx, return_inverse=True
    )
    key = (group_idx * 2 + side[kept]) * 2 + leader[kept]
    if counting_mode == COUNT_UNIQUE_AUTHOR:
        n_authors = len(table.authors)
        key = sorted_distinct(key * n_authors + table.author[kept]) // n_authors
    counts = np.bincount(key, minlength=4 * len(groups)).reshape(-1, 2, 2)
    desc = filters.describe()
    out = []
    for group, ((supp0, lead0), (supp1, lead1)) in zip(
        groups.tolist(), counts.tolist()
    ):
        pair_idx, year_idx = divmod(group, len(years))
        names = pairs[pair_idx]
        out.append(PairYearCounts(
            pair=names,
            year=int(years[year_idx]),
            leaders={names[0]: lead0, names[1]: lead1},
            supporters={names[0]: supp0, names[1]: supp1},
            filter_desc=desc,
        ))
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
    write_tsv(path, "pair\tyear\tregion\tleaders\tsupporters\tfilter", (
        f"{c.pair[0]}|{c.pair[1]}\t{c.year}\t{region}\t"
        f"{c.leaders[region]}\t{c.supporters[region]}\t{c.filter_desc}"
        for c in countsets
        for region in c.pair
    ))


_SERIES_HEADER = "pair\tfocal\tmetric\tfilter\tyear\tvalue"


def write_series(series_list: Sequence[RegionSeries], path: Path) -> list[RegionSeries]:
    """Write series.tsv; returns the series read_series decodes from it."""
    write_tsv(path, _SERIES_HEADER, (
        f"{s.pair[0]}|{s.pair[1]}\t{s.focal}\t{s.metric}\t"
        f"{s.filter_desc}\t{year}\t{value:.9f}"
        for s in series_list
        for year, value in s.points
    ))
    return [
        replace(s, points=tuple((year, float(f"{value:.9f}")) for year, value in s.points))
        for s in series_list
    ]


def _series(lines: list[str]) -> list[RegionSeries]:
    acc: dict[tuple, list[tuple[int, float]]] = {}
    keys = []
    for pair, focal, metric, desc, year, value in tsv_rows(lines):
        sides = tuple(pair.split("|"))
        if len(sides) != 2 or metric not in METRIC_NAMES:
            raise ValueError(f"bad pair {pair!r} or metric {metric!r}")
        acc.setdefault((sides, focal, metric, desc), []).append((int(year), float(value)))
        keys.append((pair, focal, metric, desc, int(year)))
    check_unique(keys, "pair, focal, metric, filter, year")
    return [
        RegionSeries(
            pair=pair, focal=focal, metric=metric,
            points=tuple(sorted(points)), filter_desc=desc,
        )
        for (pair, focal, metric, desc), points in acc.items()
    ]


def read_series(path: Path) -> list[RegionSeries]:
    return read_tsv(path, _SERIES_HEADER, _series)
