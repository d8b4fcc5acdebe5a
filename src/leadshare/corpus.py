"""Corpus filtering: region assignment, bilateral detection, topic tagging."""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BelowRange, UnknownCountry
from .records import PublicationRecord
from .tables import RegionMap, TopicMap

log = logging.getLogger(__name__)

MIN_YEAR_EXCLUSIVE = 1990
MIN_IMPACT_FACTOR = 1.0


def bilateral_pair(
    record: PublicationRecord, region_map: RegionMap
) -> Optional[tuple[str, str]]:
    """Return the lexicographically ordered region pair, or None.

    A paper is bilateral iff its authorships span exactly two distinct
    regions.  Single-region and 3+-region papers return None.
    """
    regions = {region_map.region_of(a.country) for a in record.authorships}
    if len(regions) != 2:
        return None
    first, second = sorted(regions)
    return (first, second)


@dataclass
class FilterStats:
    """Counters for one filter_corpus pass, reported by the ingest stage."""

    n_input: int = 0
    n_kept: int = 0
    n_year: int = 0
    n_impact: int = 0
    n_not_bilateral: int = 0
    n_unknown_country: int = 0
    unknown_countries: set[str] = field(default_factory=set)


def filter_corpus(
    records: Iterable[PublicationRecord],
    region_map: RegionMap,
    *,
    strict: bool = False,
    stats: Optional[FilterStats] = None,
    source: Optional[str] = None,
) -> Iterator[tuple[PublicationRecord, tuple[str, str]]]:
    """Yield (record, pair) for bilateral papers after 1990 with IF >= 1.

    Records naming a country absent from the region table are skipped with a
    counted warning, or abort the run when strict is set, with an error
    naming the paper and source.  Input order is preserved.
    """
    if stats is None:
        stats = FilterStats()
    for record in records:
        stats.n_input += 1
        if record.year <= MIN_YEAR_EXCLUSIVE:
            stats.n_year += 1
            continue
        if record.impact_factor < MIN_IMPACT_FACTOR:
            stats.n_impact += 1
            continue
        try:
            pair = bilateral_pair(record, region_map)
        except UnknownCountry as exc:
            if strict:
                raise UnknownCountry(exc.country, record.paper_id, source) from None
            stats.n_unknown_country += 1
            unknown = str(exc)
            if unknown not in stats.unknown_countries:
                stats.unknown_countries.add(unknown)
                log.warning("skipping %s: %s", record.paper_id, unknown)
            continue
        if pair is None:
            stats.n_not_bilateral += 1
            continue
        stats.n_kept += 1
        yield record, pair


def classify_topics(
    record: PublicationRecord, topics: TopicMap
) -> tuple[frozenset[str], frozenset[str]]:
    """Tag a record with technology areas and scientific fields.

    Areas match concepts at any level; fields match level-0 concepts only.
    Matching is exact string equality after trimming and casefolding, and a
    record may carry several tags of either kind.
    """
    areas: set[str] = set()
    fields: set[str] = set()
    for name, level in record.concepts:
        key = name.strip().casefold()
        hit = topics.areas_by_concept.get(key)
        if hit:
            areas.update(hit)
        if level == 0:
            hit = topics.fields_by_concept.get(key)
            if hit:
                fields.update(hit)
    return frozenset(areas), frozenset(fields)


def impact_factor_bin(if_value: float, edges: Sequence[float]) -> int:
    """Left-closed interval lookup: edges[i] <= if_value < edges[i+1].

    The last bin is unbounded above.  Values below edges[0] are out of range.
    """
    if if_value < edges[0]:
        raise BelowRange(if_value, edges[0])
    return bisect_right(edges, if_value) - 1
