"""Corpus filtering: region assignment, bilateral detection, topic tagging."""

from __future__ import annotations

import logging
from typing import Optional, Sequence

import numpy as np

from .errors import UnknownCountry
from .records import CorpusTable, sorted_distinct
from .tables import RegionMap, TopicMap

log = logging.getLogger(__name__)

MIN_YEAR_EXCLUSIVE = 1990
MIN_IMPACT_FACTOR = 1.0


def filter_corpus(
    table: CorpusTable,
    region_map: RegionMap,
    *,
    strict: bool = False,
    source: Optional[str] = None,
) -> tuple[np.ndarray, dict[str, int]]:
    """The rows of the bilateral papers after 1990 with IF >= 1, in order,
    and ingest's counts: papers read, kept, and dropped for each reason.

    A paper is bilateral iff its authorships span exactly two distinct
    regions; each distinct country is looked up once.  Papers naming a
    country absent from the region table are skipped with a warning per
    country, or abort the run when strict is set, with an error naming the
    first such paper and the source.
    """
    old = table.year <= MIN_YEAR_EXCLUSIVE
    low = ~old & (table.impact < MIN_IMPACT_FACTOR)
    regions = {c: region_map.region_of(c) for c in table.countries if c in region_map}
    names = {r: i for i, r in enumerate(sorted(set(regions.values())), start=1)}
    # each country's region as its index in names, 0 when unknown
    code = np.array([names.get(regions.get(c), 0) for c in table.countries], dtype=np.int64)
    width = len(names) + 1
    owner = np.repeat(np.arange(len(table)), np.diff(table.auth_start))
    pairs = sorted_distinct(owner * width + code[table.country])  # (paper, region)
    unknown = np.zeros(len(table), dtype=bool)
    unknown[pairs[pairs % width == 0] // width] = True
    unknown &= ~old & ~low
    bilateral = np.bincount(pairs // width, minlength=len(table)) == 2
    dropped = old | low | unknown
    kept = np.flatnonzero(~dropped & bilateral)
    warned: set[str] = set()
    for i in np.flatnonzero(unknown).tolist():
        countries = table.country[table.auth_start[i]:table.auth_start[i + 1]]
        country = table.countries[countries[code[countries] == 0][0]]
        if strict:
            raise UnknownCountry(country, table.ids[table.paper[i]], source)
        if country not in warned:
            warned.add(country)
            log.warning("skipping %s: %s", table.ids[table.paper[i]], UnknownCountry(country))
    return kept, {
        "records": len(table), "bilateral": len(kept), "pre_1991": int(old.sum()),
        "low_impact": int(low.sum()), "not_bilateral": int((~dropped & ~bilateral).sum()),
        "unknown_country": int(unknown.sum()),
    }


def _reverse_index(concepts: dict[str, frozenset[str]]) -> dict[str, tuple[str, ...]]:
    index: dict[str, set[str]] = {}
    for tag, names in concepts.items():
        for name in names:
            index.setdefault(name.casefold(), set()).add(tag)
    return {name: tuple(sorted(tags)) for name, tags in index.items()}


def classify_topics(
    table: CorpusTable, topics: TopicMap
) -> tuple[np.ndarray, list[tuple[frozenset[str], frozenset[str]]]]:
    """Tag each paper with technology areas and scientific fields: per
    paper, the index of its (areas, fields) among the distinct ones listed.

    Areas match concepts at any level; fields match level-0 concepts only.
    Matching is exact string equality after trimming and casefolding, each
    distinct name is looked up once, and a paper may carry several tags of
    either kind.
    """
    keys = [name.strip().casefold() for name in table.concepts]
    by_area, by_field = _reverse_index(topics.area_concepts), _reverse_index(topics.field_concepts)
    areas = [by_area.get(key, ()) for key in keys]
    fields = [by_field.get(key, ()) for key in keys]
    concept, level0 = table.concept.tolist(), table.level0.tolist()
    start = table.concept_start.tolist()
    tags: dict[tuple[frozenset[str], frozenset[str]], int] = {}
    code = np.empty(len(table), dtype=np.int64)
    for i in range(len(table)):
        entries = range(start[i], start[i + 1])
        code[i] = tags.setdefault((
            frozenset(tag for e in entries for tag in areas[concept[e]]),
            frozenset(tag for e in entries if level0[e] for tag in fields[concept[e]]),
        ), len(tags))
    return code, list(tags)


def impact_factor_bin(values: np.ndarray, edges: Sequence[float]) -> np.ndarray:
    """Left-closed bins: bin i holds edges[i] <= value < edges[i+1], the
    last bin is unbounded above, and values below edges[0] are in bin -1."""
    return np.searchsorted(np.asarray(edges, dtype=np.float64), values, side="right") - 1
