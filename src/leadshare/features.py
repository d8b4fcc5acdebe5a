"""Per-author temporal profiles and the nine lead-prediction features.

`build_profiles` walks the corpus once in (sort date, paper id) order,
keeping a running history per author: prior references, paper ids and
concept names, the prior paper count, first prior year, first-or-last
count, and a histogram of the years in which corpus papers cited the
prior papers.  "Prior" means dated strictly earlier than the focal paper:
the sweep reads f1-f8 for a whole date group before promoting the group
into the histories, so same-day papers are not prior and feature vectors
are invariant to how same-day ties are ordered.  Papers without a
publication date sort at July 1.  f9 comes from the same sweep, ranking
against a per-year snapshot of institution counts, and `extract_features`
looks the finished vector up.

Features, for author a on focal paper P:

  f1  focal references the author has cited before
  f2  focal concept names seen in the author's prior papers
  f3  focal references that are the author's own prior papers
  f4  focal year minus the author's first prior year (0 on debut)
  f5  number of prior papers
  f6  citations received by prior papers from corpus papers published
      strictly before the focal year
  f7  distinct concept names across prior papers
  f8  prior papers where the author was first or last author
  f9  percentile rank of the authorship's institution by count of corpus
      papers published before the focal year, in [0, 1]

f6 and f9 only see the provided corpus; there is no external citation or
prestige source.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import AuthorNotOnPaper, DuplicatePaperId, PaperNotIndexed
from .records import PublicationRecord, check_unique, read_tsv, tsv_rows, write_tsv


class LeadFeatureVector(NamedTuple):
    """One authorship's nine features, in features.tsv's column order."""

    f1_refs_previously_cited: int
    f2_keyword_overlap: int
    f3_self_citations: int
    f4_career_age: int
    f5_prior_pub_count: int
    f6_citations_received: int
    f7_unique_keywords: int
    f8_first_or_last_count: int
    f9_affiliation_score: float

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=np.float64)


FEATURE_NAMES = LeadFeatureVector._fields

# build_profiles' result: the features of each (paper_id, author_id)
FeatureIndex = dict[tuple[str, str], LeadFeatureVector]


class FeatureTable(NamedTuple):
    """features.tsv: the row of each (paper_id, author_id) in `X`."""

    rows: dict[tuple[str, str], int]
    X: np.ndarray


@dataclass(slots=True)
class _History:
    """One author's papers dated before the sweep's current date group."""

    refs: set[str] = field(default_factory=set)
    ids: set[str] = field(default_factory=set)
    concepts: set[str] = field(default_factory=set)
    count: int = 0
    first_year: int = 0
    first_or_last: int = 0
    # citing year -> citations these papers received from corpus papers
    cited_in: dict[int, int] = field(default_factory=dict)


def build_profiles(corpus: Iterable[PublicationRecord]) -> FeatureIndex:
    """The nine features of every authorship, keyed by (paper_id,
    author_id); records need not be pre-sorted."""
    seen: set[str] = set()
    ordered: list[tuple[tuple[int, int, int], str, PublicationRecord]] = []
    for record in corpus:
        if record.paper_id in seen:
            raise DuplicatePaperId(record.paper_id)
        seen.add(record.paper_id)
        ordered.append((record.sort_date(), record.paper_id, record))
    ordered.sort(key=lambda t: (t[0], t[1]))
    # years of corpus papers citing each paper, and of each institution's
    # papers (one entry per paper); complete before the sweep, since later
    # papers cite earlier ones
    citing_years: dict[str, list[int]] = {}
    institution_years: dict[str, list[int]] = {}
    for _, _, record in ordered:
        for inst in {a.institution_id for a in record.authorships if a.institution_id}:
            institution_years.setdefault(inst, []).append(record.year)
        for cited in record.references:
            citing_years.setdefault(cited, []).append(record.year)
    # sorted, since hand-built records may date a paper outside its year
    for years in institution_years.values():
        years.sort()
    # focal year -> sorted counts of papers before that year, one per
    # institution that has any; built at the year's first paper
    rank_snapshots: dict[int, np.ndarray] = {}

    vectors: FeatureIndex = {}
    histories: defaultdict[str, _History] = defaultdict(_History)
    for _, group in groupby(ordered, key=itemgetter(0)):
        promote = []
        for _, paper_id, record in group:
            refs, names, year = record.references, record.concept_names(), record.year
            ends = (0, len(record.authorships) - 1)
            if (snapshot := rank_snapshots.get(year)) is None:
                counts = (bisect_left(years, year) for years in institution_years.values())
                snapshot = np.array(sorted(c for c in counts if c > 0), dtype=np.int64)
                rank_snapshots[year] = snapshot
            for a in record.first_authorships():
                h = histories[a.author_id]
                # an institution with a paper before the year is in snapshot
                own = bisect_left(institution_years.get(a.institution_id, ()), year)
                vectors[(paper_id, a.author_id)] = LeadFeatureVector(
                    len(refs & h.refs),
                    len(names & h.concepts),
                    len(refs & h.ids),
                    (year - h.first_year) if h.count else 0,
                    h.count,
                    sum(n for y, n in h.cited_in.items() if y < year),
                    len(h.concepts),
                    h.first_or_last,
                    float(np.searchsorted(snapshot, own, side="right")) / snapshot.size
                    if own else 0.0,
                )
                promote.append((h, record, names, a.position in ends))
        # promote the date group only now: same-day papers are not prior
        for h, record, names, first_or_last in promote:
            if not h.count:
                h.first_year = record.year
            h.count += 1
            h.first_or_last += first_or_last
            h.refs |= record.references
            h.ids.add(record.paper_id)
            h.concepts |= names
            for y in citing_years.get(record.paper_id, ()):
                h.cited_in[y] = h.cited_in.get(y, 0) + 1
    return vectors


def extract_features(
    record: PublicationRecord, author_id: str, index: FeatureIndex
) -> LeadFeatureVector:
    if all(a.author_id != author_id for a in record.authorships):
        raise AuthorNotOnPaper(author_id, record.paper_id)
    try:
        return index[(record.paper_id, author_id)]
    except KeyError:
        raise PaperNotIndexed(record.paper_id, author_id) from None


def extract_all(
    corpus: Iterable[PublicationRecord], index: FeatureIndex
) -> Iterator[tuple[str, str, LeadFeatureVector]]:
    """One row per authorship, in corpus order then author position."""
    for record in corpus:
        for a in record.first_authorships():
            yield record.paper_id, a.author_id, extract_features(record, a.author_id, index)


_FEATURES_HEADER = "paper_id\tauthor_id\t" + "\t".join(FEATURE_NAMES)


def write_features(
    rows: Iterable[tuple[str, str, LeadFeatureVector]], path: Path
) -> None:
    write_tsv(path, _FEATURES_HEADER, (
        "\t".join((paper_id, author_id, *map(str, v[:8]), f"{v[8]:.9f}"))
        for paper_id, author_id, v in rows
    ))


def _feature_table(lines: list[str]) -> FeatureTable:
    keys: list[tuple[str, str]] = []

    def values() -> Iterator[float]:
        for cells in tsv_rows(lines):
            keys.append((cells[0], cells[1]))
            yield from map(int, cells[2:10])
            yield float(cells[10])

    width = len(FEATURE_NAMES)
    X = np.fromiter(values(), dtype=np.float64, count=len(lines) * width)
    rows = check_unique(keys, "paper_id, author_id")
    X.flags.writeable = False  # one decoded table may serve several stages
    return FeatureTable(rows, X.reshape(len(lines), width))


def read_features(path: Path) -> FeatureTable:
    """features.tsv as one matrix; f1-f8 must parse as int, f9 as float,
    and each (paper_id, author_id) may appear once."""
    return read_tsv(path, _FEATURES_HEADER, _feature_table)
