"""A plain copy of the per-authorship feature sweep that `build_profiles`
ran before it became an array program: the reference that the property
tests in test_features.py hold `leadshare.features.build_profiles` to,
row for row and byte for byte.  Keep it self-contained: it shares the
record classes, the feature table and the errors with the package, and no
code path.

The sweep walks the corpus once in (sort date, paper id) order, keeping a
running history per author, and reads f1-f8 for a whole date group before
promoting the group into the histories, so same-day papers are not prior.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Iterable

import numpy as np

from leadshare.errors import DuplicatePaperId
from leadshare.features import FEATURE_NAMES, FeatureTable
from leadshare.records import AuthorshipRecord, PublicationRecord


def first_authorships(record: PublicationRecord) -> list[AuthorshipRecord]:
    """Each author's first authorship, in position order."""
    firsts: dict[str, AuthorshipRecord] = {}
    for a in record.authorships:
        firsts.setdefault(a.author_id, a)
    return list(firsts.values())


@dataclass(slots=True)
class _History:
    """One author's papers dated before the sweep's current date group."""

    refs: set[str] = field(default_factory=set)
    concepts: set[str] = field(default_factory=set)
    count: int = 0
    first_year: int = 0
    first_or_last: int = 0
    # citing year -> citations these papers received from corpus papers
    cited_in: dict[int, int] = field(default_factory=dict)


def build_profiles(corpus: Iterable[PublicationRecord]) -> FeatureTable:
    """The nine features of every authorship, one row per distinct author
    of a paper, in input order then author position."""
    seen: set[str] = set()
    rows: dict[tuple[str, str], int] = {}
    ordered: list[tuple[tuple[int, int, int], str, PublicationRecord]] = []
    for record in corpus:
        if record.paper_id in seen:
            raise DuplicatePaperId(record.paper_id)
        seen.add(record.paper_id)
        ordered.append((record.sort_date(), record.paper_id, record))
        for a in first_authorships(record):
            rows[(record.paper_id, a.author_id)] = len(rows)
    ordered.sort(key=lambda t: (t[0], t[1]))
    # rows per author still to come; the last drops the author's history
    left = Counter(author_id for _, author_id in rows)
    # years of corpus papers citing each paper, and of each institution's
    # papers (one entry per paper); complete before the sweep
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
    # institution that has any
    rank_snapshots: dict[int, list[int]] = {}

    X = np.empty((len(rows), len(FEATURE_NAMES)))
    histories: defaultdict[str, _History] = defaultdict(_History)
    # papers dated before the current date group; with rows they give f3
    promoted: set[str] = set()
    for _, group in groupby(ordered, key=itemgetter(0)):
        group, promote = list(group), []
        for _, paper_id, record in group:
            refs, year = record.references, record.year
            names = frozenset(name for name, _ in record.concepts)
            prior_refs = refs & promoted
            ends = (0, len(record.authorships) - 1)
            if (snapshot := rank_snapshots.get(year)) is None:
                counts = (bisect_left(years, year) for years in institution_years.values())
                snapshot = sorted(c for c in counts if c > 0)
                rank_snapshots[year] = snapshot
            for a in first_authorships(record):
                h = histories[a.author_id]
                own = bisect_left(institution_years.get(a.institution_id, ()), year)
                X[rows[(paper_id, a.author_id)]] = (
                    len(refs & h.refs),
                    len(names & h.concepts),
                    sum((r, a.author_id) in rows for r in prior_refs),
                    (year - h.first_year) if h.count else 0,
                    h.count,
                    sum(n for y, n in h.cited_in.items() if y < year),
                    len(h.concepts),
                    h.first_or_last,
                    bisect_right(snapshot, own) / len(snapshot) if own else 0.0,
                )
                left[a.author_id] -= 1
                if left[a.author_id]:
                    promote.append((h, record, names, a.position in ends))
                else:
                    del histories[a.author_id]
        # promote the date group only now: same-day papers are not prior
        promoted.update(paper_id for _, paper_id, _ in group)
        for h, record, names, first_or_last in promote:
            if not h.count:
                h.first_year = record.year
            h.count += 1
            h.first_or_last += first_or_last
            h.refs |= record.references
            h.concepts |= names
            for y in citing_years.get(record.paper_id, ()):
                h.cited_in[y] = h.cited_in.get(y, 0) + 1
    X.flags.writeable = False
    # the paper and author ids as sorted pools, and int32 codes into them
    columns: list = []
    for i in (0, 1):
        pool = tuple(sorted({key[i] for key in rows}))
        code = {name: c for c, name in enumerate(pool)}
        columns += [pool, np.array([code[key[i]] for key in rows], np.int32)]
    return FeatureTable(*columns, X)
