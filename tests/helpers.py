"""Shared builders and reference implementations for the test suite."""

from __future__ import annotations

import dataclasses
import datetime
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from leadshare.errors import InconsistentPair
from leadshare.features import FeatureTable, LeadFeatureVector
from leadshare.metrics import (
    BRI_FOCAL_REGION,
    COUNT_AUTHOR_PAPER,
    COUNT_UNIQUE_AUTHOR,
    FilterSpec,
    PairYearCounts,
    PaperTags,
    ScoredTable,
)
from leadshare.records import AuthorshipRecord, PublicationRecord
from leadshare.roles import LabelTable


def assert_same(got, want, where: str = "value") -> None:
    """got equals want in type and part by part: arrays in dtype and shape,
    sequences item by item, dataclasses field by field and other objects
    attribute by attribute."""
    assert type(got) is type(want), where
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want), where
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    elif hasattr(want, "__dict__"):
        assert vars(got).keys() == vars(want).keys(), where
        for name, value in vars(want).items():
            assert_same(getattr(got, name), value, f"{where}.{name}")
    else:
        assert got == want, where


def fit_inputs(examples) -> tuple[np.ndarray, np.ndarray]:
    """leadmodel.fit's feature matrix and lead values for a list of
    (feature vector, lead value) examples."""
    X = np.array([v for v, _ in examples], dtype=np.float64)
    return X, np.array([y for _, y in examples], dtype=np.float64)


def feature_keys(table: FeatureTable) -> list[tuple[str, str]]:
    """The (paper_id, author_id) of each row of a feature table, in row order."""
    return list(zip(map(table.papers.__getitem__, table.paper.tolist()),
                    map(table.authors.__getitem__, table.author.tolist())))


def feature_vector(table: FeatureTable, paper_id: str, author_id: str) -> LeadFeatureVector:
    """One authorship's row of a feature table, f1-f8 as int."""
    p, a = table.papers.index(paper_id), table.authors.index(author_id)
    (row,) = np.flatnonzero((table.paper == p) & (table.author == a))
    x = table.X[row].tolist()
    return LeadFeatureVector(*map(int, x[:8]), x[8])


def label_rows(labels: LabelTable) -> list[tuple[str, str, float]]:
    """Each label's (paper_id, author_id, lead_value), in label order."""
    return list(zip(map(labels.papers.__getitem__, labels.paper.tolist()),
                    map(labels.authors.__getitem__, labels.author.tolist()),
                    labels.lead_value.tolist()))


def make_record(
    paper_id: str,
    year: int,
    *,
    countries: Sequence[str] = ("China", "United States"),
    authors: Optional[Sequence[str]] = None,
    institutions: Optional[Sequence[str]] = None,
    date: Optional[str] = None,
    refs: Sequence[str] = (),
    concepts: Sequence[tuple[str, int]] = (),
    impact: float = 5.0,
    journal: str = "J1",
) -> PublicationRecord:
    """Build a record directly, one author per entry of countries."""
    if authors is None:
        authors = tuple(f"A{i + 1}" for i in range(len(countries)))
    if institutions is None:
        institutions = tuple(f"I{i + 1}" for i in range(len(authors)))
    authorships = tuple(
        AuthorshipRecord(
            author_id=a, position=i, country=countries[i], institution_id=institutions[i]
        )
        for i, a in enumerate(authors)
    )
    return PublicationRecord(
        paper_id=paper_id,
        year=year,
        pub_date=datetime.date.fromisoformat(date) if date else None,
        journal_id=journal,
        impact_factor=impact,
        concepts=frozenset(concepts),
        references=frozenset(refs),
        authorships=authorships,
    )


def oracle_features(
    corpus: Sequence[PublicationRecord], record: PublicationRecord, author_id: str
) -> tuple:
    """Recompute the nine features by full corpus scans per query.

    Structured nothing like the package's swept index: every quantity is
    re-derived from the raw record list.  Conventions under test: "prior"
    means sort_date strictly earlier than the focal paper's (ties are not
    prior), f6 and f9 look at corpus papers published in a strictly
    earlier calendar year, and f9 is the fraction of publishing
    institutions whose paper count is <= the focal institution's.
    """
    focal_key = record.sort_date()
    prior = [
        q
        for q in corpus
        if q.sort_date() < focal_key
        and any(a.author_id == author_id for a in q.authorships)
    ]
    prior_refs: set[str] = set()
    prior_ids: set[str] = set()
    prior_concepts: set[str] = set()
    f8 = 0
    for q in prior:
        prior_refs |= set(q.references)
        prior_ids.add(q.paper_id)
        prior_concepts |= {name for name, _ in q.concepts}
        pos = next(a.position for a in q.authorships if a.author_id == author_id)
        if pos == 0 or pos == len(q.authorships) - 1:
            f8 += 1

    f6 = 0
    for q in prior:
        for r in corpus:
            if r.year < record.year and q.paper_id in r.references:
                f6 += 1

    inst_counts: dict[str, int] = {}
    for r in corpus:
        if r.year >= record.year:
            continue
        for inst in {a.institution_id for a in r.authorships if a.institution_id}:
            inst_counts[inst] = inst_counts.get(inst, 0) + 1
    focal_auth = next(a for a in record.authorships if a.author_id == author_id)
    own = inst_counts.get(focal_auth.institution_id, 0)
    if own == 0 or not inst_counts:
        f9 = 0.0
    else:
        f9 = sum(1 for c in inst_counts.values() if c <= own) / len(inst_counts)

    focal_names = {name for name, _ in record.concepts}
    return (
        len(set(record.references) & prior_refs),
        len(focal_names & prior_concepts),
        len(set(record.references) & prior_ids),
        (record.year - min(q.year for q in prior)) if prior else 0,
        len(prior),
        f6,
        len(prior_concepts),
        f8,
        f9,
    )


@dataclass(frozen=True)
class ScoredAuthorship:
    """One classified author×paper observation with its paper's tags: a
    row of `ScoredTable`, the input form of `oracle_aggregate`."""

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


def scored_table(rows: Sequence[ScoredAuthorship]) -> ScoredTable:
    """The rows as the column table that `aggregate` counts, each id,
    region and tags coded in order of first appearance."""

    def coded(values) -> tuple[dict, list[int]]:
        index: dict = {}
        return index, [index.setdefault(v, len(index)) for v in values]

    def column(name: str, dtype) -> np.ndarray:
        return np.array([getattr(r, name) for r in rows], dtype=dtype)

    return ScoredTable(
        *coded(r.paper_id for r in rows), *coded(r.author_id for r in rows),
        *coded(r.region for r in rows), column("year", np.int64),
        column("lead_prob", np.float64), column("is_leader", bool),
        *coded(PaperTags(r.areas, r.fields, r.if_bin, r.bri_class, r.country) for r in rows),
    )


def oracle_aggregate(
    rows: Sequence[ScoredAuthorship],
    filters: Optional[FilterSpec] = None,
    *,
    counting_mode: str = COUNT_AUTHOR_PAPER,
) -> list[PairYearCounts]:
    """Row-at-a-time tally over paper runs, the reference for `aggregate`.

    A paper is a contiguous run of one paper_id; the filters read its
    first row.  Every row goes through Python sets and Counters, nothing
    is vectorized.
    """
    if filters is None:
        filters = FilterSpec()
    runs: list[list[ScoredAuthorship]] = []
    for row in rows:
        if runs and row.paper_id == runs[-1][0].paper_id:
            runs[-1].append(row)
        else:
            runs.append([row])
    threshold = filters.threshold
    leaders: dict[tuple[tuple[str, str], int], Counter] = {}
    supporters: dict[tuple[tuple[str, str], int], Counter] = {}
    seen: set[tuple] = set()

    for paper_rows in runs:
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
                filter_desc=filters.describe(),
            )
        )
    return out
