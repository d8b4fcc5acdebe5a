"""Per-author temporal profiles and the nine lead-prediction features.

`build_profiles` computes them for every authorship at once, as sorts and
joins over the columns of a `CorpusTable`, into a `FeatureTable` of
columns with no object per row.  "Prior" means dated strictly
earlier than the focal paper, so same-day papers are not prior and
feature vectors are invariant to how same-day ties are ordered.  Papers
without a publication date sort at July 1.

Features, for author a on focal paper P:

  f1  focal references the author has cited before
  f2  focal concept names seen in the author's prior papers
  f3  focal references that are the author's own prior papers
  f4  focal year minus the author's first prior year (0 on debut), the
      first prior paper being the earliest by (sort date, paper id)
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

from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DuplicatePaperId
from .records import (
    CorpusTable, check_unique_pairs, chunks, code_keys, csr_entries, parse_cell, read_tsv,
    sorted_distinct, tsv_rows, write_tsv,
)


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


def _recode(pool: Sequence[str], codes: np.ndarray, into: Sequence[str]) -> np.ndarray:
    """codes into the sorted pool as codes into the sorted, non-empty pool
    `into`, -1 where it lacks the string: a binary search per distinct code."""
    used, inverse = np.unique(codes, return_inverse=True)
    strings = np.array([pool[c] for c in used.tolist()], dtype=object)
    into = np.array(into, dtype=object)
    at = np.minimum(np.searchsorted(into, strings), len(into) - 1)
    return np.where(into[at] == strings, at, -1)[inverse]


class FeatureTable(NamedTuple):
    """The features of every authorship as columns: row i of the read-only
    matrix `X` is author `authors[author[i]]` on paper `papers[paper[i]]`.
    The pools are sorted and the codes int32.  build_profiles fills the
    rows in corpus order, one per first authorship of each paper."""

    papers: tuple[str, ...]
    paper: np.ndarray
    authors: tuple[str, ...]
    author: np.ndarray
    X: np.ndarray

    def rows_of(self, papers: Sequence[str], paper: np.ndarray,
                authors: Sequence[str], author: np.ndarray) -> np.ndarray:
        """The row of each authorship (papers[paper[i]], authors[author[i]])
        of sorted pools, -1 where the table has none, by a sort-merge."""
        if not len(self.X):
            return np.full(len(paper), -1)
        n = len(self.authors)
        key = self.paper.astype(np.int64) * n + self.author
        p, a = _recode(papers, paper, self.papers), _recode(authors, author, self.authors)
        want = p * n + a
        order = np.argsort(key)
        at = order[np.minimum(np.searchsorted(key, want, sorter=order), len(key) - 1)]
        return np.where((p >= 0) & (a >= 0) & (key[at] == want), at, -1)


# rows (or, in build_profiles, whole authors' rows) handled at a time
_CHUNK_ROWS = 8192


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """For rows sorted by columns, the index of the first row of each
    row's run of equal values."""
    new = np.zeros(len(columns[0]), dtype=bool)
    new[:1] = True
    for column in columns:
        new[1:] |= column[1:] != column[:-1]
    return np.maximum.accumulate(np.where(new, np.arange(len(new)), 0))


def _had_before(author: np.ndarray, day: np.ndarray, owner: np.ndarray, item: np.ndarray,
                n_items: int, n_days: int) -> tuple[np.ndarray, np.ndarray]:
    """For rows sorted by (author, day) and the (owner row, item) entries
    of their papers: per row, how many of its items the author had on an
    earlier day, and how many distinct items the author had before."""
    key = author[owner] * n_items + item
    s = np.argsort(key, kind="stable")  # by (author, item), then day
    first = _run_starts(key[s])
    row = owner[s]
    when = day[row]
    earlier = when[first] < when
    # the day each distinct (author, item) first came, as author * n_days + day
    head = first == np.arange(len(first))
    firsts = np.sort(author[row[head]] * n_days + when[head])
    base = author * n_days
    return (
        np.bincount(row[earlier], minlength=len(author)),
        np.searchsorted(firsts, base + day) - np.searchsorted(firsts, base),
    )


def build_profiles(table: CorpusTable) -> FeatureTable:
    """The nine features of every authorship, one row per distinct author
    of a paper, in table order then author position.

    f4, f5 and f8 come from the author's rows sorted by (date, paper id);
    f1, f2 and f7 from the first date of each (author, reference) and
    (author, concept name); f3 from the references that are the author's
    own earlier papers; f6 from (author, cited-paper date, citing year)
    events, one pass per focal year.  Each chunk of whole authors is done
    in turn, so the temporaries stay small.
    """
    n = len(table)
    by_id = np.argsort(table.paper, kind="stable")
    if (repeats := by_id[1:][table.paper[by_id[1:]] == table.paper[by_id[:-1]]]).size:
        raise DuplicatePaperId(table.ids[table.paper[repeats.min()]])
    at = np.flatnonzero(table.first)  # each row's authorship
    paper = np.repeat(np.arange(n), np.diff(table.auth_start))[at]
    author = table.author[at].astype(np.int64)
    # each paper's date, as its index among the distinct dates
    day = np.searchsorted(sorted_distinct(table.date), table.date)
    n_days, n_authors = len(day) + 1, len(table.authors)  # n_days: more than any day
    paper_of = np.full(len(table.ids), -1)  # the paper of each id that is one
    paper_of[table.paper] = np.arange(n)
    # the years of the corpus papers citing each paper, as CSR
    citing, cited = np.repeat(np.arange(n), np.diff(table.ref_start)), paper_of[table.ref]
    by_cited = np.argsort(cited, kind="stable")[np.count_nonzero(cited < 0):]
    cite_start = np.searchsorted(cited[by_cited], np.arange(n + 1))
    cite_year = table.year[citing[by_cited]]
    # each paper's distinct concept names: a name at two levels counts once
    named = np.ones(len(table.concept), dtype=bool)
    named[1:] = table.concept[1:] != table.concept[:-1]
    named[table.concept_start[:-1][np.diff(table.concept_start) > 0]] = True
    name_start = np.concatenate(([0], np.cumsum(named)))[table.concept_start]
    names, counts = table.concept[named], np.diff(table.auth_start)

    def features(r: np.ndarray) -> np.ndarray:
        """f1-f8 of rows r: whole authors' rows, by (author, date, paper id)."""
        a, p = author[r], paper[r]
        d, year = day[p], table.year[p]
        out = np.empty((len(r), 8))
        # the rows before the first of the row's date are prior
        run, group = _run_starts(a), _run_starts(a, d)
        out[:, 4] = group - run
        position = at[r] - table.auth_start[p]
        before = np.concatenate(([0], np.cumsum((position == 0) | (position == counts[p] - 1))))
        out[:, 7] = before[group] - before[run]
        out[:, 3] = np.where(group > run, year - year[run], 0)
        owner, ref = csr_entries(table.ref_start, p)
        ref = table.ref[ref]
        out[:, 0] = _had_before(a, d, owner, ref, len(table.ids), n_days)[0]
        # f3: cited papers of an earlier date that have a row of the author
        cited = paper_of[ref]
        own = cited >= 0
        own[own] = day[cited[own]] < d[owner[own]]
        own[own] = np.isin(cited[own] * n_authors + a[owner[own]], p * n_authors + a, kind="sort")
        out[:, 2] = np.bincount(owner[own], minlength=len(r))
        owner, name = csr_entries(name_start, p)
        out[:, 1], out[:, 6] = _had_before(a, d, owner, names[name], len(table.concepts), n_days)
        # f6: the citations' (author, cited-paper date) keys come sorted
        owner, cite = csr_entries(cite_start, p)
        key, cite_year_of = (a * n_days + d)[owner], cite_year[cite]
        for focal in sorted_distinct(year).tolist():
            rows = np.flatnonzero(year == focal)
            known, base = key[cite_year_of < focal], a[rows] * n_days
            out[rows, 5] = np.searchsorted(known, base + d[rows]) - np.searchsorted(known, base)
        return out

    X = np.empty((len(at), len(FEATURE_NAMES)))
    rank = np.empty(n, dtype=np.int64)  # each paper's place in (date, paper id) order
    rank[np.lexsort((table.paper, table.date))] = np.arange(n)
    o = np.lexsort((rank[paper], author))
    cuts = sorted_distinct(np.append(_run_starts(author[o])[::_CHUNK_ROWS], len(o)))
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        X[o[lo:hi], :8] = features(o[lo:hi])
    X[:, 8] = _affiliation_ranks(table, at, paper)
    X.flags.writeable = False
    code = np.empty(n, dtype=np.int32)  # each paper's place in paper id order
    code[by_id] = np.arange(n)
    return FeatureTable(
        tuple(map(table.ids.__getitem__, table.paper[by_id].tolist())),
        code[paper], table.authors, table.author[at], X,
    )


def _affiliation_ranks(table: CorpusTable, at: np.ndarray, paper: np.ndarray) -> np.ndarray:
    """f9 of each row: among the institutions with corpus papers before
    the focal year, the share with at most as many as the row's own; one
    bincount per focal year."""
    owner = np.repeat(np.arange(len(table)), np.diff(table.auth_start))
    n_inst = len(table.institutions)
    pairs = sorted_distinct(owner * n_inst + table.institution)  # (paper, institution)
    inst, inst_year = pairs % n_inst, table.year[pairs // n_inst]
    if table.institutions[:1] == ("",):  # no institution
        inst, inst_year = inst[inst > 0], inst_year[inst > 0]
    year, own_inst = table.year[paper], table.institution[at]
    f9 = np.zeros(len(at))
    for focal in sorted_distinct(year).tolist():
        rows = np.flatnonzero(year == focal)
        counts = np.bincount(inst[inst_year < focal], minlength=n_inst)
        ranked, own = np.sort(counts[counts > 0]), counts[own_inst[rows]]
        rows, own = rows[own > 0], own[own > 0]
        f9[rows] = np.searchsorted(ranked, own, "right") / len(ranked)
    return f9


_FEATURES_HEADER = "paper_id\tauthor_id\t" + "\t".join(FEATURE_NAMES)
_FEATURES_ROW = "%s\t%s" + "\t%d" * 8 + "\t%.9f"


def write_features(table: FeatureTable, path: Path) -> None:
    """Write features.tsv, a chunk of rows at a time, f1-f8 from an int64
    copy of the chunk."""
    X = table.X
    write_tsv(path, _FEATURES_HEADER, (
        _FEATURES_ROW % (table.papers[p], table.authors[a], *counts, f9)
        for rows in chunks(len(X), _CHUNK_ROWS)
        for p, a, counts, f9 in zip(table.paper[rows].tolist(), table.author[rows].tolist(),
                                    X[rows, :8].astype(np.int64).tolist(), X[rows, 8].tolist())
    ))


def as_read_back(table: FeatureTable) -> FeatureTable:
    """The table read_features decodes from write_features' file of table:
    table itself, its f9 rounded in place to the 9 decimals written, so
    only for a table that nothing else holds."""
    X = table.X
    X.flags.writeable = True
    for rows in chunks(len(X), _CHUNK_ROWS):
        X[rows, 8] = [float(f"{v:.9f}") for v in X[rows, 8].tolist()]
    X.flags.writeable = False
    return table


def _feature_table(lines: list[str]) -> FeatureTable:
    def values(rows: Iterable[list[str]]) -> Iterator[float]:
        for cells in rows:
            yield from map(int, cells[2:10])
            yield float(cells[10])

    try:
        X = np.fromiter(values(tsv_rows(lines)), np.float64, len(lines) * len(FEATURE_NAMES))
    except (ValueError, OverflowError):  # name the first bad cell's field
        for cells in tsv_rows(lines):
            row = values([cells])
            for name in FEATURE_NAMES:
                parse_cell(name, lambda: float(next(row)))
        raise
    X = X.reshape(len(lines), len(FEATURE_NAMES))
    X.flags.writeable = False  # one decoded table may serve several stages
    keys = code_keys(line.split("\t", 2)[:2] for line in lines)
    check_unique_pairs(*keys, "paper_id, author_id")
    return FeatureTable(*keys, X)


def read_features(path: Path) -> FeatureTable:
    """features.tsv as one matrix; f1-f8 must parse as int, f9 as float,
    and each (paper_id, author_id) may appear once."""
    return read_tsv(path, _FEATURES_HEADER, _feature_table)
