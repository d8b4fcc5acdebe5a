"""A plain copy of the column-wise scored.tsv decoder and of the
string-coding ScoredTable it fed: the reference that the property tests in
test_leadmodel.py hold `leadshare.leadmodel.read_scored` to, table for table
and error for error.  Keep it self-contained: it shares the TSV reader, the
uniqueness check, the tags class and the errors with the package, and no
decoding path."""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from leadshare.metrics import PaperTags
from leadshare.records import FieldError, check_unique, read_tsv

SCORED_HEADER = "paper_id\tauthor_id\tregion\tyear\tlead_prob\tis_leader\ttags"
_TAG_KEYS = ("areas", "fields", "if_bin", "bri", "country")


def code_values(values: Sequence) -> tuple[tuple, np.ndarray]:
    """The distinct values in order of first appearance, and per value
    its index among them."""
    index = {v: i for i, v in enumerate(dict.fromkeys(values))}
    codes = np.fromiter(map(index.__getitem__, values), np.int64, len(values))
    return tuple(index), codes


class ScoredTable:
    """The scored rows as numpy columns, built from string columns."""

    def __init__(
        self, paper_ids: Sequence[str], author_ids: Sequence[str],
        regions: Sequence[str], year: np.ndarray, lead_prob: np.ndarray,
        is_leader: np.ndarray, tag: np.ndarray, tags: Sequence[PaperTags],
    ):
        self.papers, self.paper = code_values(paper_ids)
        self.authors, self.author = code_values(author_ids)
        names, codes = code_values(regions)
        self.regions = tuple(sorted(names))
        self.region = np.array([self.regions.index(n) for n in names], np.int64)[codes]
        self.year, self.lead_prob, self.is_leader = year, lead_prob, is_leader
        self.tag, self.tags = tag, tuple(tags)

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


def _parse_tags(text: str) -> PaperTags:
    items = dict(item.split("=", 1) for item in text.split(";") if "=" in item)
    for key in _TAG_KEYS:
        if key not in items:
            raise ValueError(f"missing tag {key!r}")
    return PaperTags(
        areas=frozenset(filter(None, items["areas"].split("|"))),
        fields=frozenset(filter(None, items["fields"].split("|"))),
        if_bin=int(items["if_bin"]),
        bri_class=items["bri"],
        country=items["country"],
    )


def _parse_column(field: str, parse: Callable, cells: Sequence[str]) -> list:
    try:
        return list(map(parse, cells))
    except ValueError as exc:
        raise FieldError(field, str(exc)) from None


def _scored_columns(lines: list[str]) -> tuple:
    cells = "\t".join(lines).split("\t") if lines else []
    paper_ids, author_ids, regions, years, probs, leaders, texts = (
        cells[j::7] for j in range(7)
    )
    bad = set(leaders) - {"true", "false"}
    if bad:
        raise FieldError("is_leader", f"expected true or false, got {min(bad)!r}")
    tag_texts, tag = code_values(texts)
    columns = (
        paper_ids, author_ids, regions,
        np.array(_parse_column("year", int, years), dtype=np.int64),
        np.array(_parse_column("lead_prob", float, probs), dtype=np.float64),
        np.array([v == "true" for v in leaders], dtype=bool),
        tag, _parse_column("tags", _parse_tags, tag_texts),
    )
    check_unique(list(zip(paper_ids, author_ids)), "paper_id, author_id")
    return columns


def read_scored(path: Path) -> ScoredTable:
    return ScoredTable(*read_tsv(path, SCORED_HEADER, _scored_columns))
