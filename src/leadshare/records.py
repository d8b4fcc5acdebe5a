"""Publication records and the line-delimited input formats.

The corpus is JSON Lines: one publication object per line with the fields

    paper_id      str, once per corpus
    year          int, 1500 to 9999
    pub_date      "YYYY-MM-DD" or null; may be missing
    journal_id    str
    impact_factor finite float >= 0
    concepts      [{"name": str, "level": int >= 0}, ...]
    references    [str, ...]
    authorships   [{"author_id": str, "position": int, "country": str,
                    "institution_id": str, may be missing}, ...]

Contribution statements use the same framing with fields paper_id,
author_id (that pair once per file), verbs[].  Either format ignores
other keys.  Every string must be valid Unicode: a `\\u` escape may not
decode to a lone surrogate.

The stages pass their results to each other as line-based artifacts:
`write_tsv` writes every one of them, and `read_tsv` reads a tab-separated
one back, checking its header and column count and naming the file and
line of any cell that does not parse.  The stages that read a corpus hold
it as a `CorpusTable`, coded columns folded in record by record.
"""

from __future__ import annotations

import datetime
import json
import os
import re
import sys
from array import array
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

import numpy as np

from .errors import InvariantViolation, MalformedRecord, RecordError

# Sort key for papers without an explicit date: mid-year keeps them
# comparable against dated papers in the same year.
MISSING_DATE_MONTH_DAY = (7, 1)

# ids and countries end up in TSV columns and packed tag fields, so they
# must not contain the characters that separate those
SEPARATORS = ("\t", "\n", ";", "|", "=")


def _may_hold_separator(line: str) -> bool:
    """Whether a string decoded from a JSON line may hold a separator: a
    JSON string holds no raw control character, so only if the line holds
    ;, | or = or a \\ escape (a regex search is ten times slower)."""
    return ";" in line or "|" in line or "=" in line or "\\" in line


@dataclass(frozen=True, slots=True)
class AuthorshipRecord:
    author_id: str
    position: int
    country: str
    institution_id: str


@dataclass(frozen=True, slots=True)
class PublicationRecord:
    paper_id: str
    year: int
    pub_date: Optional[datetime.date]
    journal_id: str
    impact_factor: float
    concepts: frozenset[tuple[str, int]]
    references: frozenset[str]
    authorships: tuple[AuthorshipRecord, ...]

    def sort_date(self) -> tuple[int, int, int]:
        """Chronological key; missing dates sort as July 1 of their year."""
        if self.pub_date is not None:
            return (self.pub_date.year, self.pub_date.month, self.pub_date.day)
        return (self.year,) + MISSING_DATE_MONTH_DAY


def _require(obj: dict, key: str, line_no: int):
    if key not in obj:
        raise MalformedRecord(line_no, key, "missing field")
    return obj[key]


def _no_separators(value: str, line_no: int, field: str) -> None:
    for sep in SEPARATORS:
        if sep in value:
            raise MalformedRecord(
                line_no, field, f"{value!r} contains the separator {sep!r}"
            )


_scan_json = json.JSONDecoder().scan_once


def _json_object(line: str, line_no: int) -> dict:
    """One line's JSON object.  A file read with errors="surrogateescape"
    turns a byte that is not UTF-8 into U+DC80-U+DCFF.  A \\u escape may
    decode to a lone surrogate, which no UTF-8 artifact can hold, so lines
    with one are checked field by field."""
    if not line.isascii() and (bad := re.search("[\udc80-\udcff]", line)):
        raise MalformedRecord(line_no, "<line>", f"not valid UTF-8 at column {bad.start() + 1}")
    try:  # the scanner json.loads calls, without its Python-level wrappers
        obj, end = _scan_json(line, 0)
        if line[end:].strip(" \t\n\r"):  # not one value and JSON whitespace
            raise ValueError
    except (StopIteration, ValueError):
        try:  # for the same result or message as json.loads
            obj = json.loads(line)
        except ValueError as exc:  # also an integer too long to convert
            raise MalformedRecord(line_no, "<line>", f"invalid JSON: {exc}")
    if type(obj) is not dict:
        raise MalformedRecord(line_no, "<line>", "record is not an object")
    for key, value in obj.items() if "\\u" in line else ():
        try:
            json.dumps((key, value), ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            field = key if key.isascii() else "<line>"
            raise MalformedRecord(line_no, field, "not valid Unicode") from None
    return obj


def _parse_date(raw, line_no: int) -> Optional[datetime.date]:
    if raw is None:
        return None
    try:
        # YYYY-MM-DD only: from Python 3.11 on fromisoformat takes other ISO forms
        if not re.fullmatch("[0-9]{4}-[0-9]{2}-[0-9]{2}", raw):
            raise ValueError
        return datetime.date.fromisoformat(raw)
    except (TypeError, ValueError):
        raise MalformedRecord(line_no, "pub_date", f"not an ISO date: {raw!r}")


def parse_publication_line(line: str, line_no: int = 0) -> PublicationRecord:
    """Parse one corpus line into a validated PublicationRecord.

    Raises MalformedRecord for syntax problems and InvariantViolation for
    well-formed records that break a domain invariant; both carry the line
    number and offending field.
    """
    obj = _json_object(line, line_no)
    check_separators = _may_hold_separator(line)
    # json.loads makes values of exact types, so type() is the isinstance
    # test, and a bool is no int
    paper_id = _require(obj, "paper_id", line_no)
    if type(paper_id) is not str or not paper_id:
        raise MalformedRecord(line_no, "paper_id", "must be a non-empty string")
    if check_separators:
        _no_separators(paper_id, line_no, "paper_id")

    year = _require(obj, "year", line_no)
    if type(year) is not int:
        raise MalformedRecord(line_no, "year", "must be an integer")
    if year < 1500:
        raise InvariantViolation(line_no, "year", f"year {year} < 1500")
    if year > 9999:  # a four-digit year, as every date has
        raise InvariantViolation(line_no, "year", f"year {year} > 9999")

    pub_date = _parse_date(obj.get("pub_date"), line_no)
    if pub_date is not None and pub_date.year != year:
        raise InvariantViolation(
            line_no, "pub_date", f"date year {pub_date.year} != year {year}"
        )

    journal_id = _require(obj, "journal_id", line_no)
    if type(journal_id) is not str:
        raise MalformedRecord(line_no, "journal_id", "must be a string")

    impact_factor = _require(obj, "impact_factor", line_no)
    if type(impact_factor) is not float and type(impact_factor) is not int:
        raise MalformedRecord(line_no, "impact_factor", "must be a number")
    # NaN fails every comparison, and JSON has no NaN or Infinity
    if not 0 <= impact_factor <= sys.float_info.max:
        raise InvariantViolation(line_no, "impact_factor", "must be finite and non-negative")
    impact_factor = float(impact_factor)

    raw_concepts = _require(obj, "concepts", line_no)
    if type(raw_concepts) is not list:
        raise MalformedRecord(line_no, "concepts", "must be a list")
    concepts = set()
    for c in raw_concepts:
        if type(c) is not dict or "name" not in c or "level" not in c:
            raise MalformedRecord(line_no, "concepts", "entries need name and level")
        name, level = c["name"], c["level"]
        if type(name) is not str or not name:
            raise MalformedRecord(line_no, "concepts", "name must be a non-empty string")
        if type(level) is not int or level < 0:
            raise InvariantViolation(line_no, "concepts", f"bad level {level!r}")
        concepts.add((sys.intern(name), level))

    raw_refs = _require(obj, "references", line_no)
    if type(raw_refs) is not list or not all([type(r) is str for r in raw_refs]):
        raise MalformedRecord(line_no, "references", "must be a list of strings")
    references = frozenset(set(map(sys.intern, raw_refs)))  # sized once, from a set
    if paper_id in references:
        raise InvariantViolation(line_no, "references", "paper cites itself")

    raw_auth = _require(obj, "authorships", line_no)
    if type(raw_auth) is not list:
        raise MalformedRecord(line_no, "authorships", "must be a list")
    if not raw_auth:
        raise InvariantViolation(line_no, "authorships", "must be non-empty")
    # each entry goes to the slot its position names: all slots are filled
    # iff the positions are 0..n-1
    authorships = [None] * len(raw_auth)
    for a in raw_auth:
        if type(a) is not dict:
            raise MalformedRecord(line_no, "authorships", "entries must be objects")
        try:
            author_id, position, country = a["author_id"], a["position"], a["country"]
        except KeyError as exc:
            raise MalformedRecord(line_no, "authorships", f"missing {exc.args[0]}")
        if type(author_id) is not str or not author_id:
            raise InvariantViolation(line_no, "authorships", "empty author_id")
        if type(country) is not str or not country.strip():
            raise InvariantViolation(line_no, "authorships", "empty country")
        if type(position) is not int:
            raise MalformedRecord(line_no, "authorships", "position must be an integer")
        institution_id = a.get("institution_id", "")
        if type(institution_id) is not str:
            raise MalformedRecord(line_no, "authorships", "institution_id must be a string")
        if check_separators:
            _no_separators(author_id, line_no, "author_id")
            _no_separators(country, line_no, "country")
        if 0 <= position < len(authorships):
            # one copy of each repeated string for the whole corpus
            authorships[position] = AuthorshipRecord(
                sys.intern(author_id), position, sys.intern(country), sys.intern(institution_id)
            )
    if not all(authorships):
        positions = sorted(a["position"] for a in raw_auth)
        raise InvariantViolation(
            line_no, "authorships", f"positions {positions} are not 0..{len(authorships) - 1}"
        )

    # ids interned: the corpus, its references and the labels share one copy
    return PublicationRecord(
        paper_id=sys.intern(paper_id),
        year=year,
        pub_date=pub_date,
        journal_id=journal_id,
        impact_factor=impact_factor,
        concepts=frozenset(concepts),
        references=references,
        authorships=tuple(authorships),
    )


def _read_lines(parse, lines: Iterable[str], source: Optional[str], *key: str) -> Iterator:
    key_of, field, first_line = attrgetter(*key), ", ".join(key), {}
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = parse(line, line_no)
            first = first_line.setdefault(k := key_of(record), line_no)
            if first != line_no:
                raise InvariantViolation(line_no, field, f"{k!r} repeats line {first}")
        except RecordError as exc:
            exc.source = source
            raise
        yield record


class FieldError(ValueError):
    """A cell that does not parse, naming its field."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def decode_utf8(raw: bytes, source: str) -> str:
    """raw as UTF-8 text; a byte that is not UTF-8 raises MalformedRecord
    naming source and the byte's line and column."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = raw.rfind(b"\n", 0, exc.start) + 1  # the bad byte's line starts here
        message = f"not valid UTF-8 at column {len(raw[start:exc.start].decode()) + 1}"
        raise MalformedRecord(raw.count(b"\n", 0, start) + 1, "<line>", message, source) from None


T = TypeVar("T")


def read_tsv(
    path: Path, header: Optional[str], parse: Callable[[list[str]], T],
    columns: int = 0,
) -> T:
    """A TSV artifact, handed to parse as its lines after the header.

    The first line must equal header; with header None the file has no
    header line and `columns` columns.  The first line with another number
    of columns, or else the first line on which parse raises ValueError,
    raises MalformedRecord naming the file and line; parse names the field
    by raising FieldError.  A RecordError that parse raises gets the file;
    so does a byte that is not UTF-8, with its line and column.
    """
    source = str(path)
    # no newline translation: a "\r" in a cell reads back as write_tsv wrote it
    lines = decode_utf8(Path(path).read_bytes(), source).split("\n")
    if lines[-1] == "":
        lines.pop()
    first = 1
    if header is not None:
        if not lines or lines[0] != header:
            raise MalformedRecord(1, "header", f"expected {header!r}", source)
        del lines[0]
        first = 2
        columns = header.count("\t") + 1
    for line_no, line in enumerate(lines, start=first):
        got = line.count("\t") + 1
        if got != columns:
            raise MalformedRecord(
                line_no, "<line>", f"expected {columns} columns, got {got}", source
            )
    try:
        return parse(lines)
    except RecordError as exc:
        exc.source = source
        raise
    except ValueError:
        # line by line, to name the first line that does not parse
        for line_no, line in enumerate(lines, start=first):
            try:
                parse([line])
            except ValueError as exc:
                field = getattr(exc, "field", "<line>")
                raise MalformedRecord(line_no, field, str(exc), source) from None
        raise


def tsv_rows(lines: Iterable[str]) -> Iterator[list[str]]:
    """The cells of each line."""
    return map(str.split, lines, repeat("\t"))


def parse_cell(field: str, parse: Callable, *args):
    """parse(*args); a ValueError, or an OverflowError from a number too
    large for its column, raises FieldError naming field."""
    try:
        return parse(*args)
    except (ValueError, OverflowError) as exc:
        raise FieldError(field, str(exc)) from None


def chunks(n: int, size: int = 8192) -> Iterator[slice]:
    """n rows as slices of at most size rows, for writers that convert a
    chunk of each column to Python values at a time."""
    return (slice(start, start + size) for start in range(0, n, size))


def check_unique(keys: list, field: str, first: int = 2) -> None:
    """A key of keys, the first on line `first` (line 1 is the header, if
    any), that repeats raises InvariantViolation at its line, naming the
    earlier one; the keys are walked line by line only if one repeats."""
    if len(set(keys)) < len(keys):
        first_line: dict = {}
        for line_no, key in enumerate(keys, start=first):
            if (earlier := first_line.setdefault(key, line_no)) != line_no:
                raise InvariantViolation(line_no, field, f"{key!r} repeats line {earlier}")


def check_unique_pairs(firsts: Sequence[str], first: np.ndarray,
                       seconds: Sequence[str], second: np.ndarray, field: str) -> None:
    """check_unique of the pairs (firsts[first[i]], seconds[second[i]]),
    tested on the codes; the pairs of strings only name a repeat's line."""
    key = first.astype(np.int64, copy=False) * len(seconds) + second
    if sorted_distinct(key).size < len(first):
        check_unique(list(zip(map(firsts.__getitem__, first.tolist()),
                              map(seconds.__getitem__, second.tolist()))), field)


def code_keys(keys: Iterable[Sequence[str]]) -> tuple:
    """(paper_id, author_id) pairs as two sorted pools of their distinct
    strings and, per pair, int32 codes into each pool: check_unique_pairs'
    first four arguments."""
    firsts, seconds, first, second = {}, {}, array("i"), array("i")
    for a, b in keys:
        first.append(firsts.setdefault(a, len(firsts)))
        second.append(seconds.setdefault(b, len(seconds)))
    return (*_sorted_pool(firsts, first), *_sorted_pool(seconds, second))


TEMP_SUFFIX = ".tmp"  # write_tsv writes a file at its name plus this, then renames it


def write_tsv(path: Path, header: Optional[str], lines: Iterable[str]) -> None:
    """Write any line-based artifact: header (unless None), then each line
    and "\\n", to its temp file, which replaces path once complete; if
    anything raises first, path keeps its old bytes and no temp remains."""
    tmp = Path(f"{path}{TEMP_SUFFIX}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            if header is not None:
                fh.write(header + "\n")
            fh.writelines(line + "\n" for line in lines)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_corpus(
    lines: Iterable[str], source: Optional[str] = None
) -> Iterator[PublicationRecord]:
    """Parse a corpus stream, skipping blank lines; errors name source."""
    yield from _read_lines(parse_publication_line, lines, source, "paper_id")


def publication_to_json(record: PublicationRecord) -> str:
    """Serialize one record to its canonical corpus line (sorted, compact).

    Canonical form: concepts and references sorted, authorships by position,
    so equal records serialize to equal bytes.
    """
    # as json.dumps(separators=(",", ":"), ensure_ascii=False), whose string encoder q is
    q = encode_basestring
    concepts = ",".join([f'{{"name":{q(n)},"level":{l}}}' for n, l in sorted(record.concepts)])
    authorships = ",".join([
        f'{{"author_id":{q(a.author_id)},"position":{a.position},"country":{q(a.country)},'
        f'"institution_id":{q(a.institution_id)}}}' for a in record.authorships])
    date = f'"{record.pub_date.isoformat()}"' if record.pub_date else "null"
    return (f'{{"paper_id":{q(record.paper_id)},"year":{record.year},"pub_date":{date},'
            f'"journal_id":{q(record.journal_id)},"impact_factor":{record.impact_factor},'
            f'"concepts":[{concepts}],"references":[{",".join(map(q, sorted(record.references)))}],'
            f'"authorships":[{authorships}]}}')


@dataclass(frozen=True, slots=True)
class ContributionRecord:
    """Pre-tokenized contribution statement for one author on one paper."""

    paper_id: str
    author_id: str
    verbs: tuple[str, ...]


def parse_contribution_line(line: str, line_no: int = 0) -> ContributionRecord:
    obj = _json_object(line, line_no)
    check_separators = _may_hold_separator(line)
    paper_id = _require(obj, "paper_id", line_no)
    author_id = _require(obj, "author_id", line_no)
    for field_name, value in (("paper_id", paper_id), ("author_id", author_id)):
        if type(value) is not str or not value:
            raise MalformedRecord(line_no, field_name, "must be a non-empty string")
        if check_separators:
            _no_separators(value, line_no, field_name)
    verbs = _require(obj, "verbs", line_no)
    if type(verbs) is not list or not all([type(v) is str for v in verbs]):
        raise MalformedRecord(line_no, "verbs", "must be a list of strings")
    if not verbs:
        raise InvariantViolation(line_no, "verbs", "must be non-empty")
    return ContributionRecord(sys.intern(paper_id), sys.intern(author_id), tuple(verbs))


def read_contributions(
    lines: Iterable[str], source: Optional[str] = None
) -> Iterator[ContributionRecord]:
    yield from _read_lines(parse_contribution_line, lines, source, "paper_id", "author_id")


def write_corpus(lines: Iterable[str], path: Path) -> None:
    """Write corpus lines, publication_to_json's, to path."""
    write_tsv(path, None, lines)


# the string pools of a CorpusTable, each with the columns that code into it
_POOLS = {
    "ids": ("paper", "ref"), "authors": ("author",), "countries": ("country",),
    "institutions": ("institution",), "concepts": ("concept",),
}
# the CSR offsets of a CorpusTable, each with the columns it slices
_SEGMENTS = {
    "auth_start": ("author", "country", "institution", "first"),
    "ref_start": ("ref",), "concept_start": ("concept", "level0"),
}


def csr_entries(start: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry of each row of CSR offsets start, rows in turn: the
    entry's index into rows and its own index."""
    lengths = start[rows + 1] - start[rows]
    owner = np.repeat(np.arange(len(rows)), lengths)
    index = np.repeat(start[rows] - np.cumsum(lengths) + lengths, lengths)
    index += np.arange(len(index))
    return owner, index


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values) of a 1-D int array by sorting; numpy 2's np.unique hashes."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _sorted_pool(pool: dict[str, int], *columns: array) -> tuple:
    """pool's strings in sorted order, then each column of codes into pool
    recoded into them."""
    names = sorted(pool)
    rank = np.empty(len(names), np.int32)
    rank[np.fromiter(map(pool.__getitem__, names), np.int64, len(names))] = np.arange(len(names))
    return (tuple(names), *(rank[np.frombuffer(c, np.int32)] for c in columns))


class CorpusTable:
    """The corpus as numpy columns, one row per paper, in input order.

    Each distinct string is stored once, in sorted tuples: `ids` (paper
    ids and references), `authors`, `countries`, `institutions` and
    `concepts` (names).  int32 columns code into them, so code order is
    string order.  Per paper: `paper` (its id), `date` (its sort date as
    yyyymmdd, July 1 when undated), `year` and `impact`.  Authorships,
    references and concepts are CSR arrays: paper i's authorships are
    entries `auth_start[i]:auth_start[i + 1]` of `author`, `country`,
    `institution` and `first` (the author's first authorship on the
    paper), an entry's index being its position; its sorted references are
    those of `ref` under `ref_start`, and its sorted (name, level) concepts
    those of `concept` and `level0` (level 0) under `concept_start`.
    """

    def __init__(self, records: Iterable[PublicationRecord] = ()):
        ids, authors, countries, institutions, concepts = ({} for _ in _POOLS)
        paper, author, country, institution, ref, concept = (array("i") for _ in range(6))
        date, year, impact = array("q"), array("q"), array("d")
        first, level0 = array("b"), array("b")
        starts = auth_start, ref_start, concept_start = tuple(array("q", [0]) for _ in _SEGMENTS)
        for r in records:
            paper.append(ids.setdefault(r.paper_id, len(ids)))
            y, m, d = r.sort_date()
            date.append(y * 10_000 + m * 100 + d)
            year.append(r.year)
            impact.append(r.impact_factor)
            seen: dict[str, int] = {}
            for i, a in enumerate(r.authorships):
                author.append(authors.setdefault(a.author_id, len(authors)))
                country.append(countries.setdefault(a.country, len(countries)))
                institution.append(institutions.setdefault(a.institution_id, len(institutions)))
                first.append(seen.setdefault(a.author_id, i) == i)
            ref.extend([ids.setdefault(x, len(ids)) for x in sorted(r.references)])
            for name, level in sorted(r.concepts):
                concept.append(concepts.setdefault(name, len(concepts)))
                level0.append(level == 0)
            for start, column in zip(starts, (author, ref, concept)):
                start.append(len(column))
        self.ids, self.paper, self.ref = _sorted_pool(ids, paper, ref)
        self.authors, self.author = _sorted_pool(authors, author)
        self.countries, self.country = _sorted_pool(countries, country)
        self.institutions, self.institution = _sorted_pool(institutions, institution)
        self.concepts, self.concept = _sorted_pool(concepts, concept)
        self.first, self.level0 = np.frombuffer(first, bool), np.frombuffer(level0, bool)
        self.date, self.year = np.frombuffer(date, np.int64), np.frombuffer(year, np.int64)
        self.impact = np.frombuffer(impact, np.float64)
        for name, start in zip(_SEGMENTS, starts):
            setattr(self, name, np.frombuffer(start, np.int64))

    def __len__(self) -> int:
        return len(self.paper)

    def take(self, rows: np.ndarray) -> CorpusTable:
        """The table of the given rows, in their order: the table that
        their records make."""
        out = CorpusTable()
        for name in ("paper", "date", "year", "impact"):
            setattr(out, name, getattr(self, name)[rows])
        for name, columns in _SEGMENTS.items():
            owner, at = csr_entries(getattr(self, name), rows)
            setattr(out, name, np.searchsorted(owner, np.arange(len(rows) + 1)))
            for column in columns:
                setattr(out, column, getattr(self, column)[at])
        for pool, columns in _POOLS.items():
            codes = [getattr(out, column) for column in columns]
            used, inverse = np.unique(np.concatenate(codes), return_inverse=True)
            setattr(out, pool, tuple(map(getattr(self, pool).__getitem__, used.tolist())))
            ends = np.cumsum([len(c) for c in codes])[:-1]
            for column, part in zip(columns, np.split(inverse.astype(np.int32), ends)):
                setattr(out, column, part)
        return out
