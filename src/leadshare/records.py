"""Publication records and the line-delimited input formats.

The corpus is JSON Lines: one publication object per line with exactly the
fields

    paper_id      str, once per corpus
    year          int
    pub_date      "YYYY-MM-DD" or null
    journal_id    str
    impact_factor finite float >= 0
    concepts      [{"name": str, "level": int >= 0}, ...]
    references    [str, ...]
    authorships   [{"author_id": str, "position": int,
                    "country": str, "institution_id": str}, ...]

Contribution statements use the same framing with fields paper_id,
author_id (that pair once per file), verbs[].  Every string must be valid
Unicode: a `\\u` escape may not decode to a lone surrogate.

The stages pass their results to each other as line-based artifacts:
`write_tsv` writes every one of them, and `read_tsv` reads a tab-separated
one back, checking its header and column count and naming the file and
line of any cell that does not parse.
"""

from __future__ import annotations

import datetime
import json
import os
import sys
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Optional, TypeVar

from .errors import InvariantViolation, MalformedRecord, RecordError

# Sort key for papers without an explicit date: mid-year keeps them
# comparable against dated papers in the same year.
MISSING_DATE_MONTH_DAY = (7, 1)

# ids and countries end up in TSV columns and packed tag fields, so they
# must not contain the characters that separate those
SEPARATORS = ("\t", "\n", ";", "|", "=")


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

    def concept_names(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.concepts)

    def sort_date(self) -> tuple[int, int, int]:
        """Chronological key; missing dates sort as July 1 of their year."""
        if self.pub_date is not None:
            return (self.pub_date.year, self.pub_date.month, self.pub_date.day)
        return (self.year,) + MISSING_DATE_MONTH_DAY

    def first_authorships(self) -> list[AuthorshipRecord]:
        """Each author's first authorship, in position order."""
        firsts: dict[str, AuthorshipRecord] = {}
        for a in self.authorships:
            firsts.setdefault(a.author_id, a)
        return list(firsts.values())


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


def _json_object(line: str, line_no: int) -> dict:
    """One line's JSON object.  A \\u escape may decode to a lone
    surrogate, which no UTF-8 artifact can hold, so lines with one are
    checked field by field."""
    try:
        obj = json.loads(line)
    except ValueError as exc:  # also an integer too long to convert
        raise MalformedRecord(line_no, "<line>", f"invalid JSON: {exc}")
    if not isinstance(obj, dict):
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
    paper_id = _require(obj, "paper_id", line_no)
    if not isinstance(paper_id, str) or not paper_id:
        raise MalformedRecord(line_no, "paper_id", "must be a non-empty string")
    _no_separators(paper_id, line_no, "paper_id")

    year = _require(obj, "year", line_no)
    if not isinstance(year, int) or isinstance(year, bool):
        raise MalformedRecord(line_no, "year", "must be an integer")
    if year < 1500:
        raise InvariantViolation(line_no, "year", f"year {year} < 1500")

    pub_date = _parse_date(obj.get("pub_date"), line_no)
    if pub_date is not None and pub_date.year != year:
        raise InvariantViolation(
            line_no, "pub_date", f"date year {pub_date.year} != year {year}"
        )

    journal_id = _require(obj, "journal_id", line_no)
    if not isinstance(journal_id, str):
        raise MalformedRecord(line_no, "journal_id", "must be a string")

    impact_factor = _require(obj, "impact_factor", line_no)
    if not isinstance(impact_factor, (int, float)) or isinstance(impact_factor, bool):
        raise MalformedRecord(line_no, "impact_factor", "must be a number")
    # NaN fails every comparison, and JSON has no NaN or Infinity
    if not 0 <= impact_factor <= sys.float_info.max:
        raise InvariantViolation(line_no, "impact_factor", "must be finite and non-negative")
    impact_factor = float(impact_factor)

    raw_concepts = _require(obj, "concepts", line_no)
    if not isinstance(raw_concepts, list):
        raise MalformedRecord(line_no, "concepts", "must be a list")
    concepts = set()
    for c in raw_concepts:
        if not isinstance(c, dict) or "name" not in c or "level" not in c:
            raise MalformedRecord(line_no, "concepts", "entries need name and level")
        name, level = c["name"], c["level"]
        if not isinstance(name, str) or not name:
            raise MalformedRecord(line_no, "concepts", "name must be a non-empty string")
        if not isinstance(level, int) or isinstance(level, bool) or level < 0:
            raise InvariantViolation(line_no, "concepts", f"bad level {level!r}")
        concepts.add((sys.intern(name), level))

    raw_refs = _require(obj, "references", line_no)
    if not isinstance(raw_refs, list) or not all(isinstance(r, str) for r in raw_refs):
        raise MalformedRecord(line_no, "references", "must be a list of strings")
    references = frozenset(map(sys.intern, raw_refs))
    if paper_id in references:
        raise InvariantViolation(line_no, "references", "paper cites itself")

    raw_auth = _require(obj, "authorships", line_no)
    if not isinstance(raw_auth, list):
        raise MalformedRecord(line_no, "authorships", "must be a list")
    if not raw_auth:
        raise InvariantViolation(line_no, "authorships", "must be non-empty")
    authorships = []
    for a in raw_auth:
        if not isinstance(a, dict):
            raise MalformedRecord(line_no, "authorships", "entries must be objects")
        try:
            author_id, position, country = a["author_id"], a["position"], a["country"]
        except KeyError as exc:
            raise MalformedRecord(line_no, "authorships", f"missing {exc.args[0]}")
        if not isinstance(author_id, str) or not author_id:
            raise InvariantViolation(line_no, "authorships", "empty author_id")
        if not isinstance(country, str) or not country.strip():
            raise InvariantViolation(line_no, "authorships", "empty country")
        if not isinstance(position, int) or isinstance(position, bool):
            raise MalformedRecord(line_no, "authorships", "position must be an integer")
        institution_id = a.get("institution_id", "")
        if not isinstance(institution_id, str):
            raise MalformedRecord(line_no, "authorships", "institution_id must be a string")
        _no_separators(author_id, line_no, "author_id")
        _no_separators(country, line_no, "country")
        # one copy of each repeated string for the whole corpus
        authorships.append(AuthorshipRecord(
            sys.intern(author_id), position, sys.intern(country), sys.intern(institution_id)
        ))
    positions = sorted(a.position for a in authorships)
    if positions != list(range(len(authorships))):
        raise InvariantViolation(
            line_no, "authorships", f"positions {positions} are not 0..{len(authorships) - 1}"
        )
    authorships.sort(key=lambda a: a.position)

    return PublicationRecord(
        paper_id=paper_id,
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
    by raising FieldError.  A RecordError that parse raises gets the file.
    """
    source = str(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
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


def check_unique(keys: list, field: str, first: int = 2) -> dict:
    """Each key's index in keys, whose first key is on line `first` (line 1
    is the header, if any); a repeated key raises InvariantViolation at its
    line, naming the earlier one."""
    index = dict(zip(keys, range(len(keys))))
    if len(index) < len(keys):
        first_line: dict = {}
        for line_no, key in enumerate(keys, start=first):
            if (earlier := first_line.setdefault(key, line_no)) != line_no:
                raise InvariantViolation(line_no, field, f"{key!r} repeats line {earlier}")
    return index


def write_tsv(path: Path, header: Optional[str], lines: Iterable[str]) -> None:
    """Write any line-based artifact: header (unless None), then each line
    and "\\n", to `<name>.tmp`, which replaces path once complete; if
    anything raises first, path keeps its old bytes and no temp remains."""
    tmp = Path(f"{path}.tmp")
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
    obj = {
        "paper_id": record.paper_id,
        "year": record.year,
        "pub_date": record.pub_date.isoformat() if record.pub_date else None,
        "journal_id": record.journal_id,
        "impact_factor": record.impact_factor,
        "concepts": [
            {"name": n, "level": l} for n, l in sorted(record.concepts)
        ],
        "references": sorted(record.references),
        "authorships": [
            {
                "author_id": a.author_id,
                "position": a.position,
                "country": a.country,
                "institution_id": a.institution_id,
            }
            for a in record.authorships
        ],
    }
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


@dataclass(frozen=True)
class ContributionRecord:
    """Pre-tokenized contribution statement for one author on one paper."""

    paper_id: str
    author_id: str
    verbs: tuple[str, ...]


def parse_contribution_line(line: str, line_no: int = 0) -> ContributionRecord:
    obj = _json_object(line, line_no)
    paper_id = _require(obj, "paper_id", line_no)
    author_id = _require(obj, "author_id", line_no)
    for field_name, value in (("paper_id", paper_id), ("author_id", author_id)):
        if not isinstance(value, str) or not value:
            raise MalformedRecord(line_no, field_name, "must be a non-empty string")
        _no_separators(value, line_no, field_name)
    verbs = _require(obj, "verbs", line_no)
    if not isinstance(verbs, list) or not all(isinstance(v, str) for v in verbs):
        raise MalformedRecord(line_no, "verbs", "must be a list of strings")
    if not verbs:
        raise InvariantViolation(line_no, "verbs", "must be non-empty")
    return ContributionRecord(paper_id=paper_id, author_id=author_id, verbs=tuple(verbs))


def read_contributions(
    lines: Iterable[str], source: Optional[str] = None
) -> Iterator[ContributionRecord]:
    yield from _read_lines(parse_contribution_line, lines, source, "paper_id", "author_id")


def write_corpus(
    records: Iterable[PublicationRecord], path: Path,
    kept_path: Optional[Path] = None, kept_ids: Collection[str] = (),
) -> None:
    """Write records to path and, given kept_path, those whose paper_id is
    in kept_ids to kept_path, in order; each record is serialized once."""
    lines = [(r.paper_id, publication_to_json(r)) for r in records]
    write_tsv(path, None, (line for _, line in lines))
    if kept_path is not None:
        write_tsv(kept_path, None, (line for pid, line in lines if pid in kept_ids))
