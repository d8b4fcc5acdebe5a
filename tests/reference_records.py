"""A plain copy of the per-field corpus and contribution parsers and of the
dict-based corpus encoder: the reference that the property tests in
test_corpus.py hold `leadshare.records` to, record for record, error for
error and byte for byte.  Keep it self-contained: it shares the record
classes and errors with the package, and no code path."""

from __future__ import annotations

import datetime
import json
import re
import sys
from typing import Optional

from leadshare.errors import InvariantViolation, MalformedRecord
from leadshare.records import (
    SEPARATORS,
    AuthorshipRecord,
    ContributionRecord,
    PublicationRecord,
)


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
    """One line's JSON object.  A file read with errors="surrogateescape"
    turns a byte that is not UTF-8 into U+DC80-U+DCFF.  A \\u escape may
    decode to a lone surrogate, which no UTF-8 artifact can hold, so lines
    with one are checked field by field."""
    if not line.isascii() and (bad := re.search("[\udc80-\udcff]", line)):
        raise MalformedRecord(line_no, "<line>", f"not valid UTF-8 at column {bad.start() + 1}")
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
    paper_id = _require(obj, "paper_id", line_no)
    if not isinstance(paper_id, str) or not paper_id:
        raise MalformedRecord(line_no, "paper_id", "must be a non-empty string")
    _no_separators(paper_id, line_no, "paper_id")

    year = _require(obj, "year", line_no)
    if not isinstance(year, int) or isinstance(year, bool):
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
    return ContributionRecord(sys.intern(paper_id), sys.intern(author_id), tuple(verbs))
