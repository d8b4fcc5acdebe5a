"""Record parsing, corpus filters, topic tagging, and the static tables."""

import copy
import gc
import datetime
import json
import math
import string
import tracemalloc
from typing import Iterator

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import reference_records
from helpers import assert_same, make_record
from synth import random_corpus
from leadshare.corpus import classify_topics, filter_corpus, impact_factor_bin
from leadshare.errors import (
    InvariantViolation,
    MalformedRecord,
    RecordError,
    TableIntegrityError,
    UnknownCountry,
)
from leadshare import records
from leadshare.records import (
    SEPARATORS,
    AuthorshipRecord,
    ContributionRecord,
    CorpusTable,
    PublicationRecord,
    parse_contribution_line,
    parse_publication_line,
    publication_to_json,
    read_contributions,
    read_corpus,
    read_tsv,
    write_tsv,
)
from leadshare.tables import (
    AREA_TAGS,
    FIELD_TAGS,
    GLOBAL_REGIONS,
    HIGH_INCOME,
    LOW_INCOME,
    NON_SIGNATORY,
    canonicalize_country,
    load_region_map,
)


def base_obj() -> dict:
    return {
        "paper_id": "P1",
        "year": 2015,
        "pub_date": "2015-03-02",
        "journal_id": "J1",
        "impact_factor": 3.5,
        "concepts": [{"name": "Biology", "level": 0}],
        "references": ["P0"],
        "authorships": [
            {"author_id": "A1", "position": 0, "country": "China", "institution_id": "I1"},
            {"author_id": "A2", "position": 1, "country": "United States", "institution_id": "I2"},
        ],
    }


def parse(obj: dict):
    return parse_publication_line(json.dumps(obj), 1)


def test_parse_valid_record():
    rec = parse(base_obj())
    assert rec.paper_id == "P1"
    assert rec.year == 2015
    assert rec.pub_date.isoformat() == "2015-03-02"
    assert rec.impact_factor == 3.5
    assert rec.concepts == frozenset({("Biology", 0)})
    assert rec.references == frozenset({"P0"})
    assert [a.author_id for a in rec.authorships] == ["A1", "A2"]


def test_parse_sorts_authorships_by_position():
    obj = base_obj()
    obj["authorships"] = list(reversed(obj["authorships"]))
    rec = parse(obj)
    assert [a.position for a in rec.authorships] == [0, 1]
    assert rec.authorships[0].author_id == "A1"


def test_serialization_round_trip():
    rec = parse(base_obj())
    again = parse_publication_line(publication_to_json(rec), 1)
    assert again == rec


def test_serialization_is_canonical():
    obj = base_obj()
    obj["references"] = ["P9", "P0", "P5"]
    obj["concepts"] = [
        {"name": "Zeta", "level": 2},
        {"name": "Biology", "level": 0},
    ]
    shuffled = dict(obj)
    shuffled["references"] = ["P0", "P5", "P9"]
    shuffled["concepts"] = list(reversed(obj["concepts"]))
    assert publication_to_json(parse(obj)) == publication_to_json(parse(shuffled))


@pytest.mark.parametrize("field", [
    "paper_id", "year", "pub_date", "journal_id", "impact_factor",
    "concepts", "references", "authorships",
])
def test_missing_field_rejected(field):
    obj = base_obj()
    del obj[field]
    if field == "pub_date":
        # pub_date is the one optional field
        parse(obj)
        return
    with pytest.raises(MalformedRecord) as exc:
        parse(obj)
    assert exc.value.line_no == 1


def test_invalid_json_rejected():
    with pytest.raises(MalformedRecord):
        parse_publication_line("{not json", 3)


@pytest.mark.parametrize("field,value,error", [
    ("paper_id", "", MalformedRecord),
    ("year", "2015", MalformedRecord),
    ("year", True, MalformedRecord),
    ("year", 1200, InvariantViolation),
    ("year", 10_000, InvariantViolation),
    ("pub_date", "2015-13-40", MalformedRecord),
    # forms of 2015-03-02 that Python 3.11's fromisoformat takes
    ("pub_date", "20150302", MalformedRecord),
    ("pub_date", "2015-W10-1", MalformedRecord),
    ("pub_date", "2016-03-02", InvariantViolation),  # year mismatch
    ("impact_factor", "high", MalformedRecord),
    ("impact_factor", -0.1, InvariantViolation),
    ("concepts", [{"name": "X"}], MalformedRecord),
    ("concepts", [{"name": "", "level": 0}], MalformedRecord),
    ("concepts", [{"name": "X", "level": -1}], InvariantViolation),
    ("references", ["P0", 7], MalformedRecord),
    ("references", ["P1"], InvariantViolation),  # self citation
    ("authorships", [], InvariantViolation),
])
def test_bad_field_values(field, value, error):
    obj = base_obj()
    obj[field] = value
    with pytest.raises(error):
        parse(obj)


def test_bad_positions_rejected():
    obj = base_obj()
    obj["authorships"][1]["position"] = 5
    with pytest.raises(InvariantViolation):
        parse(obj)
    obj = base_obj()
    obj["authorships"][1]["position"] = 0
    with pytest.raises(InvariantViolation):
        parse(obj)


@pytest.mark.parametrize("value", [None, 3, ["I1"]])
def test_institution_id_must_be_a_string(value):
    # a list would reach build-profiles and fail there unhashed
    obj = base_obj()
    obj["authorships"][1]["institution_id"] = value
    with pytest.raises(MalformedRecord, match="institution_id"):
        parse(obj)


def test_empty_author_or_country_rejected():
    obj = base_obj()
    obj["authorships"][0]["author_id"] = ""
    with pytest.raises(InvariantViolation):
        parse(obj)
    obj = base_obj()
    obj["authorships"][0]["country"] = "  "
    with pytest.raises(InvariantViolation):
        parse(obj)


@pytest.mark.parametrize("sep", SEPARATORS)
@pytest.mark.parametrize("field", ["paper_id", "author_id", "country"])
def test_separators_rejected_in_ids_and_countries(field, sep):
    obj = base_obj()
    if field == "paper_id":
        obj["paper_id"] = f"P{sep}1"
    else:
        obj["authorships"][1][field] = f"X{sep}Y"
    with pytest.raises(MalformedRecord) as exc:
        parse(obj)
    assert exc.value.field == field


@pytest.mark.parametrize("sep", SEPARATORS)
@pytest.mark.parametrize("field", ["paper_id", "author_id"])
def test_separators_rejected_in_contributions(field, sep):
    obj = {"paper_id": "P1", "author_id": "A1", "verbs": ["led"]}
    obj[field] = f"X{sep}Y"
    with pytest.raises(MalformedRecord) as exc:
        parse_contribution_line(json.dumps(obj), 2)
    assert (exc.value.field, exc.value.line_no) == (field, 2)


def test_read_tsv_returns_the_lines_write_tsv_wrote(tmp_path):
    # "\r" separates nothing, so an id may hold it; a stage run alone must
    # read such an id back from its upstream artifact as it was written
    path = tmp_path / "a.tsv"
    lines = ["A\r1\tP1", "A2\tP\r", "\r\tP3"]
    write_tsv(path, "author\tpaper", lines)
    assert read_tsv(path, "author\tpaper", list) == lines


def test_reader_errors_name_the_source():
    good = json.dumps(base_obj())
    with pytest.raises(MalformedRecord, match=r"^in\.jsonl: line 2, field"):
        list(read_corpus([good, "{bad"], source="in.jsonl"))
    with pytest.raises(MalformedRecord, match=r"^st\.jsonl: line 1, field 'verbs'"):
        list(read_contributions(['{"paper_id":"P1","author_id":"A1","verbs":"x"}'],
                                source="st.jsonl"))


def test_read_corpus_skips_blanks_and_numbers_lines():
    lines = [json.dumps(base_obj()), "", "   ", "{bad"]
    records = read_corpus(lines)
    assert next(records).paper_id == "P1"
    with pytest.raises(MalformedRecord) as exc:
        next(records)
    assert exc.value.line_no == 4


def test_readers_reject_a_repeated_key():
    paper = json.dumps(base_obj())
    with pytest.raises(
        InvariantViolation,
        match=r"^in\.jsonl: line 3, field 'paper_id': 'P1' repeats line 1$",
    ):
        list(read_corpus([paper, "", paper], source="in.jsonl"))
    statement = '{"paper_id":"P1","author_id":"A1","verbs":["led"]}'
    # the same author on another paper, and another author on the same
    # paper, are no repeat
    others = [statement.replace("P1", "P2"), statement.replace("A1", "A2")]
    assert len(list(read_contributions([statement, *others]))) == 3
    with pytest.raises(
        InvariantViolation,
        match=r"^st\.jsonl: line 4, field 'paper_id, author_id': "
        r"\('P1', 'A1'\) repeats line 1$",
    ):
        list(read_contributions([statement, *others, statement], source="st.jsonl"))


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400])
def test_non_finite_impact_factor_rejected(number):
    # NaN would pass the "< 0" check and the impact filter, and land in the
    # top impact-factor bin
    line = json.dumps(base_obj()).replace('"impact_factor": 3.5', f'"impact_factor": {number}')
    with pytest.raises(InvariantViolation) as info:
        parse_publication_line(line, 4)
    assert (info.value.line_no, info.value.field) == (4, "impact_factor")


def test_lone_surrogate_rejected_where_it_is_parsed():
    # a lone surrogate cannot be written to a UTF-8 artifact
    obj = base_obj()
    obj["journal_id"] = "J\ud800x"
    with pytest.raises(MalformedRecord) as info:
        parse(obj)
    assert info.value.field == "journal_id"
    obj["journal_id"] = "J\u00e9\U0001f600"  # escaped, but valid
    assert parse(obj).journal_id == "J\u00e9\U0001f600"
    with pytest.raises(MalformedRecord) as info:
        parse_contribution_line('{"paper_id":"P1","author_id":"A1","verbs":["l\\udfffd"]}', 5)
    assert (info.value.line_no, info.value.field) == (5, "verbs")


def test_parse_contribution_line():
    rec = parse_contribution_line(
        '{"paper_id":"P1","author_id":"A1","verbs":["led","helped"]}', 1
    )
    assert rec.verbs == ("led", "helped")
    with pytest.raises(InvariantViolation):
        parse_contribution_line('{"paper_id":"P1","author_id":"A1","verbs":[]}', 1)
    with pytest.raises(MalformedRecord):
        parse_contribution_line('{"paper_id":"P1","author_id":"A1","verbs":"led"}', 1)


_ident = st.text(alphabet=string.ascii_letters + string.digits + "_-", min_size=1, max_size=8)


@st.composite
def publication_records(draw):
    year = draw(st.integers(min_value=1500, max_value=2100))
    dated = draw(st.booleans())
    date = None
    if dated:
        month = draw(st.integers(1, 12))
        day = draw(st.integers(1, 28))
        date = f"{year:04d}-{month:02d}-{day:02d}"
    paper_id = draw(_ident)
    refs = draw(st.lists(_ident, max_size=4))
    concepts = draw(
        st.lists(st.tuples(_ident, st.integers(0, 3)), max_size=4)
    )
    n_authors = draw(st.integers(1, 4))
    authors = [f"A{i}{draw(_ident)}" for i in range(n_authors)]
    return make_record(
        paper_id,
        year,
        countries=tuple(draw(_ident) for _ in range(n_authors)),
        authors=tuple(authors),
        institutions=tuple(draw(st.sampled_from(["", "I1", "I2"])) for _ in range(n_authors)),
        date=date,
        refs=tuple(r for r in refs if r != paper_id),
        concepts=tuple(concepts),
        impact=draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
    )


@settings(max_examples=60)
@given(publication_records())
def test_round_trip_property(rec):
    assert parse_publication_line(publication_to_json(rec), 1) == rec


_text = st.text(st.characters(exclude_characters="".join(SEPARATORS)), min_size=1, max_size=5)
# values an accepted record must keep exactly or ingest must reject: a lone
# surrogate, which json.dumps escapes, and numbers that are not finite
_odd_text = _text | st.sampled_from(["J\ud800x", "\udfff"])
_odd_number = st.one_of(
    st.floats(min_value=0.0), st.integers(0, 10**6),
    st.sampled_from([math.nan, -math.inf, 10**400]),
)


@st.composite
def corpus_objects(draw):
    """A raw corpus object that ingest may or may not accept."""
    year = draw(st.integers(1500, 2100))
    month_day = st.tuples(st.integers(1, 12), st.integers(1, 28))
    n = draw(st.integers(1, 3))
    return {
        "paper_id": draw(_text),
        "year": year,
        "pub_date": draw(st.none() | month_day.map(lambda md: f"{year}-{md[0]:02d}-{md[1]:02d}")),
        "journal_id": draw(_odd_text),
        "impact_factor": draw(_odd_number),
        "concepts": draw(st.lists(st.fixed_dictionaries(
            {"name": _text, "level": st.integers(0, 3)}
        ), max_size=3)),
        "references": draw(st.lists(_text, max_size=3)),
        "authorships": [
            {"author_id": draw(_text), "position": position,
             "country": draw(_text.filter(str.strip)), "institution_id": draw(_text)}
            for position in draw(st.permutations(range(n)))
        ],
    }


@settings(max_examples=200)
@given(corpus_objects())
def test_ingest_rejects_or_keeps_each_record_exactly(obj):
    # ingest hands its records to later stages in place of the lines it
    # writes, so an accepted record must equal what its UTF-8 line decodes to
    try:
        record = parse_publication_line(json.dumps(obj), 1)
    except RecordError:
        event("rejected")
        return
    line = publication_to_json(record).encode("utf-8").decode("utf-8")
    assert parse_publication_line(line, 1) == record


# -- decode and encode against the per-field reference -----------------------


def outcome(parse, line: str):
    """The record parse makes of line, or its error as (class, line,
    field, message)."""
    try:
        return parse(line, 7)
    except RecordError as exc:
        return (type(exc), exc.line_no, exc.field, str(exc))


@pytest.mark.parametrize("legal", ["", ";|=\\"], ids=["plain", "escaped"])
def test_extra_keys_and_optional_fields_are_accepted(legal):
    # with legal separators and a \ escape in the line, its ids are checked
    # for separators too
    obj = base_obj()
    del obj["pub_date"], obj["authorships"][0]["institution_id"]
    obj["extra"], obj["authorships"][1]["note"] = 1, [{"x": None}]
    obj["journal_id"] += legal
    line = json.dumps(obj)
    assert records._may_hold_separator(line) == bool(legal)
    rec = parse_publication_line(line, 1)
    assert (rec.pub_date, rec.authorships[0].institution_id) == (None, "")
    assert rec == reference_records.parse_publication_line(line, 1)
    statement = json.dumps({"paper_id": "P1", "author_id": "A", "verbs": ["led" + legal], "extra": 1})
    assert parse_contribution_line(statement, 1) == ContributionRecord("P1", "A", ("led" + legal,))


_ids = st.text(alphabet=string.ascii_letters + string.digits + "_-", min_size=1, max_size=6)
# a value of each JSON type, for a field that expects another
_JSON_VALUES = [None, True, 0, 1.5, "x", [], ["x"], [1], {}, {"name": "x", "level": 0}]
_MISSING, _OWN_ID = object(), object()
# (path into a raw object, values that each break one check there); every
# path is also tried missing and holding a value of each JSON type
_PUBLICATION_FAULTS = [
    (("paper_id",), ["", 7]),
    (("year",), [1499, 10_000, 10**20, True, 2015.0]),
    (("pub_date",), ["2015-13-40", "1499-01-01", 20150101, "20150302", "2015-W10-1"]),
    (("journal_id",), [7]),
    (("impact_factor",), [-0.5, math.nan, math.inf, 10**400, True, "3"]),
    # a set holds one of a concept and its twin at an equal level of
    # another type: each entry is checked before they merge
    (("concepts",), ["Biology", {"Biology": 0}, *[
        [{"name": "x", "level": int(level)}, {"name": "x", "level": level}]
        for level in (True, False, 1.0, 0.0)]]),
    (("concepts", 0), ["x"]),
    (("concepts", 0, "name"), ["", 7]),
    (("concepts", 0, "level"), [-1, True, 1.0, "0"]),
    (("references",), ["R1", {"R1": 0}]),
    (("references", 0), [7, _OWN_ID]),
    (("authorships",), [[], "A1", {"A1": 0}]),
    (("authorships", 0), ["x"]),
    (("authorships", 0, "author_id"), ["", 7]),
    (("authorships", 0, "position"), [-1, 0, 99, True, 1.0, "0"]),
    (("authorships", 0, "country"), ["", "  ", 7]),
    (("authorships", 0, "institution_id"), [None, 7, ["I1"]]),
]
_CONTRIBUTION_FAULTS = [
    (("paper_id",), ["", 7]),
    (("author_id",), ["", 7]),
    (("verbs",), [[], "led"]),
    (("verbs", 0), [7]),
]
# strings that take a separator (a fault in an id or country, legal
# elsewhere) or a lone surrogate
_STRINGS = {"paper_id", "author_id", "country", "journal_id", "name", 0}
# a private-use character that a separator replaces in the JSON line:
# raw, as json.dumps writes it (\t, \n) or as a \u escape
_ESCAPE_ME = "\ue000"


def _with(obj: dict, path: tuple, value) -> dict:
    """A copy of obj with the value at path replaced, or removed."""
    obj = copy.deepcopy(obj)
    *parents, key = path
    where = obj
    for step in parents:
        where = where[step]
    if value is _MISSING:
        where.pop(key, None) if isinstance(where, dict) else where.pop(key)
    else:
        where[key] = obj["paper_id"] if value is _OWN_ID else value
    return obj


def single_fault_lines(obj: dict, faults: list, ensure_ascii: bool) -> Iterator[str]:
    """obj as a JSON line, then after each single fault in turn."""
    yield json.dumps(obj, ensure_ascii=ensure_ascii)
    for path, values in faults:
        for value in (*values, _MISSING, *_JSON_VALUES):
            yield json.dumps(_with(obj, path, value), ensure_ascii=ensure_ascii)
        if path[-1] not in _STRINGS:
            continue
        for sep in SEPARATORS:
            line = json.dumps(_with(obj, path, f"x{_ESCAPE_ME}y"), ensure_ascii=False)
            for escape in (sep, json.dumps(sep)[1:-1], f"\\u{ord(sep):04x}"):
                yield line.replace(_ESCAPE_ME, escape)
        for bad in ("J\ud800x", "\udfff"):
            yield json.dumps(_with(obj, path, bad))


@st.composite
def publication_objects(draw):
    """A valid corpus object; pub_date and institution ids may be
    missing, and it may hold an extra key."""
    year = draw(st.integers(1500, 2100))
    paper_id = draw(_ids)
    obj = {
        "paper_id": paper_id,
        "year": year,
        "pub_date": draw(st.none() | st.dates(
            datetime.date(year, 1, 1), datetime.date(year, 12, 31)).map(str)),
        "journal_id": draw(st.text(max_size=4)),
        "impact_factor": draw(st.floats(0, 1e6) | st.integers(0, 100)),
        "concepts": draw(st.lists(st.fixed_dictionaries(
            {"name": st.text(min_size=1, max_size=4), "level": st.integers(0, 3)}
        ), min_size=1, max_size=3)),
        "references": draw(st.lists(_ids.map("R".__add__), min_size=1, max_size=3)),
        "authorships": [
            {"author_id": draw(_ids), "position": position, "country": draw(_ids),
             "institution_id": draw(_ids | st.just(""))}
            for position in draw(st.permutations(range(draw(st.integers(1, 4)))))
        ],
    }
    for entry in [obj, *obj["authorships"]]:
        if draw(st.booleans()):
            entry.pop("pub_date" if entry is obj else "institution_id")
    if draw(st.booleans()):
        obj["extra"] = draw(st.sampled_from(_JSON_VALUES))
    return obj


@st.composite
def contribution_objects(draw):
    obj = {"paper_id": draw(_ids), "author_id": draw(_ids),
           "verbs": draw(st.lists(st.text(max_size=4), min_size=1, max_size=3))}
    if draw(st.booleans()):
        obj["extra"] = draw(st.sampled_from(_JSON_VALUES))
    return obj


@pytest.mark.parametrize("parse,reference,objects,faults", [
    (parse_publication_line, reference_records.parse_publication_line,
     publication_objects(), _PUBLICATION_FAULTS),
    (parse_contribution_line, reference_records.parse_contribution_line,
     contribution_objects(), _CONTRIBUTION_FAULTS),
], ids=["corpus", "contributions"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_decode_agrees_with_the_reference(parse, reference, objects, faults, data):
    # the same record, or the same error, for every line
    obj, ensure_ascii = data.draw(objects), data.draw(st.booleans())
    for line in single_fault_lines(obj, faults, ensure_ascii):
        assert_same(outcome(parse, line), outcome(reference, line))


@pytest.mark.parametrize("framing", [
    "{}", " {}", "{} ", "{}\r\n", "\t{}\n", "{}\x0b", "{}\u2028", "\ufeff{}", "{} x", "{}{}",
    "{},", "[{}]", '"x"', "{", "", "null", "1" * 5000,
])
def test_json_framing_agrees_with_the_reference(framing):
    # a valid record framed by whitespace (JSON's and other), a BOM, extra
    # data, or no record at all
    for parse, reference, obj in [
        (parse_publication_line, reference_records.parse_publication_line, base_obj()),
        (parse_contribution_line, reference_records.parse_contribution_line,
         {"paper_id": "P1", "author_id": "A", "verbs": ["led"]}),
    ]:
        line = framing.replace("{}", json.dumps(obj))
        assert_same(outcome(parse, line), outcome(reference, line))


_odd_strings = st.text(max_size=4) | st.sampled_from([
    '"', "\\", "\x00", "\x1f", "a\"b\\c\nd\te", "\u2028", "é中\U0001f600", ";|=", "J;1|x=y",
])


@st.composite
def encodable_records(draw):
    authorships = tuple(
        AuthorshipRecord(draw(_odd_strings), position, draw(_odd_strings), draw(_odd_strings))
        for position in range(draw(st.integers(1, 3)))
    )
    return PublicationRecord(
        paper_id=draw(_odd_strings),
        year=draw(st.integers(1500, 2100)),
        pub_date=draw(st.none() | st.dates()),
        journal_id=draw(_odd_strings),
        impact_factor=draw(st.sampled_from([0.0, 0.1, 3.0, 1e-7, 1e16, 5e-324]) | st.floats(
            0, allow_nan=False, allow_infinity=False)),
        concepts=frozenset(draw(st.lists(st.tuples(_odd_strings, st.integers(0, 3)), max_size=3))),
        references=frozenset(draw(st.lists(_odd_strings, max_size=3))),
        authorships=authorships,
    )


@settings(max_examples=300)
@given(encodable_records())
def test_encoder_writes_what_json_dumps_writes(record):
    assert publication_to_json(record) == reference_records.publication_to_json(record)


# -- the corpus table --------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_taken_rows_make_the_table_their_records_make(seed, data):
    corpus = random_corpus(seed, max_papers=30, max_authors=8)
    rows = sorted(data.draw(st.sets(st.integers(0, len(corpus) - 1))))
    assert_same(CorpusTable(corpus).take(np.array(rows, dtype=np.int64)),
                CorpusTable([corpus[i] for i in rows]))


def test_table_codes_strings_in_sorted_order():
    records = [
        make_record("P2", 2001, date="2001-03-04", authors=("B", "A", "B"),
                    countries=("Japan", "China", "Japan"), refs=("P1", "X9"),
                    concepts=(("beta", 1), ("alpha", 0), ("beta", 0))),
        make_record("P1", 2000, authors=("A",), countries=("China",), institutions=("",)),
    ]
    table = CorpusTable(records)
    assert (table.ids, table.authors, table.concepts) == (("P1", "P2", "X9"), ("A", "B"), ("alpha", "beta"))
    assert table.paper.tolist() == [1, 0] and table.ref.tolist() == [0, 2]
    assert (table.date.tolist(), table.year.tolist()) == ([20010304, 20000701], [2001, 2000])
    assert table.auth_start.tolist() == [0, 3, 4]
    assert table.author.tolist() == [1, 0, 1, 0]
    assert table.first.tolist() == [True, True, False, True]
    assert table.institutions == ("", "I1", "I2", "I3")
    assert table.concept.tolist() == [0, 1, 1] and table.level0.tolist() == [True, True, False]
    assert table.concept_start.tolist() == [0, 3, 3] and len(table) == 2


def test_corpus_decode_memory(tmp_path):
    # the table holds at most a third of what the records hold: 2k papers
    # of OpenAlex-like ids, 10k authorships by 3k authors.  Both share the
    # interned strings of a decode held throughout, so that neither count
    # holds them or the growth of sys.intern's table
    rng = np.random.default_rng(5)
    lines = [json.dumps({
        "paper_id": f"W{2_000_000_000 + i}", "year": 2000 + i % 22,
        "pub_date": f"{2000 + i % 22}-{1 + i % 12:02d}-{1 + i % 28:02d}",
        "journal_id": f"S{rng.integers(4_000)}", "impact_factor": float(rng.random()) * 20,
        "concepts": [{"name": f"C{c}", "level": int(c % 3)} for c in rng.choice(200, 4, replace=False)],
        "references": [f"W{2_000_000_000 + r}" for r in rng.integers(0, max(i, 1), 6) if r != i]
        + [f"W{1_000_000 + i}"],
        "authorships": [
            {"author_id": f"A{3_000_000_000 + a}", "position": j, "country": ["China", "Kenya"][j % 2],
             "institution_id": f"I{4_000_000 + a % 300}"}
            for j, a in enumerate(rng.choice(3_000, 5, replace=False).tolist())
        ],
    }) for i in range(2_000)]
    strings, held = list(read_corpus(lines)), {}
    for name, decode in (("records", list), ("table", CorpusTable)):
        gc.collect()
        tracemalloc.start()
        try:
            decoded = decode(read_corpus(lines))
            held[name] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(decoded) == len(strings)
        del decoded
    assert held["table"] <= held["records"] / 3, held


# -- corpus filters ----------------------------------------------------------


def kept_ids(records, region_map, **kwargs) -> list[str]:
    """The paper ids filter_corpus keeps of records, in order."""
    kept, _counts = filter_corpus(CorpusTable(records), region_map, **kwargs)
    return [records[i].paper_id for i in kept]


def test_year_filter_is_strict(region_map):
    records = [
        make_record("P1", 1990, date=None),
        make_record("P2", 1991),
    ]
    assert kept_ids(records, region_map) == ["P2"]


def test_impact_filter_is_inclusive(region_map):
    records = [
        make_record("P1", 2000, impact=0.999),
        make_record("P2", 2000, impact=1.0),
    ]
    assert kept_ids(records, region_map) == ["P2"]


def test_bilateral_means_exactly_two_regions(region_map):
    records = [
        make_record("P1", 2000, countries=("China", "China")),
        make_record("P2", 2000, countries=("China", "United States", "Germany")),
        make_record("P3", 2000, countries=("United States", "China")),
        make_record("P4", 2000, countries=("Italy", "Germany")),  # both EU+
        make_record("P5", 2000, countries=("Vietnam", "India")),  # both South Asia
    ]
    kept, counts = filter_corpus(CorpusTable(records), region_map)
    assert [records[i].paper_id for i in kept] == ["P3"]
    assert (counts["not_bilateral"], counts["bilateral"], counts["records"]) == (4, 1, 5)


def test_bilateral_whatever_the_author_order(region_map):
    records = [
        make_record("P1", 2000, countries=("United States", "China")),
        make_record("P2", 2000, countries=("China", "United States", "China")),
        make_record("P3", 2000, countries=("Japan", "Japan")),
    ]
    assert kept_ids(records, region_map) == ["P1", "P2"]


def test_unknown_country_skipped_with_stats(region_map, caplog):
    records = [
        make_record("P1", 2000, countries=("China", "Atlantis")),
        make_record("P2", 2000),
        make_record("P3", 2000, countries=("Atlantis", "Lemuria")),
        make_record("P4", 1980, countries=("Lemuria", "China")),
    ]
    kept, counts = filter_corpus(CorpusTable(records), region_map)
    assert [records[i].paper_id for i in kept] == ["P2"]
    assert (counts["unknown_country"], counts["pre_1991"]) == (2, 1)
    # one warning per unknown country, naming the first paper with it
    assert [r.getMessage() for r in caplog.records] == [
        "skipping P1: country not in region table: 'Atlantis'",
    ]


def test_unknown_country_strict_raises(region_map):
    records = [
        make_record("P0", 1980, countries=("China", "Lemuria")),
        make_record("P1", 2000, countries=("China", "Atlantis", "Lemuria")),
    ]
    with pytest.raises(UnknownCountry) as exc:
        filter_corpus(CorpusTable(records), region_map, strict=True)
    assert exc.value.country == "Atlantis"
    assert str(exc.value) == "paper 'P1': country not in region table: 'Atlantis'"


def test_filter_counts_are_consistent(region_map):
    records = [
        make_record("P1", 1980),
        make_record("P2", 2000, impact=0.5),
        make_record("P3", 2000, countries=("China", "China")),
        make_record("P4", 2000, countries=("China", "Nowhere")),
        make_record("P5", 2000),
    ]
    kept, counts = filter_corpus(CorpusTable(records), region_map)
    # ingest logs these keys in this order
    assert list(counts) == [
        "records", "bilateral", "pre_1991", "low_impact", "not_bilateral", "unknown_country",
    ]
    assert len(kept) == counts["bilateral"] == 1
    assert counts["records"] == sum(list(counts.values())[1:])


def test_empty_corpus_keeps_nothing(region_map):
    kept, counts = filter_corpus(CorpusTable(), region_map)
    assert kept.tolist() == []
    assert set(counts.values()) == {0}


# -- impact factor bins ------------------------------------------------------


@pytest.mark.parametrize("value,expected", [
    (1.0, 0), (1.99, 0), (2.0, 1), (3.999, 1), (4.0, 2),
    (8.0, 3), (15.9, 3), (16.0, 4), (1000.0, 4),
])
def test_if_bins_left_closed(value, expected):
    assert impact_factor_bin(value, (1, 2, 4, 8, 16)) == expected


def test_if_below_first_edge():
    assert impact_factor_bin(0.5, (1, 2, 4, 8, 16)) == -1
    assert impact_factor_bin(np.array([0.5, 1.0, 20.0]), (1, 2)).tolist() == [-1, 0, 1]


@settings(max_examples=50)
@given(st.floats(min_value=1.0, max_value=1e4, allow_nan=False))
def test_if_bin_brackets_value(value):
    edges = (1.0, 2.0, 4.0, 8.0, 16.0)
    b = impact_factor_bin(value, edges)
    assert edges[b] <= value
    if b + 1 < len(edges):
        assert value < edges[b + 1]


# -- topic tagging -----------------------------------------------------------


def topic_tags(rec, topics) -> tuple[frozenset, frozenset]:
    code, tags = classify_topics(CorpusTable([rec]), topics)
    return tags[code[0]]


def test_area_matches_any_level(topics):
    name = sorted(topics.area_concepts["Artificial Intelligence"])[0]
    rec = make_record("P1", 2020, concepts=((name, 2),))
    areas, fields = topic_tags(rec, topics)
    assert "Artificial Intelligence" in areas


def test_field_matches_level_zero_only(topics):
    name = sorted(topics.field_concepts["computer science"])[0]
    rec = make_record("P1", 2020, concepts=((name, 0),))
    _, fields = topic_tags(rec, topics)
    assert "computer science" in fields
    rec = make_record("P2", 2020, concepts=((name, 1),))
    _, fields = topic_tags(rec, topics)
    assert "computer science" not in fields


def test_topic_matching_folds_case_and_whitespace(topics):
    name = sorted(topics.area_concepts["Quantum Technology"])[0]
    rec = make_record("P1", 2020, concepts=((" " + name.upper() + " ", 3),))
    areas, _ = topic_tags(rec, topics)
    assert "Quantum Technology" in areas


def test_unmatched_concepts_yield_no_tags(topics):
    rec = make_record("P1", 2020, concepts=(("completely made up topic", 0),))
    assert topic_tags(rec, topics) == (frozenset(), frozenset())


def test_papers_with_equal_tags_share_one_code(topics):
    area = sorted(topics.area_concepts["Energy"])
    records = [
        make_record("P1", 2020, concepts=((area[0], 1),)),
        make_record("P2", 2020, concepts=(("made up", 0),)),
        make_record("P3", 2020, concepts=((area[0].upper(), 2), ("other", 0))),
    ]
    code, tags = classify_topics(CorpusTable(records), topics)
    assert code.tolist() == [0, 1, 0]
    assert tags == [(frozenset({"Energy"}), frozenset()), (frozenset(), frozenset())]


# -- static tables -----------------------------------------------------------


def test_region_table_covers_13_regions(region_map):
    assert set(region_map.by_country.values()) == GLOBAL_REGIONS
    assert len(GLOBAL_REGIONS) == 13


@pytest.mark.parametrize("country,region", [
    ("China", "China"),
    ("United States", "U.S."),
    ("United Kingdom", "U.K."),
    ("Germany", "EU+"),
    ("Russian Federation", "Russia"),
    ("Japan", "East Asia"),
    ("Vietnam", "South Asia"),
    ("Namibia", "Africa"),
    ("Kazakhstan", "Central Asia"),
    ("Brazil", "Latin America"),
    ("Australia", "Oceania"),
])
def test_region_spot_checks(region_map, country, region):
    assert region_map.region_of(country) == region


def test_country_aliases_resolve(region_map):
    assert canonicalize_country(" Korea, Rep. ") == "South Korea"
    assert region_map.region_of("Korea, Rep.") == region_map.region_of("South Korea")
    assert "Slovak Republic" in region_map


def test_unknown_country_error(region_map):
    with pytest.raises(UnknownCountry):
        region_map.region_of("中土")


@pytest.mark.parametrize("country,income", [
    ("Italy", HIGH_INCOME),
    ("Vietnam", LOW_INCOME),
    ("United States", NON_SIGNATORY),
    ("China", NON_SIGNATORY),
])
def test_bri_spot_checks(bri, country, income):
    assert bri.class_of(country) == income


def test_topic_tables_complete(topics):
    assert set(topics.area_concepts) == set(AREA_TAGS)
    assert set(topics.field_concepts) == set(FIELD_TAGS)
    assert len(AREA_TAGS) == 11 and len(FIELD_TAGS) == 6


def test_custom_region_table_validated(tmp_path):
    bad = tmp_path / "regions.tsv"
    bad.write_text("country\tregion\nChina\tChina\n", encoding="utf-8")
    with pytest.raises(TableIntegrityError):
        load_region_map(bad)  # 12 regions missing
    bad.write_text("nation\tregion\nChina\tChina\n", encoding="utf-8")
    with pytest.raises(TableIntegrityError):
        load_region_map(bad)
    bad.write_text(
        "country\tregion\nChina\tChina\nChina\tU.S.\n", encoding="utf-8"
    )
    with pytest.raises(TableIntegrityError):
        load_region_map(bad)
