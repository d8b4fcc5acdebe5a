"""Record parsing, corpus filters, topic tagging, and the static tables."""

import json
import math
import string

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import make_record
from leadshare.corpus import (
    FilterStats,
    bilateral_pair,
    classify_topics,
    filter_corpus,
    impact_factor_bin,
)
from leadshare.errors import (
    BelowRange,
    InvariantViolation,
    MalformedRecord,
    RecordError,
    TableIntegrityError,
    UnknownCountry,
)
from leadshare.records import (
    SEPARATORS,
    parse_contribution_line,
    parse_publication_line,
    publication_to_json,
    read_contributions,
    read_corpus,
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
    ("pub_date", "2015-13-40", MalformedRecord),
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


# -- corpus filters ----------------------------------------------------------


def test_year_filter_is_strict(region_map):
    records = [
        make_record("P1", 1990, date=None),
        make_record("P2", 1991),
    ]
    kept = [r.paper_id for r, _ in filter_corpus(records, region_map)]
    assert kept == ["P2"]


def test_impact_filter_is_inclusive(region_map):
    records = [
        make_record("P1", 2000, impact=0.999),
        make_record("P2", 2000, impact=1.0),
    ]
    kept = [r.paper_id for r, _ in filter_corpus(records, region_map)]
    assert kept == ["P2"]


def test_bilateral_means_exactly_two_regions(region_map):
    records = [
        make_record("P1", 2000, countries=("China", "China")),
        make_record("P2", 2000, countries=("China", "United States", "Germany")),
        make_record("P3", 2000, countries=("United States", "China")),
        make_record("P4", 2000, countries=("Italy", "Germany")),  # both EU+
        make_record("P5", 2000, countries=("Vietnam", "India")),  # both South Asia
    ]
    stats = FilterStats()
    kept = list(filter_corpus(records, region_map, stats=stats))
    assert [(r.paper_id, pair) for r, pair in kept] == [("P3", ("China", "U.S."))]
    assert stats.n_not_bilateral == 4
    assert stats.n_kept == 1
    assert stats.n_input == 5


def test_bilateral_pair_is_sorted(region_map):
    rec = make_record("P1", 2000, countries=("United States", "China"))
    assert bilateral_pair(rec, region_map) == ("China", "U.S.")
    rec = make_record("P2", 2000, countries=("Japan", "Japan"))
    assert bilateral_pair(rec, region_map) is None


def test_unknown_country_skipped_with_stats(region_map, caplog):
    records = [
        make_record("P1", 2000, countries=("China", "Atlantis")),
        make_record("P2", 2000),
    ]
    stats = FilterStats()
    kept = [r.paper_id for r, _ in filter_corpus(records, region_map, stats=stats)]
    assert kept == ["P2"]
    assert stats.n_unknown_country == 1


def test_unknown_country_strict_raises(region_map):
    records = [make_record("P1", 2000, countries=("China", "Atlantis"))]
    with pytest.raises(UnknownCountry) as exc:
        list(filter_corpus(records, region_map, strict=True))
    assert exc.value.country == "Atlantis"
    assert "Atlantis" in str(exc.value)


def test_filter_counts_are_consistent(region_map):
    records = [
        make_record("P1", 1980),
        make_record("P2", 2000, impact=0.5),
        make_record("P3", 2000, countries=("China", "China")),
        make_record("P4", 2000, countries=("China", "Nowhere")),
        make_record("P5", 2000),
    ]
    stats = FilterStats()
    kept = list(filter_corpus(records, region_map, stats=stats))
    assert len(kept) == stats.n_kept == 1
    assert stats.n_input == stats.n_kept + stats.n_year + stats.n_impact \
        + stats.n_not_bilateral + stats.n_unknown_country


# -- impact factor bins ------------------------------------------------------


@pytest.mark.parametrize("value,expected", [
    (1.0, 0), (1.99, 0), (2.0, 1), (3.999, 1), (4.0, 2),
    (8.0, 3), (15.9, 3), (16.0, 4), (1000.0, 4),
])
def test_if_bins_left_closed(value, expected):
    assert impact_factor_bin(value, (1, 2, 4, 8, 16)) == expected


def test_if_below_first_edge():
    with pytest.raises(BelowRange):
        impact_factor_bin(0.5, (1, 2, 4, 8, 16))


@settings(max_examples=50)
@given(st.floats(min_value=1.0, max_value=1e4, allow_nan=False))
def test_if_bin_brackets_value(value):
    edges = (1.0, 2.0, 4.0, 8.0, 16.0)
    b = impact_factor_bin(value, edges)
    assert edges[b] <= value
    if b + 1 < len(edges):
        assert value < edges[b + 1]


# -- topic tagging -----------------------------------------------------------


def test_area_matches_any_level(topics):
    name = sorted(topics.area_concepts["Artificial Intelligence"])[0]
    rec = make_record("P1", 2020, concepts=((name, 2),))
    areas, fields = classify_topics(rec, topics)
    assert "Artificial Intelligence" in areas


def test_field_matches_level_zero_only(topics):
    name = sorted(topics.field_concepts["computer science"])[0]
    rec = make_record("P1", 2020, concepts=((name, 0),))
    _, fields = classify_topics(rec, topics)
    assert "computer science" in fields
    rec = make_record("P2", 2020, concepts=((name, 1),))
    _, fields = classify_topics(rec, topics)
    assert "computer science" not in fields


def test_topic_matching_folds_case_and_whitespace(topics):
    name = sorted(topics.area_concepts["Quantum Technology"])[0]
    rec = make_record("P1", 2020, concepts=((" " + name.upper() + " ", 3),))
    areas, _ = classify_topics(rec, topics)
    assert "Quantum Technology" in areas


def test_unmatched_concepts_yield_no_tags(topics):
    rec = make_record("P1", 2020, concepts=(("completely made up topic", 0),))
    assert classify_topics(rec, topics) == (frozenset(), frozenset())


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
