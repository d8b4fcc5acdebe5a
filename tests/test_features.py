"""The feature table: the nine lead-prediction features per authorship.

The hand corpus below is small enough to verify every feature by eye;
the property tests check the array program against a brute-force oracle
that rescans the raw record list per query, and byte for byte against
the per-authorship sweep in reference_features.py.
"""

import dataclasses
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_features
from leadshare import features
from helpers import assert_same, feature_keys, feature_vector, make_record, oracle_features
from leadshare.errors import DuplicatePaperId, InvariantViolation, MalformedRecord
from leadshare.features import (
    FEATURE_NAMES, as_read_back, build_profiles, read_features, write_features,
)
from leadshare.records import AuthorshipRecord, CorpusTable, PublicationRecord
from synth import perf_corpus, random_corpus


def profiles_of(corpus):
    """The feature table of a list of records."""
    return build_profiles(CorpusTable(corpus))


def hand_corpus():
    return [
        make_record(
            "P1", 2010, date="2010-01-10",
            authors=("A1", "A2"), countries=("China", "United States"),
            institutions=("I1", "I2"),
            refs=("X1",), concepts=(("alpha", 0), ("beta", 2)),
        ),
        make_record(
            "P2", 2012, date=None,
            authors=("A2", "A1"), countries=("United States", "China"),
            institutions=("I2", "I1"),
            refs=("P1", "X1"), concepts=(("alpha", 0), ("gamma", 1)),
        ),
        make_record(
            "P3", 2015, date="2015-06-01",
            authors=("A1", "A3", "A2"), countries=("China", "China", "United States"),
            institutions=("I1", "I3", "I2"),
            refs=("P1", "P2", "X2"), concepts=(("beta", 2), ("delta", 0)),
        ),
        # same sort date as P3: neither is prior to the other
        make_record(
            "P4", 2015, date="2015-06-01",
            authors=("A1", "A4"), countries=("China", "Japan"),
            institutions=("I1", "I4"),
            refs=("P2",), concepts=(("alpha", 0),),
        ),
        make_record(
            "P5", 2016, date="2016-02-02",
            authors=("A4", "A1"), countries=("Japan", "China"),
            institutions=("I4", "I1"),
            refs=("P3", "P1"), concepts=(("alpha", 0), ("beta", 2), ("eps", 3)),
        ),
    ]


@pytest.fixture(scope="module")
def hand_table():
    corpus = hand_corpus()
    return corpus, profiles_of(corpus)


def test_established_author(hand_table):
    _, table = hand_table
    v = feature_vector(table, "P5", "A1")
    assert tuple(v) == (1, 2, 2, 6, 4, 4, 4, 4, 1.0)


def test_short_history_author(hand_table):
    _, table = hand_table
    v = feature_vector(table, "P5", "A4")
    assert tuple(v) == (0, 1, 0, 1, 1, 0, 1, 1, 0.5)


def test_same_date_paper_is_not_prior(hand_table):
    _, table = hand_table
    v = feature_vector(table, "P3", "A1")
    # P4 shares P3's date, so A1 has only P1 and P2 behind P3
    assert v.f5_prior_pub_count == 2
    assert tuple(v) == (1, 1, 2, 5, 2, 1, 3, 2, 1.0)


def test_debut_author_all_zero(hand_table):
    _, table = hand_table
    v = feature_vector(table, "P3", "A3")
    assert tuple(v) == (0, 0, 0, 0, 0, 0, 0, 0, 0.0)


def test_oracle_agrees_on_hand_corpus(hand_table):
    corpus, table = hand_table
    for rec in corpus:
        for a in rec.authorships:
            v = feature_vector(table, rec.paper_id, a.author_id)
            assert tuple(v) == pytest.approx(
                oracle_features(corpus, rec, a.author_id), abs=1e-12
            )


@pytest.mark.parametrize("cited, f3", [
    ("P3", 0),  # A1's own paper, but from the focal paper's day
    ("P2", 0),  # a prior paper of the co-author A2 alone
    ("P1", 1),  # A1's own prior paper
])
def test_self_citation_counts_own_prior_papers_only(cited, f3):
    corpus = [
        make_record("P1", 2010, date="2010-03-01", authors=("A1",), countries=("China",)),
        make_record("P2", 2011, date="2011-03-01", authors=("A2",), countries=("Japan",)),
        # sorts before P4 within their shared date
        make_record("P3", 2012, date="2012-05-05", authors=("A1",), countries=("China",)),
        make_record(
            "P4", 2012, date="2012-05-05", authors=("A1", "A2"),
            countries=("China", "Japan"), refs=(cited,),
        ),
    ]
    v = feature_vector(profiles_of(corpus), "P4", "A1")
    assert v.f3_self_citations == f3
    assert tuple(v) == oracle_features(corpus, corpus[3], "A1")


def test_duplicate_paper_id():
    corpus = hand_corpus()
    corpus = corpus[:3] + [corpus[1]] + corpus[3:] + [corpus[0]]
    with pytest.raises(DuplicatePaperId) as got:
        profiles_of(corpus)
    with pytest.raises(DuplicatePaperId) as want:
        reference_features.build_profiles(corpus)
    assert str(got.value) == str(want.value)


def test_empty_corpus_index():
    table = profiles_of([])
    assert table.papers == table.authors == ()
    assert table.paper.dtype == table.author.dtype == np.int32 and not len(table.paper)
    assert table.X.shape == (0, len(FEATURE_NAMES))
    assert table.X.dtype == np.float64 and not table.X.flags.writeable
    assert table.X.tobytes() == reference_features.build_profiles([]).X.tobytes()


def test_table_holds_x_codes_and_pools():
    # X, two int32 codes a row and the id pools: no dict and no key
    # object per row (a dict keyed by id tuples held about 130 B a row)
    table = CorpusTable(perf_corpus(seed=3, n_authorships=10_000)[0])
    tracemalloc.start()
    try:
        built = build_profiles(table)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # what the package's code allocated, not a module a first call imports
    package = tracemalloc.Filter(True, str(Path(features.__file__).parent / "*"))
    held = sum(stat.size for stat in snapshot.filter_traces([package]).statistics("filename"))
    pools = sys.getsizeof(built.papers) + sys.getsizeof(built.authors)
    assert len(built.X) == 10_000
    assert held <= built.X.nbytes + 16 * len(built.X) + pools


def test_rows_of_joins_keys_coded_in_other_pools(hand_table):
    _, table = hand_table
    keys = feature_keys(table)
    # the rows reversed, then an unknown paper, an unknown author, and an
    # author who is not on the paper
    asked = keys[::-1] + [("P9", "A1"), ("P1", "A9"), ("P1", "A3")]
    papers, authors = sorted({p for p, _ in asked}), sorted({a for _, a in asked})
    codes = (
        papers, np.array([papers.index(p) for p, _ in asked]),
        authors, np.array([authors.index(a) for _, a in asked]),
    )
    assert table.rows_of(*codes).tolist() == [*range(len(keys))][::-1] + [-1, -1, -1]
    assert profiles_of([]).rows_of(*codes).tolist() == [-1] * len(asked)


def varied_corpus(seed: int, max_papers: int, max_authors: int) -> list[PublicationRecord]:
    """random_corpus(seed), which already holds undated (July 1) papers,
    empty institution ids and references outside the corpus, with more of
    what the sweep treats apart: papers dated on the day of an earlier one,
    sometimes outside their own year, and authors repeated at a later
    position on one paper."""
    rng = random.Random(seed)
    corpus: list[PublicationRecord] = []
    for rec in random_corpus(seed, max_papers=max_papers, max_authors=max_authors):
        roll = rng.random()
        if roll < 0.25 and corpus:
            rec = dataclasses.replace(rec, pub_date=rng.choice(corpus).pub_date)
        elif roll < 0.4:
            a = rng.choice(rec.authorships)
            again = AuthorshipRecord(
                a.author_id, len(rec.authorships), a.country, rng.choice(["", "I9", a.institution_id])
            )
            rec = dataclasses.replace(rec, authorships=rec.authorships + (again,))
        corpus.append(rec)
    return corpus


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(12, 6), (60, 20), (150, 3)]),
       st.sampled_from([1, 7, features._CHUNK_ROWS]))
def test_matches_the_reference_sweep_byte_for_byte(seed, shape, chunk_rows):
    # (150, 3): two or three authors share up to 150 papers, so each carries
    # long histories with same-day groups and citations across many years;
    # small chunks split the authors over many chunks
    corpus = varied_corpus(seed, *shape)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(features, "_CHUNK_ROWS", chunk_rows)
        got = profiles_of(corpus)
    want = reference_features.build_profiles(corpus)
    assert_same(got[:4], want[:4])  # the pools and codes
    assert got.X.tobytes() == want.X.tobytes()


def test_input_order_is_irrelevant():
    corpus = hand_corpus()
    shuffled = list(corpus)
    random.Random(9).shuffle(shuffled)
    a = profiles_of(corpus)
    b = profiles_of(shuffled)
    for rec in corpus:
        for auth in rec.authorships:
            assert feature_vector(a, rec.paper_id, auth.author_id) == feature_vector(
                b, rec.paper_id, auth.author_id
            )


def test_rows_in_input_order_then_position():
    corpus = hand_corpus()
    random.Random(4).shuffle(corpus)
    table = profiles_of(corpus)
    keys = [(r.paper_id, a.author_id) for r in corpus for a in r.authorships]
    assert feature_keys(table) == keys
    assert table.X.shape == (len(keys), len(FEATURE_NAMES))
    assert not table.X.flags.writeable


def test_repeated_author_gives_one_row_at_first_position():
    corpus = [
        make_record(
            "P1", 2010, date="2010-01-10", authors=("A2", "A1", "A3", "A1"),
            countries=("China", "Japan", "China", "Japan"),
        ),
        make_record("P2", 2011, date="2011-01-10", authors=("A1", "A2")),
    ]
    table = profiles_of(corpus)
    assert feature_keys(table) == [
        ("P1", "A2"), ("P1", "A1"), ("P1", "A3"), ("P2", "A1"), ("P2", "A2"),
    ]
    # A1's first position on P1 is 1, not an end; its last is 3, an end
    assert feature_vector(table, "P2", "A1").f8_first_or_last_count == 0
    assert feature_vector(table, "P2", "A2").f8_first_or_last_count == 1
    assert tuple(feature_vector(table, "P2", "A1")) == oracle_features(corpus, corpus[1], "A1")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_oracle_equivalence_random(seed):
    corpus = random_corpus(seed, max_papers=12, max_authors=6)
    table = profiles_of(corpus)
    for rec in corpus:
        for a in rec.authorships:
            v = feature_vector(table, rec.paper_id, a.author_id)
            expected = oracle_features(corpus, rec, a.author_id)
            assert tuple(v)[:8] == expected[:8]
            assert abs(v.f9_affiliation_score - expected[8]) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_oracle_equivalence_long_histories(seed):
    # two or three authors share up to 120 papers, so each author carries
    # dozens of prior papers, undated July 1 ties and citations across years
    corpus = random_corpus(seed, max_papers=120, max_authors=3)
    by_id = {rec.paper_id: rec for rec in corpus}
    table = profiles_of(corpus)
    assert len(table.X) == sum(len(rec.authorships) for rec in corpus)
    for paper_id, author_id in feature_keys(table):
        v = feature_vector(table, paper_id, author_id)
        expected = oracle_features(corpus, by_id[paper_id], author_id)
        assert tuple(v)[:8] == expected[:8]
        assert abs(v.f9_affiliation_score - expected[8]) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_temporal_causality(seed):
    corpus = random_corpus(seed, max_papers=15, max_authors=6)
    ordered = sorted(corpus, key=lambda r: (r.sort_date(), r.paper_id))
    focal = ordered[len(ordered) // 2]
    truncated = [r for r in corpus if r.sort_date() <= focal.sort_date()]
    full = profiles_of(corpus)
    cut = profiles_of(truncated)
    for a in focal.authorships:
        assert feature_vector(full, focal.paper_id, a.author_id) == feature_vector(
            cut, focal.paper_id, a.author_id
        )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_monotone_history(seed):
    corpus = random_corpus(seed, max_papers=10, max_authors=5)
    focal = max(corpus, key=lambda r: (r.sort_date(), r.paper_id))
    author = focal.authorships[0].author_id
    before = feature_vector(profiles_of(corpus), focal.paper_id, author)
    extra = make_record(
        "EARLY1", 1994, date="1994-05-05",
        authors=(author,), countries=("China",), institutions=("I1",),
        refs=(), concepts=(("ancient topic", 1),),
    )
    after = feature_vector(profiles_of(corpus + [extra]), focal.paper_id, author)
    assert after.f5_prior_pub_count == before.f5_prior_pub_count + 1
    assert after.f7_unique_keywords >= before.f7_unique_keywords
    assert after.f8_first_or_last_count >= before.f8_first_or_last_count


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3]))
def test_f9_invariant_to_volume_scaling(seed, k):
    corpus = random_corpus(seed, max_papers=10, max_authors=5)
    focal = max(corpus, key=lambda r: (r.sort_date(), r.paper_id))
    author = focal.authorships[0].author_id
    before = feature_vector(profiles_of(corpus), focal.paper_id, author)
    # replicate every earlier-year paper's institution footprint k-fold
    # with fresh papers that cannot touch any other feature
    clones = []
    n = 0
    for rec in corpus:
        if rec.year >= focal.year:
            continue
        for _ in range(k - 1):
            n += 1
            clones.append(
                PublicationRecord(
                    paper_id=f"CLONE{n:04d}",
                    year=rec.year,
                    pub_date=rec.pub_date,
                    journal_id="JX",
                    impact_factor=1.0,
                    concepts=frozenset(),
                    references=frozenset(),
                    authorships=tuple(
                        AuthorshipRecord(f"GHOST{n:04d}x{i}", i, a.country, a.institution_id)
                        for i, a in enumerate(rec.authorships)
                    ),
                )
            )
    after = feature_vector(profiles_of(corpus + clones), focal.paper_id, author)
    assert after.f9_affiliation_score == pytest.approx(
        before.f9_affiliation_score, abs=1e-12
    )


def test_features_file_round_trip(tmp_path):
    path = tmp_path / "features.tsv"
    # the random corpus holds f9 values that 9 decimals round
    for corpus in (hand_corpus(), random_corpus(0, max_papers=40, max_authors=8)):
        table = profiles_of(corpus)
        X = table.X.copy()
        write_features(table, path)
        assert table.X.tobytes() == X.tobytes()  # writing leaves the table alone
        decoded = read_features(path)
        assert_same(decoded[:4], table[:4])
        # f9 is written with 9 decimals; every other value reads back exactly
        assert decoded.X[:, :8].tobytes() == X[:, :8].tobytes()
        assert decoded.X[:, 8].tolist() == [float(f"{v:.9f}") for v in X[:, 8]]
        assert np.abs(decoded.X - X).max() <= 5e-10
        # the table the build-profiles stage hands on: the given one, f9 rounded
        assert as_read_back(table) is table
        assert_same(table, decoded)
        assert not table.X.flags.writeable


def test_decoded_features_write_back_the_same_bytes(tmp_path):
    path, again = tmp_path / "features.tsv", tmp_path / "again.tsv"
    write_features(profiles_of(random_corpus(0, max_papers=40, max_authors=8)), path)
    decoded = read_features(path)
    write_features(decoded, again)
    assert again.read_bytes() == path.read_bytes()
    assert as_read_back(decoded) is decoded
    write_features(decoded, again)
    assert again.read_bytes() == path.read_bytes()


def test_features_file_rejects_repeated_authorship(tmp_path, hand_table):
    _, table = hand_table
    path = tmp_path / "features.tsv"
    write_features(table, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([*lines, lines[1]]) + "\n", encoding="utf-8")
    with pytest.raises(InvariantViolation) as info:
        read_features(path)
    assert (info.value.source, info.value.line_no) == (str(path), len(lines) + 1)
    assert info.value.message == "('P1', 'A1') repeats line 2"
    assert info.value.field == "paper_id, author_id"


def test_features_file_rejects_bad_shape(tmp_path):
    path = tmp_path / "features.tsv"
    path.write_text("wrong\theader\n", encoding="utf-8")
    with pytest.raises(MalformedRecord):
        read_features(path)
