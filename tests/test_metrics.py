"""Leader/supporter aggregation, the share metrics, and series building."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ScoredAuthorship, oracle_aggregate, scored_table
from leadshare.errors import (
    ConfigError,
    InconsistentPair,
    MalformedRecord,
    NoLeaders,
    NoSupporters,
)
from leadshare.metrics import (
    COUNT_AUTHOR_PAPER,
    COUNT_UNIQUE_AUTHOR,
    FilterSpec,
    PairYearCounts,
    RegionSeries,
    aggregate,
    build_series,
    lead_premium,
    lead_share,
    read_series,
    supporter_share,
    write_series,
)
from leadshare.records import sorted_distinct


def row(
    paper_id,
    region,
    *,
    author="A1",
    year=2020,
    leader=False,
    areas=(),
    fields=(),
    if_bin=0,
    bri_class="NonSignatory",
    country=None,
):
    return ScoredAuthorship(
        paper_id=paper_id,
        author_id=author,
        region=region,
        year=year,
        lead_prob=0.9 if leader else 0.1,
        is_leader=leader,
        areas=frozenset(areas),
        fields=frozenset(fields),
        if_bin=if_bin,
        bri_class=bri_class,
        country=country or region,
    )


def counts_of(pair, year, leaders, supporters, desc="all"):
    return PairYearCounts(
        pair=pair, year=year, leaders=leaders, supporters=supporters, filter_desc=desc
    )


def test_single_paper_tally():
    rows = [
        row("P1", "China", author="A1", leader=True),
        row("P1", "U.S.", author="A2", leader=False),
    ]
    out = aggregate(scored_table(rows))
    assert len(out) == 1
    c = out[0]
    assert c.pair == ("China", "U.S.") and c.year == 2020
    assert c.leaders == {"China": 1, "U.S.": 0}
    assert c.supporters == {"China": 0, "U.S.": 1}


def test_empty_input():
    assert aggregate(scored_table([])) == []


def test_aggregate_matches_brute_force_tally():
    import random

    rng = random.Random(13)
    rows = []
    for p in range(20):
        year = rng.choice([2019, 2020])
        pair = rng.choice([("China", "U.S."), ("China", "EU+")])
        for i in range(rng.randint(2, 5)):
            rows.append(
                row(
                    f"P{p}", rng.choice(pair), author=f"A{p}x{i}", year=year,
                    leader=rng.random() < 0.4,
                )
            )
    # papers must span both pair regions to be valid input
    rows = [r for r in rows]
    by_paper = {}
    for r in rows:
        by_paper.setdefault(r.paper_id, []).append(r)
    rows = [
        r
        for batch in by_paper.values()
        if len({x.region for x in batch}) == 2
        for r in batch
    ]
    expected = {}
    for r in rows:
        batch_regions = {x.region for x in rows if x.paper_id == r.paper_id}
        pair = tuple(sorted(batch_regions))
        key = (pair, r.year, r.region, r.is_leader)
        expected[key] = expected.get(key, 0) + 1
    for c in aggregate(scored_table(rows)):
        for region in c.pair:
            assert c.leaders[region] == expected.get((c.pair, c.year, region, True), 0)
            assert c.supporters[region] == expected.get((c.pair, c.year, region, False), 0)


def test_inconsistent_pair_rejected():
    rows = [
        row("P1", "China"),
        row("P1", "U.S.", author="A2"),
        row("P1", "EU+", author="A3"),
    ]
    with pytest.raises(InconsistentPair):
        aggregate(scored_table(rows))
    with pytest.raises(InconsistentPair):
        aggregate(scored_table([row("P2", "China")]))


def test_unique_author_counting():
    rows = [
        row("P1", "China", author="A1", leader=True),
        row("P1", "U.S.", author="A9"),
        row("P2", "China", author="A1", leader=True),
        row("P2", "U.S.", author="A9"),
    ]
    per_authorship = aggregate(scored_table(rows))
    assert len(per_authorship) == 1
    assert per_authorship[0].leaders["China"] == 2
    assert per_authorship[0].supporters["U.S."] == 2
    unique = aggregate(scored_table(rows), counting_mode=COUNT_UNIQUE_AUTHOR)
    assert unique[0].leaders["China"] == 1
    assert unique[0].supporters["U.S."] == 1


def test_unique_author_counting_when_the_filter_keeps_no_row():
    rows = [
        row("P1", "China", author="A1", leader=True, areas=("Energy",)),
        row("P1", "U.S.", author="A2", areas=("Energy",)),
    ]
    spec = FilterSpec(areas=frozenset({"Biotech"}))
    assert aggregate(scored_table(rows), spec, counting_mode=COUNT_UNIQUE_AUTHOR) == []


def test_unique_author_counting_when_every_row_has_one_author():
    # one scientist on both sides of three papers counts once per
    # (pair, year, side, role)
    rows = [
        row(f"P{p}", region, author="A1", year=year, leader=leader)
        for p, year in enumerate((2019, 2020, 2020))
        for region, leader in (("China", True), ("U.S.", False))
    ]
    unique = aggregate(scored_table(rows), counting_mode=COUNT_UNIQUE_AUTHOR)
    assert [(c.year, c.leaders, c.supporters) for c in unique] == [
        (year, {"China": 1, "U.S.": 0}, {"China": 0, "U.S.": 1}) for year in (2019, 2020)
    ]
    assert unique == oracle_aggregate(rows, counting_mode=COUNT_UNIQUE_AUTHOR)


INT64 = np.iinfo(np.int64)
int64_arrays = st.one_of(
    st.lists(st.integers(INT64.min, INT64.max), max_size=40),
    st.lists(st.sampled_from([INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max])),
    st.lists(st.integers(-3, 3), max_size=200),
).map(lambda values: np.array(values, dtype=np.int64))


@given(int64_arrays)
def test_sorted_distinct_matches_np_unique(values):
    got = sorted_distinct(values)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.unique(values))


@pytest.mark.parametrize("values", [
    [], [7], [-5, -5, -5, -5], [INT64.max, INT64.min, INT64.max, INT64.min],
    [INT64.max - 1, INT64.max, INT64.max - 1], [3, -2, 3, 0, -2, INT64.min + 1],
])
def test_sorted_distinct_edge_cases(values):
    values = np.array(values, dtype=np.int64)
    assert np.array_equal(sorted_distinct(values), np.unique(values))


def test_sorted_distinct_on_random_keys():
    rng = np.random.default_rng(20)
    for size in (2, 100, 29_000):
        values = rng.integers(-(2**40), 2**40, size=size)
        values = np.concatenate((values, values[: size // 3]))
        assert np.array_equal(sorted_distinct(values), np.unique(values))


SWEEP_THRESHOLDS = (0.3, 0.55, 0.7)


@st.composite
def scored_papers(draw):
    """Papers of two to four authorships over both regions of a pair, with
    lead probabilities that often equal a sweep threshold exactly and a
    stored is_leader drawn independently of them."""
    probs = st.one_of(st.sampled_from(SWEEP_THRESHOLDS), st.floats(0.0, 1.0))
    rows = []
    for p in range(draw(st.integers(0, 8))):
        pair = draw(st.sampled_from([("China", "U.S."), ("China", "EU+")]))
        year = draw(st.sampled_from([2019, 2020]))
        extra = draw(st.lists(st.sampled_from(pair), max_size=2))
        for region in list(pair) + extra:
            rows.append(
                ScoredAuthorship(
                    paper_id=f"P{p}",
                    author_id=draw(st.sampled_from(["A1", "A2", "A3"])),
                    region=region,
                    year=year,
                    lead_prob=draw(probs),
                    is_leader=draw(st.booleans()),
                    areas=frozenset(),
                    fields=frozenset(),
                    if_bin=0,
                    bri_class="NonSignatory",
                    country=region,
                )
            )
    return rows


@settings(max_examples=200)
@given(
    scored_papers(),
    st.sampled_from(SWEEP_THRESHOLDS),
    st.sampled_from([COUNT_AUTHOR_PAPER, COUNT_UNIQUE_AUTHOR]),
)
def test_threshold_spec_matches_relabeled_rows(rows, t, mode):
    # reference: the rows rebuilt with the threshold's strict rule
    relabeled = [dataclasses.replace(r, is_leader=r.lead_prob > t) for r in rows]
    want = aggregate(scored_table(relabeled), counting_mode=mode)
    got = aggregate(scored_table(rows), FilterSpec(threshold=t), counting_mode=mode)
    assert all(c.filter_desc == f"threshold={t:g}" for c in got)
    assert [dataclasses.replace(c, filter_desc="all") for c in got] == want


AREAS = ("Biotech", "Energy", "Quantum Technology")
FIELDS = ("medicine", "physics")
INCOME = ("HighIncome", "LowIncome", "NonSignatory")
# one pair per id, so adjacent runs of an id merge into a bilateral run
PAPER_PAIRS = {"P1": ("China", "U.S."), "P2": ("China", "EU+"), "P3": ("EU+", "U.S.")}


@st.composite
def scored_runs(draw):
    """Paper runs drawn from three reused ids, so one paper can return as
    a later, separate run.  Tags vary per row, so the filters see which
    row comes first.  When the draw allows it, some runs span one or three
    regions."""
    probs = st.one_of(st.sampled_from(SWEEP_THRESHOLDS), st.floats(0.0, 1.0))
    inconsistent = draw(st.integers(0, 3)) == 0
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        paper = draw(st.sampled_from(sorted(PAPER_PAIRS)))
        pair = PAPER_PAIRS[paper]
        regions = list(pair) + draw(st.lists(st.sampled_from(pair), max_size=2))
        if inconsistent and draw(st.integers(0, 5)) == 0:
            regions = draw(st.sampled_from(
                [[pair[0]], [pair[0], pair[0]], ["China", "EU+", "U.S."]]
            ))
        regions = draw(st.permutations(regions))
        for region in regions:
            rows.append(
                ScoredAuthorship(
                    paper_id=paper,
                    author_id=draw(st.sampled_from(["A1", "A2", "A3"])),
                    region=region,
                    year=draw(st.sampled_from([2019, 2020, 2021])),
                    lead_prob=draw(probs),
                    is_leader=draw(st.booleans()),
                    areas=draw(st.frozensets(st.sampled_from(AREAS), max_size=2)),
                    fields=draw(st.frozensets(st.sampled_from(FIELDS))),
                    if_bin=draw(st.integers(0, 2)),
                    bri_class=draw(st.sampled_from(INCOME)),
                    country=region,
                )
            )
    return rows


filter_specs = st.builds(
    FilterSpec,
    areas=st.none() | st.frozensets(st.sampled_from(AREAS), min_size=1, max_size=2),
    fields=st.none() | st.frozensets(st.sampled_from(FIELDS), min_size=1),
    if_bins=st.none() | st.frozensets(st.integers(0, 2), min_size=1, max_size=2),
    bri_class=st.none() | st.sampled_from(INCOME[:2]),
    threshold=st.none() | st.sampled_from(SWEEP_THRESHOLDS),
)


@settings(max_examples=200)
@given(
    scored_runs(),
    filter_specs,
    st.sampled_from([COUNT_AUTHOR_PAPER, COUNT_UNIQUE_AUTHOR]),
)
def test_aggregate_matches_oracle(rows, spec, mode):
    try:
        want = oracle_aggregate(rows, spec, counting_mode=mode)
    except InconsistentPair as exc:
        with pytest.raises(InconsistentPair) as err:
            aggregate(scored_table(rows), spec, counting_mode=mode)
        assert str(err.value) == str(exc)
        return
    assert aggregate(scored_table(rows), spec, counting_mode=mode) == want


def test_unknown_counting_mode():
    with pytest.raises(ConfigError):
        aggregate(scored_table([]), counting_mode="per_city")


def test_paper_level_filters():
    rows = [
        row("P1", "China", areas=("Biotech",), fields=("medicine",), if_bin=2),
        row("P1", "U.S.", author="A2", areas=("Biotech",), fields=("medicine",), if_bin=2),
        row("P2", "China", areas=("Energy",), if_bin=0),
        row("P2", "U.S.", author="A2", areas=("Energy",), if_bin=0),
    ]
    table = scored_table(rows)
    assert len(aggregate(table, FilterSpec(areas=frozenset({"Biotech"})))) == 1
    assert len(aggregate(table, FilterSpec(fields=frozenset({"medicine"})))) == 1
    assert len(aggregate(table, FilterSpec(if_bins=frozenset({0})))) == 1
    assert len(aggregate(table, FilterSpec(areas=frozenset({"Quantum Technology"})))) == 0
    assert aggregate(table, FilterSpec(areas=frozenset({"Energy"})))[0].filter_desc == "areas=Energy"


def test_bri_partner_collapse():
    rows = [
        row("P1", "China", author="A1", leader=True, country="China"),
        row("P1", "EU+", author="A2", country="Italy", bri_class="HighIncome"),
        row("P2", "China", author="A1", country="China"),
        row("P2", "South Asia", author="A3", leader=True, country="Vietnam",
            bri_class="LowIncome"),
        row("P3", "EU+", author="A4", country="Italy", bri_class="HighIncome"),
        row("P3", "U.S.", author="A5", country="United States"),
    ]
    high = aggregate(scored_table(rows), FilterSpec(bri_class="HighIncome"))
    # P2 partner is LowIncome, P3 has no China side: only P1 remains
    assert len(high) == 1
    c = high[0]
    assert c.pair == ("BRI:HighIncome", "China")
    assert c.leaders == {"BRI:HighIncome": 0, "China": 1}
    assert c.supporters == {"BRI:HighIncome": 1, "China": 0}
    low = aggregate(scored_table(rows), FilterSpec(bri_class="LowIncome"))
    assert len(low) == 1
    assert low[0].leaders["BRI:LowIncome"] == 1


def test_bri_drops_nonmatching_partner_rows():
    rows = [
        row("P1", "China", author="A1", leader=True, country="China"),
        row("P1", "EU+", author="A2", country="Italy", bri_class="HighIncome"),
        row("P1", "EU+", author="A3", country="France", bri_class="NonSignatory"),
    ]
    out = aggregate(scored_table(rows), FilterSpec(bri_class="HighIncome"))
    assert out[0].supporters["BRI:HighIncome"] == 1  # France row dropped


def test_share_arithmetic():
    c = counts_of(("A", "B"), 2020, {"A": 3, "B": 1}, {"A": 1, "B": 3})
    assert lead_share(c, "A") == 0.75
    assert lead_share(c, "B") == 0.25
    assert supporter_share(c, "A") == 0.25
    assert lead_premium(c, "A") == 0.5
    c = counts_of(("A", "B"), 2020, {"A": 0, "B": 5}, {"A": 1, "B": 1})
    assert lead_share(c, "A") == 0.0
    c = counts_of(("A", "B"), 2020, {"A": 7, "B": 7}, {"A": 1, "B": 1})
    assert lead_share(c, "A") == 0.5


def test_premium_hand_value():
    c = counts_of(("A", "B"), 2020, {"A": 2, "B": 2}, {"A": 8, "B": 2})
    assert lead_premium(c, "A") == pytest.approx(-0.3)


def test_degenerate_years():
    c = counts_of(("A", "B"), 2020, {"A": 0, "B": 0}, {"A": 1, "B": 0})
    with pytest.raises(NoLeaders):
        lead_share(c, "A")
    c = counts_of(("A", "B"), 2020, {"A": 1, "B": 0}, {"A": 0, "B": 0})
    with pytest.raises(NoSupporters):
        supporter_share(c, "A")


def test_focal_must_be_in_pair():
    c = counts_of(("A", "B"), 2020, {"A": 1, "B": 1}, {"A": 1, "B": 1})
    with pytest.raises(ConfigError):
        lead_share(c, "C")


counts_strategy = st.builds(
    lambda la, lb, sa, sb: counts_of(
        ("A", "B"), 2020, {"A": la, "B": lb}, {"A": sa, "B": sb}
    ),
    st.integers(0, 10**6), st.integers(0, 10**6),
    st.integers(0, 10**6), st.integers(0, 10**6),
)


@settings(max_examples=200)
@given(counts_strategy)
def test_share_identities(c):
    if c.leaders["A"] + c.leaders["B"] > 0:
        assert abs(lead_share(c, "A") + lead_share(c, "B") - 1.0) <= 1e-12
    if min(
        c.leaders["A"] + c.leaders["B"], c.supporters["A"] + c.supporters["B"]
    ) > 0:
        assert abs(lead_premium(c, "A") + lead_premium(c, "B")) <= 1e-12


@settings(max_examples=100)
@given(counts_strategy, st.integers(2, 10))
def test_positive_scaling_invariance(c, k):
    scaled = counts_of(
        c.pair, c.year,
        {r: k * v for r, v in c.leaders.items()},
        {r: k * v for r, v in c.supporters.items()},
    )
    if c.leaders["A"] + c.leaders["B"] > 0:
        assert lead_share(scaled, "A") == lead_share(c, "A")
    if c.supporters["A"] + c.supporters["B"] > 0:
        assert supporter_share(scaled, "A") == supporter_share(c, "A")


def test_build_series_skips_undefined_years():
    countsets = [
        counts_of(("A", "B"), 2010, {"A": 3, "B": 7}, {"A": 1, "B": 1}),
        counts_of(("A", "B"), 2011, {"A": 0, "B": 0}, {"A": 1, "B": 1}),
        counts_of(("A", "B"), 2012, {"A": 4, "B": 6}, {"A": 1, "B": 1}),
    ]
    s = build_series(countsets, ("A", "B"), "A", "LeadShare")
    assert s.points == ((2010, 0.3), (2012, 0.4))


def test_build_series_empty_and_sorted():
    assert build_series([], ("A", "B"), "A", "LeadShare").points == ()
    countsets = [
        counts_of(("A", "B"), 2012, {"A": 1, "B": 1}, {"A": 1, "B": 1}),
        counts_of(("A", "B"), 2010, {"A": 1, "B": 3}, {"A": 1, "B": 1}),
    ]
    s = build_series(countsets, ("A", "B"), "A", "LeadShare")
    assert [y for y, _ in s.points] == [2010, 2012]


def test_build_series_unknown_metric():
    with pytest.raises(ConfigError):
        build_series([], ("A", "B"), "A", "Dominance")


def test_build_series_ignores_other_pairs():
    countsets = [
        counts_of(("A", "B"), 2010, {"A": 1, "B": 1}, {"A": 1, "B": 1}),
        counts_of(("A", "C"), 2010, {"A": 9, "C": 0}, {"A": 1, "C": 1}),
    ]
    s = build_series(countsets, ("A", "B"), "A", "LeadShare")
    assert s.points == ((2010, 0.5),)


def test_filter_descriptions():
    assert FilterSpec().describe() == "all"
    assert FilterSpec(areas=frozenset({"Energy", "Biotech"})).describe() == "areas=Biotech|Energy"
    assert FilterSpec(if_bins=frozenset({2, 0})).describe() == "if_bins=0|2"
    assert FilterSpec(bri_class="LowIncome").describe() == "bri=LowIncome"
    combined = FilterSpec(fields=frozenset({"medicine"}), if_bins=frozenset({1}))
    assert combined.describe() == "fields=medicine;if_bins=1"
    assert FilterSpec(threshold=0.55).describe() == "threshold=0.55"
    with_threshold = FilterSpec(areas=frozenset({"Energy"}), threshold=0.5)
    assert with_threshold.describe() == "areas=Energy;threshold=0.5"


def test_admits_all_only_without_a_tags_filter():
    # the BRI class and the threshold restrict rows, not papers
    assert FilterSpec().admits_all()
    assert FilterSpec(bri_class="LowIncome", threshold=0.5).admits_all()
    for key in ("areas", "fields", "if_bins"):
        assert not FilterSpec(**{key: frozenset()}).admits_all()


def test_aggregate_counts_contiguous_runs():
    # P1 comes back after P2: each contiguous run is a paper of its own
    rows = [
        row("P1", "China", leader=True),
        row("P1", "U.S.", author="A2"),
        row("P2", "China"),
        row("P2", "U.S.", author="A2"),
        row("P1", "China"),
        row("P1", "U.S.", author="A2", leader=True),
    ]
    (c,) = aggregate(scored_table(rows))
    assert c.leaders == {"China": 1, "U.S.": 1}
    assert c.supporters == {"China": 2, "U.S.": 2}
    # the id P1 spans two regions overall, but its last run only one
    with pytest.raises(InconsistentPair, match="'P1'.*'China'"):
        aggregate(scored_table(
            rows + [row("P3", "China"), row("P3", "U.S."), row("P1", "China")]
        ))


def test_series_file_round_trip(tmp_path):
    original = [
        RegionSeries(
            pair=("China", "U.S."), focal="China", metric="LeadShare",
            points=((2010, 0.25), (2011, 0.5)), filter_desc="all",
        ),
        RegionSeries(
            pair=("China", "U.S."), focal="China", metric="LeadPremium",
            points=((2010, -0.125),), filter_desc="if_bins=3",
        ),
    ]
    path = tmp_path / "series.tsv"
    write_series(original, path)
    again = sorted(read_series(path), key=lambda s: s.metric)
    assert again == sorted(original, key=lambda s: s.metric)


def test_series_file_rejects_unknown_metric(tmp_path):
    path = tmp_path / "series.tsv"
    path.write_text(
        "pair\tfocal\tmetric\tfilter\tyear\tvalue\n"
        "China|U.S.\tChina\tDominance\tall\t2010\t0.5\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedRecord):
        read_series(path)
