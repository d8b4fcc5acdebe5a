"""Model fitting, prediction, classification boundary, and scored I/O."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scored
from helpers import assert_same, feature_vector, fit_inputs, make_record
from leadshare.corpus import classify_topics, filter_corpus, impact_factor_bin
from leadshare.errors import (
    ConfigError, InvariantViolation, MalformedRecord, RecordError, TooFewExamples,
)
from leadshare.features import LeadFeatureVector, build_profiles, read_features
from leadshare.metrics import FilterSpec, aggregate
from leadshare.records import CorpusTable, read_corpus
from leadshare.leadmodel import (
    LEADER,
    SUPPORTER,
    LinearLeadModel,
    classify,
    evaluate,
    fit,
    predict,
    read_model,
    read_scored,
    score_corpus,
    write_eval,
    write_model,
    write_scored,
)
from synth import separable_examples


def vec(**overrides) -> LeadFeatureVector:
    base = dict(
        f1_refs_previously_cited=0, f2_keyword_overlap=0, f3_self_citations=0,
        f4_career_age=0, f5_prior_pub_count=0, f6_citations_received=0,
        f7_unique_keywords=0, f8_first_or_last_count=0, f9_affiliation_score=0.0,
    )
    base.update(overrides)
    return LeadFeatureVector(**base)


def flat_model(intercept=0.0, weights=(0.0,) * 9) -> LinearLeadModel:
    return LinearLeadModel(
        weights=tuple(weights), intercept=intercept,
        feature_means=(0.0,) * 9, feature_stds=(1.0,) * 9,
        seed=0, split_ratio=0.9, n_train=100,
    )


def test_classify_boundary():
    assert classify(0.65) == SUPPORTER
    assert classify(0.65 + 1e-9) == LEADER
    assert classify(0.66) == LEADER
    assert classify(0.0) == SUPPORTER
    assert classify(0.7, threshold=0.7) == SUPPORTER


def test_predict_intercept_only():
    model = flat_model(intercept=0.3)
    assert predict(model, vec()) == 0.3
    assert predict(model, vec(f5_prior_pub_count=40)) == 0.3


def test_predict_hand_model():
    weights = [0.0] * 9
    weights[8] = 1.0
    model = flat_model(weights=tuple(weights))
    assert predict(model, vec(f9_affiliation_score=0.4)) == pytest.approx(0.4)


def test_predict_clamps():
    assert predict(flat_model(intercept=1.2), vec()) == 1.0
    assert predict(flat_model(intercept=-0.2), vec()) == 0.0


def test_exact_linear_labels_recovered():
    rng = np.random.default_rng(1)
    examples = []
    for _ in range(60):
        v = vec(
            f1_refs_previously_cited=int(rng.integers(0, 20)),
            f5_prior_pub_count=int(rng.integers(0, 30)),
            f9_affiliation_score=float(rng.uniform(0, 1)),
        )
        y = 0.15 + 0.01 * v.f1_refs_previously_cited + 0.005 * v.f5_prior_pub_count \
            + 0.2 * v.f9_affiliation_score
        examples.append((v, y))
    model, _ = fit(*fit_inputs(examples), seed=3)
    for v, y in examples:
        assert predict(model, v) == pytest.approx(y, abs=1e-9)


def test_fit_is_deterministic():
    examples = separable_examples(seed=4)
    a, _ = fit(*fit_inputs(examples), seed=11)
    b, _ = fit(*fit_inputs(examples), seed=11)
    assert a == b


def test_separable_examples_classified():
    model, report = fit(*fit_inputs(separable_examples(seed=2)), seed=0)
    assert report.precision >= 0.95
    assert report.recall >= 0.95


def test_eval_identities():
    probs = np.array([0.9, 0.8, 0.2, 0.7, 0.1])
    labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    report = evaluate(probs, labels, threshold=0.65)
    assert (report.tp, report.fp, report.fn, report.tn) == (2, 1, 1, 1)
    assert report.precision == pytest.approx(2 / 3)
    assert report.recall == pytest.approx(2 / 3)


def test_eval_zero_divisions():
    report = evaluate(np.array([0.1, 0.2]), np.array([0.0, 0.0]), 0.65)
    assert report.precision == 0.0 and report.recall == 0.0


def test_recall_never_rises_with_threshold():
    rng = np.random.default_rng(8)
    probs = rng.uniform(size=500)
    labels = (rng.uniform(size=500) < 0.5).astype(float)
    recalls = [
        evaluate(probs, labels, t).recall
        for t in np.arange(0.05, 1.0, 0.05)
    ]
    assert all(a >= b for a, b in zip(recalls, recalls[1:]))


def test_degenerate_feature_frozen_out():
    examples = []
    rng = np.random.default_rng(5)
    for i in range(40):
        v = vec(
            f4_career_age=7,  # constant across all examples
            f1_refs_previously_cited=int(rng.integers(0, 10)),
        )
        examples.append((v, 0.1 + 0.05 * v.f1_refs_previously_cited))
    model, _ = fit(*fit_inputs(examples), seed=0)
    assert model.weights[3] == 0.0
    assert model.feature_stds[3] == 1.0


def test_collinear_design_uses_ridge():
    rng = np.random.default_rng(6)
    examples = []
    for _ in range(40):
        f1 = int(rng.integers(0, 10))
        # f2 duplicates f1 exactly, so the standardized design is singular
        examples.append((vec(f1_refs_previously_cited=f1, f2_keyword_overlap=f1),
                         0.05 * f1))
    model, _ = fit(*fit_inputs(examples), seed=0)
    assert model.damping > 0.0


def test_too_few_examples():
    examples = separable_examples(seed=0)[:19]
    with pytest.raises(TooFewExamples):
        fit(*fit_inputs(examples), seed=0)


def test_fit_rejects_bad_config():
    examples = separable_examples(seed=0)
    with pytest.raises(ConfigError):
        fit(*fit_inputs(examples), split_ratio=1.0)
    bad = [(v, 2.0) for v, _ in examples[:30]]
    with pytest.raises(ConfigError):
        fit(*fit_inputs(bad))
    X, y = fit_inputs(examples)
    with pytest.raises(ConfigError, match="need 399 rows of 9 features"):
        fit(X, y[:-1])


def test_fit_on_matrix_rows_matches_vectors():
    # fit-model hands fit the whole read-only features.tsv matrix and the
    # row of each example, which fit gathers itself
    examples = separable_examples(seed=5)
    X, y = fit_inputs(examples)
    table = np.vstack([X[::-1], X])
    table.setflags(write=False)
    rows = np.arange(len(X), 2 * len(X))
    assert fit(table, y, rows=rows, seed=3) == fit(X, y, seed=3)
    assert fit(table, y.tolist(), rows=rows[::-1] - len(X), seed=3) == fit(X, y, seed=3)
    assert fit(table[len(X):], y, seed=3) == fit(X, y, seed=3)
    with pytest.raises(ConfigError, match="need 399 rows of 9 features, got \\(400, 9\\)"):
        fit(table, y[:-1], rows=rows)


def test_feature_rescaling_invariance():
    examples = separable_examples(seed=9)
    scaled = [
        (v._replace(f6_citations_received=v.f6_citations_received * 1000), y)
        for v, y in examples
    ]
    base_model, _ = fit(*fit_inputs(examples), seed=1)
    scaled_model, _ = fit(*fit_inputs(scaled), seed=1)
    for (v, _), (w, _) in zip(examples[:50], scaled[:50]):
        assert predict(scaled_model, w) == pytest.approx(
            predict(base_model, v), abs=1e-9
        )


def test_positive_weight_monotonicity():
    model, _ = fit(*fit_inputs(separable_examples(seed=12)), seed=0)
    i = int(np.argmax(model.weights))
    assert model.weights[i] > 0

    def raw(x):
        return model.intercept + sum(
            w * (xi - m) / s
            for w, xi, m, s in zip(
                model.weights, x, model.feature_means, model.feature_stds
            )
        )

    base = vec().as_array()
    bumped = base.copy()
    bumped[i] += 10
    assert raw(bumped) > raw(base)


def test_model_file_round_trip(tmp_path):
    model, report = fit(*fit_inputs(separable_examples(seed=3)), seed=2)
    path = tmp_path / "model.tsv"
    write_model(model, path)
    assert read_model(path) == model
    write_eval(report, tmp_path / "eval.tsv")
    header = (tmp_path / "eval.tsv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "threshold\tprecision\trecall\ttp\tfp\tfn\ttn"


def test_model_file_missing_field(tmp_path):
    model, _ = fit(*fit_inputs(separable_examples(seed=3)), seed=2)
    path = tmp_path / "model.tsv"
    write_model(model, path)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("stds")]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as info:
        read_model(path)
    # no line holds a missing field, so the message names none
    assert str(info.value) == f"{path}: field 'stds': missing model field"


@pytest.mark.parametrize(
    "extra, error, field, message",
    [
        ("colour\tblue", MalformedRecord, "colour", "unknown model field"),
        # model.tsv has no header: seed is on line 2
        ("seed\t5", InvariantViolation, "key", "'seed' repeats line 2"),
    ],
    ids=["unknown", "repeated"],
)
def test_model_file_rejects_extra_key(tmp_path, extra, error, field, message):
    model, _ = fit(*fit_inputs(separable_examples(seed=3)), seed=2)
    path = tmp_path / "model.tsv"
    write_model(model, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(extra + "\n")
    with pytest.raises(error) as info:
        read_model(path)
    assert (info.value.source, info.value.line_no, info.value.field) == (
        str(path), 10, field
    )
    assert info.value.message == message


@pytest.fixture(scope="module")
def scoring_setup(request):
    region_map = request.getfixturevalue("region_map")
    topics = request.getfixturevalue("topics")
    bri = request.getfixturevalue("bri")
    corpus = [
        make_record(
            "P1", 2019, date="2019-03-01",
            authors=("A1", "A2"), countries=("China", "United States"),
            refs=(), concepts=(("alpha", 0),),
        ),
        make_record(
            "P2", 2020, date="2020-04-01",
            authors=("A1", "A2"), countries=("China", "United States"),
            refs=("P1",), concepts=(("alpha", 0), ("beta", 1)),
        ),
    ]
    model, _ = fit(*fit_inputs(separable_examples(seed=1)), seed=0)
    return corpus, model, region_map, topics, bri


def bilateral(corpus, region_map) -> CorpusTable:
    """The table of the papers of corpus that ingest keeps."""
    table = CorpusTable(corpus)
    kept, _counts = filter_corpus(table, region_map)
    return table.take(kept)


def test_score_corpus_matches_composition(scoring_setup):
    corpus, model, region_map, topics, bri = scoring_setup
    edges = (1, 2, 4, 8, 16)
    features = build_profiles(CorpusTable(corpus))
    table, below = score_corpus(
        model, bilateral(corpus, region_map), features, region_map, topics, bri, edges
    )
    assert (len(table), below) == (4, 0)
    for i in range(len(table)):
        paper_id, author_id = table.papers[table.paper[i]], table.authors[table.author[i]]
        tags = table.tags[table.tag[i]]
        rec = next(r for r in corpus if r.paper_id == paper_id)
        prob = predict(model, feature_vector(features, paper_id, author_id))
        assert table.lead_prob[i] == float(f"{prob:.9f}")
        assert table.is_leader[i] == (prob > 0.65)
        assert table.regions[table.region[i]] == region_map.region_of(tags.country)
        assert table.year[i] == rec.year
        code, topic_tags = classify_topics(CorpusTable([rec]), topics)
        assert (tags.areas, tags.fields) == topic_tags[code[0]]
        assert tags.if_bin == impact_factor_bin(rec.impact_factor, edges)
        assert tags.bri_class == bri.class_of(tags.country)


def test_scored_file_round_trip(tmp_path, scoring_setup):
    corpus, model, region_map, topics, bri = scoring_setup
    table, _below = score_corpus(
        model, bilateral(corpus, region_map), build_profiles(CorpusTable(corpus)),
        region_map, topics, bri, (1, 2, 4, 8, 16),
    )
    path = tmp_path / "scored.tsv"
    write_scored(table, path)
    assert_same(read_scored(path), table)
    assert list(table.regions) == sorted(table.regions)
    assert len(table.tags) == len(set(table.tags))


def test_handed_on_table_is_the_decoded_one(tmp_path, fixture_dir, region_map, topics, bri):
    # the fixture's score stage, rerun on its committed upstream artifacts
    out = fixture_dir / "out"
    with open(out / "bilateral.jsonl", encoding="utf-8") as fh:
        corpus = CorpusTable(read_corpus(fh))
    table, below = score_corpus(
        read_model(out / "model.tsv"), corpus, read_features(out / "features.tsv"),
        region_map, topics, bri, (1, 2, 4, 8, 16), threshold=0.65,
    )
    path = tmp_path / "scored.tsv"
    write_scored(table, path)
    assert path.read_bytes() == (out / "scored.tsv").read_bytes()
    assert (len(table), below) == (744, 0)
    assert_same(read_scored(path), table)
    # papers below the first edge are skipped and counted
    table, below = score_corpus(
        read_model(out / "model.tsv"), corpus, read_features(out / "features.tsv"),
        region_map, topics, bri, (4, 8), threshold=0.65,
    )
    kept = corpus.impact >= 4
    assert below == np.count_nonzero(~kept) > 0
    assert len(table.papers) == np.count_nonzero(kept)


def test_rounding_decides_the_threshold_count(tmp_path, scoring_setup):
    # every row scores 0.6000000004, which scored.tsv writes as 0.600000000:
    # a threshold of 0.6 must count it as a supporter in both tables
    corpus, _model, region_map, topics, bri = scoring_setup
    model = flat_model(intercept=0.6000000004)
    table, _below = score_corpus(
        model, bilateral(corpus, region_map), build_profiles(CorpusTable(corpus)),
        region_map, topics, bri, (1, 2, 4, 8, 16), threshold=0.6,
    )
    path = tmp_path / "scored.tsv"
    write_scored(table, path)
    decoded = read_scored(path)
    # is_leader is decided before rounding
    assert table.is_leader.all()
    for scored in (table, decoded):
        counts = aggregate(scored, FilterSpec(threshold=0.6))
        assert sum(sum(c.leaders.values()) for c in counts) == 0
        assert sum(sum(c.supporters.values()) for c in counts) == len(table) == 4
    assert_same(decoded, table)


def test_scored_file_rejects_missing_tags(tmp_path):
    path = tmp_path / "scored.tsv"
    path.write_text(
        "paper_id\tauthor_id\tregion\tyear\tlead_prob\tis_leader\ttags\n"
        "P1\tA1\tChina\t2020\t0.5\tfalse\tareas=;if_bin=0\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedRecord):
        list(read_scored(path))


SCORED_HEADER = "paper_id\tauthor_id\tregion\tyear\tlead_prob\tis_leader\ttags\n"
GOOD_TAGS = "areas=Energy;fields=physics;if_bin=1;bri=NonSignatory;country=China"
GOOD_LINE = f"P1\tA1\tChina\t2020\t0.5\tfalse\t{GOOD_TAGS}\n"


@pytest.mark.parametrize(
    "text, line_no, field",
    [
        ("paper_id\tauthor_id\tregion\n" + GOOD_LINE, 1, "header"),
        (SCORED_HEADER + GOOD_LINE + "P1\tA1\tChina\t2020\t0.5\tfalse\n", 3, "<line>"),
        (SCORED_HEADER + GOOD_LINE + GOOD_LINE.replace("\t0.5", "\t0.5\t"), 3, "<line>"),
        (SCORED_HEADER + GOOD_LINE + "\n" + GOOD_LINE, 3, "<line>"),
        (SCORED_HEADER + GOOD_LINE + GOOD_LINE.replace(";country=China", ""), 3, "tags"),
        (SCORED_HEADER + GOOD_LINE + GOOD_LINE.replace("2020", "20x0"), 3, "year"),
        (SCORED_HEADER + GOOD_LINE + GOOD_LINE.replace("0.5", "high"), 3, "lead_prob"),
        (SCORED_HEADER + GOOD_LINE + GOOD_LINE.replace("if_bin=1", "if_bin=two"), 3, "tags"),
    ],
    ids=[
        "header", "six-columns", "eight-columns", "blank-line", "missing-tag",
        "year", "lead_prob", "if_bin",
    ],
)
def test_scored_file_errors_name_file_and_line(tmp_path, text, line_no, field):
    path = tmp_path / "scored.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        read_scored(path)
    assert (err.value.line_no, err.value.field) == (line_no, field)
    assert str(err.value).startswith(f"{path}: line {line_no}, ")


def test_scored_file_header_only(tmp_path):
    path = tmp_path / "scored.tsv"
    path.write_text(SCORED_HEADER, encoding="utf-8")
    table = read_scored(path)
    assert len(table) == 0 and table.tags == ()


_REGIONS = ("U.S.", "China", "EU+", "Africa")
_TAG_NAMES = ("Energy", "Biotech", "Robotics")


@st.composite
def scored_rows(draw):
    """A valid scored.tsv as rows of cells, the tags cell as a list of
    `key=value` items: distinct texts may parse to one value (a padded
    year, areas in another order, tags keys in another order, an extra
    item), and rows need not form bilateral papers."""
    keys = draw(st.lists(
        st.tuples(st.sampled_from(["P1", "P2", "P10", "W7"]), st.sampled_from(["A1", "A2", "B"])),
        unique=True, max_size=10,
    ))
    names = st.lists(st.sampled_from(_TAG_NAMES + ("",)), max_size=3).map("|".join)
    rows = []
    for paper_id, author_id in keys:
        items = [
            f"areas={draw(names)}", f"fields={draw(names)}",
            f"if_bin={draw(st.sampled_from(['0', '1', '+2', ' 3']))}",
            f"bri={draw(st.sampled_from(['HighIncome', 'NonSignatory']))}",
            f"country={draw(st.sampled_from(['China', 'Kenya']))}",
        ]
        items = draw(st.permutations(items)) + draw(st.sampled_from([[], ["note=1"], ["x"]]))
        rows.append([
            paper_id, author_id, draw(st.sampled_from(_REGIONS)),
            draw(st.sampled_from(["2020", "2021", "02021", "1999"])),
            draw(st.floats(0, 1).map("{:.9f}".format) | st.sampled_from(["1", "1e-3", "inf"])),
            draw(st.sampled_from(["true", "false"])), items,
        ])
    return rows


def _break(rows: list, kind: str, i: int) -> None:
    """One fault in row i: a bad cell, a missing tag, a wrong column
    count, or the key of another row."""
    row = rows[i]
    if kind == "is_leader":
        row[5] = "yes"
    elif kind == "year":
        row[3] = "20x0"
    elif kind == "lead_prob":
        row[4] = "high"
    elif kind == "missing-tag":
        row[6] = [item for item in row[6] if not item.startswith("country=")]
    elif kind == "if_bin":
        row[6] = [("if_bin=two" if item.startswith("if_bin=") else item) for item in row[6]]
    elif kind == "columns":
        row[2] += "\textra"
    elif kind == "repeated":
        row[:2] = rows[i - 1][:2]


def _scored_outcome(read, text: str, path):
    """The table read makes of text as its attributes, or its error as
    (class, line, field, message)."""
    path.write_text(text, encoding="utf-8")
    try:
        return vars(read(path))
    except RecordError as exc:
        return (type(exc), exc.line_no, exc.field, str(exc))


_FAULTS = ("is_leader", "year", "lead_prob", "missing-tag", "if_bin", "columns", "repeated")


def _assert_decodes_like_the_reference(rows: list, path) -> None:
    """read_scored makes of rows the reference's table, or its error."""
    text = SCORED_HEADER + "".join(
        "\t".join([*row[:6], ";".join(row[6])]) + "\n" for row in rows
    )
    got = _scored_outcome(read_scored, text, path)
    want = _scored_outcome(reference_scored.read_scored, text, path)
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for name, value in want.items():
            assert_same(got[name], value, name)
    else:
        assert got == want


@settings(max_examples=150, deadline=None)
@given(rows=scored_rows(), data=st.data())
def test_scored_decode_agrees_with_the_reference(tmp_path_factory, rows, data):
    # the same table, or the same error, with up to three faults, several
    # possibly in one row and a repeated row before or after another fault
    for _ in range(data.draw(st.integers(0, 3)) if rows else 0):
        kind = data.draw(st.sampled_from(_FAULTS[:None if len(rows) > 1 else -1]))
        _break(rows, kind, data.draw(st.integers(kind == "repeated", len(rows) - 1)))
    _assert_decodes_like_the_reference(rows, tmp_path_factory.getbasetemp() / "scored.tsv")


@pytest.mark.parametrize("kinds", [
    kinds for n in (2, 3, 4, 5) for kinds in itertools.combinations(_FAULTS[:5], n)
], ids="+".join)
@pytest.mark.parametrize("repeated", [None, 1, 3], ids=["alone", "before", "after"])
def test_scored_line_faults_agree_with_the_reference(tmp_path, kinds, repeated):
    # several faults in line 4: is_leader, year, lead_prob and tags are
    # checked in that order; a repeated row on line 3 or 5 comes after them
    cells = GOOD_LINE.rstrip("\n").split("\t")
    rows = [[f"P{i}", *cells[1:6], cells[6].split(";")] for i in range(4)]
    for kind in kinds:
        _break(rows, kind, 2)
    if repeated is not None:
        _break(rows, "repeated", repeated)
    _assert_decodes_like_the_reference(rows, tmp_path / "scored.tsv")


def test_scored_decode_shares_tag_sets(tmp_path):
    # distinct tags cells with one areas text share its frozenset
    path = tmp_path / "scored.tsv"
    path.write_text(SCORED_HEADER + GOOD_LINE + GOOD_LINE.replace("A1", "A2").replace(
        "country=China", "country=Kenya"
    ), encoding="utf-8")
    first, second = read_scored(path).tags
    assert first.areas is second.areas and first.fields is second.fields


def test_scored_decode_memory(tmp_path):
    # the decode holds at most three times the file: 12k rows of
    # OpenAlex-like ids, about 2.5 authors a paper
    rng = np.random.default_rng(5)
    lines = []
    for i in range(12_000):
        paper = 2_000_000_000 + i * 2 // 5
        areas = "|".join(sorted(rng.choice(["Energy", "Biotech", "Quantum Technology"], 2)))
        lines.append(
            f"W{paper}\tA{3_000_000_000 + i * 7919 % 5_000}\t"
            f"{_REGIONS[i % 2]}\t{2000 + paper % 22}\t{rng.random():.9f}\t"
            f"{'true' if i % 3 else 'false'}\tareas={areas};fields=medicine;"
            f"if_bin={paper % 5};bri=NonSignatory;country={['China', 'Kenya'][i % 2]}\n"
        )
    path = tmp_path / "scored.tsv"
    path.write_text(SCORED_HEADER + "".join(lines), encoding="utf-8")
    tracemalloc.start()
    try:
        table = read_scored(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 12_000
    assert peak <= 3 * path.stat().st_size
