"""Verb normalization, co-occurrence, clustering, and lead labeling."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadshare.errors import (
    AmbiguousLabeling,
    ConfigError,
    EmptyCorpus,
    MalformedRecord,
    NoKnownVerbs,
    NonConvergence,
    VocabularyTooSmall,
)
from leadshare import roles
from leadshare.kmeans import kmeans
from leadshare.records import ContributionRecord
from leadshare.roles import (
    DIRECT_SUPPORT,
    INDIRECT_SUPPORT,
    LEAD,
    CooccurrenceMatrix,
    RoleClusterModel,
    RolePartition,
    LabelTable,
    StatementTable,
    build_cooccurrence,
    cluster_roles,
    code_statements,
    fractional_lead_value,
    label_clusters,
    normalize_verb,
    ppmi_embedding,
    read_training_labels,
    training_labels,
    write_training_labels,
)
from helpers import label_rows
from synth import planted_blocks, planted_contributions


def stmt(*verbs, paper="P1", author="A1"):
    return ContributionRecord(paper_id=paper, author_id=author, verbs=tuple(verbs))


def cooccurrence(*records):
    return build_cooccurrence(code_statements(records))


@pytest.mark.parametrize("raw,lemma", [
    ("Conceived", "conceive"),
    ("designs", "design"),
    ("led", "lead"),
    ("wrote.", "write"),
    ("written", "write"),
    ("ANALYSED", "analyze"),
    ("analyses", "analyze"),
    ("carries", "carry"),
    ("carried", "carry"),
    ("Did", "do"),
    ("done", "do"),
    ("interpreting", "interpret"),
    ("supervised", "supervise"),
    ('"helped,"', "help"),
    ("editing", "edit"),
    ("dances", "dances"),  # not a known verb, kept as cleaned
])
def test_normalize_verb(raw, lemma):
    assert normalize_verb(raw) == lemma


def test_code_statements_drops_empty_tokens():
    table = code_statements([stmt("Conceived", "..", "  ")])
    assert table == StatementTable(["P1"], ["A1"], [0], (frozenset({"conceive"}),))


def test_code_statements_codes_each_unit_once():
    # inflections, repeats and order within a list give one unit
    table = code_statements([
        stmt("led", "helped", author="A1"), stmt("help", "lead", "lead", author="A2"),
        stmt("..", author="A3"), stmt(author="A4"), stmt("helped", "led", paper="P2"),
    ])
    assert table.paper_ids == ["P1", "P1", "P1", "P1", "P2"]
    assert table.author_ids == ["A1", "A2", "A3", "A4", "A1"]
    assert table.unit == [0, 0, 1, 1, 0]
    assert table.units == (frozenset({"lead", "help"}), frozenset())


def test_cooccurrence_counts():
    matrix = cooccurrence(stmt("a", "b"), stmt("b", "c", paper="P2"))
    assert matrix.vocabulary == ("a", "b", "c")
    c = matrix.counts
    ia, ib, ic = 0, 1, 2
    assert c[ia, ib] == 1 and c[ib, ic] == 1 and c[ia, ic] == 0
    assert c[ia, ia] == 1 and c[ib, ib] == 2 and c[ic, ic] == 1
    assert np.array_equal(c, c.T)


def test_cooccurrence_dedups_within_statement():
    matrix = cooccurrence(stmt("a", "a", "b"))
    assert matrix.counts[0, 0] == 1
    assert matrix.counts[0, 1] == 1


def test_cooccurrence_empty_corpus():
    with pytest.raises(EmptyCorpus):
        cooccurrence()
    with pytest.raises(EmptyCorpus):
        cooccurrence(stmt(), stmt(".."))


def test_ppmi_against_direct_computation():
    matrix = cooccurrence(
        stmt("a", "b"), stmt("a", "b"), stmt("b", "c", paper="P2"), stmt("c")
    )
    emb = ppmi_embedding(matrix)
    smoothed = matrix.counts.astype(float) + 1.0
    joint = smoothed / smoothed.sum()
    marginal = joint.sum(axis=1)
    expected = np.log(joint / np.outer(marginal, marginal))
    expected = np.maximum(expected, 0.0)
    for i in range(expected.shape[0]):
        norm = np.linalg.norm(expected[i])
        if norm > 0:
            expected[i] /= norm
    assert np.allclose(emb, expected, atol=1e-12)


@settings(max_examples=40)
@given(st.integers(2, 6), st.integers(0, 999999))
def test_ppmi_rows_unit_or_zero(n, seed):
    rng = np.random.default_rng(seed)
    upper = rng.integers(0, 10, size=(n, n))
    counts = np.triu(upper) + np.triu(upper, 1).T
    matrix = CooccurrenceMatrix(
        vocabulary=tuple(f"v{i}" for i in range(n)), counts=counts
    )
    emb = ppmi_embedding(matrix)
    assert np.all(emb >= 0.0)
    norms = np.linalg.norm(emb, axis=1)
    for norm in norms:
        assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0


def test_kmeans_deterministic():
    rng = np.random.default_rng(42)
    points = rng.normal(size=(40, 5))
    a = kmeans(points, 3, seed=7)
    b = kmeans(points, 3, seed=7)
    assert np.array_equal(a.labels, b.labels)
    assert a.inertia == b.inertia
    assert a.n_iter == b.n_iter


def test_kmeans_separates_two_blobs():
    rng = np.random.default_rng(0)
    left = rng.normal(loc=-5.0, scale=0.1, size=(20, 2))
    right = rng.normal(loc=5.0, scale=0.1, size=(20, 2))
    result = kmeans(np.vstack([left, right]), 2, seed=1)
    labels = result.labels
    assert len(set(labels[:20])) == 1 and len(set(labels[20:])) == 1
    assert labels[0] != labels[20]
    assert result.converged


def test_kmeans_identical_points_cannot_fill_clusters():
    points = np.ones((5, 3))
    with pytest.raises(NonConvergence):
        kmeans(points, 2, seed=0)


def test_kmeans_rejects_too_few_points():
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 2)), 3, seed=0)


def test_cluster_roles_requires_vocabulary():
    with pytest.raises(VocabularyTooSmall):
        cluster_roles(cooccurrence(stmt("a", "b")), k=3)


def test_planted_blocks_recovered():
    records, truth = planted_contributions(seed=5)
    partition = cluster_roles(cooccurrence(*records), seed=5)
    expected = {frozenset(block) for block in planted_blocks()}
    assert {frozenset(c) for c in partition.clusters} == expected
    model = label_clusters(partition)
    assert model.role_of("conceive") == LEAD
    assert model.role_of("design") == LEAD
    assert model.role_of("orchestrate") == LEAD  # filler verb follows its block
    assert model.role_of("help") == "DirectSupport"
    assert model.role_of("participate") == "IndirectSupport"
    assert model.role_of("unseen") is None


def test_label_clusters_requires_seed_presence():
    partition = RolePartition(
        clusters=(frozenset({"conceive"}), frozenset({"help"}), frozenset({"zzz"})),
        seed=0, n_iter=1, converged=True, inertia=0.0,
    )
    with pytest.raises(AmbiguousLabeling):
        label_clusters(partition)


def test_label_clusters_detects_ties():
    partition = RolePartition(
        clusters=(
            frozenset({"conceive", "help"}),
            frozenset({"design", "assist"}),
            frozenset({"participate"}),
        ),
        seed=0, n_iter=1, converged=True, inertia=0.0,
    )
    with pytest.raises(AmbiguousLabeling):
        label_clusters(partition)


def test_label_clusters_needs_three_clusters():
    partition = RolePartition(
        clusters=(frozenset({"conceive"}), frozenset({"help"})),
        seed=0, n_iter=1, converged=True, inertia=0.0,
    )
    with pytest.raises(ConfigError):
        label_clusters(partition)


def test_labeling_invariant_under_cluster_order():
    records, _ = planted_contributions(seed=11)
    partition = cluster_roles(cooccurrence(*records), seed=11)
    flipped = RolePartition(
        clusters=tuple(reversed(partition.clusters)),
        seed=partition.seed, n_iter=partition.n_iter,
        converged=partition.converged, inertia=partition.inertia,
    )
    assert label_clusters(partition).by_verb == label_clusters(flipped).by_verb


@pytest.fixture(scope="module")
def planted_model():
    records, _ = planted_contributions(seed=3)
    return label_clusters(cluster_roles(cooccurrence(*records), seed=3))


def test_fractional_lead_value(planted_model):
    assert fractional_lead_value({"conceive", "help"}, planted_model) == 0.5
    assert fractional_lead_value({"participate"}, planted_model) == 0.0
    assert fractional_lead_value({"design", "lead"}, planted_model) == 1.0


def test_fractional_lead_value_unknown_verbs(planted_model):
    # unknown verbs are dropped from the denominator, and nothing is logged
    with mock.patch.object(roles, "log") as log:
        assert fractional_lead_value({"help", "zzzz"}, planted_model) == 0.0
        assert fractional_lead_value({"conceive", "zzzz"}, planted_model) == 1.0
        with pytest.raises(NoKnownVerbs):
            fractional_lead_value({"zzzz", "wwww"}, planted_model)
        with pytest.raises(NoKnownVerbs):
            fractional_lead_value(frozenset(), planted_model)
    assert log.mock_calls == []


def test_strict_binary_collapse(planted_model):
    verbs = {"conceive", "help", "assist"}
    assert fractional_lead_value(verbs, planted_model) == pytest.approx(1 / 3)
    assert fractional_lead_value(verbs, planted_model, strict_binary=True) == 1.0
    assert fractional_lead_value({"help"}, planted_model, strict_binary=True) == 0.0


def test_training_labels_skip_unknown_only(planted_model):
    statements = code_statements([
        stmt("conceive", "help", "assist", paper="P1"),
        stmt("zzzz", paper="P2"),
        stmt("assist", paper="P3"),
    ])
    labels = training_labels(statements, planted_model)
    # each value is held at the 9 decimals labels.tsv writes
    assert [(p, v) for p, _, v in label_rows(labels)] == [("P1", 0.333333333), ("P3", 0.0)]


def test_training_labels_log_once_per_unit(planted_model):
    statements = code_statements([
        stmt("zzzz", paper="P1", author="A1"),
        stmt("help", "wwww", "zzzz", paper="P1", author="A2"),
        stmt("zzzz", paper="P2", author="A1"),
        stmt("Helped", "wwww", "zzzz", paper="P2", author="A2"),
        stmt("conceive", "wwww", paper="P3", author="A3"),
    ])
    with mock.patch.object(roles, "log") as log:
        labels = training_labels(statements, planted_model)
    assert [(p, a) for p, a, _ in label_rows(labels)] == [("P1", "A2"), ("P2", "A2"), ("P3", "A3")]
    assert [c.args for c in log.warning.call_args_list] == [
        ("skipped %d statement(s) with no known verbs", 2),
    ]


def reference_cooccurrence(records):
    """build_cooccurrence as a double loop over the statements."""
    units, vocab = [], set()
    for record in records:
        unit = frozenset(record.verbs)
        if unit:
            vocab |= unit
            units.append(unit)
    vocabulary = tuple(sorted(vocab))
    index = {v: i for i, v in enumerate(vocabulary)}
    counts = np.zeros((len(vocabulary), len(vocabulary)), dtype=np.int64)
    for unit in units:
        ids = sorted(index[v] for v in unit)
        for pos, i in enumerate(ids):
            counts[i, i] += 1
            for j in ids[pos + 1 :]:
                counts[i, j] += 1
                counts[j, i] += 1
    return vocabulary, counts


def reference_labels(records, model, strict_binary):
    """training_labels valuing every statement, as (paper_id, author_id,
    value) rows holding the values as labels.tsv does, and its skipped count."""
    labels, skipped = [], 0
    for record in records:
        try:
            value = fractional_lead_value(set(record.verbs), model, strict_binary=strict_binary)
        except NoKnownVerbs:
            skipped += 1
            continue
        labels.append((record.paper_id, record.author_id, float(f"{value:.9f}")))
    return labels, skipped


# raw tokens: inflections of one verb, repeats within a list, tokens that
# normalize to nothing, and verbs _MODEL does not know
_TOKENS = ("Conceived", "conceive", "designs", "led", "helped", "assist",
           "participated", "..", "  ", "zzzz", "wwww")
_MODEL = RoleClusterModel(
    by_verb={"conceive": LEAD, "design": LEAD, "lead": LEAD, "help": DIRECT_SUPPORT,
             "assist": DIRECT_SUPPORT, "participate": INDIRECT_SUPPORT},
    seed=0, k=3, n_iter=1, converged=True,
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=5),
             min_size=1, max_size=8),
    st.lists(st.integers(0, 7), min_size=1, max_size=40),
    st.booleans(),
)
def test_distinct_verb_lists_counted_like_each_statement(verb_lists, picks, strict_binary):
    # statements repeat verb lists; each is normalized, counted and valued
    # once per distinct list or set, with the results of doing it per statement
    raw = [stmt(*verb_lists[i % len(verb_lists)], paper=f"P{n}")
           for n, i in enumerate(picks)]
    table = code_statements(raw)
    # each statement normalized on its own
    normalized = [
        stmt(*(v for v in map(normalize_verb, r.verbs) if v), paper=r.paper_id)
        for r in raw
    ]
    assert table.paper_ids == [r.paper_id for r in raw]
    assert table.author_ids == [r.author_id for r in raw]
    assert [table.units[code] for code in table.unit] == [frozenset(r.verbs) for r in normalized]
    assert len(set(table.units)) == len(table.units)
    if any(r.verbs for r in normalized):
        vocabulary, counts = reference_cooccurrence(normalized)
        matrix = build_cooccurrence(table)
        assert matrix.vocabulary == vocabulary
        assert np.array_equal(matrix.counts, counts)
        assert matrix.counts.dtype == np.int64
    else:
        with pytest.raises(EmptyCorpus):
            build_cooccurrence(table)
    expected, skipped = reference_labels(normalized, _MODEL, strict_binary)
    with mock.patch.object(roles, "log") as log:
        labels = training_labels(table, _MODEL, strict_binary=strict_binary)
    assert label_rows(labels) == expected
    logged = [c.args[1] for c in log.warning.call_args_list if c.args[0].startswith("skipped")]
    assert logged == ([skipped] if skipped else [])


def test_training_labels_round_trip(tmp_path):
    # label order is kept; the pools are sorted whatever the order
    labels = LabelTable(
        ("P1", "P2", "P3"), np.array([1, 0, 2], np.int32),
        ("A1", "A2", "A3"), np.array([1, 0, 2], np.int32),
        np.array([1.0, 1 / 3, 0.0]),
    )
    path = tmp_path / "labels.tsv"
    write_training_labels(labels, path)
    again = read_training_labels(path)
    assert [(p, a) for p, a, _ in label_rows(again)] == [
        ("P2", "A2"), ("P1", "A1"), ("P3", "A3")
    ]
    assert again.papers == ("P1", "P2", "P3") and again.paper.dtype == np.int32
    assert again.lead_value == pytest.approx(labels.lead_value, abs=1e-9)


def test_training_labels_reject_out_of_range(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text(
        "paper_id\tauthor_id\tlead_value\nP1\tA1\t1.5\n", encoding="utf-8"
    )
    with pytest.raises(MalformedRecord):
        read_training_labels(path)
