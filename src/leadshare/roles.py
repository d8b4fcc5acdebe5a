"""Contribution-verb role clustering and per-author lead values.

The training corpus is a stream of pre-tokenized contribution statements
(one per author per paper).  Verbs that co-occur within the same statement
form a symmetric count matrix; each verb's positive-PMI row, L2-normalized,
is its embedding; seeded k-means with k=3 partitions the vocabulary; the
clusters are labeled Lead / DirectSupport / IndirectSupport by majority
vote of a fixed seed-verb list.  An author's lead value on a paper is the
fraction of their distinct known verbs that belong to the Lead cluster
(the two support roles are collapsed).  The labels are a `LabelTable`,
columns with no object per label.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Optional

import numpy as np

from .errors import (
    AmbiguousLabeling,
    ConfigError,
    EmptyCorpus,
    NoKnownVerbs,
    VocabularyTooSmall,
)
from .kmeans import kmeans
from .records import (
    ContributionRecord, FieldError, check_unique_pairs, chunks, code_keys, parse_cell, read_tsv,
    write_tsv,
)

log = logging.getLogger(__name__)

LEAD = "Lead"
DIRECT_SUPPORT = "DirectSupport"
INDIRECT_SUPPORT = "IndirectSupport"
ROLE_LABELS = (LEAD, DIRECT_SUPPORT, INDIRECT_SUPPORT)

LEAD_SEED_VERBS = (
    "conceive",
    "design",
    "lead",
    "supervise",
    "coordinate",
    "interpret",
    "write",
)
DIRECT_SUPPORT_SEED_VERBS = (
    "help",
    "assist",
    "prepare",
    "develop",
    "collect",
    "generate",
    "purify",
    "carry",
    "do",
    "perform",
    "conduct",
    "analyze",
)
INDIRECT_SUPPORT_SEED_VERBS = (
    "participate",
    "provide",
    "contribute",
    "comment",
    "discuss",
    "edit",
)
SEED_VERBS: Mapping[str, tuple[str, ...]] = {
    LEAD: LEAD_SEED_VERBS,
    DIRECT_SUPPORT: DIRECT_SUPPORT_SEED_VERBS,
    INDIRECT_SUPPORT: INDIRECT_SUPPORT_SEED_VERBS,
}

_IRREGULAR_FORMS = {
    "lead": ("led",),
    "write": ("wrote", "written"),
    "do": ("does", "did", "done"),
    "analyze": ("analyse", "analyses", "analysed", "analysing"),
}

_VOWELS = set("aeiou")


def _inflections(verb: str) -> set[str]:
    forms = {verb}
    if verb.endswith("e"):
        forms |= {verb + "s", verb + "d", verb[:-1] + "ing"}
    elif verb.endswith("y") and len(verb) > 1 and verb[-2] not in _VOWELS:
        stem = verb[:-1]
        forms |= {stem + "ies", stem + "ied", verb + "ing"}
    elif verb.endswith("s"):
        forms |= {verb + "es", verb + "ed", verb + "ing"}
    else:
        forms |= {verb + "s", verb + "ed", verb + "ing"}
    forms.update(_IRREGULAR_FORMS.get(verb, ()))
    return forms


_LEMMAS = {
    form: verb for verbs in SEED_VERBS.values() for verb in verbs for form in _inflections(verb)
}


def normalize_verb(text: str) -> str:
    """Lowercase, strip surrounding punctuation, and fold inflected forms."""
    cleaned = text.strip().lower().strip(".,;:!?\"'()[]")
    return _LEMMAS.get(cleaned, cleaned)


@dataclass(frozen=True)
class StatementTable:
    """Contribution statements coded by unit: the set of a statement's
    normalized, non-empty verbs, which is all its counts and values use."""

    # each statement's ids, in input order: two lists of the parser's
    # interned strings, since a tuple per statement lifts peak RSS
    paper_ids: list[str]
    author_ids: list[str]
    unit: list[int]  # each statement's index into units
    units: tuple[frozenset[str], ...]  # distinct, in order of first appearance


def code_statements(records: Iterable[ContributionRecord]) -> StatementTable:
    """The statements as a table; each distinct verb list is normalized once."""
    paper_ids, author_ids, unit = [], [], []
    units: dict[frozenset[str], int] = {}
    by_verbs: dict[tuple[str, ...], int] = {}
    for r in records:
        paper_ids.append(r.paper_id)
        author_ids.append(r.author_id)
        code = by_verbs.get(r.verbs)
        if code is None:
            verbs = frozenset(v for v in map(normalize_verb, r.verbs) if v)
            code = by_verbs[r.verbs] = units.setdefault(verbs, len(units))
        unit.append(code)
    return StatementTable(paper_ids, author_ids, unit, tuple(units))


@dataclass(frozen=True)
class CooccurrenceMatrix:
    """Symmetric verb co-occurrence counts over statements."""

    vocabulary: tuple[str, ...]
    counts: np.ndarray


def build_cooccurrence(statements: StatementTable) -> CooccurrenceMatrix:
    """Count within-statement verb co-occurrence, deduplicated per unit."""
    vocabulary = tuple(sorted(frozenset().union(*statements.units)))
    if not vocabulary:
        raise EmptyCorpus("no contribution statements")
    index = {v: i for i, v in enumerate(vocabulary)}
    counts = np.zeros((len(vocabulary), len(vocabulary)), dtype=np.int64)
    # each unit adds its number of statements to its block
    for unit, n in zip(statements.units, np.bincount(statements.unit).tolist()):
        ids = [index[v] for v in unit]
        counts[np.ix_(ids, ids)] += n
    return CooccurrenceMatrix(vocabulary=vocabulary, counts=counts)


def ppmi_embedding(matrix: CooccurrenceMatrix) -> np.ndarray:
    """Positive PMI rows with add-one smoothing, L2-normalized."""
    smoothed = matrix.counts.astype(np.float64) + 1.0
    total = smoothed.sum()
    joint = smoothed / total
    marginal = joint.sum(axis=1)
    pmi = np.log(joint / np.outer(marginal, marginal))
    emb = np.maximum(pmi, 0.0)
    norms = np.linalg.norm(emb, axis=1)
    nonzero = norms > 0
    emb[nonzero] /= norms[nonzero, None]
    return emb


@dataclass(frozen=True)
class RolePartition:
    """Unlabeled k-way split of the verb vocabulary."""

    clusters: tuple[frozenset[str], ...]
    seed: int
    n_iter: int
    converged: bool
    inertia: float


def cluster_roles(matrix: CooccurrenceMatrix, k: int = 3, seed: int = 0) -> RolePartition:
    if len(matrix.vocabulary) < k:
        raise VocabularyTooSmall(f"{len(matrix.vocabulary)} verbs cannot form {k} clusters")
    emb = ppmi_embedding(matrix)
    result = kmeans(emb, k, seed)
    if not result.converged:
        log.warning(
            "clustering hit the iteration cap before assignments stabilized "
            "(seed %d); keeping best-so-far", seed,
        )
    groups: dict[int, set[str]] = {c: set() for c in range(k)}
    for verb, label in zip(matrix.vocabulary, result.labels):
        groups[int(label)].add(verb)
    clusters = tuple(sorted(map(frozenset, groups.values()), key=min))
    return RolePartition(clusters, seed, result.n_iter, result.converged, result.inertia)


@dataclass(frozen=True)
class RoleClusterModel:
    """Verb to role assignment plus the clustering provenance."""

    by_verb: dict[str, str]
    seed: int
    k: int
    n_iter: int
    converged: bool

    def role_of(self, verb: str) -> Optional[str]:
        return self.by_verb.get(verb)


def label_clusters(partition: RolePartition) -> RoleClusterModel:
    """Name the three clusters by majority seed-verb vote.

    The label permutation maximizing the total seed hits wins; a tied
    maximum means the data cannot distinguish two roles and is an error.
    """
    if len(partition.clusters) != 3:
        raise ConfigError("labeling requires exactly 3 clusters")
    seed_sets = {label: set(verbs) for label, verbs in SEED_VERBS.items()}
    scores = [
        {label: len(cluster & seed_sets[label]) for label in ROLE_LABELS}
        for cluster in partition.clusters
    ]
    for i, row in enumerate(scores):
        if all(v == 0 for v in row.values()):
            raise AmbiguousLabeling(
                f"cluster {i} contains no seed verbs: {sorted(partition.clusters[i])[:8]}"
            )
    totals = {
        perm: sum(row[label] for row, label in zip(scores, perm))
        for perm in itertools.permutations(ROLE_LABELS)
    }
    best = max(totals.values())
    best_perm, *tied = [perm for perm, total in totals.items() if total == best]
    if tied:
        raise AmbiguousLabeling("two label assignments tie on seed-verb counts")
    by_verb = {
        verb: label
        for cluster, label in zip(partition.clusters, best_perm)
        for verb in cluster
    }
    return RoleClusterModel(
        by_verb, partition.seed, k=3, n_iter=partition.n_iter, converged=partition.converged
    )


def fractional_lead_value(
    verbs: AbstractSet[str],
    model: RoleClusterModel,
    *,
    strict_binary: bool = False,
) -> float:
    """Share of the distinct known verbs that are Lead verbs.

    Unknown verbs are left out.  With strict_binary the value collapses to
    1.0 whenever any Lead verb is present, else 0.0.
    """
    known = [v for v in verbs if v in model.by_verb]
    if not known:
        raise NoKnownVerbs(f"none of the verbs {sorted(verbs)} are in the model")
    lead = sum(1 for v in known if model.by_verb[v] == LEAD)
    if strict_binary:
        return 1.0 if lead else 0.0
    return lead / len(known)


class LabelTable(NamedTuple):
    """Labelled statements as columns: label i is the lead value
    `lead_value[i]` of author `authors[author[i]]` on paper
    `papers[paper[i]]`.  The pools are sorted and the codes int32."""

    papers: tuple[str, ...]
    paper: np.ndarray
    authors: tuple[str, ...]
    author: np.ndarray
    lead_value: np.ndarray


def training_labels(
    statements: StatementTable,
    model: RoleClusterModel,
    *,
    strict_binary: bool = False,
) -> LabelTable:
    """Label each statement, in order, skipping those with no known verbs.

    Each unit is valued once, rounded to the 9 decimals labels.tsv holds.
    """
    values: list[float] = []
    for verbs in statements.units:
        try:
            lead = fractional_lead_value(verbs, model, strict_binary=strict_binary)
            values.append(round(lead, 9))
        except NoKnownVerbs:
            values.append(np.nan)
    value = np.array(values)[np.asarray(statements.unit, dtype=np.int64)]
    known = ~np.isnan(value)
    if skipped := len(known) - int(np.count_nonzero(known)):
        log.warning("skipped %d statement(s) with no known verbs", skipped)
    keys = zip(itertools.compress(statements.paper_ids, known),
               itertools.compress(statements.author_ids, known))
    return LabelTable(*code_keys(keys), value[known])


def write_role_model(model: RoleClusterModel, path: Path) -> None:
    write_tsv(path, None, [
        f"# seed\t{model.seed}",
        f"# k\t{model.k}",
        f"# iterations\t{model.n_iter}",
        f"# converged\t{'true' if model.converged else 'false'}",
        "verb\tcluster",
        *(f"{verb}\t{model.by_verb[verb]}" for verb in sorted(model.by_verb)),
    ])


_LABELS_HEADER = "paper_id\tauthor_id\tlead_value"


def write_training_labels(labels: LabelTable, path: Path) -> None:
    write_tsv(path, _LABELS_HEADER, (
        f"{labels.papers[p]}\t{labels.authors[a]}\t{value:.9f}"
        for rows in chunks(len(labels.lead_value))
        for p, a, value in zip(labels.paper[rows].tolist(), labels.author[rows].tolist(),
                               labels.lead_value[rows].tolist())
    ))


def _lead_value(text: str) -> float:
    value = parse_cell("lead_value", float, text)
    if not 0.0 <= value <= 1.0:
        raise FieldError("lead_value", f"outside [0,1]: {value}")
    return value


def _labels(lines: list[str]) -> LabelTable:
    values = (_lead_value(line.rsplit("\t", 1)[1]) for line in lines)
    lead_value = np.fromiter(values, np.float64, len(lines))
    keys = code_keys(line.split("\t", 2)[:2] for line in lines)
    check_unique_pairs(*keys, "paper_id, author_id")
    return LabelTable(*keys, lead_value)


def read_training_labels(path: Path) -> LabelTable:
    """labels.tsv as the LabelTable training_labels made; each lead value
    must lie in [0, 1] and each (paper_id, author_id) appear once."""
    return read_tsv(path, _LABELS_HEADER, _labels)
