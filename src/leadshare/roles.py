"""Contribution-verb role clustering and per-author lead values.

The training corpus is a stream of pre-tokenized contribution statements
(one per author per paper).  Verbs that co-occur within the same statement
form a symmetric count matrix; each verb's positive-PMI row, L2-normalized,
is its embedding; seeded k-means with k=3 partitions the vocabulary; the
clusters are labeled Lead / DirectSupport / IndirectSupport by majority
vote of a fixed seed-verb list.  An author's lead value on a paper is the
fraction of their distinct known verbs that belong to the Lead cluster
(the two support roles are collapsed).
"""

from __future__ import annotations

import itertools
import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .errors import (
    AmbiguousLabeling,
    ConfigError,
    EmptyCorpus,
    NoKnownVerbs,
    VocabularyTooSmall,
)
from .kmeans import kmeans
from .records import ContributionRecord, FieldError, check_unique, read_tsv, tsv_rows, write_tsv

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


_LEMMAS: dict[str, str] = {}
for _label, _verbs in SEED_VERBS.items():
    for _verb in _verbs:
        for _form in _inflections(_verb):
            _LEMMAS[_form] = _verb


def normalize_verb(text: str) -> str:
    """Lowercase, strip surrounding punctuation, and fold inflected forms."""
    cleaned = text.strip().lower().strip(".,;:!?\"'()[]")
    return _LEMMAS.get(cleaned, cleaned)


def normalize_records(records: Iterable[ContributionRecord]) -> list[ContributionRecord]:
    """Each record with normalized verbs, empty ones dropped; each verb list is normalized once."""
    normalized: dict[tuple[str, ...], tuple[str, ...]] = {}
    out = []
    for r in records:
        if r.verbs not in normalized:
            normalized[r.verbs] = tuple(v for v in map(normalize_verb, r.verbs) if v)
        out.append(ContributionRecord(r.paper_id, r.author_id, normalized[r.verbs]))
    return out


@dataclass(frozen=True)
class CooccurrenceMatrix:
    """Symmetric verb co-occurrence counts over (paper, author) units."""

    vocabulary: tuple[str, ...]
    counts: np.ndarray


def build_cooccurrence(records: Iterable[ContributionRecord]) -> CooccurrenceMatrix:
    """Count within-statement verb co-occurrence, deduplicated per unit."""
    units = Counter(frozenset(record.verbs) for record in records)
    units.pop(frozenset(), None)
    if not units:
        raise EmptyCorpus("no contribution statements")
    vocabulary = tuple(sorted(frozenset().union(*units)))
    index = {v: i for i, v in enumerate(vocabulary)}
    counts = np.zeros((len(vocabulary), len(vocabulary)), dtype=np.int64)
    # each distinct verb set adds its number of statements to its block
    for unit, n in units.items():
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
        raise VocabularyTooSmall(
            f"{len(matrix.vocabulary)} verbs cannot form {k} clusters"
        )
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
    clusters = tuple(
        frozenset(g) for g in sorted(groups.values(), key=lambda g: min(g))
    )
    return RolePartition(
        clusters=clusters,
        seed=seed,
        n_iter=result.n_iter,
        converged=result.converged,
        inertia=result.inertia,
    )


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
    best_perm = None
    best_total = -1
    tied = False
    for perm in itertools.permutations(ROLE_LABELS):
        total = sum(scores[c][perm[c]] for c in range(3))
        if total > best_total:
            best_perm, best_total, tied = perm, total, False
        elif total == best_total and perm != best_perm:
            tied = True
    if tied or best_perm is None:
        raise AmbiguousLabeling(
            "two label assignments tie on seed-verb counts"
        )
    by_verb = {
        verb: label
        for cluster, label in zip(partition.clusters, best_perm)
        for verb in cluster
    }
    return RoleClusterModel(
        by_verb=by_verb,
        seed=partition.seed,
        k=3,
        n_iter=partition.n_iter,
        converged=partition.converged,
    )


def fractional_lead_value(
    record: ContributionRecord,
    model: RoleClusterModel,
    *,
    strict_binary: bool = False,
) -> float:
    """Share of the author's distinct known verbs that are Lead verbs.

    Unknown verbs are dropped with a warning.  With strict_binary the value
    collapses to 1.0 whenever any Lead verb is present, else 0.0.
    """
    distinct = set(record.verbs)
    known = [v for v in distinct if v in model.by_verb]
    if not known:
        raise NoKnownVerbs(
            f"no verbs of {record.author_id} on {record.paper_id} are in the model"
        )
    if len(known) < len(distinct):
        log.warning(
            "dropping %d unknown verb(s) for %s on %s",
            len(distinct) - len(known), record.author_id, record.paper_id,
        )
    lead = sum(1 for v in known if model.by_verb[v] == LEAD)
    if strict_binary:
        return 1.0 if lead else 0.0
    return lead / len(known)


@dataclass(frozen=True, slots=True)
class TrainingLabel:
    paper_id: str
    author_id: str
    lead_value: float


def training_labels(
    records: Iterable[ContributionRecord],
    model: RoleClusterModel,
    *,
    strict_binary: bool = False,
) -> Iterator[TrainingLabel]:
    """Label each statement, skipping those with no known verbs; each verb set is valued once."""
    skipped = 0
    values: dict[frozenset[str], Optional[float]] = {}
    for record in records:
        unit = frozenset(record.verbs)
        if unit not in values:
            try:
                values[unit] = fractional_lead_value(record, model, strict_binary=strict_binary)
            except NoKnownVerbs:
                values[unit] = None
        if values[unit] is None:
            skipped += 1
            continue
        yield TrainingLabel(record.paper_id, record.author_id, values[unit])
    if skipped:
        log.warning("skipped %d statement(s) with no known verbs", skipped)


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


def write_training_labels(labels: Iterable[TrainingLabel], path: Path) -> list[TrainingLabel]:
    """Write labels.tsv; returns the labels read_training_labels decodes from it."""
    rows = [(lab.paper_id, lab.author_id, f"{lab.lead_value:.9f}") for lab in labels]
    write_tsv(path, _LABELS_HEADER, map("\t".join, rows))
    value = {text: float(text) for _, _, text in rows}  # one float per distinct value
    return [TrainingLabel(p, a, value[text]) for p, a, text in rows]


def _lead_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise FieldError("lead_value", str(exc)) from None
    if not 0.0 <= value <= 1.0:
        raise FieldError("lead_value", f"outside [0,1]: {value}")
    return value


def _labels(lines: list[str]) -> list[TrainingLabel]:
    labels = [TrainingLabel(p, a, _lead_value(v)) for p, a, v in tsv_rows(lines)]
    check_unique([(lab.paper_id, lab.author_id) for lab in labels], "paper_id, author_id")
    return labels


def read_training_labels(path: Path) -> list[TrainingLabel]:
    return read_tsv(path, _LABELS_HEADER, _labels)
