"""Lead-probability model: seeded split, standardized fit, scoring.

The model is ordinary least squares on z-standardized features with
predictions clamped to [0, 1].  Zero-variance features are frozen out of
the solve (std forced to 1, weight to 0).  A rank-deficient design falls
back to a ridge solve with small damping, recorded in the model metadata
so downstream artifacts show the fallback engaged.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import classify_topics, impact_factor_bin
from .errors import (
    ConfigError,
    MalformedRecord,
    MissingUpstream,
    TooFewExamples,
)
from .features import FEATURE_NAMES, FeatureTable, LeadFeatureVector
from .metrics import PaperTags, ScoredTable
from .records import (
    CorpusTable, FieldError, check_unique, check_unique_pairs, chunks, parse_cell, read_tsv,
    tsv_rows, write_tsv,
)
from .tables import BriClassification, RegionMap, TopicMap

LEADER = "Leader"
SUPPORTER = "Supporter"
DEFAULT_THRESHOLD = 0.65
# ground truth for precision/recall: fractional labels binarized here
TRUTH_CUTOFF = 0.5
RIDGE_DAMPING = 1e-8
_STD_FLOOR = 1e-12
MIN_EXAMPLES = 20

FAMILY_LINEAR = "linear"  # the one family; model.tsv and the config name it


@dataclass(frozen=True)
class LinearLeadModel:
    weights: tuple[float, ...]
    intercept: float
    feature_means: tuple[float, ...]
    feature_stds: tuple[float, ...]
    seed: int
    split_ratio: float
    n_train: int
    damping: float = 0.0
    family: str = FAMILY_LINEAR


@dataclass(frozen=True)
class EvalReport:
    threshold: float
    precision: float
    recall: float
    tp: int
    fp: int
    fn: int
    tn: int


def predict_many(model: LinearLeadModel, X: np.ndarray) -> np.ndarray:
    """The clamped predictions of the rows of X, a float64 array that this
    consumes: the rows are standardized in place."""
    X -= np.asarray(model.feature_means)
    X /= np.asarray(model.feature_stds)
    return np.clip(model.intercept + X @ np.asarray(model.weights), 0.0, 1.0)


def predict(model: LinearLeadModel, v: LeadFeatureVector) -> float:
    return float(predict_many(model, v.as_array()[None, :])[0])


def classify(prob: float, threshold: float = DEFAULT_THRESHOLD) -> str:
    """Leader iff prob is strictly above the threshold."""
    return LEADER if prob > threshold else SUPPORTER


def _solve(A: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Normal-equation solve; a ridge fallback, intercept unpenalized, when rank-deficient."""
    AtA = A.T @ A
    Aty = A.T @ y
    if np.linalg.matrix_rank(AtA) == AtA.shape[0]:
        return np.linalg.solve(AtA, Aty), 0.0
    damped = AtA + np.diag([0.0] + [RIDGE_DAMPING] * (AtA.shape[0] - 1))
    return np.linalg.solve(damped, Aty), RIDGE_DAMPING


def evaluate(
    probs: np.ndarray, labels: np.ndarray, threshold: float
) -> EvalReport:
    predicted = probs > threshold
    truth = labels >= TRUTH_CUTOFF
    tp = int(np.sum(predicted & truth))
    fp = int(np.sum(predicted & ~truth))
    fn = int(np.sum(~predicted & truth))
    tn = int(np.sum(~predicted & ~truth))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    return EvalReport(
        threshold=threshold, precision=precision, recall=recall,
        tp=tp, fp=fp, fn=fn, tn=tn,
    )


def fit(
    X: np.ndarray,
    y: Sequence[float],
    split_ratio: float = 0.9,
    seed: int = 0,
    *,
    rows: Optional[np.ndarray] = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[LinearLeadModel, EvalReport]:
    """Seeded shuffle split, standardize on train, fit, evaluate held-out.
    Example i has the lead value y[i] and the nine features, in
    LeadFeatureVector order, of row rows[i] of X (by default row i); the
    examples' rows are gathered once, in split order."""
    if not 0.0 < split_ratio < 1.0:
        raise ConfigError(f"split ratio must be in (0,1), got {split_ratio}")
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    rows = np.arange(len(X)) if rows is None else np.asarray(rows)
    n = len(y)
    if (shape := (len(rows), *X.shape[1:])) != (n, len(FEATURE_NAMES)):
        raise ConfigError(f"need {n} rows of {len(FEATURE_NAMES)} features, got {shape}")
    if n < MIN_EXAMPLES:
        raise TooFewExamples(f"need at least {MIN_EXAMPLES} examples, got {n}")
    if np.any(y < 0.0) or np.any(y > 1.0):
        raise ConfigError("lead values must lie in [0,1]")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = min(max(int(round(split_ratio * n)), 1), n - 1)
    X, y = X[rows[perm]], y[perm]  # the training rows, then the held-out ones
    X_train = X[:n_train]
    means = X_train.mean(axis=0)
    stds = X_train.std(axis=0)
    degenerate = stds <= _STD_FLOOR
    stds = np.where(degenerate, 1.0, stds)
    active = np.flatnonzero(~degenerate)

    # the design: an intercept column, then each active column standardized;
    # column-major, as the solve's BLAS calls have always been given it
    A = np.empty((n_train, 1 + len(active)), order="F")
    A[:, 0] = 1.0
    for j, column in enumerate(active.tolist(), start=1):
        np.subtract(X_train[:, column], means[column], out=A[:, j])
        A[:, j] /= stds[column]
    coef, damping = _solve(A, y[:n_train])
    weights = np.zeros(X.shape[1])
    weights[active] = coef[1:]

    model = LinearLeadModel(
        weights=tuple(weights.tolist()),
        intercept=float(coef[0]),
        feature_means=tuple(means.tolist()),
        feature_stds=tuple(stds.tolist()),
        seed=seed,
        split_ratio=split_ratio,
        n_train=n_train,
        damping=damping,
    )
    report = evaluate(predict_many(model, X[n_train:]), y[n_train:], threshold)
    return model, report


def _first_seen(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes in order of first appearance, and each code's
    index among them."""
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return distinct[order], np.argsort(order)[inverse]


def score_corpus(
    model: LinearLeadModel,
    table: CorpusTable,
    features: FeatureTable,
    region_map: RegionMap,
    topics: TopicMap,
    bri: BriClassification,
    if_edges: Sequence[float],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[ScoredTable, int]:
    """The scored table: one row per author of each paper, in table order.

    Each authorship's feature row is found by a join of the id codes;
    the rows are gathered once, standardized in place and predicted in one
    batch.  Region, income class and tags are resolved once per distinct
    country and paper topic.  The table equals what
    read_scored decodes from write_scored's file.  Papers below the first
    impact-factor edge are skipped; the second return value counts them.
    """
    bins = impact_factor_bin(table.impact, if_edges)
    topic, topic_tags = classify_topics(table, topics)
    owner = np.repeat(np.arange(len(table)), np.diff(table.auth_start))
    at = np.flatnonzero(table.first & (bins[owner] >= 0))
    paper, author = owner[at], table.author[at]
    found = features.rows_of(table.ids, table.paper[paper], table.authors, author)
    if (missing := np.flatnonzero(found < 0)).size:
        i = missing[0]
        raise MissingUpstream(
            f"no feature row for {table.authors[author[i]]} on "
            f"{table.ids[table.paper[paper[i]]]}; re-run build-profiles"
        )
    used, country = np.unique(table.country[at], return_inverse=True)
    names = [table.countries[c] for c in used.tolist()]
    income = [bri.class_of(c) for c in names]
    # a row's tags are its paper's topic and bin and its country
    bins_n, names_n = len(if_edges), len(names)
    tag_codes, tag = _first_seen((topic[paper] * bins_n + bins[paper]) * names_n + country)
    tags = [
        PaperTags(*topic_tags[t // bins_n], t % bins_n, income[c], names[c])
        for t, c in zip(*map(np.ndarray.tolist, np.divmod(tag_codes, max(names_n, 1))))
    ]
    paper_codes, paper_code = _first_seen(paper)
    author_codes, author_code = _first_seen(author)
    probs = predict_many(model, features.X[found])
    # the table must equal what read_scored decodes from write_scored's
    # file, which holds lead_prob at 9 decimals: lead_prob is rounded to
    # those 9, while is_leader is decided on the unrounded probability
    rounded = np.fromiter((float(f"{p:.9f}") for p in probs.tolist()), np.float64, len(probs))
    return ScoredTable(
        [table.ids[p] for p in table.paper[paper_codes].tolist()], paper_code,
        [table.authors[a] for a in author_codes.tolist()], author_code,
        [region_map.region_of(c) for c in names], country,
        table.year[paper], rounded, probs > threshold, tags, tag,
    ), int(np.count_nonzero(bins < 0))


def _family(text: str) -> str:
    if text != FAMILY_LINEAR:
        raise ValueError(f"expected {FAMILY_LINEAR!r}, got {text!r}")
    return text


def _vector(text: str) -> tuple[float, ...]:
    values = tuple(map(float, text.split()))
    if len(values) != len(FEATURE_NAMES):
        raise ValueError(f"expected {len(FEATURE_NAMES)} values")
    return values


def _format_vector(values: Iterable[float]) -> str:
    return " ".join(f"{v:.17g}" for v in values)


# model.tsv holds one key-value line per row, in this order: the key, the
# LinearLeadModel attribute, its text and the parser of that text; floats
# at 17 significant digits round-trip
_MODEL_LINES = (
    ("family", "family", str, _family),
    ("seed", "seed", str, int),
    ("split", "split_ratio", "{:.17g}".format, float),
    ("n_train", "n_train", str, int),
    ("damping", "damping", "{:.17g}".format, float),
    ("intercept", "intercept", "{:.17g}".format, float),
    ("weights", "weights", _format_vector, _vector),
    ("means", "feature_means", _format_vector, _vector),
    ("stds", "feature_stds", _format_vector, _vector),
)
_MODEL_PARSERS = {key: parse for key, _, _, parse in _MODEL_LINES}


def write_model(model: LinearLeadModel, path: Path) -> None:
    write_tsv(path, None, (
        f"{key}\t{fmt(getattr(model, attr))}" for key, attr, fmt, _ in _MODEL_LINES
    ))


def _model_values(lines: list[str]) -> dict:
    rows = list(tsv_rows(lines))
    check_unique([key for key, _ in rows], "key", first=1)
    values: dict = {}
    for key, text in rows:
        if key not in _MODEL_PARSERS:
            raise FieldError(key, "unknown model field")
        values[key] = parse_cell(key, _MODEL_PARSERS[key], text)
    return values


def read_model(path: Path) -> LinearLeadModel:
    """model.tsv; an unknown or missing key raises MalformedRecord, a
    repeated one InvariantViolation naming the earlier line."""
    values = read_tsv(path, None, _model_values, columns=2)
    for key in _MODEL_PARSERS:
        if key not in values:
            raise MalformedRecord(None, key, "missing model field", str(path))
    return LinearLeadModel(**{attr: values[key] for key, attr, _, _ in _MODEL_LINES})


def write_eval(report: EvalReport, path: Path) -> None:
    write_tsv(path, "threshold\tprecision\trecall\ttp\tfp\tfn\ttn", [
        f"{report.threshold:.9f}\t{report.precision:.9f}\t{report.recall:.9f}\t"
        f"{report.tp}\t{report.fp}\t{report.fn}\t{report.tn}",
    ])


_SCORED_HEADER = "paper_id\tauthor_id\tregion\tyear\tlead_prob\tis_leader\ttags"
_TAG_KEYS = ("areas", "fields", "if_bin", "bri", "country")
_IS_LEADER = {"true": True, "false": False}


def write_scored(table: ScoredTable, path: Path) -> None:
    """The scored table, one chunk of rows at a time; tags are packed into
    one semicolon-keyed column, each distinct tags cell formatted once."""
    cells = [
        f"areas={'|'.join(sorted(t.areas))};fields={'|'.join(sorted(t.fields))};"
        f"if_bin={t.if_bin};bri={t.bri_class};country={t.country}"
        for t in table.tags
    ]
    columns = (
        table.paper, table.author, table.region, table.year, table.lead_prob,
        table.is_leader, table.tag,
    )
    write_tsv(path, _SCORED_HEADER, (
        f"{table.papers[p]}\t{table.authors[a]}\t{table.regions[r]}\t{year}\t"
        f"{prob:.9f}\t{'true' if leader else 'false'}\t{cells[t]}"
        for rows in chunks(len(table.paper))
        for p, a, r, year, prob, leader, t in zip(*(c[rows].tolist() for c in columns))
    ))


def _parse_tags(text: str, sets: dict) -> PaperTags:
    """One tags cell; a ValueError says what is wrong with it.  Its areas
    and fields come from `sets`, one frozenset per distinct text."""
    items = dict(item.split("=", 1) for item in text.split(";") if "=" in item)
    for key in _TAG_KEYS:
        if key not in items:
            raise ValueError(f"missing tag {key!r}")
    for key in ("areas", "fields"):
        if (cell := items[key]) not in sets:
            sets[cell] = frozenset(filter(None, cell.split("|")))
    areas, fields = sets[items["areas"]], sets[items["fields"]]
    return PaperTags(areas, fields, int(items["if_bin"]), items["bri"], items["country"])


def _scored_columns(lines: list[str]) -> tuple:
    """ScoredTable's arguments from one pass over the lines: ids, regions
    and tags cells are coded as they are read, and each distinct year and
    tags text is parsed once.  A line's is_leader is checked first, then
    its year, lead_prob and tags."""
    papers, authors, regions, texts, years, sets = {}, {}, {}, {}, {}, {}
    paper, author, region, year, tag = (array("q") for _ in range(5))
    lead_prob, is_leader, tags = array("d"), array("b"), []
    for line in lines:
        p, a, r, y, prob, leader, text = line.split("\t")
        if (flag := _IS_LEADER.get(leader)) is None:
            raise FieldError("is_leader", f"expected true or false, got {leader!r}")
        is_leader.append(flag)
        if (value := years.get(y)) is None:
            value = years[y] = parse_cell("year", np.int64, y)  # an int that fits the column
        year.append(value)
        try:
            lead_prob.append(float(prob))
        except ValueError as exc:
            raise FieldError("lead_prob", str(exc)) from None
        tag.append(t := texts.setdefault(text, len(texts)))
        if t == len(tags):
            tags.append(parse_cell("tags", _parse_tags, text, sets))
        paper.append(papers.setdefault(p, len(papers)))
        author.append(authors.setdefault(a, len(authors)))
        region.append(regions.setdefault(r, len(regions)))
    papers, authors = tuple(papers), tuple(authors)  # ScoredTable keeps these tuples
    paper, author = np.frombuffer(paper, np.int64), np.frombuffer(author, np.int64)
    check_unique_pairs(papers, paper, authors, author, "paper_id, author_id")
    return (
        papers, paper, authors, author, regions, region,
        np.frombuffer(year, np.int64), np.frombuffer(lead_prob, np.float64),
        np.frombuffer(is_leader, bool), tags, tag,
    )


def read_scored(path: Path) -> ScoredTable:
    """The scored table as columns.

    A bad header, a line without seven columns, a tags cell without one
    of its keys, a non-numeric year, lead_prob or if_bin or an is_leader
    other than true or false raises MalformedRecord naming the file and
    the first bad line; a repeated (paper_id, author_id) then raises
    InvariantViolation naming its line and the earlier one.
    """
    return ScoredTable(*read_tsv(path, _SCORED_HEADER, _scored_columns))
