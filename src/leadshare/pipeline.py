"""Stage orchestration with content-hash caching.

Eight stages form a fixed dependency chain:

    ingest          raw corpus -> corpus.jsonl, bilateral.jsonl
    train-roles     raw statements -> roles.tsv, labels.tsv
    build-profiles  corpus.jsonl -> features.tsv
    fit-model       labels.tsv + features.tsv -> model.tsv, eval.tsv
    score           bilateral.jsonl + features.tsv + model.tsv -> scored.tsv
    aggregate       scored.tsv -> counts.tsv, series.tsv
    forecast        series.tsv -> forecast.tsv
    export          series.tsv + forecast.tsv + scored.tsv -> export/fig*.csv

Every stage records (input hashes, config-slice hash, output hashes) in
manifest.tsv.  A stage whose recorded line still matches is skipped, so
re-running is a no-op and editing one config key recomputes only the
stages whose slice contains it.  Caching is content based: timestamps
never matter, and an artifact edited out-of-band is reported as stale
rather than silently reused.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .config import PipelineConfig
from .corpus import (
    FilterStats,
    bri_income_class,
    classify_topics,
    filter_corpus,
    impact_factor_bin,
)
from .errors import (
    BelowRange,
    ConfigError,
    DataError,
    HashMismatch,
    MissingUpstream,
    TooFewPoints,
    ZeroVariance,
)
from .features import build_profiles, extract_all, read_features, write_features
from .forecast import ForecastRow, confidence_band, forecast_series, write_forecast
from .leadmodel import (
    ScoredAuthorship,
    fit,
    predict_many,
    read_model,
    read_scored,
    rescore,
    write_eval,
    write_model,
    write_scored,
)
from .metrics import (
    LEAD_PREMIUM,
    LEAD_SHARE,
    METRIC_NAMES,
    FilterSpec,
    RegionSeries,
    aggregate,
    build_series,
    read_series,
    write_counts,
    write_series,
)
from .records import read_contributions, read_corpus, write_corpus
from .roles import (
    build_cooccurrence,
    cluster_roles,
    label_clusters,
    normalize_record,
    read_training_labels,
    training_labels,
    write_role_model,
    write_training_labels,
)
from .tables import (
    AREA_TAGS,
    FIELD_TAGS,
    HIGH_INCOME,
    LOW_INCOME,
    load_bri_classification,
    load_region_map,
    load_topic_map,
    table_bytes,
)

log = logging.getLogger("leadshare.pipeline")

MANIFEST_NAME = "manifest.tsv"
_MANIFEST_HEADER = "stage\tinputs\tconfig\toutputs"

STAGES = (
    "ingest", "train-roles", "build-profiles", "fit-model",
    "score", "aggregate", "forecast", "export",
)
SWEEP_AXES = ("threshold", "if_bin")

_FIGURES = ("fig1c", "fig1d", "fig2a", "fig2b", "fig3", "fig4a", "fig4b")

ARTIFACTS: dict[str, tuple[str, ...]] = {
    "ingest": ("corpus.jsonl", "bilateral.jsonl"),
    "train-roles": ("roles.tsv", "labels.tsv"),
    "build-profiles": ("features.tsv",),
    "fit-model": ("model.tsv", "eval.tsv"),
    "score": ("scored.tsv",),
    "aggregate": ("counts.tsv", "series.tsv"),
    "forecast": ("forecast.tsv",),
    "export": tuple(f"export/{name}.csv" for name in _FIGURES),
    "sweep-threshold": ("sweep_threshold.tsv",),
    "sweep-if_bin": ("sweep_if_bin.tsv",),
}

_PRODUCER = {
    artifact: stage
    for stage, artifacts in ARTIFACTS.items()
    for artifact in artifacts
}

# config keys each stage's behavior depends on; changing any other key
# leaves the stage cached
_CONFIG_KEYS: dict[str, tuple[str, ...]] = {
    "ingest": ("strict",),
    "train-roles": ("seed", "strict_binary_labels"),
    "build-profiles": (),
    "fit-model": ("seed", "split_ratio", "model_family", "lead_threshold"),
    "score": ("lead_threshold", "if_bin_edges"),
    "aggregate": (
        "counting_mode", "focal_region", "pairs", "areas", "fields",
        "if_bins", "bri_classes",
    ),
    "forecast": ("window_start", "window_end", "confidence_level", "horizon"),
    "export": (
        "window_start", "window_end", "confidence_level", "horizon",
        "threshold_sweep", "focal_region", "pairs", "counting_mode",
    ),
    "sweep-threshold": (
        "counting_mode", "focal_region", "pairs",
        "window_start", "window_end", "confidence_level", "horizon",
    ),
    "sweep-if_bin": (
        "counting_mode", "focal_region", "pairs",
        "window_start", "window_end", "confidence_level", "horizon",
    ),
}

_MANIFEST_ORDER = {name: i for i, name in enumerate(
    STAGES + ("sweep-threshold", "sweep-if_bin")
)}


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class ManifestEntry:
    stage: str
    inputs: dict[str, str]
    config_hash: str
    outputs: dict[str, str]


def _encode_hashes(hashes: dict[str, str]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(hashes.items())) or "-"


def _decode_hashes(text: str) -> dict[str, str]:
    if text == "-":
        return {}
    out = {}
    for part in text.split(","):
        name, _, digest = part.partition("=")
        out[name] = digest
    return out


def read_manifest(path: Path) -> dict[str, ManifestEntry]:
    path = Path(path)
    if not path.exists():
        return {}
    entries: dict[str, ManifestEntry] = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    for line_no, raw in enumerate(lines[1:], start=2):
        fields = raw.split("\t")
        if len(fields) != 4:
            raise DataError(f"{path}: line {line_no}: expected 4 tab-separated fields")
        stage, inputs, config_hash, outputs = fields
        entries[stage] = ManifestEntry(
            stage=stage,
            inputs=_decode_hashes(inputs),
            config_hash=config_hash,
            outputs=_decode_hashes(outputs),
        )
    return entries


def write_manifest(entries: dict[str, ManifestEntry], path: Path) -> None:
    lines = [_MANIFEST_HEADER]
    for stage in sorted(entries, key=lambda s: _MANIFEST_ORDER.get(s, 99)):
        e = entries[stage]
        lines.append(
            f"{stage}\t{_encode_hashes(e.inputs)}\t{e.config_hash}\t"
            f"{_encode_hashes(e.outputs)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _config_slice_hash(
    config: PipelineConfig, stage: str, extra: Optional[dict] = None
) -> str:
    pieces = {key: getattr(config, key) for key in _CONFIG_KEYS[stage]}
    if extra:
        pieces.update(extra)
    text = repr(sorted(pieces.items()))
    return _sha256_bytes(text.encode("utf-8"))


def _raw_input(name: str, path: Optional[Path]) -> tuple[str, str]:
    if path is None:
        raise ConfigError(f"config key {name!r} is required for this stage")
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{name} file not found: {path}")
    return f"raw:{name}", _sha256_file(path)


def _table_inputs(config: PipelineConfig, *names: str) -> dict[str, str]:
    paths = {
        "regions": ("regions.tsv", config.regions),
        "bri": ("bri_countries.tsv", config.bri),
        "areas": ("technology_areas.tsv", config.areas_table),
        "fields": ("scientific_fields.tsv", config.fields_table),
    }
    out = {}
    for name in names:
        packaged, override = paths[name]
        out[f"table:{name}"] = _sha256_bytes(table_bytes(packaged, override))
    return out


def _artifact_inputs(
    config: PipelineConfig,
    manifest: dict[str, ManifestEntry],
    *relpaths: str,
) -> dict[str, str]:
    out = {}
    for rel in relpaths:
        path = config.output_dir / rel
        if not path.exists():
            raise MissingUpstream(
                f"missing {rel}; run the {_PRODUCER[rel]!r} stage first"
            )
        digest = _sha256_file(path)
        producer = manifest.get(_PRODUCER[rel])
        if producer is not None:
            recorded = producer.outputs.get(rel)
            if recorded is not None and recorded != digest:
                raise HashMismatch(
                    f"{rel} does not match the manifest; it was modified "
                    f"outside the pipeline (re-run {_PRODUCER[rel]!r})"
                )
        out[rel] = digest
    return out


def _collect_inputs(
    stage: str, config: PipelineConfig, manifest: dict[str, ManifestEntry]
) -> dict[str, str]:
    if stage == "ingest":
        name, digest = _raw_input("corpus", config.corpus)
        inputs = {name: digest}
        inputs.update(_table_inputs(config, "regions"))
        return inputs
    if stage == "train-roles":
        name, digest = _raw_input("contributions", config.contributions)
        return {name: digest}
    if stage == "build-profiles":
        return _artifact_inputs(config, manifest, "corpus.jsonl")
    if stage == "fit-model":
        return _artifact_inputs(config, manifest, "labels.tsv", "features.tsv")
    if stage == "score":
        inputs = _artifact_inputs(
            config, manifest, "bilateral.jsonl", "features.tsv", "model.tsv"
        )
        inputs.update(
            _table_inputs(config, "regions", "bri", "areas", "fields")
        )
        return inputs
    if stage == "aggregate":
        return _artifact_inputs(config, manifest, "scored.tsv")
    if stage == "forecast":
        return _artifact_inputs(config, manifest, "series.tsv")
    if stage == "export":
        return _artifact_inputs(
            config, manifest, "series.tsv", "forecast.tsv", "scored.tsv"
        )
    if stage in ("sweep-threshold", "sweep-if_bin"):
        return _artifact_inputs(config, manifest, "scored.tsv")
    raise ConfigError(f"unknown stage {stage!r}")


def _chunks(items: Sequence, n: int) -> list[Sequence]:
    if n <= 1 or len(items) <= 1:
        return [items]
    size = math.ceil(len(items) / n)
    return [items[i:i + size] for i in range(0, len(items), size)]


def _parallel_map(fn: Callable, chunks: list, workers: int) -> list:
    """Apply fn to each chunk, merging results in chunk order."""
    if workers <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))


def _read_corpus_file(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return list(read_corpus(fh))


# ---------------------------------------------------------------- stages


def _stage_ingest(config: PipelineConfig) -> None:
    region_map = load_region_map(config.regions)
    records = _read_corpus_file(config.corpus)
    with open(config.output_dir / "corpus.jsonl", "w", encoding="utf-8") as fh:
        write_corpus(records, fh)
    stats = FilterStats()
    kept = filter_corpus(records, region_map, strict=config.strict, stats=stats)
    with open(config.output_dir / "bilateral.jsonl", "w", encoding="utf-8") as fh:
        n = write_corpus((rec for rec, _pair in kept), fh)
    log.info(
        "ingest: %d records in, %d bilateral kept "
        "(%d pre-1991, %d low impact, %d not bilateral, %d unknown country)",
        stats.n_input, n, stats.n_year, stats.n_impact,
        stats.n_not_bilateral, stats.n_unknown_country,
    )


def _stage_train_roles(config: PipelineConfig) -> None:
    with open(config.contributions, encoding="utf-8") as fh:
        statements = [normalize_record(r) for r in read_contributions(fh)]
    matrix = build_cooccurrence(statements)
    partition = cluster_roles(matrix, seed=config.seed)
    model = label_clusters(partition)
    write_role_model(model, config.output_dir / "roles.tsv")
    labels = list(
        training_labels(
            statements, model, strict_binary=config.strict_binary_labels
        )
    )
    write_training_labels(labels, config.output_dir / "labels.tsv")
    log.info(
        "train-roles: %d verbs clustered, %d labeled statements",
        len(matrix.vocabulary), len(labels),
    )


def _stage_build_profiles(config: PipelineConfig) -> None:
    records = _read_corpus_file(config.output_dir / "corpus.jsonl")
    index = build_profiles(records)
    write_features(
        extract_all(records, index), config.output_dir / "features.tsv"
    )


def _stage_fit_model(config: PipelineConfig) -> None:
    labels = read_training_labels(config.output_dir / "labels.tsv")
    vectors = {
        (paper_id, author_id): vec
        for paper_id, author_id, vec in read_features(
            config.output_dir / "features.tsv"
        )
    }
    examples = []
    skipped = 0
    for lab in labels:
        vec = vectors.get((lab.paper_id, lab.author_id))
        if vec is None:
            skipped += 1
            continue
        examples.append((vec, lab.lead_value))
    if skipped:
        log.warning(
            "fit-model: %d label(s) had no matching feature row", skipped
        )
    model, report = fit(
        examples,
        split_ratio=config.split_ratio,
        seed=config.seed,
        threshold=config.lead_threshold,
        family=config.model_family,
    )
    write_model(model, config.output_dir / "model.tsv")
    write_eval(report, config.output_dir / "eval.tsv")
    log.info(
        "fit-model: %d examples, held-out precision %.3f recall %.3f",
        len(examples), report.precision, report.recall,
    )


def _stage_score(config: PipelineConfig) -> None:
    records = _read_corpus_file(config.output_dir / "bilateral.jsonl")
    region_map = load_region_map(config.regions)
    topics = load_topic_map(config.areas_table, config.fields_table)
    bri = load_bri_classification(config.bri)
    model = read_model(config.output_dir / "model.tsv")
    vectors = {
        (paper_id, author_id): vec
        for paper_id, author_id, vec in read_features(
            config.output_dir / "features.tsv"
        )
    }
    below = 0

    def score_chunk(chunk) -> list[ScoredAuthorship]:
        nonlocal below
        metas = []
        arrays = []
        for record in chunk:
            try:
                if_bin = impact_factor_bin(
                    record.impact_factor, config.if_bin_edges
                )
            except BelowRange:
                below += 1
                continue
            areas, fields = classify_topics(record, topics)
            emitted: set[str] = set()
            for a in record.authorships:
                if a.author_id in emitted:
                    continue
                emitted.add(a.author_id)
                vec = vectors.get((record.paper_id, a.author_id))
                if vec is None:
                    raise MissingUpstream(
                        f"no feature row for {a.author_id} on "
                        f"{record.paper_id}; re-run build-profiles"
                    )
                metas.append((record, a, areas, fields, if_bin))
                arrays.append(vec.as_array())
        if not metas:
            return []
        probs = predict_many(model, np.array(arrays))
        rows = []
        for (record, a, areas, fields, if_bin), prob in zip(metas, probs):
            prob = float(prob)
            rows.append(
                ScoredAuthorship(
                    paper_id=record.paper_id,
                    author_id=a.author_id,
                    region=region_map.region_of(a.country),
                    year=record.year,
                    lead_prob=prob,
                    is_leader=prob > config.lead_threshold,
                    areas=areas,
                    fields=fields,
                    if_bin=if_bin,
                    bri_class=bri_income_class(a.country, bri),
                    country=a.country,
                )
            )
        return rows

    chunked = _parallel_map(
        score_chunk, _chunks(records, config.workers), config.workers
    )
    rows = [row for chunk in chunked for row in chunk]
    write_scored(rows, config.output_dir / "scored.tsv")
    if below:
        log.warning(
            "score: dropped %d paper(s) below the first impact-factor edge",
            below,
        )
    log.info("score: %d authorship rows", len(rows))


def _aggregate_filters(config: PipelineConfig) -> list[FilterSpec]:
    for a in config.areas:
        if a not in AREA_TAGS:
            raise ConfigError(f"unknown technology area {a!r}")
    for f in config.fields:
        if f not in FIELD_TAGS:
            raise ConfigError(f"unknown scientific field {f!r}")
    for b in config.if_bins:
        if not 0 <= b < len(config.if_bin_edges):
            raise ConfigError(f"impact-factor bin {b} out of range")
    for c in config.bri_classes:
        if c not in (HIGH_INCOME, LOW_INCOME):
            raise ConfigError(f"unknown income class {c!r}")
    specs = [FilterSpec()]
    specs.extend(
        FilterSpec(areas=frozenset({a}))
        for a in (config.areas or sorted(AREA_TAGS))
    )
    specs.extend(
        FilterSpec(fields=frozenset({f}))
        for f in (config.fields or sorted(FIELD_TAGS))
    )
    bins = config.if_bins or tuple(range(len(config.if_bin_edges)))
    specs.extend(FilterSpec(if_bins=frozenset({b})) for b in bins)
    classes = config.bri_classes or (HIGH_INCOME, LOW_INCOME)
    specs.extend(FilterSpec(bri_class=c) for c in classes)
    return specs


def _is_bri_pair(pair: tuple[str, str]) -> bool:
    return pair[0].startswith("BRI:") or pair[1].startswith("BRI:")


def _keep_pair(config: PipelineConfig, pair: tuple[str, str]) -> bool:
    if not config.pairs or _is_bri_pair(pair):
        return True
    return pair in config.pairs


def _series_for_counts(
    config: PipelineConfig, counts: list, filter_desc: Optional[str] = None
) -> list[RegionSeries]:
    out = []
    for pair in sorted({c.pair for c in counts}):
        if not _keep_pair(config, pair):
            continue
        focal = config.focal_region if config.focal_region in pair else pair[0]
        for metric in METRIC_NAMES:
            series = build_series(counts, pair, focal, metric)
            if not series.points:
                continue
            if filter_desc is not None:
                series = dataclasses.replace(series, filter_desc=filter_desc)
            out.append(series)
    return out


def _stage_aggregate(config: PipelineConfig) -> None:
    scored = list(read_scored(config.output_dir / "scored.tsv"))
    all_counts = []
    series_list: list[RegionSeries] = []
    for spec in _aggregate_filters(config):
        counts = aggregate(scored, spec, counting_mode=config.counting_mode)
        all_counts.extend(counts)
        series_list.extend(_series_for_counts(config, counts))
    write_counts(all_counts, config.output_dir / "counts.tsv")
    write_series(series_list, config.output_dir / "series.tsv")
    log.info(
        "aggregate: %d pair-year rows, %d series",
        len(all_counts), len(series_list),
    )


def _forecast_rows(
    config: PipelineConfig, series_list: Iterable[RegionSeries]
) -> list[ForecastRow]:
    rows = []
    skipped = 0
    for series in series_list:
        try:
            rows.append(
                forecast_series(
                    series,
                    window=(config.window_start, config.window_end),
                    confidence_level=config.confidence_level,
                    horizon=config.horizon,
                )
            )
        except (TooFewPoints, ZeroVariance):
            skipped += 1
    if skipped:
        log.warning(
            "forecast: skipped %d series with too few window points", skipped
        )
    return rows


def _stage_forecast(config: PipelineConfig) -> None:
    series_list = read_series(config.output_dir / "series.tsv")
    rows = _forecast_rows(config, series_list)
    write_forecast(rows, config.output_dir / "forecast.tsv")
    log.info("forecast: %d rows", len(rows))


# ---------------------------------------------------------------- export

_CSV_HEADER = ("pair", "focal", "metric", "filter", "kind", "x", "y", "lo", "hi")


def _fmt_opt(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.9f}"


def _series_plot_rows(
    config: PipelineConfig, series: RegionSeries
) -> list[tuple[str, ...]]:
    """Observed points, fitted line with band, and parity markers."""
    pair = f"{series.pair[0]}|{series.pair[1]}"
    head = (pair, series.focal, series.metric, series.filter_desc)
    rows = [
        head + ("observed", f"{x:d}", f"{y:.9f}", "", "")
        for x, y in series.points
    ]
    try:
        fr = forecast_series(
            series,
            window=(config.window_start, config.window_end),
            confidence_level=config.confidence_level,
            horizon=config.horizon,
        )
    except (TooFewPoints, ZeroVariance):
        return rows
    parity = fr.parity
    finite = [
        y for y in (parity.point_year, parity.lower_year, parity.upper_year)
        if y is not None
    ]
    end = config.window_end
    if finite:
        end = max(end, min(int(math.ceil(max(finite))) + 1, int(config.horizon)))
    for x in range(config.window_start, end + 1):
        lo, hi = confidence_band(fr.fit, float(x))
        rows.append(
            head + (
                "fitted", f"{x:d}", f"{fr.fit.value_at(x):.9f}",
                f"{lo:.9f}", f"{hi:.9f}",
            )
        )
    rows.append(
        head + (
            "parity", f"{parity.threshold:.9f}", _fmt_opt(parity.point_year),
            _fmt_opt(parity.lower_year), _fmt_opt(parity.upper_year),
        )
    )
    return rows


def _sweep_series(
    config: PipelineConfig,
    scored: list[ScoredAuthorship],
    axis: str,
    values: Sequence,
) -> list[RegionSeries]:
    """One series group per sweep value, tagged through filter_desc."""
    out: list[RegionSeries] = []
    if axis == "threshold":
        for t in values:
            if not 0.0 < t < 1.0:
                raise ConfigError(f"sweep threshold {t} not in (0,1)")
            rescored = list(rescore(scored, t))
            counts = aggregate(
                rescored, FilterSpec(), counting_mode=config.counting_mode
            )
            out.extend(
                _series_for_counts(config, counts, f"threshold={t:g}")
            )
    elif axis == "if_bin":
        for b in values:
            b = int(b)
            if not 0 <= b < len(config.if_bin_edges):
                raise ConfigError(f"impact-factor bin {b} out of range")
            counts = aggregate(
                scored,
                FilterSpec(if_bins=frozenset({b})),
                counting_mode=config.counting_mode,
            )
            out.extend(_series_for_counts(config, counts))
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return out


def _write_csv(path: Path, rows: list[tuple[str, ...]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        writer.writerows(rows)


def _stage_export(config: PipelineConfig) -> None:
    series_list = read_series(config.output_dir / "series.tsv")
    scored = list(read_scored(config.output_dir / "scored.tsv"))
    export_dir = config.output_dir / "export"
    export_dir.mkdir(parents=True, exist_ok=True)

    def plot_rows(selected: Iterable[RegionSeries]) -> list[tuple[str, ...]]:
        rows = []
        for s in selected:
            rows.extend(_series_plot_rows(config, s))
        return rows

    flagship = [
        s for s in series_list
        if s.filter_desc == "all" and not _is_bri_pair(s.pair)
    ]
    figures = {
        "fig1c": plot_rows(s for s in flagship if s.metric == LEAD_SHARE),
        "fig1d": plot_rows(s for s in flagship if s.metric == LEAD_PREMIUM),
        "fig2a": plot_rows(
            s
            for s in _sweep_series(
                config, scored, "threshold", config.threshold_sweep
            )
            if s.metric in (LEAD_SHARE, LEAD_PREMIUM)
        ),
        "fig2b": plot_rows(
            s for s in series_list
            if s.filter_desc.startswith("if_bins=")
            and s.metric in (LEAD_SHARE, LEAD_PREMIUM)
        ),
        "fig3": plot_rows(s for s in series_list if _is_bri_pair(s.pair)),
        "fig4a": plot_rows(
            s for s in series_list
            if s.filter_desc.startswith("areas=") and s.metric == LEAD_SHARE
        ),
        "fig4b": plot_rows(
            s for s in series_list
            if s.filter_desc.startswith("fields=") and s.metric == LEAD_SHARE
        ),
    }
    for name, rows in figures.items():
        _write_csv(export_dir / f"{name}.csv", rows)
    log.info(
        "export: wrote %d figure tables to %s", len(figures), export_dir
    )


_STAGE_FNS: dict[str, Callable[[PipelineConfig], None]] = {
    "ingest": _stage_ingest,
    "train-roles": _stage_train_roles,
    "build-profiles": _stage_build_profiles,
    "fit-model": _stage_fit_model,
    "score": _stage_score,
    "aggregate": _stage_aggregate,
    "forecast": _stage_forecast,
    "export": _stage_export,
}


def _is_cached(
    entry: Optional[ManifestEntry],
    inputs: dict[str, str],
    config_hash: str,
    config: PipelineConfig,
    artifacts: tuple[str, ...],
) -> bool:
    if entry is None:
        return False
    if entry.inputs != inputs or entry.config_hash != config_hash:
        return False
    for rel in artifacts:
        path = config.output_dir / rel
        if not path.exists():
            return False
        if entry.outputs.get(rel) != _sha256_file(path):
            return False
    return True


def run_stage(stage: str, config: PipelineConfig, force: bool = False) -> str:
    """Run one stage (or skip it when cached); returns 'ran' or 'cached'."""
    if stage not in _STAGE_FNS:
        raise ConfigError(f"unknown stage {stage!r}")
    config.output_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = config.output_dir / MANIFEST_NAME
    manifest = read_manifest(manifest_path)
    inputs = _collect_inputs(stage, config, manifest)
    config_hash = _config_slice_hash(config, stage)
    if not force and _is_cached(
        manifest.get(stage), inputs, config_hash, config, ARTIFACTS[stage]
    ):
        log.info("%s: cached", stage)
        return "cached"
    _STAGE_FNS[stage](config)
    outputs = {
        rel: _sha256_file(config.output_dir / rel) for rel in ARTIFACTS[stage]
    }
    manifest[stage] = ManifestEntry(stage, inputs, config_hash, outputs)
    write_manifest(manifest, manifest_path)
    return "ran"


def run_all(config: PipelineConfig, force: bool = False) -> dict[str, str]:
    return {stage: run_stage(stage, config, force=force) for stage in STAGES}


def run_sweep(
    config: PipelineConfig,
    axis: str,
    values: Sequence,
    force: bool = False,
) -> str:
    """Forecast once per sweep value; writes sweep_<axis>.tsv."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    stage = f"sweep-{axis}"
    config.output_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = config.output_dir / MANIFEST_NAME
    manifest = read_manifest(manifest_path)
    inputs = _collect_inputs(stage, config, manifest)
    config_hash = _config_slice_hash(
        config, stage, extra={"values": tuple(values)}
    )
    if not force and _is_cached(
        manifest.get(stage), inputs, config_hash, config, ARTIFACTS[stage]
    ):
        log.info("%s: cached", stage)
        return "cached"
    scored = list(read_scored(config.output_dir / "scored.tsv"))
    series_list = _sweep_series(config, scored, axis, values)
    rows = _forecast_rows(config, series_list)
    out_path = config.output_dir / ARTIFACTS[stage][0]
    write_forecast(rows, out_path)
    log.info("%s: %d forecast rows for %d values", stage, len(rows), len(values))
    outputs = {ARTIFACTS[stage][0]: _sha256_file(out_path)}
    manifest[stage] = ManifestEntry(stage, inputs, config_hash, outputs)
    write_manifest(manifest, manifest_path)
    return "ran"
