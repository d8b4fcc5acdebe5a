"""Stage orchestration with content-hash caching.

Eight stages (ingest through export) form a fixed dependency chain, and
two sweeps re-forecast along one axis.  `STAGE_TABLE` declares each one:
its function, raw input, packaged tables, upstream artifacts, config
slice and outputs.

Every stage records (input hashes, config-slice hash, output hashes) in
manifest.tsv.  A stage whose recorded line still matches is skipped, so
re-running is a no-op and editing one config key recomputes only the
stages whose slice contains it.  Caching is content based: timestamps
never matter, and an artifact edited out-of-band is reported as stale
rather than silently reused.

Within one run_all, run_stage or run_sweep call each artifact is decoded
at most once (see `Artifacts`); nothing decoded outlives the call.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import logging
import math
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .config import PipelineConfig
from .corpus import FilterStats, filter_corpus
from .errors import (
    ConfigError,
    HashMismatch,
    MissingUpstream,
    TooFewPoints,
    ZeroVariance,
)
from .features import build_profiles, extract_all, read_features, write_features
from .forecast import ForecastRow, confidence_band, forecast_series, write_forecast
from .leadmodel import (
    fit,
    read_model,
    read_scored,
    score_corpus,
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
    ScoredTable,
    aggregate,
    build_series,
    read_series,
    write_counts,
    write_series,
)
from .records import (
    check_unique,
    read_contributions,
    read_corpus,
    read_tsv,
    tsv_rows,
    write_corpus,
    write_tsv,
)
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


@dataclass(frozen=True)
class Stage:
    """One pipeline step: what it hashes, what it reads and what it writes.

    `fn` takes the config and the call's `Artifacts` (a sweep also its
    values) and returns the stage's counts, which `_run` logs; `help` is
    the CLI help line, `raw` names the config key of a raw input file,
    `tables` the packaged tables the stage reads, `reads` its upstream
    artifacts and `config_keys` the config slice its behavior depends on;
    changing any other key leaves the stage cached.
    """

    name: str
    fn: Callable[..., dict[str, float]]
    help: str
    raw: Optional[str] = None
    tables: tuple[str, ...] = ()
    reads: tuple[str, ...] = ()
    config_keys: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()


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
    return dict(part.partition("=")[::2] for part in text.split(","))


def _manifest_entries(lines: list[str]) -> dict[str, ManifestEntry]:
    rows = list(tsv_rows(lines))
    check_unique([stage for stage, *_ in rows], "stage")
    return {
        stage: ManifestEntry(stage, _decode_hashes(ins), cfg, _decode_hashes(outs))
        for stage, ins, cfg, outs in rows
    }


def read_manifest(path: Path) -> dict[str, ManifestEntry]:
    """manifest.tsv; a stage on two lines raises InvariantViolation."""
    if not Path(path).exists():
        return {}
    return read_tsv(path, _MANIFEST_HEADER, _manifest_entries)


def write_manifest(entries: dict[str, ManifestEntry], path: Path) -> None:
    order = {name: i for i, name in enumerate(STAGE_TABLE)}
    write_tsv(path, _MANIFEST_HEADER, (
        f"{stage}\t{_encode_hashes(e.inputs)}\t{e.config_hash}\t"
        f"{_encode_hashes(e.outputs)}"
        for stage, e in sorted(
            entries.items(), key=lambda item: order.get(item[0], len(order))
        )
    ))


def _config_slice_hash(
    config: PipelineConfig, stage: Stage, values: Optional[tuple] = None
) -> str:
    pieces = {key: getattr(config, key) for key in stage.config_keys}
    if values is not None:
        pieces["values"] = values
    text = repr(sorted(pieces.items()))
    return _sha256_bytes(text.encode("utf-8"))


def _table_inputs(config: PipelineConfig, names: Sequence[str]) -> dict[str, str]:
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


def _producer(rel: str) -> str:
    return next(stage.name for stage in STAGE_TABLE.values() if rel in stage.writes)


def _artifact_inputs(
    config: PipelineConfig,
    manifest: dict[str, ManifestEntry],
    relpaths: Sequence[str],
) -> dict[str, str]:
    out = {}
    for rel in relpaths:
        path = config.output_dir / rel
        producer = _producer(rel)
        if not path.exists():
            raise MissingUpstream(f"missing {rel}; run the {producer!r} stage first")
        digest = _sha256_file(path)
        entry = manifest.get(producer)
        if entry is not None:
            recorded = entry.outputs.get(rel)
            if recorded is not None and recorded != digest:
                raise HashMismatch(
                    f"{rel} does not match the manifest; it was modified "
                    f"outside the pipeline (re-run {producer!r})"
                )
        out[rel] = digest
    return out


def _stage_inputs(
    stage: Stage, config: PipelineConfig, manifest: dict[str, ManifestEntry]
) -> dict[str, str]:
    inputs = {}
    if stage.raw is not None:
        path = getattr(config, stage.raw)
        if path is None:
            raise ConfigError(f"config key {stage.raw!r} is required for this stage")
        if not Path(path).exists():
            raise ConfigError(f"{stage.raw} file not found: {path}")
        inputs[f"raw:{stage.raw}"] = _sha256_file(Path(path))
    inputs.update(_artifact_inputs(config, manifest, stage.reads))
    inputs.update(_table_inputs(config, stage.tables))
    return inputs


def _read_corpus_file(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return list(read_corpus(fh, source=str(path)))


# each artifact a stage reads, and its reader; the names resolve per call,
# so a reader patched in this module (perfbench's tracer) is the one called
_DECODERS: dict[str, Callable[[Path], object]] = {
    "corpus.jsonl": _read_corpus_file, "bilateral.jsonl": _read_corpus_file,
    "labels.tsv": lambda path: read_training_labels(path),
    "features.tsv": lambda path: read_features(path),
    "model.tsv": lambda path: read_model(path),
    "scored.tsv": lambda path: read_scored(path),
    "series.tsv": lambda path: read_series(path),
}


class Artifacts:
    """The artifacts decoded within one run_all, run_stage or run_sweep call.

    Entries are keyed by (artifact name, SHA-256): `_run` sets `inputs` to
    the digests it computed for the running stage, so a file changed since
    it was decoded never hits.  `readers` counts each artifact's reads still
    to come, and `done` drops the entries that no later stage reads.
    """

    def __init__(self, output_dir: Path, stages: Iterable[str]):
        self.output_dir = output_dir
        self.readers = Counter(rel for name in stages for rel in STAGE_TABLE[name].reads)
        self.entries: dict[tuple[str, str], object] = {}
        self.inputs: dict[str, str] = {}
        self.handed: dict[str, object] = {}

    def read(self, rel: str):
        """An artifact the running stage reads, decoded."""
        key = (rel, self.inputs[rel])
        if key not in self.entries:
            self.entries[key] = _DECODERS[rel](self.output_dir / rel)
        return self.entries[key]

    def hand_on(self, rel: str, value: object) -> None:
        """What an artifact the running stage wrote decodes to."""
        self.handed[rel] = value

    def done(self, stage: Stage, outputs: dict[str, str]) -> None:
        """stage ran, writing outputs (name -> digest), or was cached."""
        self.readers.subtract(stage.reads)
        self.entries.update(((rel, outputs[rel]), v) for rel, v in self.handed.items())
        self.handed = {}
        self.entries = {k: v for k, v in self.entries.items() if self.readers[k[0]] > 0}


# ---------------------------------------------------------------- stages


def _stage_ingest(config: PipelineConfig, artifacts: Artifacts) -> dict[str, float]:
    region_map = load_region_map(config.regions)
    records = _read_corpus_file(config.corpus)
    stats = FilterStats()
    # filtered first, so an unknown country under strict changes no output
    kept = [rec for rec, _ in filter_corpus(records, region_map, strict=config.strict, stats=stats)]
    out = config.output_dir
    write_corpus(records, out / "corpus.jsonl", out / "bilateral.jsonl", {r.paper_id for r in kept})
    # every record ingest accepts decodes back from its line unchanged
    artifacts.hand_on("corpus.jsonl", records)
    artifacts.hand_on("bilateral.jsonl", kept)
    return {
        "records": stats.n_input, "bilateral": stats.n_kept, "pre_1991": stats.n_year,
        "low_impact": stats.n_impact, "not_bilateral": stats.n_not_bilateral,
        "unknown_country": stats.n_unknown_country,
    }


def _stage_train_roles(config: PipelineConfig, artifacts: Artifacts) -> dict[str, float]:
    with open(config.contributions, encoding="utf-8") as fh:
        statements = [
            normalize_record(r)
            for r in read_contributions(fh, source=str(config.contributions))
        ]
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
    return {"verbs": len(matrix.vocabulary), "labels": len(labels)}


def _stage_build_profiles(config: PipelineConfig, artifacts: Artifacts) -> dict[str, float]:
    records = artifacts.read("corpus.jsonl")
    index = build_profiles(records)
    write_features(
        extract_all(records, index), config.output_dir / "features.tsv"
    )
    return {"papers": len(records)}


def _stage_fit_model(config: PipelineConfig, artifacts: Artifacts) -> dict[str, float]:
    labels = artifacts.read("labels.tsv")
    features = artifacts.read("features.tsv")
    examples = [
        (features.X[row], lab.lead_value) for lab in labels
        if (row := features.rows.get((lab.paper_id, lab.author_id))) is not None
    ]
    model, report = fit(
        examples,
        split_ratio=config.split_ratio,
        seed=config.seed,
        threshold=config.lead_threshold,
        family=config.model_family,
    )
    write_model(model, config.output_dir / "model.tsv")
    write_eval(report, config.output_dir / "eval.tsv")
    return {
        "examples": len(examples), "labels_without_features": len(labels) - len(examples),
        "precision": report.precision, "recall": report.recall,
    }


def _stage_score(config: PipelineConfig, artifacts: Artifacts) -> dict[str, float]:
    rows, below = score_corpus(
        artifacts.read("model.tsv"),
        artifacts.read("bilateral.jsonl"),
        artifacts.read("features.tsv"),
        load_region_map(config.regions),
        load_topic_map(config.areas_table, config.fields_table),
        load_bri_classification(config.bri),
        config.if_bin_edges,
        threshold=config.lead_threshold,
    )
    write_scored(rows, config.output_dir / "scored.tsv")
    return {"rows": len(rows), "below_first_edge": below}


def _aggregate_filters(
    config: PipelineConfig, scored: ScoredTable
) -> list[FilterSpec]:
    specs = [FilterSpec()]
    specs.extend(
        FilterSpec(areas=frozenset({a}))
        for a in (config.areas or sorted(AREA_TAGS))
    )
    specs.extend(
        FilterSpec(fields=frozenset({f}))
        for f in (config.fields or sorted(FIELD_TAGS))
    )
    # a bin without papers yields no counts, so the bins that have papers
    # give the same output without reading if_bin_edges, a key outside
    # this stage's slice
    bins = config.if_bins or sorted({t.if_bin for t in scored.tags})
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


def _series_for_counts(config: PipelineConfig, counts: list) -> list[RegionSeries]:
    out = []
    for pair in sorted({c.pair for c in counts}):
        if not _keep_pair(config, pair):
            continue
        focal = config.focal_region if config.focal_region in pair else pair[0]
        for metric in METRIC_NAMES:
            series = build_series(counts, pair, focal, metric)
            if series.points:
                out.append(series)
    return out


def _tally(
    config: PipelineConfig,
    scored: ScoredTable,
    specs: Iterable[FilterSpec],
) -> tuple[list, list[RegionSeries]]:
    """Counts and series of every distinct spec, in spec order."""
    all_counts = []
    series_list: list[RegionSeries] = []
    # a value listed twice would write each of its series twice
    for spec in dict.fromkeys(specs):
        counts = aggregate(scored, spec, counting_mode=config.counting_mode)
        all_counts.extend(counts)
        series_list.extend(_series_for_counts(config, counts))
    return all_counts, series_list


def _stage_aggregate(config: PipelineConfig, artifacts: Artifacts) -> dict[str, float]:
    scored = artifacts.read("scored.tsv")
    all_counts, series_list = _tally(
        config, scored, _aggregate_filters(config, scored)
    )
    write_counts(all_counts, config.output_dir / "counts.tsv")
    write_series(series_list, config.output_dir / "series.tsv")
    return {"pair_years": len(all_counts), "series": len(series_list)}


def _forecast(config: PipelineConfig, series: RegionSeries) -> Optional[ForecastRow]:
    """The series' trend fit and parity years; None when its window holds
    too few points or no spread in years."""
    try:
        return forecast_series(
            series,
            window=(config.window_start, config.window_end),
            confidence_level=config.confidence_level,
            horizon=config.horizon,
        )
    except (TooFewPoints, ZeroVariance):
        return None


def _write_forecasts(
    config: PipelineConfig, series_list: Iterable[RegionSeries], rel: str
) -> dict[str, float]:
    """Forecast each series that _forecast can fit into output_dir/rel."""
    fits = [_forecast(config, series) for series in series_list]
    rows = [fr for fr in fits if fr is not None]
    write_forecast(rows, config.output_dir / rel)
    return {"forecast_rows": len(rows), "skipped_series": len(fits) - len(rows)}


def _stage_forecast(config: PipelineConfig, artifacts: Artifacts) -> dict[str, float]:
    series_list = artifacts.read("series.tsv")
    return _write_forecasts(config, series_list, "forecast.tsv")


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
    fr = _forecast(config, series)
    if fr is None:
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


def _sweep_specs(axis: str, values: Sequence) -> list[FilterSpec]:
    """One filter per sweep value; run_sweep has checked the values."""
    if axis == "threshold":
        return [FilterSpec(threshold=t) for t in values]
    return [FilterSpec(if_bins=frozenset({int(b)})) for b in values]


def _flagship(s: RegionSeries) -> bool:
    return s.filter_desc == "all" and not _is_bri_pair(s.pair)


def _filtered(prefix: str, *metrics: str) -> Callable[[RegionSeries], bool]:
    return lambda s: s.filter_desc.startswith(prefix) and s.metric in metrics


# export's figures: each plots the series of series.tsv or of the
# threshold sweep ("sweep") that its test keeps
_FIGURES: dict[str, tuple[str, Callable[[RegionSeries], bool]]] = {
    "fig1c": ("series", lambda s: _flagship(s) and s.metric == LEAD_SHARE),
    "fig1d": ("series", lambda s: _flagship(s) and s.metric == LEAD_PREMIUM),
    "fig2a": ("sweep", _filtered("", LEAD_SHARE, LEAD_PREMIUM)),
    "fig2b": ("series", _filtered("if_bins=", LEAD_SHARE, LEAD_PREMIUM)),
    "fig3": ("series", lambda s: _is_bri_pair(s.pair)),
    "fig4a": ("series", _filtered("areas=", LEAD_SHARE)),
    "fig4b": ("series", _filtered("fields=", LEAD_SHARE)),
}


def _stage_export(config: PipelineConfig, artifacts: Artifacts) -> dict[str, float]:
    series_list = artifacts.read("series.tsv")
    scored = artifacts.read("scored.tsv")
    _counts, sweep = _tally(
        config, scored, _sweep_specs("threshold", config.threshold_sweep)
    )
    sources = {"series": series_list, "sweep": sweep}
    export_dir = config.output_dir / "export"
    export_dir.mkdir(parents=True, exist_ok=True)
    # every cell is a region name, BRI:<class>, a metric, kind or tag name,
    # or a number, and none holds a comma, quote or newline: joined with
    # commas they are the CSV that csv.writer would write
    for name, (source, keep) in _FIGURES.items():
        rows = (row for s in sources[source] if keep(s) for row in _series_plot_rows(config, s))
        write_tsv(export_dir / f"{name}.csv", ",".join(_CSV_HEADER), map(",".join, rows))
    return {"figure_tables": len(_FIGURES)}


def _stage_sweep(
    axis: str, config: PipelineConfig, artifacts: Artifacts, values: Sequence
) -> dict[str, float]:
    specs = _sweep_specs(axis, values)
    scored = artifacts.read("scored.tsv")
    _counts, series_list = _tally(config, scored, specs)
    counts = _write_forecasts(config, series_list, f"sweep_{axis}.tsv")
    return {"values": len(values), **counts}


_SWEEP_KEYS = (
    "counting_mode", "focal_region", "pairs",
    "window_start", "window_end", "confidence_level", "horizon",
)

# run order, then the sweeps; manifest lines follow this order
STAGE_TABLE: dict[str, Stage] = {stage.name: stage for stage in (
    Stage(
        "ingest", _stage_ingest,
        "validate the corpus and select bilateral publications",
        raw="corpus", tables=("regions",), config_keys=("strict",),
        writes=("corpus.jsonl", "bilateral.jsonl"),
    ),
    Stage(
        "train-roles", _stage_train_roles,
        "cluster contribution verbs and label statements",
        raw="contributions", config_keys=("seed", "strict_binary_labels"),
        writes=("roles.tsv", "labels.tsv"),
    ),
    Stage(
        "build-profiles", _stage_build_profiles,
        "extract per-authorship feature vectors",
        reads=("corpus.jsonl",), writes=("features.tsv",),
    ),
    Stage(
        "fit-model", _stage_fit_model,
        "fit and evaluate the lead-probability model",
        reads=("labels.tsv", "features.tsv"),
        config_keys=("seed", "split_ratio", "model_family", "lead_threshold"),
        writes=("model.tsv", "eval.tsv"),
    ),
    Stage(
        "score", _stage_score, "score every bilateral authorship",
        tables=("regions", "bri", "areas", "fields"),
        reads=("bilateral.jsonl", "features.tsv", "model.tsv"),
        config_keys=("lead_threshold", "if_bin_edges"),
        writes=("scored.tsv",),
    ),
    Stage(
        "aggregate", _stage_aggregate,
        "tally leader/supporter counts and build metric series",
        reads=("scored.tsv",),
        config_keys=(
            "counting_mode", "focal_region", "pairs", "areas", "fields",
            "if_bins", "bri_classes",
        ),
        writes=("counts.tsv", "series.tsv"),
    ),
    Stage(
        "forecast", _stage_forecast, "fit trends and solve parity years",
        reads=("series.tsv",),
        config_keys=("window_start", "window_end", "confidence_level", "horizon"),
        writes=("forecast.tsv",),
    ),
    Stage(
        "export", _stage_export, "write plot-ready per-figure CSV tables",
        reads=("series.tsv", "forecast.tsv", "scored.tsv"),
        config_keys=(
            "window_start", "window_end", "confidence_level", "horizon",
            "threshold_sweep", "focal_region", "pairs", "counting_mode",
        ),
        writes=tuple(f"export/{name}.csv" for name in _FIGURES),
    ),
    Stage(
        "sweep-threshold", functools.partial(_stage_sweep, "threshold"),
        "forecast once per lead threshold",
        reads=("scored.tsv",), config_keys=_SWEEP_KEYS,
        writes=("sweep_threshold.tsv",),
    ),
    Stage(
        "sweep-if_bin", functools.partial(_stage_sweep, "if_bin"),
        "forecast once per impact-factor bin",
        reads=("scored.tsv",), config_keys=_SWEEP_KEYS,
        writes=("sweep_if_bin.tsv",),
    ),
)}

STAGES = tuple(name for name in STAGE_TABLE if not name.startswith("sweep-"))
SWEEP_AXES = tuple(
    name.removeprefix("sweep-") for name in STAGE_TABLE if name.startswith("sweep-")
)


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


def _run(
    name: str, config: PipelineConfig, force: bool,
    artifacts: Optional[Artifacts] = None, values: Optional[tuple] = None,
) -> str:
    """Hash the inputs, skip when the manifest line still matches, else run
    the stage (a sweep also gets its values, which join the config slice),
    record its line and log its counts.  artifacts holds what the calling
    run_all decoded; a standalone stage starts its own.  A flock on
    output_dir, which makes no file, keeps concurrent runs from
    interleaving (POSIX only)."""
    stage = STAGE_TABLE[name]
    artifacts = artifacts or Artifacts(config.output_dir, (name,))
    config.output_dir.mkdir(parents=True, exist_ok=True)
    lock = os.open(config.output_dir, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)
        manifest_path = config.output_dir / MANIFEST_NAME
        manifest = read_manifest(manifest_path)
        artifacts.inputs = inputs = _stage_inputs(stage, config, manifest)
        config_hash = _config_slice_hash(config, stage, values)
        if not force and _is_cached(
            manifest.get(name), inputs, config_hash, config, stage.writes
        ):
            artifacts.done(stage, {})
            log.info("%s: cached", name)
            return "cached"
        args = (config, artifacts) if values is None else (config, artifacts, values)
        counts = stage.fn(*args)
        outputs = {rel: _sha256_file(config.output_dir / rel) for rel in stage.writes}
        manifest[name] = ManifestEntry(name, inputs, config_hash, outputs)
        write_manifest(manifest, manifest_path)
    finally:
        os.close(lock)
    artifacts.done(stage, outputs)
    log.info("%s: ran: %s", name, ", ".join(
        f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}"
        for key, value in counts.items()
    ))
    return "ran"


def run_stage(
    stage: str, config: PipelineConfig, force: bool = False,
    artifacts: Optional[Artifacts] = None,
) -> str:
    """Run one stage (or skip it when cached); returns 'ran' or 'cached'.
    run_all passes the artifacts its earlier stages decoded."""
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}")
    return _run(stage, config, force, artifacts)


def run_all(config: PipelineConfig, force: bool = False) -> dict[str, str]:
    artifacts = Artifacts(config.output_dir, STAGES)
    return {stage: run_stage(stage, config, force, artifacts) for stage in STAGES}


def run_sweep(
    config: PipelineConfig,
    axis: str,
    values: Sequence,
    force: bool = False,
) -> str:
    """Forecast once per sweep value; writes sweep_<axis>.tsv."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    if not values:
        raise ConfigError(f"the {axis} sweep needs at least one value")
    # a repeated value adds no series, so it neither re-runs the sweep nor
    # changes its hash; first occurrences keep their order
    values = tuple(dict.fromkeys(values))
    # PipelineConfig checks each value's range
    field = "threshold_sweep" if axis == "threshold" else "if_bins"
    config.replace(**{field: values})
    return _run(f"sweep-{axis}", config, force, values=values)
