"""The pipeline's stages.

Eight stages (ingest through export) form a fixed dependency chain, and
two sweeps re-forecast along one axis.  `STAGE_TABLE` declares each one:
its function, raw input, packaged tables, upstream artifacts, config
slice and outputs.  `cache.run` runs a stage unless its manifest line
still matches.

Within one run_all, run_stage or run_sweep call each artifact is decoded
at most once (see `cache.Artifacts`); nothing decoded outlives the call.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .cache import Artifacts, Stage, run
from .config import PipelineConfig
from .corpus import filter_corpus
from .errors import ConfigError, TooFewPoints, ZeroVariance
from .features import as_read_back, build_profiles, read_features, write_features
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
    CorpusTable,
    publication_to_json,
    read_contributions,
    read_corpus,
    write_corpus,
    write_tsv,
)
from .roles import (
    build_cooccurrence,
    cluster_roles,
    code_statements,
    label_clusters,
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
)


def _read_corpus_file(path: Path, lines: Optional[list[str]] = None) -> CorpusTable:
    """The corpus file as a table, each record folded in as it is parsed;
    given lines, each record's canonical line is appended to them.  A line
    ends only at \\n: JSON allows a \\r as whitespace inside a record."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        records = read_corpus(fh, source=str(path))
        if lines is None:
            return CorpusTable(records)
        return CorpusTable(lines.append(publication_to_json(r)) or r for r in records)


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


# ---------------------------------------------------------------- stages


def _stage_ingest(config: PipelineConfig, artifacts: Artifacts) -> dict[str, float]:
    region_map = load_region_map(config.regions)
    lines: list[str] = []
    table = _read_corpus_file(config.corpus, lines)
    # filtered first, so an unknown country under strict changes no output
    kept, counts = filter_corpus(table, region_map, strict=config.strict, source=str(config.corpus))
    out = config.output_dir
    write_corpus(lines, out / "corpus.jsonl")
    write_corpus([lines[i] for i in kept.tolist()], out / "bilateral.jsonl")
    # every record ingest accepts decodes back from its line unchanged
    artifacts.hand_on("corpus.jsonl", table)
    artifacts.hand_on("bilateral.jsonl", table.take(kept))
    return counts


def _stage_train_roles(config: PipelineConfig, artifacts: Artifacts) -> dict[str, float]:
    path = config.contributions  # its lines, as the corpus's, end only at \n
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        statements = code_statements(read_contributions(fh, source=str(path)))
    matrix = build_cooccurrence(statements)
    model = label_clusters(cluster_roles(matrix, seed=config.seed))
    write_role_model(model, config.output_dir / "roles.tsv")
    labels = training_labels(statements, model, strict_binary=config.strict_binary_labels)
    write_training_labels(labels, config.output_dir / "labels.tsv")
    artifacts.hand_on("labels.tsv", labels)
    return {"verbs": len(matrix.vocabulary), "labels": len(labels.lead_value)}


def _stage_build_profiles(config: PipelineConfig, artifacts: Artifacts) -> dict[str, float]:
    table = artifacts.read("corpus.jsonl")
    features = build_profiles(table)
    write_features(features, config.output_dir / "features.tsv")
    artifacts.hand_on("features.tsv", as_read_back(features))
    return {"papers": len(table)}


def _stage_fit_model(config: PipelineConfig, artifacts: Artifacts) -> dict[str, float]:
    labels = artifacts.read("labels.tsv")
    features = artifacts.read("features.tsv")
    # each label's feature row; a label without one is skipped
    rows = features.rows_of(labels.papers, labels.paper, labels.authors, labels.author)
    found = rows >= 0
    model, report = fit(
        features.X, labels.lead_value[found],
        rows=rows[found],
        split_ratio=config.split_ratio,
        seed=config.seed,
        threshold=config.lead_threshold,
    )
    # score reads model.tsv: written last, a crash between the two leaves it old
    write_eval(report, config.output_dir / "eval.tsv")
    write_model(model, config.output_dir / "model.tsv")
    artifacts.hand_on("model.tsv", model)
    return {
        "examples": int(found.sum()), "labels_without_features": int((~found).sum()),
        "precision": report.precision, "recall": report.recall,
    }


def _stage_score(config: PipelineConfig, artifacts: Artifacts) -> dict[str, float]:
    table, below = score_corpus(
        artifacts.read("model.tsv"),
        artifacts.read("bilateral.jsonl"),
        artifacts.read("features.tsv"),
        load_region_map(config.regions),
        load_topic_map(config.areas_table, config.fields_table),
        load_bri_classification(config.bri),
        config.if_bin_edges,
        threshold=config.lead_threshold,
    )
    write_scored(table, config.output_dir / "scored.tsv")
    artifacts.hand_on("scored.tsv", table)
    return {"rows": len(table), "below_first_edge": below}


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
    """Counts and series of every spec, in spec order; PipelineConfig's
    normal form makes the specs distinct."""
    all_counts = []
    series_list: list[RegionSeries] = []
    for spec in specs:
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
    artifacts.hand_on("series.tsv", write_series(series_list, config.output_dir / "series.tsv"))
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


def _sweep_specs(axis: str, config: PipelineConfig) -> list[FilterSpec]:
    """One filter per value of the config key the axis sweeps."""
    if axis == "threshold":
        return [FilterSpec(threshold=t) for t in config.threshold_sweep]
    return [FilterSpec(if_bins=frozenset({b})) for b in config.if_bins]


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
    _counts, sweep = _tally(config, scored, _sweep_specs("threshold", config))
    sources = {"series": series_list, "sweep": sweep}
    # every cell is a region name, BRI:<class>, a metric, kind or tag name,
    # or a number, and none holds a comma, quote or newline: joined with
    # commas they are the CSV that csv.writer would write
    for name, (source, keep) in _FIGURES.items():
        rows = (row for s in sources[source] if keep(s) for row in _series_plot_rows(config, s))
        path = config.output_dir / f"export/{name}.csv"
        write_tsv(path, ",".join(_CSV_HEADER), map(",".join, rows))
    return {"figure_tables": len(_FIGURES)}


def _stage_sweep(axis: str, config: PipelineConfig, artifacts: Artifacts) -> dict[str, float]:
    specs = _sweep_specs(axis, config)
    scored = artifacts.read("scored.tsv")
    _counts, series_list = _tally(config, scored, specs)
    counts = _write_forecasts(config, series_list, f"sweep_{axis}.tsv")
    return {"values": len(specs), **counts}


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
        writes=("sweep_threshold.tsv",), values="threshold_sweep",
    ),
    Stage(
        "sweep-if_bin", functools.partial(_stage_sweep, "if_bin"),
        "forecast once per impact-factor bin",
        reads=("scored.tsv",), config_keys=_SWEEP_KEYS,
        writes=("sweep_if_bin.tsv",), values="if_bins",
    ),
)}

STAGES = tuple(name for name, stage in STAGE_TABLE.items() if stage.values is None)
SWEEP_AXES = tuple(
    name.removeprefix("sweep-") for name, stage in STAGE_TABLE.items() if stage.values
)


def run_stage(
    stage: str, config: PipelineConfig, force: bool = False,
    artifacts: Optional[Artifacts] = None,
) -> str:
    """Run one stage (or skip it when cached); returns 'ran' or 'cached'.
    run_all passes the artifacts its earlier stages decoded."""
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}")
    return run(STAGE_TABLE, _DECODERS, stage, config, force, artifacts)


def run_all(config: PipelineConfig, force: bool = False) -> dict[str, str]:
    artifacts = Artifacts(config.output_dir, [STAGE_TABLE[s] for s in STAGES], _DECODERS)
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
    name = f"sweep-{axis}"
    # PipelineConfig checks the values and sorts them without repeats, so
    # neither order nor a repeat re-runs the sweep or changes its bytes
    config = config.replace(**{STAGE_TABLE[name].values: values})
    return run(STAGE_TABLE, _DECODERS, name, config, force)
