"""In-memory spans and counters around the calls into each leadshare layer.

`Tracer.install` patches, inside one process, every function that
`leadshare.pipeline` imports from a layer module, the stage entry points
`run_stage` and `run_sweep` (in `leadshare.pipeline` and `leadshare.cli`)
and `leadshare.forecast.t_quantile`.  Nothing under `src/` changes.

- A stage call (`run_stage`, `run_sweep`) opens a root span named
  `pipeline.<stage>`; a layer call opens a span named `<module>.<function>`
  whose parent is the innermost open span.
- Generator functions are timed per `next()` call: their busy time and the
  items they yield are counted, since their work interleaves with the
  consumer's.
- Functions called thousands of times (`HOT`) and anything nested inside a
  counted call get counters in place of spans.

Spans and counters stay in memory until `report` turns them into flat
metrics.  Self time is a call's duration minus the time covered by the
wrapped calls inside it; a layer's self time sums that over its calls.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

# pipeline imports nothing from kmeans, so its time is part of roles
LAYER_MODULES = (
    "records", "corpus", "roles", "features", "leadmodel", "metrics",
    "forecast", "tdist", "tables",
)
LAYERS = LAYER_MODULES + ("pipeline",)
STAGES = (
    "ingest", "train-roles", "build-profiles", "fit-model", "score",
    "aggregate", "forecast", "export",
)
SWEEPS = ("sweep-threshold", "sweep-if_bin")

HOT = frozenset({
    "corpus.classify_topics",
    "corpus.impact_factor_bin",
    "corpus.bri_income_class",
    "roles.normalize_record",
    "metrics.build_series",
    "forecast.forecast_series",
    "forecast.confidence_band",
    "tdist.t_quantile",
})

# positional argument whose len() is counted as the call's input items
_INPUT_ARG = {"metrics.aggregate": 0, "corpus.filter_corpus": 0}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    # time spent in counted calls directly inside this span; they leave no
    # span of their own, so self time subtracts it separately
    counted_s: float = 0.0


@dataclass
class Stat:
    calls: int = 0
    items: int = 0
    inputs: int = 0
    total_s: float = 0.0


@dataclass
class _Frame:
    name: str
    layer: str
    start: float
    span_id: Optional[int]
    children_s: float = 0.0
    counted_s: float = 0.0


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span) and minus its counted time."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children[s.id]):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[s.id] = (s.end - s.start) - covered - s.counted_s
    return out


class _TracedIter:
    def __init__(self, tracer: "Tracer", name: str, layer: str, inner):
        self._tracer, self._name, self._layer = tracer, name, layer
        self._inner = iter(inner)

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer._enter(self._name, self._layer, counted=True)
        items = 0
        try:
            item = next(self._inner)
            items = 1
            return item
        finally:
            self._tracer._exit(frame, items=items, call=False)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.spans: list[Span] = []
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counted_self: dict[str, float] = defaultdict(float)
        self.statuses: list[tuple[str, str]] = []
        self.partition = None
        self._next_id = 0
        self._stack: list[_Frame] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ frames

    def _enter(self, name: str, layer: str, counted: bool) -> _Frame:
        # everything inside a counted call is counted too, so no span ever
        # hangs below a call that has none
        if self._stack and self._stack[-1].span_id is None:
            counted = True
        span_id = None
        if not counted:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(name, layer, 0.0, span_id)
        self._stack.append(frame)
        frame.start = self._clock()
        return frame

    def _exit(self, frame: _Frame, items: int = 0, inputs: int = 0,
              call: bool = True) -> None:
        end = self._clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = end - frame.start
        stat = self.stats[frame.name]
        stat.calls += call
        stat.items += items
        stat.inputs += inputs
        stat.total_s += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children_s += duration
            if frame.span_id is None and parent.span_id is not None:
                parent.counted_s += duration
        if frame.span_id is None:
            self.counted_self[frame.layer] += duration - frame.children_s
            return
        parent_id = None
        for outer in reversed(self._stack):
            if outer.span_id is not None:
                parent_id = outer.span_id
                break
        self.spans.append(Span(
            frame.span_id, frame.name, frame.layer, frame.start, end,
            parent_id, frame.counted_s,
        ))

    # ------------------------------------------------------------ wrapping

    def wrap(self, fn: Callable, name: str, layer: str,
             name_of: Optional[Callable[..., str]] = None) -> Callable:
        """Trace calls to fn under name (or name_of(*args) per call)."""
        input_arg = _INPUT_ARG.get(name)

        def count_inputs(args) -> int:
            if input_arg is not None and len(args) > input_arg:
                return len(args[input_arg])
            return 0

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat = self.stats[name]
                stat.calls += 1
                stat.inputs += count_inputs(args)
                return _TracedIter(self, name, layer, fn(*args, **kwargs))
            return gen_wrapper

        counted = name in HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            call_name = name_of(*args, **kwargs) if name_of else name
            inputs = count_inputs(args)
            frame = self._enter(call_name, layer, counted)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, inputs=inputs)
            if name_of is not None:
                self.statuses.append((call_name, result))
            elif name == "roles.cluster_roles":
                self.partition = result
            return result
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import leadshare.cli as cli
        import leadshare.forecast as forecast
        import leadshare.pipeline as pipeline

        for attr, obj in sorted(vars(pipeline).items()):
            if not inspect.isfunction(obj):
                continue
            module = obj.__module__.rpartition(".")[2]
            if module in LAYER_MODULES and not attr.startswith("_"):
                self._patch(pipeline, attr, self.wrap(obj, f"{module}.{attr}", module))
        self._patch(
            forecast, "t_quantile",
            self.wrap(forecast.t_quantile, "tdist.t_quantile", "tdist"),
        )
        stage = self.wrap(
            pipeline.run_stage, "pipeline.run_stage", "pipeline",
            name_of=lambda stage, *a, **k: f"pipeline.{stage}",
        )
        sweep = self.wrap(
            pipeline.run_sweep, "pipeline.run_sweep", "pipeline",
            name_of=lambda config, axis, *a, **k: f"pipeline.sweep-{axis}",
        )
        for owner in (pipeline, cli):
            self._patch(owner, "run_stage", stage)
            self._patch(owner, "run_sweep", sweep)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ report

    def layer_self_times(self) -> dict[str, float]:
        out = {layer: self.counted_self.get(layer, 0.0) for layer in LAYERS}
        by_id = {s.id: s for s in self.spans}
        for span_id, own in self_times(self.spans).items():
            layer = by_id[span_id].layer
            out[layer] = out.get(layer, 0.0) + own
        return out

    def report(self) -> dict[str, float]:
        """Flat per-layer metrics; absent work reads 0."""
        st = self.stats
        own = self.layer_self_times()
        span_self = self_times(self.spans)
        stage_self: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is None:
                stage_self[s.name] += span_self[s.id]
        filtered = st["corpus.filter_corpus"]
        out = {
            "features.build_profiles_s": st["features.build_profiles"].total_s,
            "features.extract_all_s": st["features.extract_all"].total_s,
            "features.read_features_s": st["features.read_features"].total_s,
            "metrics.aggregate_s": st["metrics.aggregate"].total_s,
            "metrics.aggregate_calls": st["metrics.aggregate"].calls,
            "metrics.aggregate_items": st["metrics.aggregate"].inputs,
            "metrics.build_series_s": st["metrics.build_series"].total_s,
            "leadmodel.read_scored_s": st["leadmodel.read_scored"].total_s,
            "leadmodel.read_scored_items": st["leadmodel.read_scored"].items,
            "leadmodel.rescore_items": st["leadmodel.rescore"].items,
            "forecast.forecast_series_s": st["forecast.forecast_series"].total_s,
            "forecast.forecast_series_calls": st["forecast.forecast_series"].calls,
            "forecast.confidence_band_calls": st["forecast.confidence_band"].calls,
            "tdist.t_quantile_calls": st["tdist.t_quantile"].calls,
            "tdist.t_quantile_s": st["tdist.t_quantile"].total_s,
            "pipeline.export.self_s": stage_self["pipeline.export"],
            "records.read_corpus_s": st["records.read_corpus"].total_s,
            "records.read_corpus_items": st["records.read_corpus"].items,
            "records.write_corpus_s": st["records.write_corpus"].total_s,
            "corpus.filter_corpus_s": filtered.total_s,
            "corpus.kept_ratio": (
                filtered.items / filtered.inputs if filtered.inputs else 0.0
            ),
            "leadmodel.fit_s": st["leadmodel.fit"].total_s,
            "leadmodel.predict_many_s": st["leadmodel.predict_many"].total_s,
            "leadmodel.write_scored_s": st["leadmodel.write_scored"].total_s,
            "pipeline.score.self_s": stage_self["pipeline.score"],
            "tables.load_s": sum(
                s.total_s for name, s in st.items() if name.startswith("tables.")
            ),
            "roles.build_cooccurrence_s": st["roles.build_cooccurrence"].total_s,
            "roles.cluster_roles_s": st["roles.cluster_roles"].total_s,
            "roles.training_labels_s": st["roles.training_labels"].total_s,
            "kmeans.n_iter": getattr(self.partition, "n_iter", 0),
        }
        for stage in STAGES + SWEEPS:
            out[f"pipeline.{stage}_s"] = st[f"pipeline.{stage}"].total_s
        out["pipeline.stages_ran"] = sum(1 for _, s in self.statuses if s == "ran")
        out["pipeline.stages_cached"] = sum(
            1 for _, s in self.statuses if s == "cached"
        )
        for layer in LAYERS:
            out[f"{layer}.self_s"] = own.get(layer, 0.0)
        return out
