#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the leadshare pipeline.

    python3 perfbench/run.py --workload uniform --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py                      # every workload, one table

A run builds its inputs from the seed, then times iterations of the
workload's CLI commands, each in a fresh child interpreter, one after the
other (a closed loop with one client), until `--seconds` have passed.  It
checks every iteration's outputs, runs the committed fixture as a golden
check, and prints one line per metric (median, unit, sample count) and
then, as the last line, a JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` one
extra traced iteration gives the per-layer ones (see tracer.py).  A run
exits 1 when any check fails and 2, without a result, when the program is
missing or the workload is refused by the validity check.

The benchmark reads and writes only inside the checkout, under
`.perfbench_work/`.  It needs nothing beyond the standard library and the
program's own dependencies.  README.md beside this file explains the
workloads, the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from gen import Shape, write_inputs
from tracer import LAYERS, STAGES, SWEEPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
FIXTURE = ROOT / "fixtures" / "synthetic_200"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
# a run starts no iteration it cannot finish by then, and kills a child
# that outlives the hard limit
SOFT_DEADLINE_S = 140.0
HARD_DEADLINE_S = 170.0
# short metrics are sampled at several points of a run: cached re-runs
# after every iteration, import probes before and after every iteration
RERUNS = 5
SETUP_PROBES = 3

# the committed sweep_threshold.tsv holds only a header and its manifest
# config hash (1df78cfc...) matches neither the config's threshold_sweep
# nor the README's 0.6,0.7, so no run reproduces it
KNOWN_GOLDEN_MISMATCHES = {
    "sweep_threshold.tsv": "committed file holds only a header; not reproducible",
    "sweep-threshold": "config hash 1df78cfc matches no documented sweep values",
}


@dataclass(frozen=True)
class Workload:
    why: str
    shape: Shape
    commands: tuple[tuple[str, ...], ...]
    ran: frozenset[str]
    counting_mode: str = "author_paper"
    # restore a finished author_paper run, untimed, before each iteration
    from_base: bool = False

    def expected(self, rerun: bool) -> dict[str, str]:
        stages = STAGES + (SWEEPS if self.from_base else ())
        return {
            s: "ran" if s in self.ran and not rerun else "cached" for s in stages
        }


UNIFORM = Shape(n_authorships=30_000, seniors=1_200, zipf=0.0)
SKEWED = Shape(n_authorships=20_000, seniors=8, zipf=1.0)

WORKLOADS = {
    "uniform": Workload(
        why="flat productivity, cold run of all eight stages: export, score, "
            "aggregate and ingest lead, the feature sweep stays small",
        shape=UNIFORM,
        commands=(("config.cfg", "all"),),
        ran=frozenset(STAGES),
    ),
    "skewed": Workload(
        why="Zipf(1) senior productivity, top author with over 2k papers: the "
            "quadratic prior-history union in features dominates a cold run",
        shape=SKEWED,
        commands=(("config.cfg", "all"),),
        ran=frozenset(STAGES),
    ),
    "edit_sweep": Workload(
        why="re-run of a finished uniform run with counting_mode=unique_author "
            "plus both sweeps: partial cache invalidation, rescore and sweeps",
        shape=UNIFORM,
        commands=(
            ("unique.cfg", "all"),
            ("unique.cfg", "sweep", "--axis", "threshold"),
            ("unique.cfg", "sweep", "--axis", "if_bin"),
        ),
        ran=frozenset(("aggregate", "forecast", "export") + SWEEPS),
        counting_mode="unique_author",
        from_base=True,
    ),
}

# (name, unit, better, bound); bound is the share of the parent's median by
# which a metric may worsen.  Times get 0.25: on a shared 2-vCPU VM the
# same work drifts by up to 25% between runs
END_TO_END = (
    ("total_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("cached_rerun_s", "s", "lower", 0.25),
)

_LAYER_TIMES = (
    "features.build_profiles_s", "features.extract_all_s",
    "features.read_features_s", "metrics.aggregate_s",
    "metrics.build_series_s", "leadmodel.read_scored_s",
    "forecast.forecast_series_s", "tdist.t_quantile_s",
    "pipeline.export.self_s", "records.read_corpus_s",
    "records.write_corpus_s", "corpus.filter_corpus_s", "leadmodel.fit_s",
    "leadmodel.predict_many_s", "leadmodel.write_scored_s",
    "pipeline.score.self_s", "tables.load_s", "roles.build_cooccurrence_s",
    "roles.cluster_roles_s", "roles.training_labels_s",
) + tuple(f"pipeline.{s}_s" for s in STAGES + SWEEPS) + tuple(
    f"{layer}.self_s" for layer in LAYERS
) + ("trace.overhead_s",)
_LAYER_COUNTS = (
    "features.prior_visits", "metrics.aggregate_calls",
    "metrics.aggregate_items", "leadmodel.read_scored_items",
    "leadmodel.rescore_items", "forecast.forecast_series_calls",
    "forecast.confidence_band_calls", "tdist.t_quantile_calls",
    "records.read_corpus_items", "kmeans.n_iter", "pipeline.stages_ran",
)
# (name, unit, better)
PER_LAYER = (
    tuple((name, "s", "lower") for name in _LAYER_TIMES)
    + tuple((name, "count", "lower") for name in _LAYER_COUNTS)
    + (
        ("pipeline.stages_cached", "count", "higher"),
        ("corpus.kept_ratio", "ratio", "higher"),
        ("leadmodel.leader_ratio", "ratio", "higher"),
    )
)


class Refused(Exception):
    """The program is missing or the workload fails its validity check."""


@dataclass
class Report:
    workload: str
    iterations: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    setup_samples: list[float] = field(default_factory=list)
    rerun_samples: list[float] = field(default_factory=list)
    golden_notes: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.iterations)

    @property
    def correct(self) -> bool:
        return not self.failures

    def medians(self) -> dict[str, tuple[float, int]]:
        """Metric -> (median, sample count) over untraced iterations."""
        timed = [it for it in self.iterations if not it.get("traced")]
        samples = {
            name: [it[name] for it in timed if name in it]
            for name in ("total_s", "cpu_s", "peak_rss_mb")
        }
        samples["cached_rerun_s"] = self.rerun_samples
        samples["setup_s"] = self.setup_samples
        return {
            name: (statistics.median(values), len(values))
            for name, values in samples.items()
            if values
        }


class Runner:
    """Runs one workload at one seed inside its own work directory."""

    def __init__(self, name: str, seed: int, started: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.started = started
        self.dir = WORK / f"{name}-{seed}-{os.getpid()}"
        self.report = Report(name)
        self.reference = None
        if seed == DEFAULT_SEED and REFERENCE.is_file():
            refs = json.loads(REFERENCE.read_text(encoding="utf-8"))
            self.reference = refs["digests"].get(name)

    # ------------------------------------------------------------ children

    def _child(self, args: list[str]) -> dict:
        remaining = HARD_DEADLINE_S - (time.perf_counter() - self.started)
        log = self.dir / "child.log"
        with open(log, "a", encoding="utf-8") as err:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), *args],
                    stdout=subprocess.PIPE, stderr=err, text=True,
                    timeout=max(remaining, 1.0), cwd=ROOT,
                )
            except subprocess.TimeoutExpired:
                return {"error": "child ran past the run's time limit"}
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"error": f"child exited {proc.returncode} without a result"}
        if proc.returncode != 0 and "error" not in result:
            result["error"] = f"child exited {proc.returncode}"
        return result

    def _iteration(self, workdir: Path, commands, reruns: int,
                   trace_file: Path = None, timed: bool = True) -> dict:
        spec = {
            "root": str(ROOT), "workdir": str(workdir),
            "commands": [list(c) for c in commands], "reruns": reruns,
            "timed": timed, "trace": trace_file is not None,
            "trace_file": str(trace_file) if trace_file else None,
        }
        return self._child([json.dumps(spec)])

    # ------------------------------------------------------------ steps

    def prepare(self) -> None:
        if self.dir.exists():
            shutil.rmtree(self.dir)
        write_inputs(self.workload.shape, self.seed, self.dir)
        if not self.workload.from_base:
            return
        result = self._iteration(self.dir, (("config.cfg", "all"),), reruns=0)
        if "error" in result:
            raise Refused(f"base run failed:\n{result['error']}")
        self._validate(self.dir / "out")
        (self.dir / "out").rename(self.dir / "base")

    def _validate(self, out: Path) -> None:
        problems = checks.validity_problems(out)
        if problems:
            raise Refused(
                f"workload {self.name} seed {self.seed} refused: "
                + "; ".join(problems)
            )

    def iterate(self, trace_file: Path = None) -> float:
        """One checked iteration; returns its wall time."""
        began = time.perf_counter()
        out = self.dir / "out"
        if out.exists():
            shutil.rmtree(out)
        if self.workload.from_base:
            shutil.copytree(self.dir / "base", out)
        traced = trace_file is not None
        result = self._iteration(
            self.dir, self.workload.commands, 0 if traced else RERUNS, trace_file
        )
        result["traced"] = traced
        problems = []
        if "error" in result:
            problems.append(result["error"].strip().splitlines()[-1])
        else:
            if not self.report.iterations and not self.workload.from_base:
                self._validate(out)
            self.report.setup_samples.append(result["setup_s"])
            self.report.rerun_samples += result["reruns_s"]
            problems += self._check(out, result)
        self.report.iterations.append(result)
        if problems:
            self.report.failed += 1
            self.report.failures += [
                f"iteration {len(self.report.iterations)}: {p}" for p in problems
            ]
        return time.perf_counter() - began

    def _check(self, out: Path, result: dict) -> list[str]:
        wl = self.workload
        problems = checks.status_problems(
            [tuple(s) for s in result["statuses"]], wl.expected(rerun=False)
        )
        problems += self._rerun_problems(result)
        problems += checks.output_problems(out, wl.counting_mode)
        digests = checks.digests(out)
        # the default seed has stored digests; any other seed must at least
        # reproduce its own first iteration
        want = self.reference or self.report.digests or digests
        problems += checks.digest_problems(want, digests)
        if not self.report.digests:
            self.report.digests = digests
        if result.get("layers") is not None:
            self.report.layers = dict(result["layers"])
            self.report.layers["features.prior_visits"] = checks.prior_visits(out)
            self.report.layers["leadmodel.leader_ratio"] = checks.leader_ratio(out)
        return problems

    def _rerun_problems(self, result: dict) -> list[str]:
        expected = self.workload.expected(rerun=True)
        return [
            f"re-run {p}"
            for statuses in result["rerun_statuses"]
            for p in checks.status_problems([tuple(s) for s in statuses], expected)
        ]

    def rerun_moment(self) -> None:
        """Time the finished workload's commands again in a fresh child."""
        result = self._iteration(
            self.dir, self.workload.commands, RERUNS, timed=False
        )
        if "error" in result:
            self.report.failures.append(f"cached re-run: {result['error']}")
            return
        self.report.setup_samples.append(result["setup_s"])
        self.report.rerun_samples += result["reruns_s"]
        self.report.failures += self._rerun_problems(result)

    def probe_setup(self) -> None:
        for _ in range(SETUP_PROBES):
            result = self._child(["--probe", str(ROOT)])
            if "error" in result:
                self.report.failures.append(f"import probe: {result['error']}")
                return
            self.report.setup_samples.append(result["setup_s"])

    def golden(self) -> None:
        """Run the committed fixture and compare it byte for byte."""
        if not (FIXTURE / "out").is_dir():
            # .gitignore names the committed outputs, so a checkout built
            # from the ignore rules alone lacks them
            self.report.golden_notes = [
                "skipped: fixtures/synthetic_200/out is not in this checkout"
            ]
            return
        gold = self.dir / "golden"
        gold.mkdir()
        lines = []
        for line in (FIXTURE / "config.cfg").read_text(encoding="utf-8").splitlines():
            key, sep, value = line.partition("=")
            if sep and key.strip() in ("corpus", "contributions"):
                line = f"{key.strip()} = {(FIXTURE / value.strip()).resolve()}"
            lines.append(line)
        (gold / "fixture.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = self._iteration(
            gold,
            (("fixture.cfg", "all"), ("fixture.cfg", "sweep", "--axis", "if_bin")),
            reruns=0,
        )
        if "error" in result:
            self.report.failures.append(f"golden fixture run: {result['error']}")
            return
        problems, notes = checks.golden_problems(
            gold / "out", FIXTURE / "out", KNOWN_GOLDEN_MISMATCHES
        )
        self.report.failures += [f"golden fixture: {p}" for p in problems]
        self.report.golden_notes = notes

    def run(self, seconds: float, trace: bool) -> Report:
        if not (ROOT / "src" / "leadshare" / "__init__.py").is_file():
            raise Refused(f"no leadshare package under {ROOT / 'src'}")
        WORK.mkdir(exist_ok=True)
        try:
            self.prepare()
            self.probe_setup()
            measured = 0.0
            while True:
                took = self.iterate()
                self.probe_setup()
                measured += took
                elapsed = time.perf_counter() - self.started
                if measured >= seconds or elapsed + took > SOFT_DEADLINE_S:
                    break
            if trace:
                self.iterate(trace_file=WORK / f"trace-{self.name}-{self.seed}.json")
                traced = self.report.iterations[-1]
                if "total_s" in traced and self.report.medians().get("total_s"):
                    self.report.layers["trace.overhead_s"] = (
                        traced["total_s"] - self.report.medians()["total_s"][0]
                    )
            self.golden()
            self.rerun_moment()
            self.probe_setup()
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        return self.report


def _units() -> dict[str, str]:
    return {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def print_report(report: Report, trace: bool) -> dict:
    """Print the readable lines; return the metrics object for the JSON line."""
    units = _units()
    metrics = {}
    for name, (median, n) in report.medians().items():
        print(f"{report.workload:<11} {name:<15} median {median:12.6f} "
              f"{units[name]:<5} n={n}")
        metrics[name] = {"value": median, "unit": units[name]}
    rate = report.failed / report.attempted if report.attempted else 1.0
    print(f"{report.workload:<11} {'error_rate':<15} {rate:19.6f} ratio "
          f"n={report.attempted}")
    for note in report.golden_notes:
        print(f"{report.workload:<11} golden: {note}")
    for failure in report.failures:
        print(f"{report.workload:<11} FAILED: {failure}")
    if not trace:
        return {k: metrics[k] for k, *_ in END_TO_END if k in metrics}
    layers = {}
    for name, unit, _better in PER_LAYER:
        value = report.layers.get(name)
        if value is None:
            continue
        print(f"{report.workload:<11} {name:<32} {value:14.6f} {unit}")
        layers[name] = {"value": value, "unit": unit}
    total = report.medians().get("total_s")
    if total:
        for name in ("features.build_profiles_s", "pipeline.build-profiles_s"):
            share = report.layers.get(name, 0.0) / total[0]
            print(f"{report.workload:<11} {name} share of total_s: {share:.3f}")
    return layers


def record_reference(seconds: float) -> int:
    digests = {}
    for name in WORKLOADS:
        runner = Runner(name, DEFAULT_SEED, time.perf_counter())
        runner.reference = None
        report = runner.run(seconds, trace=False)
        if report.failures:
            print("\n".join(report.failures), file=sys.stderr)
            return 1
        digests[name] = report.digests
    REFERENCE.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "digests": digests}, indent=1, sort_keys=True
    ) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; every workload when omitted")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"rewrite {REFERENCE.name} from seed {DEFAULT_SEED}")
    args = parser.parse_args(argv)
    if args.record_reference:
        return record_reference(args.seconds)
    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = []
    for name in names:
        try:
            reports.append(
                Runner(name, args.seed, time.perf_counter()).run(
                    args.seconds, bool(args.trace)
                )
            )
        except Refused as exc:
            print(f"refused: {exc}", file=sys.stderr)
            return 2
    results = [(r, print_report(r, bool(args.trace))) for r in reports]
    correct = all(r.correct for r in reports)
    if args.workload:
        report, metrics = results[0]
        print(json.dumps({
            "correct": report.correct,
            "attempted": report.attempted,
            "failed": report.failed,
            "metrics": metrics,
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
