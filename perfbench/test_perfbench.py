"""Tests of the benchmark's own code: inputs, trace arithmetic and checks.

Run with `python3 -m pytest perfbench` from the repository root.
"""

from __future__ import annotations

import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

import checks
import run
from gen import Shape, generate, write_inputs
from tracer import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------- inputs


def test_same_seed_gives_identical_input_bytes(tmp_path):
    shape = Shape(n_authorships=2_000, seniors=40, zipf=1.0)
    write_inputs(shape, 5, tmp_path / "a")
    write_inputs(shape, 5, tmp_path / "b")
    write_inputs(shape, 6, tmp_path / "c")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == ["config.cfg", "contributions.jsonl", "corpus.jsonl", "unique.cfg"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "corpus.jsonl").read_bytes() != (
        tmp_path / "c" / "corpus.jsonl"
    ).read_bytes()


def _papers_per_author(shape: Shape) -> Counter:
    corpus, _ = generate(shape, seed=0)
    counts = Counter()
    for line in corpus:
        for a in json.loads(line)["authorships"]:
            counts[a["author_id"]] += 1
    return counts


def test_skewed_top_author_has_thousands_of_papers_uniform_has_few():
    assert max(_papers_per_author(run.SKEWED).values()) > 2_000
    assert max(_papers_per_author(run.UNIFORM).values()) < 60


def test_anchors_write_lead_verbs():
    corpus, contributions = generate(Shape(500, 20, 0.0), seed=1)
    first_authors = {
        (p["paper_id"], p["authorships"][0]["author_id"])
        for p in map(json.loads, corpus)
    }
    for c in map(json.loads, contributions):
        if (c["paper_id"], c["author_id"]) in first_authors:
            assert {"conceived", "designed", "led", "supervised", "coordinated",
                    "wrote", "interpreted", "Conceived", "supervises"} & set(c["verbs"])


# ---------------------------------------------------------------- trace


def test_self_time_is_duration_minus_covered_child_intervals():
    spans = [
        Span(0, "pipeline.score", "pipeline", 0.0, 10.0, None, counted_s=0.5),
        Span(1, "features.read_features", "features", 1.0, 3.0, 0),
        # overlaps its sibling: the union, not the sum, is covered
        Span(2, "leadmodel.predict_many", "leadmodel", 2.0, 4.0, 0),
        # sticks out of its parent: only the part inside is covered
        Span(3, "leadmodel.write_scored", "leadmodel", 9.0, 11.0, 0),
        Span(4, "tables.table_bytes", "tables", 1.5, 2.5, 1),
        Span(5, "pipeline.export", "pipeline", 20.0, 21.0, None),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 - 1.0) - (10.0 - 9.0) - 0.5)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(1.0)


class _Clock:
    """Advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_tracer_counts_generators_and_hot_calls_and_splits_self_time():
    tracer = Tracer(clock=_Clock())

    def t_quantile(p, dof):
        return 2.0

    def items(n):
        yield from range(n)

    hot = tracer.wrap(t_quantile, "tdist.t_quantile", "tdist")
    gen = tracer.wrap(items, "leadmodel.read_scored", "leadmodel")

    def stage(name):
        assert list(gen(3)) == [0, 1, 2]
        hot(0.975, 10)
        return "ran"

    root = tracer.wrap(stage, "pipeline.run_stage", "pipeline",
                       name_of=lambda name: f"pipeline.{name}")
    assert root("score") == "ran"

    assert [s.name for s in tracer.spans] == ["pipeline.score"]
    scored = tracer.stats["leadmodel.read_scored"]
    assert (scored.calls, scored.items, scored.total_s) == (1, 3, 4.0)
    assert tracer.stats["tdist.t_quantile"].calls == 1
    assert tracer.statuses == [("pipeline.score", "ran")]
    layers = tracer.layer_self_times()
    # root: readings 1 and 12; four next() slices and one hot call of 1 s
    assert layers["pipeline"] == pytest.approx(11.0 - 4.0 - 1.0)
    assert layers["leadmodel"] == pytest.approx(4.0)
    assert layers["tdist"] == pytest.approx(1.0)
    report = tracer.report()
    assert report["pipeline.score_s"] == pytest.approx(11.0)
    assert report["pipeline.score.self_s"] == pytest.approx(6.0)
    assert report["leadmodel.read_scored_items"] == 3
    assert report["pipeline.stages_ran"] == 1


def test_tracer_install_patches_and_restores_pipeline(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import leadshare.forecast as forecast
    import leadshare.pipeline as pipeline

    before = (pipeline.build_profiles, pipeline.run_stage, forecast.t_quantile)
    tracer = Tracer()
    tracer.install()
    try:
        assert pipeline.build_profiles is not before[0]
        assert pipeline.run_stage is not before[1]
        assert forecast.t_quantile is not before[2]
        assert forecast.t_quantile(0.975, 10) == pytest.approx(2.228138852, abs=1e-6)
    finally:
        tracer.uninstall()
    assert (pipeline.build_profiles, pipeline.run_stage, forecast.t_quantile) == before
    assert tracer.stats["tdist.t_quantile"].calls == 1


# ---------------------------------------------------------------- checks

_SCORED = """\
paper_id\tauthor_id\tregion\tyear\tlead_prob\tis_leader\ttags
P1\tA1\tChina\t2015\t0.9\ttrue\tx
P1\tA2\tU.S.\t2015\t0.1\tfalse\tx
P2\tA1\tChina\t2016\t0.8\ttrue\tx
P2\tA3\tU.S.\t2016\t0.2\tfalse\tx
P3\tA1\tChina\t2016\t0.7\ttrue\tx
P3\tA4\tU.S.\t2016\t0.3\tfalse\tx
"""
_COUNTS = """\
pair\tyear\tregion\tleaders\tsupporters\tfilter
China|U.S.\t2015\tChina\t1\t0\tall
China|U.S.\t2015\tU.S.\t0\t1\tall
China|U.S.\t2016\tChina\t2\t0\tall
China|U.S.\t2016\tU.S.\t0\t2\tall
China|U.S.\t2016\tChina\t9\t9\tareas=Robotics
"""
_SERIES = """\
pair\tfocal\tmetric\tfilter\tyear\tvalue
China|U.S.\tChina\tLeadShare\tall\t2016\t0.666666667
China|U.S.\tChina\tSupporterShare\tall\t2016\t0.333333333
China|U.S.\tChina\tLeadPremium\tall\t2016\t0.333333333
"""


@pytest.fixture
def out(tmp_path) -> Path:
    out = tmp_path / "out"
    (out / "export").mkdir(parents=True)
    (out / "scored.tsv").write_text(_SCORED)
    (out / "counts.tsv").write_text(_COUNTS)
    (out / "series.tsv").write_text(_SERIES)
    (out / "eval.tsv").write_text(
        "threshold\tprecision\trecall\ttp\tfp\tfn\ttn\n0.65\t1.0\t0.5\t1\t0\t1\t3\n"
    )
    for name in checks.FIGURES:
        (out / "export" / f"{name}.csv").write_text("pair,focal\nChina|U.S.,China\n")
    return out


def _replace(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))


def test_well_formed_outputs_pass_every_check(out):
    assert checks.validity_problems(out) == []
    assert checks.output_problems(out, "author_paper") == []
    assert checks.leader_ratio(out) == pytest.approx(0.5)


def test_validity_rejects_a_run_without_leaders(out):
    (out / "scored.tsv").write_text(_SCORED.replace("\ttrue\t", "\tfalse\t"))
    assert checks.validity_problems(out) == ["scored.tsv has no leaders"]


def test_validity_rejects_zero_recall(out):
    _replace(out / "eval.tsv", "\t0.5\t", "\t0.000000000\t")
    assert checks.validity_problems(out) == ["held-out recall in eval.tsv is 0"]


def test_validity_rejects_header_only_and_missing_figures(out):
    (out / "export" / "fig3.csv").write_text("pair,focal\n")
    (out / "export" / "fig4b.csv").unlink()
    assert checks.validity_problems(out) == [
        "export/fig3.csv holds only a header",
        "export/fig4b.csv is missing",
    ]


def test_premium_identity_rejects_a_wrong_premium(out):
    _replace(out / "series.tsv", "LeadPremium\tall\t2016\t0.333333333",
             "LeadPremium\tall\t2016\t0.333333343")
    assert len(checks.premium_problems(out)) == 1


def test_premium_identity_accepts_nine_decimal_rounding(out):
    _replace(out / "series.tsv", "LeadPremium\tall\t2016\t0.333333333",
             "LeadPremium\tall\t2016\t0.333333335")
    assert checks.premium_problems(out) == []


def test_premium_identity_rejects_a_premium_without_shares(out):
    _replace(out / "series.tsv",
             "China|U.S.\tChina\tSupporterShare\tall\t2016\t0.333333333\n", "")
    assert len(checks.premium_problems(out)) == 1


def test_count_check_rejects_totals_that_miss_scored_rows(out):
    _replace(out / "counts.tsv", "2016\tChina\t2\t0\tall", "2016\tChina\t3\t0\tall")
    assert len(checks.count_problems(out, "author_paper")) == 1


def test_count_check_deduplicates_authors_in_unique_mode(out):
    assert len(checks.count_problems(out, "unique_author")) == 1
    _replace(out / "counts.tsv", "2016\tChina\t2\t0\tall", "2016\tChina\t1\t0\tall")
    assert checks.count_problems(out, "unique_author") == []


def test_status_check_rejects_wrong_missing_extra_and_repeated_stages():
    expected = {"ingest": "ran", "score": "cached"}
    assert checks.status_problems([("ingest", "ran"), ("score", "cached")], expected) == []
    assert checks.status_problems([("ingest", "cached"), ("score", "cached")], expected)
    assert checks.status_problems([("ingest", "ran")], expected)
    assert checks.status_problems(
        [("ingest", "ran"), ("score", "cached"), ("export", "ran")], expected
    )
    assert checks.status_problems(
        [("ingest", "ran"), ("ingest", "ran"), ("score", "cached")], expected
    )


def test_digest_check_rejects_a_changed_missing_or_extra_artifact(out):
    want = checks.digests(out)
    assert checks.digest_problems(want, checks.digests(out)) == []
    _replace(out / "series.tsv", "0.666666667", "0.666666668")
    (out / "export" / "fig1c.csv").unlink()
    (out / "stray.tsv").write_text("x\n")
    assert checks.digest_problems(want, checks.digests(out)) == [
        "export/fig1c.csv: digest differs from the reference",
        "series.tsv: digest differs from the reference",
        "stray.tsv: digest differs from the reference",
    ]


def test_golden_check_names_differences_and_reports_known_mismatches(out, tmp_path):
    committed = tmp_path / "committed"
    shutil.copytree(out, committed)
    (committed / "manifest.tsv").write_text("stage\tinputs\tconfig\toutputs\n"
                                            "score\ta\tb\tc\nsweep-threshold\td\te\tf\n")
    (committed / "sweep_threshold.tsv").write_text("header\n")
    (out / "manifest.tsv").write_text("stage\tinputs\tconfig\toutputs\n"
                                      "score\ta\tb\tc\n")
    known = {"sweep_threshold.tsv": "why", "sweep-threshold": "why"}
    problems, notes = checks.golden_problems(out, committed, known)
    assert problems == [] and len(notes) == 2
    _replace(out / "counts.tsv", "\t1\t0\tall", "\t1\t1\tall")
    (out / "eval.tsv").unlink()
    (out / "manifest.tsv").write_text("stage\tinputs\tconfig\toutputs\n"
                                      "score\ta\tb\tX\n")
    problems, _ = checks.golden_problems(out, committed, known)
    assert problems == [
        "counts.tsv: bytes differ from the committed file",
        "eval.tsv: not produced",
        "manifest.tsv line 'score' differs",
    ]


# ---------------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in run.WORKLOADS.items()
    }
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )


def test_expected_statuses_per_workload():
    assert set(run.WORKLOADS["uniform"].expected(rerun=False).values()) == {"ran"}
    edit = run.WORKLOADS["edit_sweep"].expected(rerun=False)
    assert sorted(s for s, v in edit.items() if v == "ran") == [
        "aggregate", "export", "forecast", "sweep-if_bin", "sweep-threshold",
    ]
    assert sum(v == "cached" for v in edit.values()) == 5
    assert set(run.WORKLOADS["edit_sweep"].expected(rerun=True).values()) == {"cached"}
