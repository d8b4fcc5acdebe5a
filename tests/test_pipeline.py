"""End-to-end pipeline behavior: caching, invalidation, sweeps, CLI."""

import csv
import dataclasses
import fcntl
import itertools
import json
import logging
import os
import shutil
import threading
import time
from pathlib import Path

import pytest

import leadshare.pipeline
import leadshare.records
from leadshare.cli import main
from leadshare.config import (
    DEFAULT_IF_EDGES,
    PipelineConfig,
    config_from_mapping,
    load_config,
)
from leadshare.errors import ConfigError, HashMismatch, MissingUpstream, UnknownCountry
from leadshare.leadmodel import FAMILY_LOGISTIC
from leadshare.metrics import COUNT_UNIQUE_AUTHOR
from leadshare.pipeline import (
    MANIFEST_NAME,
    STAGE_TABLE,
    STAGES,
    SWEEP_AXES,
    ManifestEntry,
    read_manifest,
    run_all,
    run_stage,
    run_sweep,
    write_manifest,
)
from leadshare.tables import AREA_TAGS, FIELD_TAGS, HIGH_INCOME

ALL_ARTIFACTS = tuple(rel for stage in STAGES for rel in STAGE_TABLE[stage].writes)

# the counts each stage logs when it runs on the fixture's config, with the
# sweeps' default values
RAN_COUNTS = {
    "ingest": "records=200, bilateral=186, pre_1991=6, low_impact=4, "
              "not_bilateral=3, unknown_country=1",
    "train-roles": "verbs=27, labels=776",
    "build-profiles": "papers=200",
    "fit-model": "examples=776, labels_without_features=0, precision=1.000, recall=0.714",
    "score": "rows=744, below_first_edge=0",
    "aggregate": "pair_years=485, series=315",
    "forecast": "forecast_rows=150, skipped_series=165",
    "export": "figure_tables=7",
    "sweep-threshold": "values=7, forecast_rows=126, skipped_series=21",
    "sweep-if_bin": "values=5, forecast_rows=33, skipped_series=49",
}


@pytest.fixture(scope="module")
def pristine(fixture_dir, tmp_path_factory):
    """One full pipeline run shared by the read-only tests."""
    out = tmp_path_factory.mktemp("pipeline") / "out"
    config = PipelineConfig(
        corpus=fixture_dir / "corpus.jsonl",
        contributions=fixture_dir / "contributions.jsonl",
        output_dir=out,
    )
    statuses = run_all(config)
    return config, statuses


def clone(pristine_config: PipelineConfig, tmp_path: Path) -> PipelineConfig:
    """Copy a finished output tree so tamper tests stay isolated."""
    out = tmp_path / "out"
    shutil.copytree(pristine_config.output_dir, out)
    return pristine_config.replace(output_dir=out)


class TestCaching:
    def test_first_run_ran_then_cached(self, pristine):
        config, statuses = pristine
        assert statuses == {stage: "ran" for stage in STAGES}
        assert run_all(config) == {stage: "cached" for stage in STAGES}
        for rel in ALL_ARTIFACTS:
            assert (config.output_dir / rel).is_file()

    def test_each_run_logs_one_line(self, fixture_dir, tmp_path, caplog):
        config = load_config(fixture_dir / "config.cfg").replace(output_dir=tmp_path / "out")
        caplog.set_level(logging.INFO, logger="leadshare.pipeline")

        def lines() -> list[tuple[str, str]]:
            logged = [(r.levelname, r.getMessage()) for r in caplog.records
                      if r.name == "leadshare.pipeline"]
            caplog.clear()
            return logged

        run_all(config)
        run_sweep(config, "threshold", config.threshold_sweep)
        run_sweep(config, "if_bin", tuple(range(len(config.if_bin_edges))))
        assert lines() == [
            ("INFO", f"{name}: ran: {counts}") for name, counts in RAN_COUNTS.items()
        ]
        run_all(config)
        assert lines() == [("INFO", f"{stage}: cached") for stage in STAGES]

    def test_lock_holds_back_concurrent_runs(self, pristine, tmp_path):
        # both sweeps wait while this test holds the flock on out/ through
        # its own descriptor; once released, each records its manifest line
        config = clone(pristine[0], tmp_path)
        out = config.output_dir
        before = set(out.rglob("*"))
        manifest = (out / MANIFEST_NAME).read_bytes()
        statuses: list[str] = []
        threads = [
            threading.Thread(target=lambda s=stage: statuses.append(run_named(s, config)))
            for stage in SWEEP_VALUES
        ]
        lock = os.open(out, os.O_RDONLY)
        try:
            fcntl.flock(lock, fcntl.LOCK_EX)
            for thread in threads:
                thread.start()
            time.sleep(0.5)
            assert all(thread.is_alive() for thread in threads)
            assert (out / MANIFEST_NAME).read_bytes() == manifest
        finally:
            os.close(lock)
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert statuses == ["ran", "ran"]
        assert set(read_manifest(out / MANIFEST_NAME)) == set(STAGE_TABLE)
        assert set(out.rglob("*")) - before == {
            out / "sweep_threshold.tsv", out / "sweep_if_bin.tsv"
        }

    def test_threshold_change_recomputes_downstream(self, pristine, tmp_path):
        config, _ = pristine
        changed = clone(config, tmp_path).replace(lead_threshold=0.70)
        statuses = run_all(changed)
        assert statuses == {
            "ingest": "cached",
            "train-roles": "cached",
            "build-profiles": "cached",
            "fit-model": "ran",
            "score": "ran",
            "aggregate": "ran",
            "forecast": "ran",
            "export": "ran",
        }

    def test_byte_identity_across_dirs(self, pristine, tmp_path):
        config, _ = pristine
        other = config.replace(output_dir=tmp_path / "out")
        run_all(other)
        for rel in ALL_ARTIFACTS + (MANIFEST_NAME,):
            a = (config.output_dir / rel).read_bytes()
            b = (other.output_dir / rel).read_bytes()
            assert a == b, f"{rel} differs between runs"

    def test_missing_upstream(self, fixture_config):
        with pytest.raises(MissingUpstream, match="ingest"):
            run_stage("build-profiles", fixture_config)

    def test_tampered_input_detected(self, pristine, tmp_path):
        config, _ = pristine
        tampered = clone(config, tmp_path)
        path = tampered.output_dir / "series.tsv"
        path.write_text(path.read_text(encoding="utf-8") + "# edited\n",
                        encoding="utf-8")
        with pytest.raises(HashMismatch, match="aggregate"):
            run_stage("forecast", tampered)

    def test_tampered_output_heals(self, pristine, tmp_path):
        config, _ = pristine
        tampered = clone(config, tmp_path)
        path = tampered.output_dir / "forecast.tsv"
        original = path.read_bytes()
        path.write_text("garbage\n", encoding="utf-8")
        assert run_stage("forecast", tampered) == "ran"
        assert path.read_bytes() == original

    def test_force_rerun(self, pristine, tmp_path):
        config, _ = pristine
        cloned = clone(config, tmp_path)
        assert run_stage("ingest", cloned) == "cached"
        assert run_stage("ingest", cloned, force=True) == "ran"

    def test_crash_mid_write_keeps_artifact(self, pristine, tmp_path, monkeypatch):
        # ingest dies part way through writing corpus.jsonl: the finished
        # file stays, no temp file is left, and build-profiles stays cached
        cloned = clone(pristine[0], tmp_path)
        path = cloned.output_dir / "corpus.jsonl"
        before = path.read_bytes()
        to_json, written = leadshare.records.publication_to_json, itertools.count()

        def crash(record):
            if next(written) == 100:
                raise RuntimeError("crash")
            return to_json(record)

        monkeypatch.setattr(leadshare.records, "publication_to_json", crash)
        with pytest.raises(RuntimeError, match="crash"):
            run_stage("ingest", cloned, force=True)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert not list(cloned.output_dir.rglob("*.tmp"))
        assert run_stage("build-profiles", cloned) == "cached"

    def test_failed_strict_ingest_changes_no_output(self, pristine, tmp_path, fixture_dir):
        # a new paper with an unknown country fails ingest under strict
        # before corpus.jsonl is replaced, so build-profiles stays cached
        cloned = clone(pristine[0], tmp_path)
        lines = (fixture_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        paper = json.loads(lines[-1])
        paper["paper_id"] = "PX"
        paper["authorships"][0]["country"] = "Atlantis"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join([*lines, json.dumps(paper)]) + "\n", encoding="utf-8")
        with pytest.raises(UnknownCountry):
            run_stage("ingest", cloned.replace(corpus=corpus, strict=True))
        assert not list(cloned.output_dir.rglob("*.tmp"))
        assert run_stage("build-profiles", cloned) == "cached"

    def test_unknown_stage(self, fixture_config):
        with pytest.raises(ConfigError):
            run_stage("deploy", fixture_config)

    def test_manifest_round_trip(self, tmp_path):
        entries = {
            "ingest": ManifestEntry(
                stage="ingest",
                inputs={"raw:corpus": "a" * 64, "table:regions": "b" * 64},
                config_hash="c" * 64,
                outputs={"corpus.jsonl": "d" * 64},
            ),
            "train-roles": ManifestEntry(
                stage="train-roles", inputs={}, config_hash="e" * 64, outputs={}
            ),
        }
        path = tmp_path / MANIFEST_NAME
        write_manifest(entries, path)
        assert read_manifest(path) == entries
        assert read_manifest(tmp_path / "absent.tsv") == {}


class TestDecodeOnce:
    """Within one call each artifact is decoded at most once; nothing
    decoded carries over to the next call."""

    READERS = ("read_corpus", "read_features", "read_scored", "read_series")

    @pytest.fixture
    def decodes(self, monkeypatch) -> dict[str, int]:
        """Calls to each artifact reader of the pipeline module."""
        counts = dict.fromkeys(self.READERS, 0)
        for name in self.READERS:
            def counted(*args, _name=name, _read=getattr(leadshare.pipeline, name), **kwargs):
                counts[_name] += 1
                return _read(*args, **kwargs)
            monkeypatch.setattr(leadshare.pipeline, name, counted)
        return counts

    def test_all_decodes_each_artifact_once(self, fixture_config, decodes):
        run_all(fixture_config)
        # the raw corpus only: build-profiles and score get ingest's records
        assert decodes == dict.fromkeys(self.READERS, 1)
        # a sweep is a call of its own, so it decodes scored.tsv again
        run_sweep(fixture_config, "threshold", (0.6,))
        assert decodes["read_scored"] == 2

    def test_separate_stages_decode_from_disk(self, pristine, tmp_path, decodes):
        config = clone(pristine[0], tmp_path)
        for stage in ("build-profiles", "score", "aggregate", "export"):
            assert run_stage(stage, config, force=True) == "ran"
        assert decodes == {
            "read_corpus": 2, "read_features": 1, "read_scored": 2, "read_series": 1
        }

    def test_all_matches_separate_stages(self, pristine, fixture_config):
        for stage in STAGES:
            assert run_stage(stage, fixture_config) == "ran"
        for rel in ALL_ARTIFACTS + (MANIFEST_NAME,):
            assert (fixture_config.output_dir / rel).read_bytes() == (
                pristine[0].output_dir / rel
            ).read_bytes(), rel

    def test_edit_after_ingest_is_still_detected(self, fixture_config, monkeypatch):
        # corpus.jsonl changes between ingest and build-profiles of one run
        run = leadshare.pipeline.run_stage

        def edit_after_ingest(stage, config, *args, **kwargs):
            status = run(stage, config, *args, **kwargs)
            if stage == "ingest":
                path = config.output_dir / "corpus.jsonl"
                path.write_bytes(path.read_bytes().replace(b'"P0002"', b'"P9999"'))
            return status

        monkeypatch.setattr(leadshare.pipeline, "run_stage", edit_after_ingest)
        with pytest.raises(HashMismatch, match="corpus.jsonl"):
            run_all(fixture_config)

    def test_shared_tables_are_read_only(self, pristine):
        out = pristine[0].output_dir
        features = leadshare.pipeline.read_features(out / "features.tsv")
        scored = leadshare.pipeline.read_scored(out / "scored.tsv")
        for array in (features.X, scored.lead_prob, scored.is_leader, scored.run):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestSweep:
    def test_threshold_sweep_rows(self, pristine, tmp_path):
        config, _ = pristine
        cfg = clone(config, tmp_path)
        assert run_sweep(cfg, "threshold", (0.5, 0.65, 0.8)) == "ran"
        lines = (cfg.output_dir / "sweep_threshold.tsv").read_text(
            encoding="utf-8"
        ).splitlines()
        filters = [line.split("\t")[3] for line in lines[1:]]
        assert set(filters) == {"threshold=0.5", "threshold=0.65", "threshold=0.8"}
        for value in set(filters):
            assert filters.count(value) > 0
        # caching keys on the swept values as well as the inputs
        assert run_sweep(cfg, "threshold", (0.5, 0.65, 0.8)) == "cached"
        assert run_sweep(cfg, "threshold", (0.55,)) == "ran"

    def test_unsorted_library_pair_keeps_its_series(self, pristine, tmp_path):
        # series keys sort a pair's regions, and so does PipelineConfig
        cfg = clone(pristine[0], tmp_path).replace(pairs=(("U.S.", "China"),))
        assert cfg.pairs == (("China", "U.S."),)
        assert run_stage("aggregate", cfg) == "ran"
        pairs = {
            line.split("\t")[0]
            for line in (cfg.output_dir / "series.tsv").read_text(encoding="utf-8").splitlines()[1:]
        }
        assert "China|U.S." in pairs
        assert not [p for p in pairs if not p.startswith("BRI:") and p != "China|U.S."]

    def test_repeated_value_counts_once(self, pristine, tmp_path):
        cfg = clone(pristine[0], tmp_path)
        sweep = cfg.output_dir / "sweep_threshold.tsv"
        assert run_sweep(cfg, "threshold", (0.6,)) == "ran"
        once = sweep.read_bytes()
        # a repeated value changes neither the sweep's hash nor its bytes
        assert run_sweep(cfg, "threshold", (0.6, 0.6)) == "cached"
        assert run_sweep(cfg, "threshold", (0.6, 0.6), force=True) == "ran"
        assert sweep.read_bytes() == once

    def test_if_bin_sweep(self, pristine, tmp_path):
        config, _ = pristine
        cfg = clone(config, tmp_path)
        assert run_sweep(cfg, "if_bin", (0, 2)) == "ran"
        lines = (cfg.output_dir / "sweep_if_bin.tsv").read_text(
            encoding="utf-8"
        ).splitlines()
        assert lines[0].startswith("pair\tfocal\tmetric\tfilter")
        for line in lines[1:]:
            assert line.split("\t")[3].startswith("if_bins=")

    def test_empty_values_rejected(self, pristine, tmp_path):
        config, _ = pristine
        cfg = clone(config, tmp_path)
        manifest = (cfg.output_dir / MANIFEST_NAME).read_bytes()
        for axis in SWEEP_AXES:
            with pytest.raises(ConfigError, match="at least one value"):
                run_sweep(cfg, axis, ())
            assert not (cfg.output_dir / f"sweep_{axis}.tsv").exists()
        assert (cfg.output_dir / MANIFEST_NAME).read_bytes() == manifest

    def test_bad_axis_and_values(self, pristine, tmp_path):
        config, _ = pristine
        cfg = clone(config, tmp_path)
        with pytest.raises(ConfigError):
            run_sweep(cfg, "year", (2010,))
        with pytest.raises(ConfigError):
            run_sweep(cfg, "threshold", (1.5,))
        with pytest.raises(ConfigError):
            run_sweep(cfg, "if_bin", (99,))


# a valid value other than the default for every config key that is not
# a path; path keys name inputs, which a stage hashes by content
ALTERNATIVES = {
    "lead_threshold": 0.7,
    "if_bin_edges": (1.0, 3.0, 9.0),
    "window_start": 2012,
    "window_end": 2020,
    "confidence_level": 0.9,
    "horizon": 2100.0,
    "seed": 1,
    "strict": True,
    "counting_mode": COUNT_UNIQUE_AUTHOR,
    "model_family": FAMILY_LOGISTIC,
    "split_ratio": 0.8,
    "strict_binary_labels": True,
    "focal_region": "U.S.",
    "pairs": (("China", "U.S."),),
    "areas": (sorted(AREA_TAGS)[0],),
    "fields": (sorted(FIELD_TAGS)[0],),
    "if_bins": (1,),
    "bri_classes": (HIGH_INCOME,),
    "threshold_sweep": (0.6, 0.7),
}
PATH_KEYS = (
    "corpus", "contributions", "output_dir", "regions", "bri",
    "areas_table", "fields_table",
)
SWEEP_VALUES = {"sweep-threshold": (0.6, 0.7), "sweep-if_bin": (0, 1, 2, 3, 4)}

# sweep-if_bin checks the user's bin values against the number of
# if_bin_edges, which is outside its slice: with fewer edges a cached sweep
# stays cached, while a forced one rejects the values it ran with
BIN_COUNT_UNHASHED = pytest.mark.xfail(
    strict=True,
    reason="sweep-if_bin validates its values against if_bin_edges, "
    "which is not in its slice",
)


def run_named(stage: str, config: PipelineConfig, force: bool = False) -> str:
    if stage in SWEEP_VALUES:
        axis = stage.removeprefix("sweep-")
        return run_sweep(config, axis, SWEEP_VALUES[stage], force=force)
    return run_stage(stage, config, force=force)


@pytest.fixture(scope="module")
def swept(pristine, tmp_path_factory):
    """A finished run plus both sweeps."""
    config = clone(pristine[0], tmp_path_factory.mktemp("swept"))
    for stage in SWEEP_VALUES:
        assert run_named(stage, config) == "ran"
    return config


def forget_producer(out: Path, rel: str) -> None:
    """Drop the manifest line of rel's producer, so the next stage reads
    rel as it is instead of reporting it modified."""
    producer = next(s for s in STAGE_TABLE.values() if rel in s.writes).name
    manifest = out / MANIFEST_NAME
    kept = [
        line for line in manifest.read_text(encoding="utf-8").splitlines()
        if not line.startswith(producer + "\t")
    ]
    manifest.write_text("\n".join(kept) + "\n", encoding="utf-8")


class TestConfigSlice:
    def test_alternatives_cover_every_key(self):
        fields = {f.name for f in dataclasses.fields(PipelineConfig)}
        assert set(ALTERNATIVES) | set(PATH_KEYS) == fields
        for key, value in ALTERNATIVES.items():
            assert value != getattr(PipelineConfig(), key)

    @pytest.mark.parametrize("stage, key", [
        pytest.param(
            stage, key,
            marks=BIN_COUNT_UNHASHED
            if (stage, key) == ("sweep-if_bin", "if_bin_edges") else (),
        )
        for stage in STAGE_TABLE
        for key in ALTERNATIVES
        if key not in STAGE_TABLE[stage].config_keys
    ])
    def test_key_outside_slice_changes_nothing(self, swept, tmp_path, stage, key):
        config = clone(swept, tmp_path).replace(**{key: ALTERNATIVES[key]})
        paths = [config.output_dir / rel for rel in STAGE_TABLE[stage].writes]
        before = [p.read_bytes() for p in paths]
        assert run_named(stage, config) == "cached"
        # forced, the stage must reproduce its outputs: it reads no key
        # that its slice leaves out
        assert run_named(stage, config, force=True) == "ran"
        assert [p.read_bytes() for p in paths] == before


class TestExport:
    FIGURES = ("fig1c", "fig1d", "fig2a", "fig2b", "fig3", "fig4a", "fig4b")

    def read_figure(self, config, name):
        with open(config.output_dir / "export" / f"{name}.csv", newline="",
                  encoding="utf-8") as fh:
            return list(csv.reader(fh))

    def test_all_figures_written_with_header(self, pristine):
        config, _ = pristine
        for name in self.FIGURES:
            rows = self.read_figure(config, name)
            assert rows[0] == [
                "pair", "focal", "metric", "filter", "kind", "x", "y", "lo", "hi"
            ], name

    def test_row_kinds_and_alignment(self, pristine):
        config, _ = pristine
        rows = self.read_figure(config, "fig1c")[1:]
        kinds = {r[4] for r in rows}
        assert kinds <= {"observed", "fitted", "parity"}
        assert "observed" in kinds and "fitted" in kinds
        for r in rows:
            assert len(r) == 9
            if r[4] == "observed":
                assert r[7] == "" and r[8] == ""
            if r[4] == "fitted":
                assert float(r[7]) <= float(r[6]) <= float(r[8])

    def test_metric_routing(self, pristine):
        config, _ = pristine
        assert {r[2] for r in self.read_figure(config, "fig1c")[1:]} == {"LeadShare"}
        assert {r[2] for r in self.read_figure(config, "fig1d")[1:]} == {"LeadPremium"}
        fig2a = self.read_figure(config, "fig2a")[1:]
        assert all(r[3].startswith("threshold=") for r in fig2a)
        fig2b = self.read_figure(config, "fig2b")[1:]
        assert all(r[3].startswith("if_bins=") for r in fig2b)
        fig4a = self.read_figure(config, "fig4a")[1:]
        assert all(r[3].startswith("areas=") for r in fig4a)
        assert {r[2] for r in fig4a} == {"LeadShare"}
        fig4b = self.read_figure(config, "fig4b")[1:]
        assert all(r[3].startswith("fields=") for r in fig4b)

    def test_bri_figure_uses_synthetic_pairs(self, pristine):
        config, _ = pristine
        rows = self.read_figure(config, "fig3")[1:]
        assert rows, "income-class comparison should not be empty"
        assert all(r[0].startswith("BRI:") for r in rows)
        assert all("China" in r[0] for r in rows)


class TestConfig:
    def test_load_resolves_relative_paths(self, tmp_path):
        (tmp_path / "c.jsonl").write_text("", encoding="utf-8")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "corpus = c.jsonl\n"
            "output_dir = results\n"
            "lead_threshold = 0.7  # trailing comment\n"
            "pairs = China|U.S., EU+|China\n"
            "if_bins = 1, 3\n"
            "strict = true\n",
            encoding="utf-8",
        )
        cfg = load_config(cfg_file)
        assert cfg.corpus == tmp_path / "c.jsonl"
        assert cfg.output_dir == tmp_path / "results"
        assert cfg.lead_threshold == 0.7
        assert cfg.pairs == (("China", "U.S."), ("China", "EU+"))
        assert cfg.if_bins == (1, 3)
        assert cfg.strict is True
        assert cfg.if_bin_edges == DEFAULT_IF_EDGES

    def test_absolute_paths_kept(self, tmp_path):
        cfg = config_from_mapping(
            {"corpus": str(tmp_path / "x.jsonl")}, base_dir=Path("/elsewhere")
        )
        assert cfg.corpus == tmp_path / "x.jsonl"

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("kernel = rbf\n", "unknown config key"),
            ("seed = 1\nseed = 2\n", "duplicate key"),
            ("strict = yes\n", "must be 'true' or 'false'"),
            ("seed no equals\n", "expected key=value"),
            ("seed = many\n", "bad value"),
            ("pairs = China\n", "RegionA|RegionB"),
        ],
    )
    def test_rejects_malformed_files(self, tmp_path, text, fragment):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=None) as err:
            load_config(cfg_file)
        assert fragment.split("|")[0] in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "none.cfg")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lead_threshold": 1.5},
            {"lead_threshold": 0.0},
            {"window_start": 2021, "window_end": 2010},
            {"confidence_level": 1.0},
            {"split_ratio": 0.0},
            {"if_bin_edges": (1.0, 1.0)},
            {"counting_mode": "per_city"},
            {"model_family": "forest"},
            {"if_bin_edges": (2.0, 1.0)},
            {"if_bin_edges": ()},
            {"threshold_sweep": (0.5, 1.2)},
            {"if_bins": (5,)},
            {"areas": ("Nope",)},
            {"fields": ("Nope",)},
            {"bri_classes": ("MiddleIncome",)},
            {"threshold_sweep": ()},
            {"focal_region": "U.S"},
            {"pairs": (("China", "U.S"),)},
            {"pairs": (("China", "China"),)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs)

    def test_replace_revalidates(self):
        cfg = PipelineConfig()
        assert cfg.replace(seed=7).seed == 7
        with pytest.raises(ConfigError):
            cfg.replace(lead_threshold=2.0)


class TestCli:
    def write_config(self, tmp_path, fixture_dir) -> Path:
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"corpus = {fixture_dir / 'corpus.jsonl'}\n"
            f"contributions = {fixture_dir / 'contributions.jsonl'}\n"
            f"output_dir = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        return cfg_file

    def test_all_prints_stage_statuses(self, tmp_path, fixture_dir, capsys):
        cfg_file = self.write_config(tmp_path, fixture_dir)
        assert main(["--config", str(cfg_file), "all"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [f"{stage}: ran" for stage in STAGES]
        # flags parse on either side of the subcommand
        assert main(["ingest", "--config", str(cfg_file)]) == 0
        assert capsys.readouterr().out == "ingest: cached\n"

    def test_sweep_subcommand(self, tmp_path, fixture_dir, capsys):
        cfg_file = self.write_config(tmp_path, fixture_dir)
        assert main(["--config", str(cfg_file), "all"]) == 0
        capsys.readouterr()
        code = main(
            ["--config", str(cfg_file), "sweep", "--axis", "threshold",
             "--values", "0.6,0.7"]
        )
        assert code == 0
        assert capsys.readouterr().out == "sweep-threshold: ran\n"
        assert (tmp_path / "out" / "sweep_threshold.tsv").is_file()
        assert main(
            ["--config", str(cfg_file), "sweep", "--axis", "threshold",
             "--values", "fast"]
        ) == 2

    def test_empty_sweep_is_config_error(self, tmp_path, fixture_dir, capsys):
        cfg_file = self.write_config(tmp_path, fixture_dir)
        assert main(["--config", str(cfg_file), "all"]) == 0
        capsys.readouterr()
        code = main(
            ["--config", str(cfg_file), "sweep", "--axis", "threshold",
             "--values", ""]
        )
        assert code == 2
        assert "at least one value" in capsys.readouterr().err
        out = tmp_path / "out"
        assert not (out / "sweep_threshold.tsv").exists()
        assert "sweep-threshold" not in read_manifest(out / MANIFEST_NAME)

    @pytest.mark.parametrize(
        "line",
        [
            "areas = Nope", "fields = Nope", "bri_classes = MiddleIncome",
            "focal_region = U.S", "pairs = China|U.S",
        ],
    )
    def test_unknown_group_fails_before_ingest(
        self, tmp_path, fixture_dir, capsys, line
    ):
        cfg_file = self.write_config(tmp_path, fixture_dir)
        with open(cfg_file, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        assert main(["--config", str(cfg_file), "all"]) == 2
        assert "unknown" in capsys.readouterr().err
        assert not (tmp_path / "out" / "corpus.jsonl").exists()

    def test_malformed_scored_is_data_error(self, tmp_path, capsys):
        # no manifest line vouches for this scored.tsv, so aggregate reads it
        out = tmp_path / "out"
        out.mkdir()
        (out / "scored.tsv").write_text(
            "paper_id\tauthor_id\tregion\tyear\tlead_prob\tis_leader\ttags\n"
            "P1\tA1\tChina\t20x0\t0.5\tfalse\t"
            "areas=;fields=;if_bin=0;bri=NonSignatory;country=China\n",
            encoding="utf-8",
        )
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"output_dir = {out}\n", encoding="utf-8")
        assert main(["--config", str(cfg_file), "aggregate"]) == 3
        err = capsys.readouterr().err
        assert "scored.tsv" in err and "line 2" in err and "'year'" in err

    @pytest.mark.parametrize(
        "rel, line_no, column, value, stage",
        [
            ("features.tsv", 5, 10, None, "fit-model"),
            ("labels.tsv", 5, 2, None, "fit-model"),
            ("series.tsv", 5, 4, "20x15", "forecast"),
            ("model.tsv", 6, 1, "abc", "score"),
            ("scored.tsv", 5, 5, "yes", "aggregate"),
            ("manifest.tsv", 2, 3, None, "aggregate"),
        ],
        ids=["features-columns", "labels-columns", "series-year", "model-intercept",
             "scored-is_leader", "manifest-fields"],
    )
    def test_damaged_artifact_names_file_and_line(
        self, pristine, tmp_path, capsys, rel, line_no, column, value, stage
    ):
        # the cell at `column` of line `line_no` becomes `value`, or with
        # value None the line is cut before that column
        out = clone(pristine[0], tmp_path).output_dir
        path = out / rel
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[line_no - 1].split("\t")
        cut = cells[:column] if value is None else [*cells[:column], value, *cells[column + 1:]]
        lines[line_no - 1] = "\t".join(cut)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if rel != MANIFEST_NAME:
            forget_producer(out, rel)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"output_dir = {out}\n", encoding="utf-8")
        assert main(["--config", str(cfg_file), stage]) == 3
        assert capsys.readouterr().err.startswith(f"error: {path}: line {line_no}, ")

    @pytest.mark.parametrize(
        "rel, extra, stage",
        [
            ("features.tsv", None, "fit-model"),
            ("model.tsv", "colour\tblue", "score"),
            ("model.tsv", "seed\t5", "score"),
            ("labels.tsv", None, "fit-model"),
            ("series.tsv", None, "forecast"),
            ("scored.tsv", None, "aggregate"),
        ],
        ids=["features-repeated-row", "model-unknown-key", "model-repeated-key",
             "labels-repeated-row", "series-repeated-row", "scored-repeated-row"],
    )
    def test_extra_line_names_file_and_line(
        self, pristine, tmp_path, capsys, rel, extra, stage
    ):
        # `extra` is appended, or with extra None a copy of line 2
        out = clone(pristine[0], tmp_path).output_dir
        path = out / rel
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.append(lines[1] if extra is None else extra)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        forget_producer(out, rel)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"output_dir = {out}\n", encoding="utf-8")
        assert main(["--config", str(cfg_file), stage]) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {path}: line {len(lines)}, "
        )

    @pytest.mark.parametrize(
        "raw, stage", [("corpus", "ingest"), ("contributions", "train-roles")]
    )
    def test_repeated_raw_record_names_both_lines(
        self, tmp_path, fixture_dir, capsys, raw, stage
    ):
        # a copy of the fourth paper or statement is appended
        path = tmp_path / f"{raw}.jsonl"
        lines = (fixture_dir / f"{raw}.jsonl").read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([*lines, lines[3]]) + "\n", encoding="utf-8")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"{raw} = {path}\noutput_dir = {tmp_path / 'out'}\n", encoding="utf-8"
        )
        assert main(["--config", str(cfg_file), stage]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line {len(lines) + 1}, ")
        assert err.rstrip().endswith("repeats line 4")
        written = STAGE_TABLE[stage].writes
        assert not [rel for rel in written if (tmp_path / "out" / rel).exists()]

    @pytest.mark.parametrize(
        "raw, stage, field", [
            ("corpus", "ingest", "journal_id"),
            ("contributions", "train-roles", "verbs"),
        ],
    )
    def test_lone_surrogate_names_file_and_line(
        self, tmp_path, fixture_dir, capsys, raw, stage, field
    ):
        # the fifth line gets a string holding an escaped lone surrogate,
        # which no UTF-8 artifact could hold
        path = tmp_path / f"{raw}.jsonl"
        lines = (fixture_dir / f"{raw}.jsonl").read_text(encoding="utf-8").splitlines()
        obj = json.loads(lines[4])
        obj[field] = "J\ud800x" if field == "journal_id" else ["le\udfffd"]
        lines[4] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"{raw} = {path}\noutput_dir = {tmp_path / 'out'}\n", encoding="utf-8"
        )
        assert main(["--config", str(cfg_file), stage]) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {path}: line 5, field '{field}': "
        )

    def test_repeated_manifest_stage_is_data_error(self, pristine, tmp_path, capsys):
        # a copy of the ingest line with its config hash zeroed is appended
        out = clone(pristine[0], tmp_path).output_dir
        manifest = out / MANIFEST_NAME
        lines = manifest.read_text(encoding="utf-8").splitlines()
        stage, inputs, _config, outputs = lines[1].split("\t")
        lines.append("\t".join((stage, inputs, "0" * 64, outputs)))
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"output_dir = {out}\n", encoding="utf-8")
        assert main(["--config", str(cfg_file), "aggregate"]) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {manifest}: line {len(lines)}, field 'stage': "
            "'ingest' repeats line 2"
        )

    def test_missing_corpus_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["ingest"]) == 2
        assert "corpus" in capsys.readouterr().err

    def test_malformed_corpus_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "broken.jsonl"
        corpus.write_text('{"paper_id": "P1"\n', encoding="utf-8")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"corpus = {corpus}\noutput_dir = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        assert main(["--config", str(cfg_file), "ingest"]) == 3
        assert "error" in capsys.readouterr().err

    def test_separator_in_author_id_is_data_error(self, tmp_path, fixture_dir, capsys):
        # a tab in an id would split a TSV row of every later artifact
        corpus = tmp_path / "corpus.jsonl"
        text = (fixture_dir / "corpus.jsonl").read_text(encoding="utf-8")
        corpus.write_text(text.replace('"A030"', '"A030\\tX"'), encoding="utf-8")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"corpus = {corpus}\n"
            f"contributions = {fixture_dir / 'contributions.jsonl'}\n"
            f"output_dir = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        assert main(["--config", str(cfg_file), "all"]) == 3
        err = capsys.readouterr().err
        assert str(corpus) in err and "line " in err and "author_id" in err

    def test_damaged_manifest_is_data_error(self, tmp_path, fixture_dir, capsys):
        cfg_file = self.write_config(tmp_path, fixture_dir)
        assert main(["--config", str(cfg_file), "ingest"]) == 0
        manifest = tmp_path / "out" / "manifest.tsv"
        header, line = manifest.read_text(encoding="utf-8").splitlines()
        damaged = line.rsplit("\t", 1)[0]  # drop the outputs field
        manifest.write_text(f"{header}\n{damaged}\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["--config", str(cfg_file), "ingest"]) == 3
        err = capsys.readouterr().err
        assert "manifest.tsv" in err and "line 2" in err

    def test_tiny_vocabulary_is_numeric_error(self, tmp_path, capsys):
        contributions = tmp_path / "thin.jsonl"
        contributions.write_text(
            '{"paper_id":"P1","author_id":"A1","verbs":["led"]}\n'
            '{"paper_id":"P2","author_id":"A2","verbs":["helped","led"]}\n',
            encoding="utf-8",
        )
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"contributions = {contributions}\noutput_dir = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        assert main(["--config", str(cfg_file), "train-roles"]) == 4
        assert "error" in capsys.readouterr().err

    def test_bad_config_file_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("kernel = rbf\n", encoding="utf-8")
        assert main(["--config", str(cfg_file), "ingest"]) == 2
