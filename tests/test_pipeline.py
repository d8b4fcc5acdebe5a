"""End-to-end pipeline behavior: caching, invalidation, sweeps, CLI."""

import csv
import dataclasses
import fcntl
import gc
import itertools
import json
import logging
import math
import os
import shutil
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator

import pytest

import leadshare.cache
import leadshare.pipeline
import leadshare.records
from helpers import assert_same, make_record
from leadshare.cache import (
    MANIFEST_NAME,
    ManifestEntry,
    read_manifest,
    stale_reasons,
    write_manifest,
)
from leadshare.cli import main
from leadshare.config import (
    DEFAULT_IF_EDGES,
    PipelineConfig,
    config_from_mapping,
    load_config,
)
from leadshare.errors import (
    ConfigError,
    HashMismatch,
    MalformedRecord,
    MissingUpstream,
    UnknownCountry,
)
from leadshare.metrics import COUNT_UNIQUE_AUTHOR
from leadshare.pipeline import STAGE_TABLE, STAGES, SWEEP_AXES, run_all, run_stage, run_sweep
from leadshare.records import PublicationRecord
from leadshare.tables import AREA_TAGS, FIELD_TAGS, HIGH_INCOME, LOW_INCOME, table_bytes

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
        write, written = leadshare.pipeline.write_corpus, itertools.count()

        def crash(line):
            if next(written) == 100:
                raise RuntimeError("crash")
            return line

        # the 101st line raises as write_tsv takes it
        monkeypatch.setattr(
            leadshare.pipeline, "write_corpus", lambda lines, *args: write(map(crash, lines), *args)
        )
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

    def test_each_stage_writes_an_artifact_others_read_last(self, fixture_config, monkeypatch):
        # a crash between two writes of a stage leaves the first one new
        # under the old manifest line: that file must be one no stage reads
        out, replace, replaced = fixture_config.output_dir, os.replace, []

        def spy(src, dst):
            replaced.append(os.path.relpath(dst, out))
            replace(src, dst)

        monkeypatch.setattr(leadshare.records.os, "replace", spy)
        run_all(fixture_config)
        run_sweep(fixture_config, "threshold", (0.6,))
        run_sweep(fixture_config, "if_bin", (0,))
        monkeypatch.undo()
        read = {rel for stage in STAGE_TABLE.values() for rel in stage.reads}
        for stage in STAGE_TABLE.values():
            written = [rel for rel in replaced if rel in stage.writes]
            assert sorted(written) == sorted(stage.writes), stage.name
            consumed = [rel for rel in written if rel in read]
            if stage.name == "ingest":
                # both read downstream until bilateral.jsonl is dropped
                assert consumed == ["corpus.jsonl", "bilateral.jsonl"]
            else:
                assert consumed in ([], written[-1:]), stage.name

    def test_unknown_stage(self, fixture_config):
        with pytest.raises(ConfigError):
            run_stage("deploy", fixture_config)

    def test_manifest_round_trip(self, tmp_path):
        entries = {
            "ingest": ManifestEntry(
                inputs={"raw:corpus": "a" * 64, "table:regions": "b" * 64},
                config_hash="c" * 64,
                outputs={"corpus.jsonl": "d" * 64},
            ),
            "train-roles": ManifestEntry(inputs={}, config_hash="e" * 64, outputs={}),
        }
        path = tmp_path / MANIFEST_NAME
        write_manifest(entries, path, STAGE_TABLE)
        assert read_manifest(path) == entries
        assert read_manifest(tmp_path / "absent.tsv") == {}

    # each case changes one thing that aggregate's manifest line vouches
    # for, or the line itself, and the reason it should give
    @pytest.mark.parametrize("change, expected", [
        (lambda entry, out: entry, []),
        (lambda entry, out: None, ["no manifest line"]),
        (lambda entry, out: (out / "series.tsv").unlink() or entry, ["output series.tsv missing"]),
        (
            lambda entry, out: dataclasses.replace(
                entry, inputs={**entry.inputs, "scored.tsv": "0" * 64}
            ),
            ["input scored.tsv changed"],
        ),
        (
            lambda entry, out: dataclasses.replace(entry, config_hash="0" * 64),
            ["config slice changed"],
        ),
        (
            lambda entry, out: (out / "counts.tsv").write_text("edited\n", encoding="utf-8")
            and entry,
            ["output counts.tsv changed"],
        ),
    ], ids=["untouched", "no-line", "output-missing", "input", "config", "output"])
    def test_stale_reasons(self, pristine, tmp_path, change, expected):
        out = clone(pristine[0], tmp_path).output_dir
        entry = read_manifest(out / MANIFEST_NAME)["aggregate"]
        writes = STAGE_TABLE["aggregate"].writes
        assert stale_reasons(
            change(entry, out), entry.inputs, entry.config_hash, out, writes
        ) == expected


class TestDecodeOnce:
    """Within one call each artifact is decoded at most once; nothing
    decoded carries over to the next call."""

    READERS = (
        "read_corpus", "read_features", "read_model", "read_scored", "read_series",
        "read_training_labels",
    )

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
        # the raw corpus only: every later stage gets what an earlier one wrote
        assert decodes == {**dict.fromkeys(self.READERS, 0), "read_corpus": 1}
        # a sweep is a call of its own, so it decodes scored.tsv
        run_sweep(fixture_config, "threshold", (0.6,))
        assert decodes["read_scored"] == 1

    def test_separate_stages_decode_from_disk(self, pristine, tmp_path, decodes):
        config = clone(pristine[0], tmp_path)
        for stage in ("build-profiles", "fit-model", "score", "aggregate", "export"):
            assert run_stage(stage, config, force=True) == "ran"
        assert decodes == {
            "read_corpus": 2, "read_features": 2, "read_model": 1, "read_scored": 2,
            "read_series": 1, "read_training_labels": 1,
        }

    @pytest.fixture(scope="class")
    def handed_on(self, fixture_dir, tmp_path_factory) -> tuple[Path, dict[str, object]]:
        """A cold run_all of the fixture, and what its stages handed on."""
        handed: dict[str, object] = {}
        hand_on = leadshare.cache.Artifacts.hand_on

        def spy(artifacts, rel, value):
            handed[rel] = value
            hand_on(artifacts, rel, value)

        out = tmp_path_factory.mktemp("handed") / "out"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(leadshare.cache.Artifacts, "hand_on", spy)
            run_all(PipelineConfig(
                corpus=fixture_dir / "corpus.jsonl",
                contributions=fixture_dir / "contributions.jsonl",
                output_dir=out,
            ))
        return out, handed

    @pytest.mark.parametrize(
        "rel", [rel for rel in leadshare.pipeline._DECODERS if rel in ALL_ARTIFACTS]
    )
    def test_handed_on_value_is_the_decoded_one(self, handed_on, rel):
        out, handed = handed_on
        assert_same(handed[rel], leadshare.pipeline._DECODERS[rel](out / rel), rel)

    def test_nothing_handed_on_is_a_record(self, handed_on):
        # build-profiles and score take the corpus as tables, not records
        def records(value) -> Iterator[PublicationRecord]:
            if isinstance(value, PublicationRecord):
                yield value
            elif isinstance(value, (list, tuple, set, frozenset)):
                for item in value:
                    yield from records(item)
            elif isinstance(value, dict):
                yield from records(list(value.items()))
            elif hasattr(value, "__dict__") and not isinstance(value, type):
                yield from records(list(vars(value).values()))

        _, handed = handed_on
        assert {"corpus.jsonl", "bilateral.jsonl"} <= set(handed)
        assert next(records(list(handed.values())), None) is None
        assert next(records([make_record("P1", 2000)]), None) is not None

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


def hashed_files(config: PipelineConfig, stages: Iterable[str]) -> list[Path]:
    """The raw inputs and outputs of stages, whose digests a run takes."""
    table = [STAGE_TABLE[name] for name in stages]
    return [Path(getattr(config, stage.raw)) for stage in table if stage.raw] + [
        config.output_dir / rel for stage in table for rel in stage.writes
    ]


class TestHashOnce:
    """Within one call each version of a file is hashed at most once."""

    @pytest.fixture
    def hashed(self, monkeypatch) -> Counter:
        """How often each path is hashed."""
        counts: Counter = Counter()
        sha256_file = leadshare.cache._sha256_file

        def spy(path):
            counts[Path(path)] += 1
            return sha256_file(path)

        monkeypatch.setattr(leadshare.cache, "_sha256_file", spy)
        return counts

    def test_cold_and_cached_all(self, fixture_config, hashed):
        # a consumer's input is the file its producer just hashed
        for status in ("ran", "cached"):
            assert set(run_all(fixture_config).values()) == {status}
            assert hashed == Counter(hashed_files(fixture_config, STAGES)), status
            hashed.clear()

    def test_edit_then_sweeps(self, swept, tmp_path, hashed):
        config = clone(swept, tmp_path).replace(counting_mode=COUNT_UNIQUE_AUTHOR)
        statuses = run_all(config)
        # a stage that re-runs hashed the outputs it then replaced in its
        # stale check; nothing else is hashed twice
        ran = [stage for stage, status in statuses.items() if status == "ran"]
        assert "score" not in ran and "aggregate" in ran
        assert hashed == Counter(hashed_files(config, STAGES)) + Counter(
            config.output_dir / rel for stage in ran for rel in STAGE_TABLE[stage].writes
        )
        # each sweep re-runs too (counting_mode is in its slice)
        for stage in SWEEP_VALUES:
            hashed.clear()
            assert run_named(stage, config) == "ran"
            assert hashed == Counter([config.output_dir / "scored.tsv"] + 2 * hashed_files(
                config, [stage]
            ))

    @pytest.mark.parametrize("in_place", [True, False], ids=["in-place", "replaced"])
    def test_edit_after_check_is_detected(self, pristine, tmp_path, monkeypatch, in_place):
        # one byte of scored.tsv changes, its length kept, right after
        # score's stale check hashed it: aggregate must hash it again and
        # find it modified, whether it was edited in place or replaced
        config = clone(pristine[0], tmp_path)
        path = config.output_dir / "scored.tsv"
        data = path.read_bytes()
        at = data.index(b"\n") + 1  # the first row's first byte
        edited = data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]
        stale_reasons = leadshare.cache.stale_reasons

        def edit_after_score(*args):
            found = stale_reasons(*args)
            if args[4] == STAGE_TABLE["score"].writes:
                assert found == []
                if in_place:
                    with open(path, "r+b") as fh:
                        fh.seek(at)
                        fh.write(edited[at:at + 1])
                else:
                    tmp = path.with_name("scored.edited")
                    tmp.write_bytes(edited)
                    os.replace(tmp, path)
                assert path.read_bytes() == edited
            return found

        monkeypatch.setattr(leadshare.cache, "stale_reasons", edit_after_score)
        with pytest.raises(HashMismatch, match="scored.tsv .*'score'"):
            run_all(config)


class TestCollectorPause:
    @pytest.fixture
    def paused(self, monkeypatch) -> dict[str, bool]:
        """Whether the cyclic collector was off inside each stage that ran."""
        seen = {}
        for name, stage in STAGE_TABLE.items():
            def fn(*args, stage=stage):
                seen[stage.name] = not gc.isenabled()
                return stage.fn(*args)
            monkeypatch.setitem(STAGE_TABLE, name, dataclasses.replace(stage, fn=fn))
        return seen

    def test_paused_only_while_stages_run(self, fixture_config, paused):
        assert gc.isenabled()
        run_all(fixture_config)
        run_sweep(fixture_config, "threshold", (0.6,))
        assert paused == dict.fromkeys((*STAGES, "sweep-threshold"), True)
        assert gc.isenabled()

    def test_resumed_after_a_stage_raises(self, fixture_config, tmp_path, paused):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("{bad\n", encoding="utf-8")
        with pytest.raises(MalformedRecord):
            run_all(fixture_config.replace(corpus=corpus))
        assert paused == {"ingest": True}
        assert gc.isenabled()

    def test_left_off_when_the_caller_turned_it_off(self, fixture_config, paused):
        gc.disable()
        try:
            run_all(fixture_config)
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert paused == dict.fromkeys(STAGES, True)


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


@pytest.fixture
def reasons(monkeypatch) -> list[list[str]]:
    """The stale reasons each stage that checks its manifest line finds."""
    found = []
    stale_reasons = leadshare.cache.stale_reasons

    def spy(*args):
        found.append(stale_reasons(*args))
        return found[-1]

    monkeypatch.setattr(leadshare.cache, "stale_reasons", spy)
    return found


class TestConfigSlice:
    def test_alternatives_cover_every_key(self):
        fields = {f.name for f in dataclasses.fields(PipelineConfig)}
        # model_family accepts only its default; the key stays so that
        # existing configs load and fit-model's slice hash is unchanged
        assert set(ALTERNATIVES) | set(PATH_KEYS) | {"model_family"} == fields
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
    def test_key_outside_slice_changes_nothing(self, swept, tmp_path, reasons, stage, key):
        config = clone(swept, tmp_path).replace(**{key: ALTERNATIVES[key]})
        paths = [config.output_dir / rel for rel in STAGE_TABLE[stage].writes]
        before = [p.read_bytes() for p in paths]
        assert run_named(stage, config) == "cached"
        assert reasons == [[]]
        # forced, the stage must reproduce its outputs: it reads no key
        # that its slice leaves out
        assert run_named(stage, config, force=True) == "ran"
        assert [p.read_bytes() for p in paths] == before

    @pytest.mark.parametrize("stage, key", [
        (stage, key) for stage in STAGE_TABLE for key in ALTERNATIVES
        if key in STAGE_TABLE[stage].config_keys
    ])
    def test_key_inside_slice_reruns(self, swept, tmp_path, reasons, stage, key):
        config = clone(swept, tmp_path).replace(**{key: ALTERNATIVES[key]})
        if (stage, key) == ("ingest", "strict"):
            # the stage runs and rejects the fixture's paper of no region
            with pytest.raises(UnknownCountry):
                run_named(stage, config)
        else:
            assert run_named(stage, config) == "ran"
        assert reasons == [["config slice changed"]]


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
        # pairs is a set of region sets: each pair sorted, then the pairs
        assert cfg.pairs == (("China", "EU+"), ("China", "U.S."))
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
            {"model_family": "logistic"},
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
            {"if_bins": (1.5,)},
            {"if_bins": (True,)},
            {"seed": -1},
            {"horizon": math.inf},
            {"horizon": math.nan},
            {"if_bin_edges": (1.0, math.nan, 3.0)},
            {"if_bin_edges": (1.0, math.inf)},
            {"if_bin_edges": (-math.inf, 1.0)},
            {"pairs": (("China",),)},
            {"pairs": (("China", "U.S.", "Russia"),)},
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

    @pytest.mark.parametrize("after", [False, True], ids=["before", "after"])
    def test_common_flags(self, tmp_path, fixture_dir, capsys, monkeypatch, after):
        cfg_file = self.write_config(tmp_path, fixture_dir)
        levels = []
        monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))

        def cli(command: str, *flags: str, code: int = 0):
            """Run the command with the flags on one side of it; its output."""
            common = ["--config", str(cfg_file), *flags]
            assert main([command, *common] if after else [*common, command]) == code
            return capsys.readouterr()

        # the fixture corpus holds one paper with a country of no region
        assert cli("ingest", "--strict", code=3).err == (
            f"error: {fixture_dir / 'corpus.jsonl'}: paper 'P0200': "
            "country not in region table: 'Atlantis'\n"
        )
        cli("all")
        # the seed reaches train-roles and fit-model, and all that reads them
        assert cli("all", "--seed", "1").out.splitlines() == [
            f"{stage}: {'cached' if stage in ('ingest', 'build-profiles') else 'ran'}"
            for stage in STAGES
        ]
        assert cli("forecast").out == "forecast: cached\n"
        assert cli("forecast", "--force").out == "forecast: ran\n"
        assert levels == [logging.INFO] * 5
        cli("forecast", "--verbose")
        assert levels[-1] == logging.DEBUG

    def test_levels_reach_a_configured_root_logger(self, tmp_path, fixture_dir):
        # a program that set up logging first: basicConfig leaves it alone
        cfg_file = self.write_config(tmp_path, fixture_dir)
        root, records = logging.getLogger(), []
        handler = logging.Handler()
        handler.emit = records.append
        level = root.level
        root.addHandler(handler)
        root.setLevel(logging.WARNING)

        def logged(*flags: str) -> list[tuple[str, str]]:
            records.clear()
            assert main([*flags, "--config", str(cfg_file), "ingest"]) == 0
            logging.getLogger("leadshare.pipeline").debug("probe")
            return [(r.levelname, r.getMessage()) for r in records
                    if r.name == "leadshare.pipeline"]

        try:
            assert logged() == [("INFO", f"ingest: ran: {RAN_COUNTS['ingest']}")]
            assert logged("--verbose") == [("INFO", "ingest: cached"), ("DEBUG", "probe")]
        finally:
            root.removeHandler(handler)
            root.setLevel(level)

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
        # --values is parsed as the config key the sweep sweeps
        assert "bad value for threshold_sweep: 'fast'" in capsys.readouterr().err

    def test_list_keys_and_sweep_values_are_sets(self, tmp_path, fixture_dir, capsys):
        # order and repeats in a list key or in --values change no byte of
        # any artifact, and re-run nothing
        for raw in ("corpus", "contributions"):
            shutil.copy(fixture_dir / f"{raw}.jsonl", tmp_path)
        # the six list keys, then each sweep axis's --values
        normal = {
            "pairs": ["China|EU+", "China|U.S."], "areas": sorted(AREA_TAGS)[:3], "fields": sorted(FIELD_TAGS)[:3],
            "if_bins": ["0", "2", "4"], "bri_classes": [HIGH_INCOME, LOW_INCOME],
            "threshold_sweep": ["0.55", "0.6", "0.7"],
            "threshold": ["0.5", "0.65"], "if_bin": ["1", "3"],
        }
        # rotated by one, then the new first value repeated
        shuffled = {key: [*v[1:], v[0], v[1]] for key, v in normal.items()}

        def run(lists: dict[str, list[str]], out: str) -> list[str]:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(
                f"corpus = corpus.jsonl\ncontributions = contributions.jsonl\n"
                f"output_dir = {out}\n"
                + "".join(f"{key} = {', '.join(v)}\n" for key, v in lists.items()
                          if key not in SWEEP_AXES),
                encoding="utf-8",
            )
            assert main(["--config", str(cfg_file), "all"]) == 0
            for axis in SWEEP_AXES:
                assert main(["--config", str(cfg_file), "sweep", "--axis", axis,
                             "--values", ",".join(lists[axis])]) == 0
            return capsys.readouterr().out.splitlines()

        def tree(out: str) -> dict[Path, bytes]:
            root = tmp_path / out
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        run(normal, "normal")
        run(shuffled, "shuffled")
        artifacts = tree("normal")
        assert Path(MANIFEST_NAME) in artifacts
        assert tree("shuffled") == artifacts
        assert run(shuffled, "normal") == [f"{name}: cached" for name in STAGE_TABLE]

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

    def test_negative_seed_fails_before_ingest(self, tmp_path, fixture_dir, capsys):
        cfg_file = self.write_config(tmp_path, fixture_dir)
        assert main(["--config", str(cfg_file), "--seed", "-1", "all"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_horizon_fails_before_ingest(self, tmp_path, fixture_dir, capsys, value):
        cfg_file = self.write_config(tmp_path, fixture_dir)
        with open(cfg_file, "a", encoding="utf-8") as fh:
            fh.write(f"horizon = {value}\n")
        assert main(["--config", str(cfg_file), "all"]) == 2
        assert "horizon must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
            ("model.tsv", 1, 1, "logistic", "score"),
            ("scored.tsv", 5, 5, "yes", "aggregate"),
            ("scored.tsv", 5, 1, "\udcff", "aggregate"),
            ("manifest.tsv", 2, 3, None, "aggregate"),
            ("manifest.tsv", 2, 3, "\udcff", "aggregate"),
        ],
        ids=["features-columns", "labels-columns", "series-year", "model-intercept",
             "model-family", "scored-is_leader", "scored-not-utf8", "manifest-fields",
             "manifest-not-utf8"],
    )
    def test_damaged_artifact_names_file_and_line(
        self, pristine, tmp_path, capsys, rel, line_no, column, value, stage
    ):
        # the cell at `column` of line `line_no` becomes `value`, or with
        # value None the line is cut before that column; "\udcff" is
        # written as the byte 0xff, which is not UTF-8
        out = clone(pristine[0], tmp_path).output_dir
        path = out / rel
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[line_no - 1].split("\t")
        cut = cells[:column] if value is None else [*cells[:column], value, *cells[column + 1:]]
        lines[line_no - 1] = "\t".join(cut)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
        if rel != MANIFEST_NAME:
            forget_producer(out, rel)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"output_dir = {out}\n", encoding="utf-8")
        assert main(["--config", str(cfg_file), stage]) == 3
        assert capsys.readouterr().err.startswith(f"error: {path}: line {line_no}, ")

    @pytest.mark.parametrize(
        "rel, column, digits, field, stage",
        [
            ("features.tsv", 6, 400, "f5_prior_pub_count", "fit-model"),
            ("scored.tsv", 3, 30, "year", "aggregate"),
        ],
        ids=["features-f5", "scored-year"],
    )
    def test_int_too_large_names_file_line_and_field(
        self, pristine, tmp_path, capsys, rel, column, digits, field, stage
    ):
        # an int cell too large for its column (a float64 or an int64 one)
        # is a data error like a non-numeric cell, not an OverflowError
        out = clone(pristine[0], tmp_path).output_dir
        path = out / rel
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[4].split("\t")
        cells[column] = "9" * digits
        lines[4] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        forget_producer(out, rel)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"output_dir = {out}\n", encoding="utf-8")
        assert main(["--config", str(cfg_file), stage]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 5, ") and repr(field) in err

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

    @pytest.mark.parametrize("raw, stage", [("corpus", "ingest"), ("contributions", "train-roles")])
    def test_invalid_utf8_names_file_and_line(self, tmp_path, fixture_dir, capsys, raw, stage):
        # the fifth line's first key gets an "é", then the byte 0xff, which
        # starts no UTF-8 sequence
        path = tmp_path / f"{raw}.jsonl"
        lines = (fixture_dir / f"{raw}.jsonl").read_bytes().split(b"\n")
        lines[4] = lines[4][:2] + "é".encode("utf-8") + b"\xff" + lines[4][2:]
        path.write_bytes(b"\n".join(lines))
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"{raw} = {path}\noutput_dir = {tmp_path / 'out'}\n", encoding="utf-8"
        )
        assert main(["--config", str(cfg_file), stage]) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: line 5, field '<line>': not valid UTF-8 at column 4\n"
        )

    def test_cr_inside_a_raw_line_is_whitespace(self, pristine, tmp_path, fixture_dir):
        # JSON allows "\r" between tokens, so a line ends only at "\n"
        path = tmp_path / "corpus.jsonl"
        lines = (fixture_dir / "corpus.jsonl").read_bytes().split(b"\n")
        lines[4] = lines[4].replace(b',"year"', b',\r"year"', 1)
        assert b"\r" in lines[4]
        path.write_bytes(b"\n".join(lines))
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"corpus = {path}\noutput_dir = {tmp_path / 'out'}\n", encoding="utf-8"
        )
        assert main(["--config", str(cfg_file), "ingest"]) == 0
        assert (tmp_path / "out" / "corpus.jsonl").read_bytes() == (
            pristine[0].output_dir / "corpus.jsonl"
        ).read_bytes()

    def test_crlf_raw_inputs_change_no_artifact(self, pristine, tmp_path):
        config = pristine[0].replace(output_dir=tmp_path / "out")
        for key in ("corpus", "contributions"):
            path = tmp_path / f"{key}.jsonl"
            path.write_bytes(getattr(config, key).read_bytes().replace(b"\n", b"\r\n"))
            config = config.replace(**{key: path})
        run_all(config)
        for rel in ALL_ARTIFACTS:
            assert (config.output_dir / rel).read_bytes() == (
                pristine[0].output_dir / rel
            ).read_bytes(), rel

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

    @pytest.mark.parametrize("key", ["regions", "bri", "areas_table", "fields_table"])
    def test_missing_table_is_config_error(self, pristine, tmp_path, fixture_dir, capsys, key):
        out = clone(pristine[0], tmp_path).output_dir
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        cfg_file = self.write_config(tmp_path, fixture_dir)
        with open(cfg_file, "a", encoding="utf-8") as fh:
            fh.write(f"{key} = nope.tsv\n")
        assert main(["--config", str(cfg_file), "all"]) == 2
        assert f"error: {key} file not found: {tmp_path / 'nope.tsv'}\n" in capsys.readouterr().err
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before

    @pytest.mark.parametrize("key, name", [
        ("regions", "regions.tsv"), ("bri", "bri_countries.tsv"),
        ("areas_table", "technology_areas.tsv"), ("fields_table", "scientific_fields.tsv"),
    ])
    def test_table_not_utf8_names_file_and_line(
        self, pristine, tmp_path, fixture_dir, capsys, key, name
    ):
        # a copy of the packaged table with a row holding the byte 0xe9
        # ("é" in Latin-1) appended
        out = clone(pristine[0], tmp_path).output_dir
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        lines = table_bytes(name).splitlines()
        table = tmp_path / name
        table.write_bytes(b"\n".join([*lines, b"Caf\xe9land\tChina"]) + b"\n")
        cfg_file = self.write_config(tmp_path, fixture_dir)
        with open(cfg_file, "a", encoding="utf-8") as fh:
            fh.write(f"{key} = {name}\n")
        assert main(["--config", str(cfg_file), "all"]) == 3
        assert capsys.readouterr().err.endswith(
            f"error: {table}: line {len(lines) + 1}: not valid UTF-8 at column 4\n"
        )
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before

    @pytest.mark.parametrize("key", ["regions", "corpus"])
    def test_directory_input_is_config_error(self, tmp_path, fixture_dir, capsys, key):
        paths = {
            "corpus": fixture_dir / "corpus.jsonl", key: tmp_path, "output_dir": tmp_path / "out",
        }
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in paths.items()), encoding="utf-8")
        assert main(["--config", str(cfg_file), "ingest"]) == 2
        assert f"error: {key} file not found: {tmp_path}\n" in capsys.readouterr().err
        assert not (tmp_path / "out" / MANIFEST_NAME).exists()

    @pytest.mark.parametrize("rel", ["taken", "taken/out"])
    def test_output_dir_in_place_of_a_file_is_config_error(
        self, tmp_path, fixture_dir, capsys, rel
    ):
        (tmp_path / "taken").write_text("not a directory\n", encoding="utf-8")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"corpus = {fixture_dir / 'corpus.jsonl'}\noutput_dir = {tmp_path / rel}\n",
            encoding="utf-8",
        )
        assert main(["--config", str(cfg_file), "ingest"]) == 2
        assert f"error: cannot make output_dir {tmp_path / rel}: " in capsys.readouterr().err
        assert (tmp_path / "taken").read_text(encoding="utf-8") == "not a directory\n"

    @pytest.mark.parametrize(
        "change, key, rel, command",
        [
            ({"output_dir": "."}, "corpus", "corpus.jsonl", "ingest"),
            ({"contributions": "out/labels.tsv"}, "contributions", "out/labels.tsv", "all"),
            ({"corpus": "out/corpus.jsonl.tmp"}, "corpus", "out/corpus.jsonl.tmp", "ingest"),
        ],
        ids=["corpus", "contributions", "temp-name"],
    )
    def test_input_that_is_an_output_is_config_error(
        self, tmp_path, fixture_dir, capsys, change, key, rel, command
    ):
        # output_dir = . would write ingest's canonical lines over corpus.jsonl,
        # and ingest would write out/corpus.jsonl.tmp over, then rename it away
        (tmp_path / "out").mkdir()
        shutil.copyfile(fixture_dir / "contributions.jsonl", tmp_path / "contributions.jsonl")
        shutil.copyfile(fixture_dir / "contributions.jsonl", tmp_path / "out" / "labels.tsv")
        text = (fixture_dir / "corpus.jsonl").read_text(encoding="utf-8")
        note = text.replace("{", '{"note": "kept", ', 1)
        (tmp_path / "corpus.jsonl").write_text(note, encoding="utf-8")
        (tmp_path / "out" / "corpus.jsonl.tmp").write_text(note, encoding="utf-8")
        keys = {
            "corpus": "corpus.jsonl", "contributions": "contributions.jsonl", "output_dir": "out",
            **change,
        }
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        assert main(["--config", str(cfg_file), command]) == 2
        error = f"error: {key} file {tmp_path / rel} is the pipeline's output {Path(rel).name}\n"
        assert error in capsys.readouterr().err
        # no artifact and no manifest: the run stopped before writing
        assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before

    def test_file_in_place_of_an_output_directory_is_config_error(
        self, pristine, tmp_path, fixture_dir, capsys
    ):
        # a regular file named export stands where export writes its tables
        out = clone(pristine[0], tmp_path).output_dir
        shutil.rmtree(out / "export")
        (out / "export").write_text("not a directory\n", encoding="utf-8")
        cfg_file = self.write_config(tmp_path, fixture_dir)
        assert main(["--config", str(cfg_file), "all"]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot make directory {out / 'export'}: " in err
        assert "Traceback" not in err
        assert (out / "export").read_text(encoding="utf-8") == "not a directory\n"

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

    @pytest.mark.parametrize(
        "stage, field, value, command",
        [
            ("score", "outputs", "scored.tsv", "aggregate"),
            ("fit-model", "inputs", "garbage", "fit-model"),
            ("forecast", "config", "A" * 64, "forecast"),
        ],
        ids=["outputs-without-digest", "inputs-without-digest", "config-upper-case"],
    )
    def test_damaged_manifest_cell_is_data_error(
        self, pristine, tmp_path, capsys, stage, field, value, command
    ):
        # a cell that holds no digest must neither blame an intact artifact
        # nor re-run a stage: the command names the cell and changes nothing
        out = clone(pristine[0], tmp_path).output_dir
        manifest = out / MANIFEST_NAME
        lines = manifest.read_text(encoding="utf-8").splitlines()
        line_no = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{stage}\t"))
        cells = lines[line_no - 1].split("\t")
        cells[lines[0].split("\t").index(field)] = value
        lines[line_no - 1] = "\t".join(cells)
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"output_dir = {out}\n", encoding="utf-8")
        assert main(["--config", str(cfg_file), command]) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {manifest}: line {line_no}, field {field!r}: "
        )
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before

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

    def test_config_file_not_utf8_exit_code(self, tmp_path, capsys):
        # 0xe9 is "é" in Latin-1 and starts no UTF-8 sequence
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_bytes(b"seed = 1\n# caf\xe9\n")
        assert main(["--config", str(cfg_file), "all"]) == 2
        assert capsys.readouterr().err == f"error: {cfg_file}:2: not valid UTF-8\n"
