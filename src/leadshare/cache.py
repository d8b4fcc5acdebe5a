"""Content-hash caching of pipeline stages.

Every stage records (input hashes, config-slice hash, output hashes) in
manifest.tsv.  A stage whose recorded line still matches is skipped, so
re-running is a no-op and editing one config key recomputes only the
stages whose slice contains it.  Caching is content based: timestamps
never decide a stage is cached, and an artifact edited out-of-band is
reported as stale rather than silently reused; a file's stat only spares
one call from hashing a file twice (`Artifacts.digest`).  `stale_reasons`
says why a line no longer matches.  The caller passes in its stage table
and artifact readers.
"""

from __future__ import annotations

import fcntl
import gc
import hashlib
import logging
import os
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .config import PipelineConfig
from .errors import ConfigError, HashMismatch, MissingUpstream
from .records import TEMP_SUFFIX, FieldError, check_unique, read_tsv, tsv_rows, write_tsv
from .tables import table_bytes

# each stage's one log line, under the logger name the README documents
log = logging.getLogger("leadshare.pipeline")

MANIFEST_NAME = "manifest.tsv"
_MANIFEST_HEADER = "stage\tinputs\tconfig\toutputs"
_SHA256 = re.compile("[0-9a-f]{64}")
_NAMED_SHA256 = re.compile("[^=]+=[0-9a-f]{64}")


@dataclass(frozen=True)
class Stage:
    """One pipeline step: what it hashes, what it reads and what it writes.

    `fn` takes the config and the call's `Artifacts` and returns the
    stage's counts, which `run` logs; `help` is the CLI help line, `raw`
    names the config key of a raw input file, `tables` the packaged tables
    the stage reads, `reads` its upstream artifacts and `config_keys` the
    config slice its behavior depends on; changing any other key leaves
    the stage cached.  A sweep names in `values` the config key it sweeps,
    which joins its slice as "values".
    """

    name: str
    fn: Callable[..., dict[str, float]]
    help: str
    raw: Optional[str] = None
    tables: tuple[str, ...] = ()
    reads: tuple[str, ...] = ()
    config_keys: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    values: Optional[str] = None


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class ManifestEntry:
    inputs: dict[str, str]
    config_hash: str
    outputs: dict[str, str]


def _encode_hashes(hashes: dict[str, str]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(hashes.items())) or "-"


def _decode_hashes(text: str, field: str) -> dict[str, str]:
    if text == "-":
        return {}
    parts = text.split(",")
    for part in parts:
        if not _NAMED_SHA256.fullmatch(part):
            raise FieldError(field, f"expected name=<SHA-256 hex digest>, got {part!r}")
    return dict(part.partition("=")[::2] for part in parts)


def _manifest_entries(lines: list[str]) -> dict[str, ManifestEntry]:
    rows = list(tsv_rows(lines))
    check_unique([stage for stage, *_ in rows], "stage")
    entries = {}
    for stage, ins, cfg, outs in rows:
        if not _SHA256.fullmatch(cfg):
            raise FieldError("config", f"expected a SHA-256 hex digest, got {cfg!r}")
        inputs, outputs = _decode_hashes(ins, "inputs"), _decode_hashes(outs, "outputs")
        entries[stage] = ManifestEntry(inputs, cfg, outputs)
    return entries


def read_manifest(path: Path) -> dict[str, ManifestEntry]:
    """manifest.tsv; a stage on two lines raises InvariantViolation, a cell
    that is not a SHA-256 digest (or a name=digest list) MalformedRecord."""
    if not Path(path).exists():
        return {}
    return read_tsv(path, _MANIFEST_HEADER, _manifest_entries)


def write_manifest(entries: dict[str, ManifestEntry], path: Path, order: Iterable[str]) -> None:
    """The entries as manifest.tsv, in the order of the stage names in
    order; a stage not in order comes last."""
    rank = {name: i for i, name in enumerate(order)}
    write_tsv(path, _MANIFEST_HEADER, (
        f"{stage}\t{_encode_hashes(e.inputs)}\t{e.config_hash}\t"
        f"{_encode_hashes(e.outputs)}"
        for stage, e in sorted(
            entries.items(), key=lambda item: rank.get(item[0], len(rank))
        )
    ))


def _config_slice_hash(config: PipelineConfig, stage: Stage) -> str:
    pieces = {key: getattr(config, key) for key in stage.config_keys}
    if stage.values is not None:
        pieces["values"] = getattr(config, stage.values)
    text = repr(sorted(pieces.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# each packaged table: its file name and the config key naming a replacement
_TABLES = {
    "regions": ("regions.tsv", "regions"),
    "bri": ("bri_countries.tsv", "bri"),
    "areas": ("technology_areas.tsv", "areas_table"),
    "fields": ("scientific_fields.tsv", "fields_table"),
}


def _input_file(config: PipelineConfig, key: str) -> Optional[Path]:
    """The file config key names, or None; ConfigError unless a regular file."""
    path = getattr(config, key)
    if path is not None and not Path(path).is_file():
        raise ConfigError(f"{key} file not found: {path}")
    return path


def _table_inputs(config: PipelineConfig, names: Sequence[str]) -> dict[str, str]:
    out = {}
    for name in names:
        packaged, key = _TABLES[name]
        data = table_bytes(packaged, _input_file(config, key))
        out[f"table:{name}"] = hashlib.sha256(data).hexdigest()
    return out


def _check_inputs_are_not_outputs(table: Mapping[str, Stage], config: PipelineConfig) -> None:
    """ConfigError when a configured input file is the manifest or a file
    some stage writes, or its temp file: running a stage could overwrite it."""
    written = {MANIFEST_NAME, *(rel for stage in table.values() for rel in stage.writes)}
    written |= {rel + TEMP_SUFFIX for rel in written}
    out = config.output_dir.resolve()
    raw = [stage.raw for stage in table.values() if stage.raw is not None]
    for key in raw + [key for _, key in _TABLES.values()]:
        path = getattr(config, key)
        if path is not None and (rel := os.path.relpath(Path(path).resolve(), out)) in written:
            raise ConfigError(f"{key} file {path} is the pipeline's output {rel}")


def _stage_inputs(
    stage: Stage, config: PipelineConfig, manifest: dict[str, ManifestEntry],
    table: Mapping[str, Stage], digest: Callable[[Path], str],
) -> dict[str, str]:
    inputs = {}
    if stage.raw is not None:
        path = _input_file(config, stage.raw)
        if path is None:
            raise ConfigError(f"config key {stage.raw!r} is required for this stage")
        inputs[f"raw:{stage.raw}"] = digest(Path(path))
    for rel in stage.reads:
        path = config.output_dir / rel
        producer = next(s.name for s in table.values() if rel in s.writes)
        if not path.exists():
            raise MissingUpstream(f"missing {rel}; run the {producer!r} stage first")
        inputs[rel] = digest(path)
        entry = manifest.get(producer)
        if entry is not None:
            recorded = entry.outputs.get(rel)
            if recorded is not None and recorded != inputs[rel]:
                raise HashMismatch(
                    f"{rel} does not match the manifest; it was modified "
                    f"outside the pipeline (re-run {producer!r})"
                )
    inputs.update(_table_inputs(config, stage.tables))
    return inputs


class Artifacts:
    """The artifacts decoded within one run_all, run_stage or run_sweep call.

    Entries are keyed by (artifact name, SHA-256): `run` sets `inputs` to
    the digests it computed for the running stage, so a file changed since
    it was decoded never hits.  `decoders` maps each artifact a stage reads
    to its reader.  `readers` counts each artifact's reads still to come,
    and `done` drops the entries that no later stage reads.
    """

    def __init__(self, output_dir: Path, stages: Iterable[Stage], decoders: Mapping[str, Callable]):
        self.output_dir = output_dir
        self.decoders = decoders
        self.readers = Counter(rel for stage in stages for rel in stage.reads)
        self.entries: dict[tuple[str, str], object] = {}
        self.inputs: dict[str, str] = {}
        self.handed: dict[str, object] = {}
        self.digests: dict[tuple, str] = {}

    def digest(self, path: Path) -> str:
        """path's SHA-256, hashed only if this call has not hashed the file
        as it now stats: a rewrite or edit changes the stat, which is taken
        before the hash, so a change during hashing misses next time."""
        st = os.stat(path)
        key = (str(path), st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
        if key not in self.digests:
            self.digests[key] = _sha256_file(path)
        return self.digests[key]

    def read(self, rel: str):
        """An artifact the running stage reads, decoded."""
        key = (rel, self.inputs[rel])
        if key not in self.entries:
            self.entries[key] = self.decoders[rel](self.output_dir / rel)
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


def stale_reasons(
    entry: Optional[ManifestEntry], inputs: dict[str, str], config_hash: str,
    output_dir: Path, writes: Sequence[str], digest: Callable[[Path], str] = _sha256_file,
) -> list[str]:
    """Why a stage's manifest line does not vouch for its outputs in
    output_dir; empty when it does.  Hashes each output with digest: `run`
    passes its call's `Artifacts.digest`; the default reads each afresh."""
    if entry is None:
        return ["no manifest line"]
    reasons = [
        f"input {name} changed" for name in sorted(entry.inputs.keys() | inputs.keys())
        if entry.inputs.get(name) != inputs.get(name)
    ]
    if entry.config_hash != config_hash:
        reasons.append("config slice changed")
    for rel in writes:
        path = output_dir / rel
        if not path.exists():
            reasons.append(f"output {rel} missing")
        elif entry.outputs.get(rel) != digest(path):
            reasons.append(f"output {rel} changed")
    return reasons


def run(
    table: Mapping[str, Stage], decoders: Mapping[str, Callable], name: str,
    config: PipelineConfig, force: bool, artifacts: Optional[Artifacts] = None,
) -> str:
    """Run table[name] unless its manifest line still matches (see
    stale_reasons), making its outputs' directories first, then record its
    line and log its counts; 'ran' or 'cached'.  artifacts holds what the
    calling run_all decoded; a standalone stage starts its own, decoding
    with decoders.  A flock on output_dir, which makes no file, keeps
    concurrent runs from interleaving (POSIX only)."""
    stage = table[name]
    artifacts = artifacts or Artifacts(config.output_dir, (stage,), decoders)
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output_dir {config.output_dir}: {exc.strerror}") from None
    lock = os.open(config.output_dir, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)
        manifest_path = config.output_dir / MANIFEST_NAME
        manifest = read_manifest(manifest_path)
        artifacts.inputs = inputs = _stage_inputs(stage, config, manifest, table, artifacts.digest)
        config_hash = _config_slice_hash(config, stage)
        if not force and not stale_reasons(
            manifest.get(name), inputs, config_hash, config.output_dir, stage.writes,
            artifacts.digest,
        ):
            artifacts.done(stage, {})
            log.info("%s: cached", name)
            return "cached"
        # checked only before a stage writes, so a cached re-run pays nothing
        _check_inputs_are_not_outputs(table, config)
        for directory in sorted({(config.output_dir / rel).parent for rel in stage.writes}):
            try:
                directory.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot make directory {directory}: {exc.strerror}") from None
        # no stage may build reference cycles at scale: the cyclic collector
        # is paused while one runs, as its passes over the live graph free nothing
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            counts = stage.fn(config, artifacts)
        finally:
            if gc_was_enabled:
                gc.enable()
        outputs = {rel: artifacts.digest(config.output_dir / rel) for rel in stage.writes}
        manifest[name] = ManifestEntry(inputs, config_hash, outputs)
        write_manifest(manifest, manifest_path, table)
    finally:
        os.close(lock)
    artifacts.done(stage, outputs)
    log.info("%s: ran: %s", name, ", ".join(
        f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}"
        for key, value in counts.items()
    ))
    return "ran"
