"""Pipeline configuration: a flat key=value file mirrored by a dataclass.

Relative paths in a config file resolve against the file's directory so a
committed fixture config works from any working directory.  Empty table
paths fall back to the packaged reference tables.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, get_type_hints

from .errors import ConfigError, MalformedRecord
from .forecast import DEFAULT_CONFIDENCE, DEFAULT_HORIZON, DEFAULT_WINDOW
from .leadmodel import DEFAULT_THRESHOLD, FAMILY_LINEAR
from .metrics import COUNT_AUTHOR_PAPER, COUNT_UNIQUE_AUTHOR
from .records import decode_utf8
from .tables import AREA_TAGS, FIELD_TAGS, GLOBAL_REGIONS, HIGH_INCOME, LOW_INCOME

DEFAULT_IF_EDGES = (1.0, 2.0, 4.0, 8.0, 16.0)
DEFAULT_THRESHOLD_SWEEP = (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80)


@dataclass(frozen=True)
class PipelineConfig:
    corpus: Optional[Path] = None
    contributions: Optional[Path] = None
    output_dir: Path = Path("out")
    regions: Optional[Path] = None
    bri: Optional[Path] = None
    areas_table: Optional[Path] = None
    fields_table: Optional[Path] = None
    lead_threshold: float = DEFAULT_THRESHOLD
    if_bin_edges: tuple[float, ...] = DEFAULT_IF_EDGES
    window_start: int = DEFAULT_WINDOW[0]
    window_end: int = DEFAULT_WINDOW[1]
    confidence_level: float = DEFAULT_CONFIDENCE
    horizon: float = DEFAULT_HORIZON
    seed: int = 0
    strict: bool = False
    counting_mode: str = COUNT_AUTHOR_PAPER
    model_family: str = FAMILY_LINEAR  # only linear; kept for existing configs and fit-model's hash
    split_ratio: float = 0.9
    strict_binary_labels: bool = False
    focal_region: str = "China"
    # empty tuples mean "no restriction": all observed pairs, every
    # area/field/bin/class group gets its own series
    pairs: tuple[tuple[str, str], ...] = ()
    areas: tuple[str, ...] = ()
    fields: tuple[str, ...] = ()
    if_bins: tuple[int, ...] = ()
    bri_classes: tuple[str, ...] = ()
    threshold_sweep: tuple[float, ...] = DEFAULT_THRESHOLD_SWEEP

    def __post_init__(self) -> None:
        # a pair names two different regions in either order; series keys sort them
        for pair in self.pairs:
            if len(pair) != 2 or pair[0] == pair[1]:
                sides = "|".join(map(str, pair))
                raise ConfigError(f"pair {sides} must join two different regions")
        object.__setattr__(self, "pairs", tuple(tuple(sorted(p)) for p in self.pairs))
        if not 0.0 < self.lead_threshold < 1.0:
            raise ConfigError(
                f"lead_threshold must be in (0,1), got {self.lead_threshold}"
            )
        if self.window_start >= self.window_end:
            raise ConfigError(
                f"window start {self.window_start} must precede end {self.window_end}"
            )
        if not 0.0 < self.confidence_level < 1.0:
            raise ConfigError(
                f"confidence_level must be in (0,1), got {self.confidence_level}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.horizon):
            raise ConfigError(f"horizon must be finite, got {self.horizon}")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError(f"split_ratio must be in (0,1), got {self.split_ratio}")
        if self.counting_mode not in (COUNT_AUTHOR_PAPER, COUNT_UNIQUE_AUTHOR):
            raise ConfigError(f"unknown counting_mode {self.counting_mode!r}")
        if self.model_family != FAMILY_LINEAR:
            raise ConfigError(f"model_family must be {FAMILY_LINEAR!r}, got {self.model_family!r}")
        edges = self.if_bin_edges
        if not all(map(math.isfinite, edges)):
            raise ConfigError(f"if_bin_edges must be finite, got {edges}")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ConfigError("if_bin_edges must be strictly increasing")
        if not self.if_bin_edges:
            raise ConfigError("if_bin_edges must not be empty")
        if not self.threshold_sweep:
            raise ConfigError("threshold_sweep must not be empty")
        for t in self.threshold_sweep:
            if not 0.0 < t < 1.0:
                raise ConfigError(f"sweep threshold {t} not in (0,1)")
        for b in self.if_bins:
            if isinstance(b, bool) or not isinstance(b, int):
                raise ConfigError(f"impact-factor bin {b!r} is not an integer")
            if not 0 <= b < len(self.if_bin_edges):
                raise ConfigError(f"impact-factor bin {b} out of range")
        for a in self.areas:
            if a not in AREA_TAGS:
                raise ConfigError(f"unknown technology area {a!r}")
        for f in self.fields:
            if f not in FIELD_TAGS:
                raise ConfigError(f"unknown scientific field {f!r}")
        for c in self.bri_classes:
            if c not in (HIGH_INCOME, LOW_INCOME):
                raise ConfigError(f"unknown income class {c!r}")
        for r in (self.focal_region, *(side for pair in self.pairs for side in pair)):
            if r not in GLOBAL_REGIONS:
                raise ConfigError(f"unknown region {r!r}")
        # these keys are sets: order and repeats change no output and no hash
        for key in ("pairs", "areas", "fields", "if_bins", "bri_classes", "threshold_sweep"):
            object.__setattr__(self, key, tuple(sorted(set(getattr(self, key)))))

    def replace(self, **changes) -> "PipelineConfig":
        return dataclasses.replace(self, **changes)


def _split_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def _items(parse):
    return lambda value: tuple(parse(v) for v in _split_list(value))


def _pair(chunk: str) -> tuple[str, str]:
    sides = chunk.split("|")
    if len(sides) != 2:
        raise ConfigError(f"pair {chunk!r} must be 'RegionA|RegionB'")
    return (sides[0].strip(), sides[1].strip())


# a config key's parser follows its PipelineConfig field type
_FIELD_TYPES = get_type_hints(PipelineConfig)
_PARSERS = {
    bool: {"true": True, "false": False}.__getitem__,
    int: int,
    float: float,
    str: str,
    tuple[float, ...]: _items(float),
    tuple[int, ...]: _items(int),
    tuple[str, ...]: _items(str),
    tuple[tuple[str, str], ...]: _items(_pair),
}


def parse_value(key: str, text: str, base_dir: Optional[Path] = None):
    """The value of config key `key` written as `text`.  A relative path
    resolves against base_dir; an empty path is None, which keeps the
    default."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    if kind in (Path, Optional[Path]):
        if not text:
            return None
        p = Path(text)
        return p if base_dir is None or p.is_absolute() else base_dir / p
    try:
        return _PARSERS[kind](text)
    except KeyError:  # only the bool parser raises it
        raise ConfigError(f"{key} must be 'true' or 'false', got {text!r}") from None
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc


def config_from_mapping(
    mapping: dict[str, str], base_dir: Optional[Path] = None
) -> PipelineConfig:
    kwargs = {key: parse_value(key, value, base_dir) for key, value in mapping.items()}
    return PipelineConfig(**{k: v for k, v in kwargs.items() if v is not None})


def load_config(path: Path) -> PipelineConfig:
    """Parse `key = value` lines; '#' starts a comment, blanks ignored."""
    path = Path(path)
    try:
        text = decode_utf8(path.read_bytes(), str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except MalformedRecord as exc:
        raise ConfigError(f"{path}:{exc.line_no}: not valid UTF-8") from None
    mapping: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in mapping:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return config_from_mapping(mapping, base_dir=path.parent)
