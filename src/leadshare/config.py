"""Pipeline configuration: a flat key=value file mirrored by a dataclass.

Relative paths in a config file resolve against the file's directory so a
committed fixture config works from any working directory.  Empty table
paths fall back to the packaged reference tables.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, get_type_hints

from .errors import ConfigError
from .leadmodel import DEFAULT_THRESHOLD, FAMILY_LINEAR, FAMILY_LOGISTIC
from .metrics import COUNT_AUTHOR_PAPER, COUNT_UNIQUE_AUTHOR
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
    window_start: int = 2010
    window_end: int = 2021
    confidence_level: float = 0.95
    horizon: float = 2200.0
    seed: int = 0
    strict: bool = False
    counting_mode: str = COUNT_AUTHOR_PAPER
    model_family: str = FAMILY_LINEAR
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
        # a pair names two regions in either order; series keys sort them
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
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError(f"split_ratio must be in (0,1), got {self.split_ratio}")
        if self.counting_mode not in (COUNT_AUTHOR_PAPER, COUNT_UNIQUE_AUTHOR):
            raise ConfigError(f"unknown counting_mode {self.counting_mode!r}")
        if self.model_family not in (FAMILY_LINEAR, FAMILY_LOGISTIC):
            raise ConfigError(f"unknown model_family {self.model_family!r}")
        if list(self.if_bin_edges) != sorted(self.if_bin_edges) or len(
            set(self.if_bin_edges)
        ) != len(self.if_bin_edges):
            raise ConfigError("if_bin_edges must be strictly increasing")
        if not self.if_bin_edges:
            raise ConfigError("if_bin_edges must not be empty")
        if not self.threshold_sweep:
            raise ConfigError("threshold_sweep must not be empty")
        for t in self.threshold_sweep:
            if not 0.0 < t < 1.0:
                raise ConfigError(f"sweep threshold {t} not in (0,1)")
        for b in self.if_bins:
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
        for a, b in self.pairs:
            if a == b:
                raise ConfigError(f"pair {a}|{b} must join two different regions")

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


# a config key's parser follows its PipelineConfig field type; path types
# are resolved per file in config_from_mapping
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


def config_from_mapping(
    mapping: dict[str, str], base_dir: Optional[Path] = None
) -> PipelineConfig:
    def path(value: str) -> Optional[Path]:
        # an empty path keeps the default
        if not value:
            return None
        p = Path(value)
        return p if base_dir is None or p.is_absolute() else base_dir / p

    parsers = {**_PARSERS, Path: path, Optional[Path]: path}
    kwargs: dict = {}
    for key, value in mapping.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        parse = parsers[_FIELD_TYPES[key]]
        try:
            parsed = parse(value)
        except KeyError:  # only the bool parser raises it
            raise ConfigError(
                f"{key} must be 'true' or 'false', got {value!r}"
            ) from None
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc
        if parsed is not None:
            kwargs[key] = parsed
    return PipelineConfig(**kwargs)


def load_config(path: Path) -> PipelineConfig:
    """Parse `key = value` lines; '#' starts a comment, blanks ignored."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
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
