"""Static lookup tables: regions, income classes, and topic concept lists.

Three curated tables ship with the package under ``leadshare/data``:

* ``regions.tsv`` (columns ``country``, ``region``): assigns each country
  to one of 13 global regions.
* ``bri_countries.tsv`` (columns ``country``, ``income_class``): countries
  participating in the Belt and Road Initiative, split into HighIncome and
  LowIncome.  Countries absent from the table are NonSignatory.
* ``technology_areas.tsv`` / ``scientific_fields.tsv`` (columns
  ``area``/``field``, ``concept``): concept names that place a paper in one
  of 11 technology areas or 6 broad scientific fields.

Packaged copies are verified against embedded SHA-256 digests on load so a
corrupted install fails loudly.  Callers may substitute their own files, in
which case only the structural checks run.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional

from .errors import MalformedRecord, TableIntegrityError, UnknownCountry
from .records import decode_utf8

GLOBAL_REGIONS = frozenset(
    {
        "China",
        "U.S.",
        "U.K.",
        "EU+",
        "Russia",
        "Non-EU Eastern Europe",
        "Oceania",
        "East Asia",
        "South Asia",
        "Central Asia",
        "Middle East",
        "Africa",
        "Latin America",
    }
)

HIGH_INCOME = "HighIncome"
LOW_INCOME = "LowIncome"
NON_SIGNATORY = "NonSignatory"

AREA_TAGS = (
    "Advanced Communication",
    "Artificial Intelligence",
    "Biotech",
    "Data Management and Security",
    "Disaster Resilience",
    "Energy",
    "High-Performance Computing",
    "Materials Science",
    "Quantum Technology",
    "Robotics and Advanced Manufacturing",
    "Semiconductors",
)

FIELD_TAGS = (
    "chemistry and materials science",
    "computer science",
    "earth and life sciences",
    "humanities and social sciences",
    "mathematics + physics + engineering",
    "medicine",
)

# The region table intentionally lists some countries under two spellings.
# Lookups fold the alternates onto one canonical form so corpora using either
# spelling resolve identically.
COUNTRY_ALIASES = {
    "Korea, Rep.": "South Korea",
    "Slovak Republic": "Slovakia",
}

_PACKAGED_SHA256 = {
    "regions.tsv": "f55e0fb0d838f2c86e3e8b0d50e8d1cdb25569a415a5b03341e4a52d3857a3d8",
    "bri_countries.tsv": "e7381a2dbba0e4fe3006c4878d334e207741c69e474bc3ff70373572ad0592f4",
    "technology_areas.tsv": "87f1787461699c39860183e47c6827e31a58ad0c57647f3c2099cc000f60323b",
    "scientific_fields.tsv": "eceaac2b9cede01023375a2d4a1dd5165dbf82a3b159106b5fb20c3cc8b6014d",
}


def canonicalize_country(name: str) -> str:
    """Trim whitespace and fold alternate spellings to their canonical form."""
    return COUNTRY_ALIASES.get(name.strip(), name.strip())


def _packaged_bytes(name: str) -> bytes:
    data = resources.files("leadshare.data").joinpath(name).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != _PACKAGED_SHA256[name]:
        raise TableIntegrityError(
            f"packaged table {name} is corrupted: sha256 {digest} does not "
            f"match the expected {_PACKAGED_SHA256[name]}"
        )
    return data


def _read_rows(
    raw: bytes, source: str, header: tuple[str, str]
) -> list[tuple[str, str]]:
    try:
        text = decode_utf8(raw, source)
    except MalformedRecord as exc:
        raise TableIntegrityError(f"{source}: line {exc.line_no}: {exc.message}") from None
    reader = csv.reader(text.splitlines(), delimiter="\t")
    rows = list(reader)
    if not rows:
        raise TableIntegrityError(f"{source}: empty table")
    if tuple(rows[0]) != header:
        raise TableIntegrityError(
            f"{source}: expected header {header[0]!r}\\t{header[1]!r}, "
            f"got {rows[0]!r}"
        )
    out = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2 or not row[0].strip() or not row[1].strip():
            raise TableIntegrityError(f"{source}: malformed row at line {i}: {row!r}")
        out.append((row[0].strip(), row[1].strip()))
    return out


def _load_rows(
    path: Optional[Path], packaged_name: str, header: tuple[str, str]
) -> list[tuple[str, str]]:
    source = packaged_name if path is None else str(path)
    return _read_rows(table_bytes(packaged_name, path), source, header)


@dataclass(frozen=True)
class RegionMap:
    """Country to global-region assignment covering exactly 13 regions."""

    by_country: dict[str, str]

    def region_of(self, country: str) -> str:
        key = canonicalize_country(country)
        region = self.by_country.get(key)
        if region is None:
            raise UnknownCountry(country)
        return region

    def __contains__(self, country: str) -> bool:
        return canonicalize_country(country) in self.by_country


@dataclass(frozen=True)
class BriClassification:
    """Belt-and-Road income classes; absent countries are NonSignatory."""

    by_country: dict[str, str]

    def class_of(self, country: str) -> str:
        return self.by_country.get(canonicalize_country(country), NON_SIGNATORY)


@dataclass(frozen=True)
class TopicMap:
    """Concept lists for the 11 technology areas and 6 scientific fields."""

    area_concepts: dict[str, frozenset[str]]
    field_concepts: dict[str, frozenset[str]]


def load_region_map(path: Optional[Path] = None) -> RegionMap:
    rows = _load_rows(path, "regions.tsv", ("country", "region"))
    by_country: dict[str, str] = {}
    for country, region in rows:
        if region not in GLOBAL_REGIONS:
            raise TableIntegrityError(f"unknown region {region!r} for {country!r}")
        if country in by_country and by_country[country] != region:
            raise TableIntegrityError(f"country {country!r} listed in two regions")
        by_country[country] = region
    seen_regions = set(by_country.values())
    if seen_regions != GLOBAL_REGIONS:
        missing = sorted(GLOBAL_REGIONS - seen_regions)
        raise TableIntegrityError(f"region table missing regions: {missing}")
    for alias, target in COUNTRY_ALIASES.items():
        if alias in by_country and target in by_country:
            if by_country[alias] != by_country[target]:
                raise TableIntegrityError(
                    f"alias {alias!r} and {target!r} map to different regions"
                )
    return RegionMap(by_country=by_country)


def load_bri_classification(path: Optional[Path] = None) -> BriClassification:
    rows = _load_rows(path, "bri_countries.tsv", ("country", "income_class"))
    by_country: dict[str, str] = {}
    for country, income in rows:
        if income not in (HIGH_INCOME, LOW_INCOME):
            raise TableIntegrityError(f"unknown income class {income!r} for {country!r}")
        if country in by_country and by_country[country] != income:
            raise TableIntegrityError(f"country {country!r} listed in both classes")
        by_country[country] = income
    return BriClassification(by_country=by_country)


def _load_tagged_concepts(
    path: Optional[Path],
    packaged_name: str,
    header: tuple[str, str],
    expected_tags: Iterable[str],
) -> dict[str, frozenset[str]]:
    rows = _load_rows(path, packaged_name, header)
    grouped: dict[str, set[str]] = {}
    for tag, concept in rows:
        grouped.setdefault(tag, set()).add(concept)
    expected = set(expected_tags)
    if set(grouped) != expected:
        missing = sorted(expected - set(grouped))
        extra = sorted(set(grouped) - expected)
        raise TableIntegrityError(
            f"{packaged_name if path is None else path}: tag mismatch, "
            f"missing {missing}, unexpected {extra}"
        )
    return {tag: frozenset(names) for tag, names in grouped.items()}


def load_topic_map(
    area_path: Optional[Path] = None, field_path: Optional[Path] = None
) -> TopicMap:
    area_concepts = _load_tagged_concepts(
        area_path, "technology_areas.tsv", ("area", "concept"), AREA_TAGS
    )
    field_concepts = _load_tagged_concepts(
        field_path, "scientific_fields.tsv", ("field", "concept"), FIELD_TAGS
    )
    return TopicMap(area_concepts=area_concepts, field_concepts=field_concepts)


def table_bytes(packaged_name: str, path: Optional[Path] = None) -> bytes:
    """Raw bytes of a reference table, for content hashing."""
    if path is None:
        return _packaged_bytes(packaged_name)
    return Path(path).read_bytes()
