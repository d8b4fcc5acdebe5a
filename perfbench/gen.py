"""Seeded benchmark inputs: a bilateral corpus whose leaders are learnable.

Papers are anchored in the first and last author positions by senior
authors.  Anchors write the lead verbs, carry their home field and
technology area into the paper's concepts and cite their own earlier
papers, so the nine lead features separate them from the junior middle
authors.  One `Shape` sets the corpus size, the senior pool and the Zipf
exponent of senior productivity: exponent 0 gives the flat `uniform`
corpus, exponent 1 over a small pool gives the `skewed` one, where a few
seniors anchor thousands of papers.

Everything is driven by random.Random(seed) and written with a fixed key
order, so a seed reproduces the same bytes on any platform.  The module
does not import leadshare: the program under test only sees the files.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass
from pathlib import Path

# verb surface forms; a few are unknown to the seed lists on purpose and
# cluster with whatever they co-occur with
_LEAD_FORMS = (
    "conceived", "designed", "led", "supervised", "coordinated",
    "wrote", "interpreted", "Conceived", "supervises",
)
_DIRECT_FORMS = (
    "performed", "collected", "analyzed", "analysed", "prepared",
    "developed", "purified", "conducted", "did", "carried", "generated",
)
_INDIRECT_FORMS = (
    "participated", "provided", "contributed", "commented", "discussed",
    "edited",
)
_EXTRA_FORMS = ("funded", "acquired", "validated", "curated")

_FIELD_CONCEPTS = (
    "Chemistry", "Computer science", "Biology", "Medicine", "Physics",
    "Mathematics", "Engineering", "Materials science", "Economics",
    "Psychology", "Geology",
)
_AREA_CONCEPTS = (
    "Machine learning", "Deep learning", "Artificial neural network",
    "Quantum computer", "Quantum entanglement", "Robot", "Robotics",
    "CRISPR", "Vaccine", "Semiconductor", "Transistor", "MOSFET",
    "Photovoltaics", "Energy storage", "Encryption", "Big data",
    "Supercomputer", "Parallel computing", "5G", "Nanomaterials",
)
_GENERIC_CONCEPTS = (
    "Regression analysis", "Survey methodology", "Spectroscopy",
    "Graph theory", "Optimization problem", "Field experiment",
)

# country pairs from distinct regions, weighted toward China-U.S.; Italy
# and Vietnam give the high- and low-income Belt-and-Road series
_PAIR_POOL = (
    (("China", "United States"), 55),
    (("China", "Italy"), 12),
    (("China", "Vietnam"), 10),
    (("United States", "Germany"), 8),
    (("Japan", "United Kingdom"), 7),
    (("India", "Australia"), 5),
    (("Brazil", "Kenya"), 3),
)
_DOMESTIC = ("China", "United States", "Germany", "Japan")

FIRST_YEAR, LAST_YEAR = 2008, 2021
# share of papers outside the bilateral view: early careers (pre-1991)
# and single-country papers; ingest drops both
EARLY_SHARE = 0.01
DOMESTIC_SHARE = 0.03

CONFIG_TEXT = """\
corpus = corpus.jsonl
contributions = contributions.jsonl
output_dir = {output_dir}
lead_threshold = 0.65
if_bin_edges = 1,2,4,8,16
window_start = 2010
window_end = 2021
confidence_level = 0.95
seed = 0
counting_mode = {counting_mode}
model_family = linear
focal_region = China
threshold_sweep = 0.5,0.55,0.6,0.65,0.7,0.75,0.8
"""


@dataclass(frozen=True)
class Shape:
    """Corpus size and how productivity is spread over the senior pool."""

    n_authorships: int
    seniors: int
    zipf: float


def _focal_lead_odds(year: int) -> float:
    span = LAST_YEAR - FIRST_YEAR
    return 0.25 + 0.5 * min(max(year - FIRST_YEAR, 0), span) / span


def _verbs(rng: random.Random, anchor: bool) -> list[str]:
    verbs: list[str] = []
    if anchor:
        verbs.extend(rng.choice(_LEAD_FORMS) for _ in range(rng.randint(2, 3)))
        if rng.random() < 0.25:
            verbs.append(rng.choice(_DIRECT_FORMS))
    else:
        pool = _DIRECT_FORMS if rng.random() < 0.7 else _INDIRECT_FORMS
        verbs.extend(rng.choice(pool) for _ in range(rng.randint(1, 3)))
        if pool is _INDIRECT_FORMS and rng.random() < 0.3:
            verbs.append(rng.choice(_EXTRA_FORMS))
    return list(dict.fromkeys(verbs))


def _dumps(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def generate(shape: Shape, seed: int) -> tuple[list[str], list[str]]:
    """Corpus lines and contribution lines, in chronological paper order."""
    rng = random.Random(seed)
    seniors = [f"S{i:05d}" for i in range(shape.seniors)]
    cum: list[float] = []
    total = 0.0
    for rank in range(1, shape.seniors + 1):
        total += rank ** -shape.zipf
        cum.append(total)
    n_juniors = max(shape.n_authorships // 3, 10)
    home = {
        s: (rng.choice(_FIELD_CONCEPTS), rng.choice(_AREA_CONCEPTS))
        for s in seniors
    }
    institutions = [f"I{i:03d}" for i in range(1, 301)] + [""]
    pair_choices = [p for p, w in _PAIR_POOL for _ in range(w)]
    n_papers = max(shape.n_authorships // 5, 10)

    def senior() -> str:
        return seniors[bisect.bisect_left(cum, rng.random() * total)]

    corpus: list[str] = []
    contributions: list[str] = []
    ids: list[str] = []
    own: dict[str, list[str]] = {}
    for i in range(n_papers):
        paper_id = f"P{i + 1:06d}"
        roll = rng.random()
        if i < n_papers * EARLY_SHARE:
            year = rng.randint(1986, 1990)
        else:
            year = FIRST_YEAR + (i * (LAST_YEAR - FIRST_YEAR + 1)) // n_papers
        n_auth = rng.randint(3, 7)
        first = senior()
        last = senior()
        while last == first and shape.seniors > 1:
            last = senior()
        middles = [f"J{rng.randrange(n_juniors):06d}" for _ in range(n_auth - 2)]
        middles = list(dict.fromkeys(middles))
        authors = [first] + middles + [last]
        if roll < DOMESTIC_SHARE:
            countries = [rng.choice(_DOMESTIC)] * len(authors)
        else:
            pair = rng.choice(pair_choices)
            focal = "China" if "China" in pair else pair[0]
            other = pair[1] if focal == pair[0] else pair[0]
            countries = [(focal, other)[j % 2] for j in range(len(authors))]
            rng.shuffle(countries)
            # the focal side anchors more papers every year, so lead share
            # trends through parity inside the fit window
            lead_side = focal if rng.random() < _focal_lead_odds(year) else other
            k = countries.index(lead_side)
            countries[0], countries[k] = countries[k], countries[0]
        field, area = home[first]
        concepts = {(field, 0), (area, 2), (rng.choice(_FIELD_CONCEPTS), 0)}
        for _ in range(rng.randint(0, 3)):
            concepts.add((rng.choice(_AREA_CONCEPTS), 2))
        for _ in range(rng.randint(0, 2)):
            concepts.add((rng.choice(_GENERIC_CONCEPTS), 1))
        refs = set()
        for _ in range(rng.randint(0, 8)):
            if ids and rng.random() < 0.6:
                refs.add(rng.choice(ids))
            else:
                refs.add(f"X{rng.randint(1, 5000):04d}")
        mine = own.get(first, [])
        for _ in range(min(len(mine), rng.randint(0, 3))):
            refs.add(rng.choice(mine))
        corpus.append(_dumps({
            "paper_id": paper_id,
            "year": year,
            "pub_date": f"{year:04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
            "journal_id": f"J{rng.randint(1, 200):03d}",
            "impact_factor": round(rng.uniform(1.0, 25.0), 3),
            "concepts": [
                {"name": n, "level": lvl} for n, lvl in sorted(concepts)
            ],
            "references": sorted(refs),
            "authorships": [
                {
                    "author_id": a,
                    "position": j,
                    "country": countries[j],
                    "institution_id": rng.choice(institutions),
                }
                for j, a in enumerate(authors)
            ],
        }))
        for j, a in enumerate(authors):
            anchor = j == 0 or j == len(authors) - 1
            contributions.append(_dumps({
                "paper_id": paper_id,
                "author_id": a,
                "verbs": _verbs(rng, anchor),
            }))
        ids.append(paper_id)
        own.setdefault(first, []).append(paper_id)
        own.setdefault(last, []).append(paper_id)
    return corpus, contributions


def write_inputs(shape: Shape, seed: int, dest: Path) -> None:
    """Write corpus.jsonl, contributions.jsonl and two configs into dest.

    config.cfg counts author-paper pairs; unique.cfg is the same run with
    counting_mode=unique_author.  Both write to dest/out.
    """
    dest.mkdir(parents=True, exist_ok=True)
    corpus, contributions = generate(shape, seed)
    (dest / "corpus.jsonl").write_text("\n".join(corpus) + "\n", encoding="utf-8")
    (dest / "contributions.jsonl").write_text(
        "\n".join(contributions) + "\n", encoding="utf-8"
    )
    for name, mode in (("config.cfg", "author_paper"), ("unique.cfg", "unique_author")):
        (dest / name).write_text(
            CONFIG_TEXT.format(output_dir="out", counting_mode=mode),
            encoding="utf-8",
        )
