"""Seeded synthetic corpora for the committed fixture and the tests.

Everything here is driven by random.Random(seed) only, so a given seed
reproduces the same corpus byte for byte on any platform.
"""

from __future__ import annotations

import datetime
import json
import random
from typing import Iterable, Sequence, TextIO

from leadshare.features import LeadFeatureVector
from leadshare.records import AuthorshipRecord, ContributionRecord, PublicationRecord
from leadshare.roles import (
    DIRECT_SUPPORT_SEED_VERBS,
    INDIRECT_SUPPORT_SEED_VERBS,
    LEAD_SEED_VERBS,
)

# verb surface forms drawn by the corpus generators; a few are unknown to
# the seed lists on purpose (they cluster with whatever they co-occur with)
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

_COUNTRY_POOL = (
    "China", "United States", "Italy", "Germany", "France", "Spain",
    "Vietnam", "India", "Japan", "United Kingdom", "Australia", "Brazil",
    "Kenya", "Russian Federation", "Kazakhstan", "Egypt",
)

# region-distinct country pairs used by the bilateral generators,
# weighted toward the China-U.S. axis
_PAIR_POOL = (
    (("China", "United States"), 55),
    (("China", "Italy"), 12),
    (("China", "Vietnam"), 10),
    (("United States", "Germany"), 8),
    (("Japan", "United Kingdom"), 7),
    (("India", "Australia"), 5),
    (("Brazil", "Kenya"), 3),
)


def _rand_date(rng: random.Random, year: int) -> datetime.date:
    return datetime.date(year, rng.randint(1, 12), rng.randint(1, 28))


def _make_paper(
    rng: random.Random,
    paper_id: str,
    year: int,
    countries: Sequence[str],
    authors: Sequence[str],
    institutions: Sequence[str],
    earlier_ids: Sequence[str],
    impact_factor: float,
    with_date: bool = True,
) -> PublicationRecord:
    n_refs = rng.randint(0, 8)
    refs = set()
    for _ in range(n_refs):
        if earlier_ids and rng.random() < 0.6:
            refs.add(rng.choice(earlier_ids))
        else:
            refs.add(f"X{rng.randint(1, 5000):04d}")
    refs.discard(paper_id)
    concepts = {(rng.choice(_FIELD_CONCEPTS), 0)}
    for _ in range(rng.randint(0, 3)):
        concepts.add((rng.choice(_AREA_CONCEPTS), 2))
    for _ in range(rng.randint(0, 2)):
        concepts.add((rng.choice(_GENERIC_CONCEPTS), 1))
    authorships = tuple(
        AuthorshipRecord(
            author_id=a,
            position=i,
            country=countries[i % len(countries)],
            institution_id=rng.choice(institutions),
        )
        for i, a in enumerate(authors)
    )
    return PublicationRecord(
        paper_id=paper_id,
        year=year,
        pub_date=_rand_date(rng, year) if with_date else None,
        journal_id=f"J{rng.randint(1, 40):03d}",
        impact_factor=impact_factor,
        concepts=frozenset(concepts),
        references=frozenset(refs),
        authorships=authorships,
    )


def random_corpus(
    seed: int, max_papers: int = 50, max_authors: int = 20
) -> list[PublicationRecord]:
    """Small arbitrary corpus for exercising the feature extractor.

    Not necessarily bilateral; includes missing dates, repeat authors,
    self citations, and overlapping keyword sets.
    """
    rng = random.Random(seed)
    n_papers = rng.randint(3, max_papers)
    author_pool = [f"A{i:03d}" for i in range(1, rng.randint(2, max_authors) + 1)]
    institutions = ["", "I1", "I2", "I3", "I4", "I5"]
    records: list[PublicationRecord] = []
    ids: list[str] = []
    for i in range(n_papers):
        year = rng.randint(1995, 2021)
        k = rng.randint(1, min(6, len(author_pool)))
        authors = rng.sample(author_pool, k)
        countries = [rng.choice(_COUNTRY_POOL) for _ in authors]
        rec = _make_paper(
            rng,
            paper_id=f"P{i + 1:04d}",
            year=year,
            countries=countries,
            authors=authors,
            institutions=institutions,
            earlier_ids=ids,
            impact_factor=round(rng.uniform(0.0, 20.0), 3),
            with_date=rng.random() > 0.15,
        )
        records.append(rec)
        ids.append(rec.paper_id)
    return records


def _verbs_for_position(rng: random.Random, position: int, n_authors: int) -> list[str]:
    is_anchor = position == 0 or position == n_authors - 1
    verbs: list[str] = []
    if is_anchor:
        for _ in range(rng.randint(2, 3)):
            verbs.append(rng.choice(_LEAD_FORMS))
        if rng.random() < 0.25:
            verbs.append(rng.choice(_DIRECT_FORMS))
    else:
        pool = _DIRECT_FORMS if rng.random() < 0.7 else _INDIRECT_FORMS
        for _ in range(rng.randint(1, 3)):
            verbs.append(rng.choice(pool))
        if pool is _INDIRECT_FORMS and rng.random() < 0.3:
            verbs.append(rng.choice(_EXTRA_FORMS))
    seen = set()
    out = []
    for v in verbs:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def demo_corpus(
    seed: int = 20240811, n_papers: int = 200
) -> tuple[list[PublicationRecord], list[ContributionRecord]]:
    """Bilateral demo corpus spanning 2008-2021 with verb statements.

    Papers are anchored by a pool of senior authors who accumulate
    careers, home topics, and self citations, so the lead features carry
    real signal about who writes the lead verbs.  Dense on the China-U.S.
    pair; salted with records the ingest filters must drop (pre-1991, low
    impact factor, trilateral, unknown country).
    """
    rng = random.Random(seed)
    seniors = [f"A{i:03d}" for i in range(1, 41)]
    juniors = [f"A{i:03d}" for i in range(41, 161)]
    home_field = {a: rng.choice(_FIELD_CONCEPTS) for a in seniors}
    home_area = {a: rng.choice(_AREA_CONCEPTS) for a in seniors}
    by_author: dict[str, list[str]] = {}
    institutions = ["I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8", ""]
    pair_choices = [p for p, w in _PAIR_POOL for _ in range(w)]

    records: list[PublicationRecord] = []
    contributions: list[ContributionRecord] = []
    ids: list[str] = []

    def add(rec: PublicationRecord) -> None:
        records.append(rec)
        ids.append(rec.paper_id)
        for a in rec.authorships:
            by_author.setdefault(a.author_id, []).append(rec.paper_id)

    serial = 0

    def next_id() -> str:
        nonlocal serial
        serial += 1
        return f"P{serial:04d}"

    # early history: filtered from the bilateral view but part of each
    # author's career record
    for _ in range(6):
        year = rng.randint(1986, 1990)
        authors = rng.sample(seniors, rng.randint(1, 3))
        countries = [rng.choice(_COUNTRY_POOL) for _ in authors]
        add(_make_paper(rng, next_id(), year, countries, authors,
                        institutions, ids, round(rng.uniform(1.0, 8.0), 3)))

    years = list(range(2008, 2022))
    main_count = n_papers - len(records) - 8
    for i in range(main_count):
        year = years[i * len(years) // main_count]
        pair = rng.choice(pair_choices)
        n_auth = rng.randint(2, 6)
        anchors = rng.sample(seniors, 2 if n_auth > 1 else 1)
        middles = rng.sample(juniors, n_auth - len(anchors))
        authors = [anchors[0]] + middles + anchors[1:]
        countries = [pair[j % 2] for j in range(n_auth)]
        rng.shuffle(countries)
        impact = round(rng.uniform(1.0, 25.0), 3)
        rec = _make_paper(rng, next_id(), year, countries, authors,
                          institutions, ids, impact,
                          with_date=rng.random() > 0.05)
        # anchor fingerprint: home-topic keywords and self citations
        concepts = set(rec.concepts)
        concepts.add((home_field[anchors[0]], 0))
        concepts.add((home_area[anchors[0]], 2))
        refs = set(rec.references)
        own = by_author.get(anchors[0], [])
        for _ in range(min(len(own), rng.randint(0, 3))):
            refs.add(rng.choice(own))
        rec = PublicationRecord(
            paper_id=rec.paper_id,
            year=rec.year,
            pub_date=rec.pub_date,
            journal_id=rec.journal_id,
            impact_factor=rec.impact_factor,
            concepts=frozenset(concepts),
            references=frozenset(refs),
            authorships=rec.authorships,
        )
        add(rec)

    # salt: low impact factor, trilateral, unknown country
    for _ in range(4):
        authors = [rng.choice(seniors)] + rng.sample(juniors, 2)
        add(_make_paper(rng, next_id(), rng.choice(years),
                        ["China", "United States", "China"], authors,
                        institutions, ids, round(rng.uniform(0.1, 0.99), 3)))
    for _ in range(3):
        authors = [rng.choice(seniors)] + rng.sample(juniors, 2)
        add(_make_paper(rng, next_id(), rng.choice(years),
                        ["China", "United States", "Germany"], authors,
                        institutions, ids, round(rng.uniform(1.0, 9.0), 3)))
    authors = [rng.choice(seniors), rng.choice(juniors)]
    add(_make_paper(rng, next_id(), rng.choice(years),
                    ["China", "Atlantis"], authors,
                    institutions, ids, 3.0))

    for rec in records:
        n_auth = len(rec.authorships)
        for a in rec.authorships:
            verbs = _verbs_for_position(rng, a.position, n_auth)
            contributions.append(
                ContributionRecord(rec.paper_id, a.author_id, tuple(verbs))
            )
    return records, contributions


def perf_corpus(
    seed: int = 7, n_authorships: int = 100_000, authors_per_paper: int = 5
) -> tuple[list[PublicationRecord], list[ContributionRecord]]:
    """Large bilateral corpus sized by total authorship rows."""
    rng = random.Random(seed)
    n_papers = n_authorships // authors_per_paper
    author_pool = [f"A{i:05d}" for i in range(1, 30_001)]
    institutions = [f"I{i:03d}" for i in range(1, 301)]
    pair_choices = [p for p, w in _PAIR_POOL for _ in range(w)]
    records: list[PublicationRecord] = []
    contributions: list[ContributionRecord] = []
    for i in range(n_papers):
        paper_id = f"P{i + 1:06d}"
        year = rng.randint(2008, 2021)
        pair = rng.choice(pair_choices)
        authors = rng.sample(author_pool, authors_per_paper)
        countries = [pair[j % 2] for j in range(authors_per_paper)]
        refs = frozenset(
            f"P{rng.randint(1, i):06d}" for _ in range(5)
        ) if i else frozenset()
        concepts = frozenset(
            {(rng.choice(_FIELD_CONCEPTS), 0), (rng.choice(_AREA_CONCEPTS), 2)}
        )
        authorships = tuple(
            AuthorshipRecord(a, j, countries[j], rng.choice(institutions))
            for j, a in enumerate(authors)
        )
        records.append(
            PublicationRecord(
                paper_id=paper_id,
                year=year,
                pub_date=datetime.date(year, rng.randint(1, 12), rng.randint(1, 28)),
                journal_id=f"J{rng.randint(1, 200):03d}",
                impact_factor=round(rng.uniform(1.0, 20.0), 3),
                concepts=concepts,
                references=refs,
                authorships=authorships,
            )
        )
        for j, a in enumerate(authors):
            if j == 0 or j == authors_per_paper - 1:
                verbs = (rng.choice(_LEAD_FORMS), rng.choice(_LEAD_FORMS[:7]))
            else:
                verbs = (rng.choice(_DIRECT_FORMS), rng.choice(_INDIRECT_FORMS))
            contributions.append(ContributionRecord(paper_id, a, verbs))
    return records, contributions


_PLANTED_FILLER_LEAD = ("orchestrate", "steer", "frame")
_PLANTED_FILLER_INDIRECT = ("review", "attend", "observe", "transcribe")


def planted_blocks() -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Three 10-verb blocks: seeds plus fillers unknown to the seed lists."""
    lead = tuple(LEAD_SEED_VERBS) + _PLANTED_FILLER_LEAD
    direct = tuple(DIRECT_SUPPORT_SEED_VERBS[:10])
    indirect = tuple(INDIRECT_SUPPORT_SEED_VERBS) + _PLANTED_FILLER_INDIRECT
    return lead, direct, indirect


def planted_contributions(
    seed: int,
    within: float = 0.9,
    across: float = 0.05,
    trials_per_pair: int = 20,
) -> tuple[list[ContributionRecord], dict[str, int]]:
    """Co-occurrence corpus with three planted verb communities.

    Every unordered verb pair gets trials_per_pair Bernoulli draws; a hit
    emits one two-verb statement. Returns the records and the verb ->
    block index ground truth.
    """
    rng = random.Random(seed)
    blocks = planted_blocks()
    truth = {v: b for b, verbs in enumerate(blocks) for v in verbs}
    vocabulary = [v for verbs in blocks for v in verbs]
    records = []
    unit = 0
    for i, u in enumerate(vocabulary):
        for w in vocabulary[i + 1:]:
            p = within if truth[u] == truth[w] else across
            for _ in range(trials_per_pair):
                if rng.random() < p:
                    unit += 1
                    records.append(
                        ContributionRecord(f"P{unit:05d}", "A1", (u, w))
                    )
    return records, truth


def separable_examples(
    seed: int, n: int = 400
) -> list[tuple[LeadFeatureVector, float]]:
    """Linearly separable lead/support feature vectors with a wide margin."""
    rng = random.Random(seed)
    examples: list[tuple[LeadFeatureVector, float]] = []
    for i in range(n):
        if i % 2 == 0:
            v = LeadFeatureVector(
                f1_refs_previously_cited=rng.randint(5, 15),
                f2_keyword_overlap=rng.randint(3, 8),
                f3_self_citations=rng.randint(2, 6),
                f4_career_age=rng.randint(8, 25),
                f5_prior_pub_count=rng.randint(15, 50),
                f6_citations_received=rng.randint(20, 100),
                f7_unique_keywords=rng.randint(20, 60),
                f8_first_or_last_count=rng.randint(5, 20),
                f9_affiliation_score=rng.uniform(0.7, 1.0),
            )
            examples.append((v, 1.0))
        else:
            v = LeadFeatureVector(
                f1_refs_previously_cited=rng.randint(0, 2),
                f2_keyword_overlap=rng.randint(0, 2),
                f3_self_citations=rng.randint(0, 1),
                f4_career_age=rng.randint(0, 4),
                f5_prior_pub_count=rng.randint(0, 5),
                f6_citations_received=rng.randint(0, 10),
                f7_unique_keywords=rng.randint(2, 15),
                f8_first_or_last_count=rng.randint(0, 2),
                f9_affiliation_score=rng.uniform(0.0, 0.4),
            )
            examples.append((v, 0.0))
    return examples


def contribution_to_json(record: ContributionRecord) -> str:
    obj = {
        "paper_id": record.paper_id,
        "author_id": record.author_id,
        "verbs": list(record.verbs),
    }
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def write_contributions(records: Iterable[ContributionRecord], fh: TextIO) -> int:
    n = 0
    for rec in records:
        fh.write(contribution_to_json(rec) + "\n")
        n += 1
    return n
