"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with -s to see the verdict lines on success; they are always shown
for failing criteria.  Every test here pins the tolerance it enforces.
"""

import math
import random
import shutil
import time

import numpy as np

from helpers import feature_keys, feature_vector, fit_inputs, oracle_features
from leadshare.cache import MANIFEST_NAME
from leadshare.config import PipelineConfig
from leadshare.features import build_profiles
from leadshare.forecast import confidence_band, fit_points, parity_year
from leadshare.leadmodel import classify, evaluate, fit, predict_many
from leadshare.metrics import (
    PairYearCounts,
    lead_premium,
    lead_share,
    supporter_share,
)
from leadshare.pipeline import STAGE_TABLE, STAGES, run_all, run_stage
from leadshare.records import CorpusTable, publication_to_json, write_corpus
from leadshare.roles import LEAD, build_cooccurrence, cluster_roles, code_statements, label_clusters
from synth import (
    perf_corpus,
    planted_blocks,
    planted_contributions,
    random_corpus,
    separable_examples,
    write_contributions,
)
from leadshare.tables import AREA_TAGS, FIELD_TAGS, GLOBAL_REGIONS


def _report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {num}: {verdict} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_feature_oracle_agreement():
    """Extracted features match a brute-force oracle on 100 random corpora."""
    started = time.perf_counter()
    cells = 0
    mismatches = []
    for seed in range(100):
        corpus = random_corpus(seed, max_papers=50, max_authors=20)
        table = build_profiles(CorpusTable(corpus))
        by_id = {r.paper_id: r for r in corpus}
        for paper_id, author_id in feature_keys(table):
            vec = feature_vector(table, paper_id, author_id)
            expected = oracle_features(corpus, by_id[paper_id], author_id)
            got = (
                vec.f1_refs_previously_cited, vec.f2_keyword_overlap,
                vec.f3_self_citations, vec.f4_career_age,
                vec.f5_prior_pub_count, vec.f6_citations_received,
                vec.f7_unique_keywords, vec.f8_first_or_last_count,
                vec.f9_affiliation_score,
            )
            cells += 1
            if got[:8] != expected[:8] or abs(got[8] - expected[8]) > 1e-12:
                mismatches.append((seed, paper_id, author_id))
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 30.0
    _report(
        1, ok,
        f"{cells} feature rows over 100 corpora, {len(mismatches)} mismatches, "
        f"{elapsed:.1f}s (limit 30s)",
    )


def test_criterion_2_share_identities():
    """Share identities hold to 1e-12 and scaling invariance exactly."""
    rng = random.Random(20240811)
    worst = 0.0
    scaling_breaks = 0
    checked = 0
    for _ in range(10_000):
        la, lb = rng.randint(0, 10**6), rng.randint(0, 10**6)
        sa, sb = rng.randint(0, 10**6), rng.randint(0, 10**6)
        c = PairYearCounts(
            pair=("A", "B"), year=2020,
            leaders={"A": la, "B": lb}, supporters={"A": sa, "B": sb},
            filter_desc="all",
        )
        k = rng.randint(1, 10)
        scaled = PairYearCounts(
            pair=("A", "B"), year=2020,
            leaders={"A": k * la, "B": k * lb},
            supporters={"A": k * sa, "B": k * sb},
            filter_desc="all",
        )
        if la + lb > 0:
            worst = max(worst, abs(lead_share(c, "A") + lead_share(c, "B") - 1.0))
            if lead_share(scaled, "A") != lead_share(c, "A"):
                scaling_breaks += 1
            checked += 1
        if sa + sb > 0:
            worst = max(
                worst,
                abs(supporter_share(c, "A") + supporter_share(c, "B") - 1.0),
            )
            if supporter_share(scaled, "A") != supporter_share(c, "A"):
                scaling_breaks += 1
        if la + lb > 0 and sa + sb > 0:
            worst = max(worst, abs(lead_premium(c, "A") + lead_premium(c, "B")))
            if lead_premium(scaled, "A") != lead_premium(c, "A"):
                scaling_breaks += 1
    ok = worst <= 1e-12 and scaling_breaks == 0 and checked > 9000
    _report(
        2, ok,
        f"10000 random tallies, worst identity residual {worst:.2e} "
        f"(limit 1e-12), {scaling_breaks} scaling violations",
    )


def test_criterion_3_trend_recovery_and_band_coverage():
    """Exact line recovery at 1e-9, parity at 2062.5, ~95% band coverage."""
    points = [(x, 0.012 * x - 24.25) for x in range(2010, 2022)]
    f = fit_points(points)
    slope_err = abs(f.slope - 0.012)
    intercept_err = abs(f.intercept + 24.25)
    parity = parity_year(f, 0.5, horizon=2200)
    parity_err = abs(parity.point_year - 2062.5)

    rng = np.random.default_rng(12345)
    years = np.arange(2010, 2022)
    covered = 0
    trials = 1000
    for _ in range(trials):
        values = 0.012 * years - 24.25 + rng.normal(0, 0.05, len(years))
        noisy = fit_points(list(zip(years.tolist(), values.tolist())))
        truth = 0.012 * noisy.x_mean - 24.25
        lo, hi = confidence_band(noisy, noisy.x_mean)
        covered += int(lo <= truth <= hi)
    rate = covered / trials
    ok = (
        slope_err <= 1e-9
        and intercept_err <= 1e-9
        and parity_err <= 1e-6
        and 0.92 <= rate <= 0.98
    )
    _report(
        3, ok,
        f"slope err {slope_err:.1e}, intercept err {intercept_err:.1e}, "
        f"parity {parity.point_year:.6f} (want 2062.5), "
        f"coverage {rate:.3f} (want 0.95 +- 0.03)",
    )


def test_criterion_4_planted_role_recovery():
    """>=95/100 planted 30-verb partitions recovered block-exactly."""
    expected = {frozenset(block) for block in planted_blocks()}
    recovered = 0
    lead_block_ok = 0
    for seed in range(100):
        records, _ = planted_contributions(seed=seed, within=0.9, across=0.05)
        partition = cluster_roles(build_cooccurrence(code_statements(records)), seed=seed)
        if {frozenset(c) for c in partition.clusters} != expected:
            continue
        recovered += 1
        model = label_clusters(partition)
        if model.role_of("conceive") == LEAD and model.role_of("design") == LEAD:
            lead_block_ok += 1
    ok = recovered >= 95 and lead_block_ok == recovered
    _report(
        4, ok,
        f"{recovered}/100 exact recoveries (need >=95), conceive+design in "
        f"the Lead block for {lead_block_ok} of them (need all)",
    )


def test_criterion_5_classifier_quality():
    """Separable data: precision/recall >=0.95 at 0.65, recall monotone."""
    examples = separable_examples(seed=2024, n=400)
    model, report = fit(*fit_inputs(examples), split_ratio=0.9, seed=0, threshold=0.65)
    X = np.array([v.as_array() for v, _ in examples])
    y = np.array([label for _, label in examples])
    probs = predict_many(model, X)
    thresholds = [t / 100 for t in range(5, 100, 5)]
    recalls = [evaluate(probs, y, t).recall for t in thresholds]
    monotone = all(a >= b for a, b in zip(recalls, recalls[1:]))
    ok = report.precision >= 0.95 and report.recall >= 0.95 and monotone
    _report(
        5, ok,
        f"held-out precision {report.precision:.3f} recall {report.recall:.3f} "
        f"(need >=0.95), recall monotone over 0.05-step sweep: {monotone}",
    )


def test_criterion_6_threshold_boundary():
    """A probability exactly at the threshold is a Supporter."""
    at = classify(0.65, 0.65)
    above = classify(0.65 + 1e-9, 0.65)
    just_above = classify(math.nextafter(0.65, 1.0), 0.65)
    ok = at == "Supporter" and above == "Leader" and just_above == "Leader"
    _report(
        6, ok,
        f"prob 0.65 -> {at} (want Supporter), "
        f"0.65 + 1e-9 -> {above} (want Leader)",
    )


def test_criterion_7_reference_tables(region_map):
    """13 regions with spot checks; 11 technology areas; 6 fields."""
    expected_regions = {
        "Africa", "Central Asia", "China", "EU+", "East Asia",
        "Latin America", "Middle East", "Non-EU Eastern Europe", "Oceania",
        "Russia", "South Asia", "U.K.", "U.S.",
    }
    spot = {
        "Namibia": "Africa",
        "Kazakhstan": "Central Asia",
        "China": "China",
        "Germany": "EU+",
        "Japan": "East Asia",
        "Brazil": "Latin America",
        "Saudi Arabia": "Middle East",
        "Australia": "Oceania",
        "Russian Federation": "Russia",
        "Vietnam": "South Asia",
        "United Kingdom": "U.K.",
        "United States": "U.S.",
    }
    bad = [
        f"{country}->{region_map.region_of(country)}"
        for country, region in spot.items()
        if region_map.region_of(country) != region
    ]
    ok = (
        GLOBAL_REGIONS == frozenset(expected_regions)
        and not bad
        and len(AREA_TAGS) == 11
        and len(FIELD_TAGS) == 6
    )
    _report(
        7, ok,
        f"{len(GLOBAL_REGIONS)} regions (want 13), {len(AREA_TAGS)} areas "
        f"(want 11), {len(FIELD_TAGS)} fields (want 6), "
        f"bad spot checks: {bad or 'none'}",
    )


def test_criterion_8_determinism_and_throughput(fixture_dir, tmp_path):
    """Identical reruns byte-for-byte; 100k authorships end-to-end < 60s."""
    outputs = []
    for name in ("first", "second"):
        config = PipelineConfig(
            corpus=fixture_dir / "corpus.jsonl",
            contributions=fixture_dir / "contributions.jsonl",
            output_dir=tmp_path / name / "out",
        )
        run_all(config)
        outputs.append(config.output_dir)
    artifacts = [rel for stage in STAGES for rel in STAGE_TABLE[stage].writes]
    artifacts.append(MANIFEST_NAME)
    differing = [
        rel for rel in artifacts
        if (outputs[0] / rel).read_bytes() != (outputs[1] / rel).read_bytes()
    ]

    records, contributions = perf_corpus(seed=7, n_authorships=100_000)
    big = tmp_path / "big"
    big.mkdir()
    write_corpus([publication_to_json(r) for r in records], big / "corpus.jsonl")
    with open(big / "contributions.jsonl", "w", encoding="utf-8") as fh:
        write_contributions(contributions, fh)
    config = PipelineConfig(
        corpus=big / "corpus.jsonl",
        contributions=big / "contributions.jsonl",
        output_dir=big / "out",
    )
    started = time.perf_counter()
    for stage in STAGES[:7]:
        run_stage(stage, config)
    elapsed = time.perf_counter() - started
    shutil.rmtree(big, ignore_errors=True)

    ok = not differing and elapsed < 60.0
    _report(
        8, ok,
        f"repeat runs differ in {len(differing)} artifact(s) (want 0); "
        f"100k-authorship ingest->forecast took {elapsed:.1f}s (limit 60s)",
    )
