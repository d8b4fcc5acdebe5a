"""Checks on one pipeline output directory.

Every function returns a list of problems (empty when the check passes),
so a caller can count a run as failed and say why.  Nothing here imports
leadshare: the checks read the artifacts as any consumer would.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

FIGURES = ("fig1c", "fig1d", "fig2a", "fig2b", "fig3", "fig4a", "fig4b")

# series.tsv keeps nine decimals, so LeadShare, SupporterShare and
# LeadPremium each carry up to 0.5e-9 of rounding on top of the 1e-9
# tolerance of the identity itself
PREMIUM_TOLERANCE = 1e-9 + 3 * 0.5e-9


def _rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines[1:]]


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file under out, keyed by its relative path."""
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def leader_ratio(out: Path) -> float:
    rows = _rows(out / "scored.tsv")
    return sum(r[5] == "true" for r in rows) / len(rows) if rows else 0.0


def prior_visits(out: Path) -> int:
    """Sum of f5 (prior papers) over features.tsv: the papers the feature
    sweep revisits."""
    return sum(int(r[6]) for r in _rows(out / "features.tsv"))


def validity_problems(out: Path) -> list[str]:
    """A workload must produce leaders, recall and a row in every figure."""
    problems = []
    if leader_ratio(out) == 0.0:
        problems.append("scored.tsv has no leaders")
    evaluation = _rows(out / "eval.tsv")
    if not evaluation or float(evaluation[0][2]) == 0.0:
        problems.append("held-out recall in eval.tsv is 0")
    for name in FIGURES:
        path = out / "export" / f"{name}.csv"
        if not path.is_file():
            problems.append(f"export/{name}.csv is missing")
        elif len(path.read_text(encoding="utf-8").splitlines()) < 2:
            problems.append(f"export/{name}.csv holds only a header")
    return problems


def premium_problems(out: Path) -> list[str]:
    """LeadPremium equals LeadShare minus SupporterShare at every point."""
    points: dict[tuple, dict[str, float]] = {}
    for pair, focal, metric, filt, year, value in _rows(out / "series.tsv"):
        points.setdefault((pair, focal, filt, year), {})[metric] = float(value)
    problems = []
    for key, by_metric in sorted(points.items()):
        if "LeadPremium" not in by_metric:
            continue
        if "LeadShare" not in by_metric or "SupporterShare" not in by_metric:
            problems.append(f"series.tsv {key}: LeadPremium without both shares")
            continue
        gap = by_metric["LeadPremium"] - (
            by_metric["LeadShare"] - by_metric["SupporterShare"]
        )
        if abs(gap) > PREMIUM_TOLERANCE:
            problems.append(f"series.tsv {key}: LeadPremium off by {gap:.3g}")
    return problems


def count_problems(out: Path, counting_mode: str) -> list[str]:
    """The `all`-filter totals in counts.tsv account for every scored row.

    In unique_author mode an author counts once per (pair, year, region,
    role), so the scored rows are deduplicated the same way first.
    """
    scored = _rows(out / "scored.tsv")
    regions: dict[str, set[str]] = {}
    for r in scored:
        regions.setdefault(r[0], set()).add(r[2])
    keys = [
        ("|".join(sorted(regions[r[0]])), r[3], r[2], r[1], r[5])
        for r in scored
    ]
    if counting_mode == "unique_author":
        keys = list(set(keys))
    want = (
        sum(k[4] == "true" for k in keys),
        sum(k[4] == "false" for k in keys),
    )
    got = [0, 0]
    for _pair, _year, _region, leaders, supporters, filt in _rows(out / "counts.tsv"):
        if filt == "all":
            got[0] += int(leaders)
            got[1] += int(supporters)
    if tuple(got) != want:
        return [
            f"counts.tsv all-filter leaders/supporters {tuple(got)} != "
            f"{want} from scored.tsv"
        ]
    return []


def status_problems(
    statuses: list[tuple[str, str]], expected: dict[str, str]
) -> list[str]:
    """Every expected stage reported exactly once with its expected status."""
    got = dict(statuses)
    problems = []
    if len(got) != len(statuses):
        problems.append(f"a stage reported twice: {statuses}")
    for stage, status in expected.items():
        if got.get(stage) != status:
            problems.append(f"{stage}: expected {status}, got {got.get(stage)}")
    for stage in sorted(set(got) - set(expected)):
        problems.append(f"{stage}: unexpected status {got[stage]}")
    return problems


def digest_problems(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """Files whose digest is missing, extra or different."""
    return [
        f"{rel}: digest differs from the reference"
        for rel in sorted(set(want) | set(got))
        if want.get(rel) != got.get(rel)
    ]


def output_problems(out: Path, counting_mode: str) -> list[str]:
    return premium_problems(out) + count_problems(out, counting_mode)


def golden_problems(
    produced: Path, committed: Path, known: dict[str, str]
) -> tuple[list[str], list[str]]:
    """Byte comparison of a fixture run against its committed outputs.

    Compares every committed artifact and manifest line, except those named
    in known (artifact or manifest stage -> reason), which are reported as
    notes.  Returns (problems, notes).
    """
    problems, notes = [], []
    for path in sorted(committed.rglob("*")):
        rel = path.relative_to(committed).as_posix()
        if not path.is_file() or rel == "manifest.tsv":
            continue
        if rel in known:
            notes.append(f"known mismatch {rel}: {known[rel]}")
            continue
        mine = produced / rel
        if not mine.is_file():
            problems.append(f"{rel}: not produced")
        elif mine.read_bytes() != path.read_bytes():
            problems.append(f"{rel}: bytes differ from the committed file")
    ours = _manifest_lines(produced / "manifest.tsv")
    for stage, line in _manifest_lines(committed / "manifest.tsv").items():
        if stage in known:
            notes.append(f"known mismatch manifest line {stage}: {known[stage]}")
        elif ours.get(stage) != line:
            problems.append(f"manifest.tsv line {stage!r} differs")
    return problems, notes


def _manifest_lines(path: Path) -> dict[str, str]:
    if not path.is_file():
        return {}
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return {line.split("\t", 1)[0]: line for line in lines}
