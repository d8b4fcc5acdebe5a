"""Golden test: a fresh run of the bundled fixture reproduces the committed
outputs in fixtures/synthetic_200/out byte for byte, and the fixture
generator reproduces the committed inputs.

Every refactor must keep these bytes; a change that alters an artifact on
purpose says so and regenerates the fixture outputs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import leadshare
from leadshare.cli import main
from leadshare.pipeline import STAGE_TABLE, STAGES

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "synthetic_200"
COMMITTED = FIXTURE / "out"

STAGE_ARTIFACTS = tuple(name for stage in STAGES for name in STAGE_TABLE[stage].writes)

@pytest.fixture(scope="module")
def produced(tmp_path_factory) -> Path:
    """Output dir of `all`, `sweep --axis if_bin` and `sweep --axis threshold`
    run on a copy of the fixture config."""
    root = tmp_path_factory.mktemp("golden")
    lines = []
    for line in (FIXTURE / "config.cfg").read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip() in ("corpus", "contributions"):
            # relative paths resolve against the config file's directory
            line = f"{key.strip()} = {FIXTURE / value.strip()}"
        lines.append(line)
    cfg = root / "config.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for command in (["all"], ["sweep", "--axis", "if_bin"], ["sweep", "--axis", "threshold"]):
        assert main(["--config", str(cfg), *command]) == 0
    return root / "out"


def _manifest_lines(path: Path) -> dict[str, str]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return {line.split("\t", 1)[0]: line for line in lines}


def test_stage_artifact_list_matches_committed():
    committed = {
        p.relative_to(COMMITTED).as_posix() for p in COMMITTED.rglob("*") if p.is_file()
    }
    assert len(STAGE_ARTIFACTS) == 18
    assert committed == set(STAGE_ARTIFACTS) | {
        "manifest.tsv", "sweep_if_bin.tsv", "sweep_threshold.tsv",
    }


@pytest.mark.parametrize(
    "name", STAGE_ARTIFACTS + ("sweep_if_bin.tsv", "sweep_threshold.tsv")
)
def test_artifact_bytes(produced, name):
    assert (produced / name).read_bytes() == (COMMITTED / name).read_bytes()


@pytest.mark.parametrize("stage", STAGES + ("sweep-if_bin", "sweep-threshold"))
def test_manifest_line(produced, stage):
    ours = _manifest_lines(produced / "manifest.tsv")
    assert ours[stage] == _manifest_lines(COMMITTED / "manifest.tsv")[stage]


def test_fixture_generator_reproduces_inputs(tmp_path):
    script = FIXTURE.parent.parent / "scripts" / "make_fixture.py"
    env = dict(os.environ)
    src = str(Path(leadshare.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, str(script), "--dest", str(tmp_path)],
        env=env, check=True, capture_output=True, timeout=120,
    )
    for name in ("corpus.jsonl", "contributions.jsonl", "config.cfg"):
        assert (tmp_path / name).read_bytes() == (FIXTURE / name).read_bytes(), name
