"""README.md agrees with the code: the configuration table lists exactly
the config keys, and the stages table exactly the stage table's reads and
writes."""

import dataclasses
import fnmatch
import re
from pathlib import Path

from leadshare.config import PipelineConfig
from leadshare.pipeline import STAGE_TABLE

README = Path(__file__).resolve().parent.parent / "README.md"


def table_rows(heading: str) -> list[list[str]]:
    """Body cells of the first table under a `## heading` section."""
    section = README.read_text(encoding="utf-8").split(f"## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in re.split(r"(?<!\\)\|", line.strip())[1:-1]]
        for line in section.splitlines()
        if line.startswith("|")
    ]
    return rows[2:]  # header and rule


def code_spans(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def test_config_table_lists_every_key():
    keys = [key for row in table_rows("Configuration") for key in code_spans(row[0])]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(PipelineConfig))


def test_stages_table_matches_stage_table():
    rows = table_rows("Stages and artifacts")
    assert [row[0] for row in rows] == list(STAGE_TABLE)
    for name, reads, writes in rows:
        stage = STAGE_TABLE[name]
        assert code_spans(reads) == list(stage.reads), name
        patterns = code_spans(writes)
        for rel in stage.writes:
            assert any(fnmatch.fnmatch(rel, p) for p in patterns), (name, rel)
        for pattern in patterns:
            assert fnmatch.filter(stage.writes, pattern), (name, pattern)
