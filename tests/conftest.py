import logging
from pathlib import Path

import pytest

from leadshare.config import PipelineConfig
from leadshare.tables import load_bri_classification, load_region_map, load_topic_map


@pytest.fixture(autouse=True)
def package_log_level():
    """cli.main sets the package logger's level; every test starts from
    the level it had before."""
    logger = logging.getLogger("leadshare")
    level = logger.level
    yield
    logger.setLevel(level)


@pytest.fixture(scope="session")
def region_map():
    return load_region_map()


@pytest.fixture(scope="session")
def topics():
    return load_topic_map()


@pytest.fixture(scope="session")
def bri():
    return load_bri_classification()


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    path = Path(__file__).resolve().parent.parent / "fixtures" / "synthetic_200"
    assert (path / "corpus.jsonl").is_file(), "bundled fixture missing; run scripts/make_fixture.py"
    return path


@pytest.fixture
def fixture_config(fixture_dir, tmp_path) -> PipelineConfig:
    """Pipeline config over the bundled corpus, outputs in a temp dir."""
    return PipelineConfig(
        corpus=fixture_dir / "corpus.jsonl",
        contributions=fixture_dir / "contributions.jsonl",
        output_dir=tmp_path / "out",
    )
