#!/usr/bin/env python3
"""Regenerate the committed synthetic fixture under fixtures/synthetic_200.

The fixture is fully determined by the seed below; re-running this script
must reproduce the committed files byte for byte.
"""

import argparse
import sys
from pathlib import Path

from leadshare.records import publication_to_json, write_corpus

# the generators live with the tests, outside the package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from synth import demo_corpus, write_contributions  # noqa: E402

FIXTURE_SEED = 20240811

CONFIG_TEXT = """\
# synthetic 200-paper fixture
corpus = corpus.jsonl
contributions = contributions.jsonl
output_dir = out
lead_threshold = 0.65
if_bin_edges = 1,2,4,8,16
window_start = 2010
window_end = 2021
confidence_level = 0.95
seed = 0
counting_mode = author_paper
model_family = linear
focal_region = China
threshold_sweep = 0.5,0.55,0.6,0.65,0.7,0.75,0.8
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dest",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "fixtures" / "synthetic_200",
    )
    args = parser.parse_args()
    args.dest.mkdir(parents=True, exist_ok=True)

    records, contributions = demo_corpus(seed=FIXTURE_SEED, n_papers=200)
    write_corpus([publication_to_json(r) for r in records], args.dest / "corpus.jsonl")
    with open(args.dest / "contributions.jsonl", "w", encoding="utf-8") as fh:
        n_statements = write_contributions(contributions, fh)
    (args.dest / "config.cfg").write_text(CONFIG_TEXT, encoding="utf-8")
    print(f"wrote {len(records)} papers, {n_statements} statements to {args.dest}")


if __name__ == "__main__":
    main()
