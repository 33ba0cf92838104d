#!/usr/bin/env python3
"""Full-strength reproduction on the bundled Anxiety benchmark.

Runs all five refinement methods with the default search configuration
and writes the comparison report plus per-method approximate CPT documents
under results/. About 5 s of compute on a 2-vCPU VM; rerunning with the
same seed rewrites identical files.
"""

import sys
from pathlib import Path

from cpt_refine.cli import main
from cpt_refine.fixtures import fixture_path


def run(seed: int = 20240801, out_dir: str = "results") -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return main(
        [
            "reproduce",
            str(fixture_path("anxiety")),
            "--seed",
            str(seed),
            "--out",
            str(out / "report.csv"),
        ]
    )


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 20240801
    raise SystemExit(run(seed))
