"""Check npca.csv of configs/analyze.cfg at 300 epochs against the spectrum
oracle, row by row, at seeds 0, 3 and 1000, and print the smallest margin
of each run.

    PYTHONPATH=src python tests/check_npca.py

Each run records its gradient stack as it trains; the oracle counts every
prefix of that stack by a direct SVD. Exits 1 if any row differs. The
margins say how close a cumulative mass came to a target: a mismatch at a
margin near rounding is a near-tie, one at a large margin is a fault.
"""

import sys
import tempfile

from spectrum_oracle import prefix_rows
from support import CONFIGS, npca_and_stack

ROUNDS = 300
SEEDS = (0, 3, 1000)


def main() -> int:
    status = 0
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as out:
            rows, stack = npca_and_stack(CONFIGS / "analyze.cfg", out,
                                         f"train.rounds={ROUNDS}", f"seed={seed}")
        expected, margin = prefix_rows(stack)
        wrong = [epoch for epoch, (row, want) in enumerate(zip(rows, expected)) if row != want]
        if len(rows) != len(expected):
            wrong.append(min(len(rows), len(expected)))
        print(f"seed {seed}: {len(rows)} rows, {len(wrong)} differ from the oracle"
              + (f" (first at epoch {wrong[0]})" if wrong else "")
              + f"; smallest margin {margin:.2e}")
        status |= bool(wrong)
    return status


if __name__ == "__main__":
    sys.exit(main())
