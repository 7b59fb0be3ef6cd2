"""Check that flag_certify's pair sampler draws what randrange draws.

``m0nbar.oracle._sampled_pairs`` reads CPython's rejection sampler for
``random.Random.randrange`` directly, so the pairs ``check --suite flag``
certifies depend on that sampler staying as it is.  This script compares
the two on the stratum counts of n = 4..7, one larger count and a spread
of seeds, with nothing beyond the standard library, so any interpreter can
run it:

    python3 scripts/check_sampler.py

Exits 0 when every draw matches and 1 otherwise.
"""

from __future__ import annotations

import platform
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from m0nbar.oracle import _sampled_pairs  # noqa: E402

COUNTS = (3, 25, 235, 2751, 2**20 + 1)
SEEDS = (0, 1, 3, 42, -5, 2**70, "flag")
DRAWS = 5000


def main() -> int:
    bad = []
    for count in COUNTS:
        for seed in SEEDS:
            rng = random.Random(seed)
            expected = [(rng.randrange(count), rng.randrange(count)) for _ in range(DRAWS)]
            if list(_sampled_pairs(random.Random(seed), count, DRAWS)) != expected:
                bad.append((count, seed))
    checked = len(COUNTS) * len(SEEDS)
    print(f"Python {platform.python_version()}: {checked - len(bad)} of {checked} "
          f"(count, seed) streams of {DRAWS} pairs match randrange")
    for count, seed in bad:
        print(f"mismatch: count {count}, seed {seed!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
