"""Sized check: one very large stratum through the CLI under a memory cap.

Builds the bushy stratum of ``bench/gen.py`` at n = 102,400 (about 60,000
divisors, 7.8 MB of input), runs ``python -m m0nbar eval --format json`` on
it in a child process whose address space is capped at 1 GiB, and compares
the value and the reason with the generator's own reference, which never
consults m0nbar.  Prints the child's wall time.  (Its peak RSS is not
printed: a child forked from this process, which holds the generator's
tables, counts this process's pages in its own peak.)

    python3 scripts/sized_check.py

Exits 0 when the output matches and 1 otherwise.  Needs the ``resource``
module (POSIX); Linux enforces the RLIMIT_AS cap.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402

N = 102_400
LIMIT_MB = 1024


def instance(n: int) -> gen.Instance:
    rng = random.Random(f"ladder:{n}")
    tree = gen.bushy_tree(n, rng)
    return gen.make_instance("bushy", tree, "ok", rng, psi_share=0.3, vary=False)


def main() -> int:
    start = time.perf_counter()
    inst = instance(N)
    print(f"generated n={inst.n}: codim {inst.codim}, {len(inst.text)} bytes of input, "
          f"{time.perf_counter() - start:.1f} s")

    limit = LIMIT_MB << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "m0nbar", "eval", "--format", "json", "--n", str(inst.n)],
        input=inst.text, capture_output=True, text=True, env=env, preexec_fn=cap_memory,
    )
    took = time.perf_counter() - start
    print(f"eval --format json under a {LIMIT_MB} MB address-space limit: "
          f"exit {proc.returncode}, {took:.2f} s")
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr, end="")
        return 1
    out = json.loads(proc.stdout)
    ok = (out["reason"], gen.decimal_to_int(out["value"])) == (inst.reason, inst.value)
    print("value and reason match the reference" if ok else
          f"MISMATCH: got {out['reason']}, expected {inst.reason} and the reference value")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
