"""Sized check: one very large stratum through the CLI under a memory cap.

Builds the bushy stratum of ``bench/gen.py`` at n = 102,400 (about 60,000
divisors, 7.8 MB of input), runs ``python -m m0nbar eval --format json`` on
it in a child process whose address space is capped at 1 GiB, and compares
the value and the reason with the generator's own reference, which never
consults m0nbar, and the witness: each edge's balanced halves with the
decoration the generator drew the instance from.  Prints the child's wall
time and its own peak resident size: the child runs the CLI through a
short wrapper whose exit hook writes the ``VmHWM`` line of
``/proc/self/status`` to stderr, a high-water mark that restarts at
``exec`` (``ru_maxrss`` would not: it counts the pages of this process,
which holds the generator's tables).
Where ``/proc`` is missing the peak reads "unavailable".

    python3 scripts/sized_check.py

Exits 0 when the value, the reason and the halves match, and 1 otherwise.
Needs the ``resource`` module (POSIX); Linux enforces the RLIMIT_AS cap.
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
# python -m m0nbar, plus an exit hook that reports the process's own peak
# resident size on stderr, so that stdout stays the CLI's alone
CHILD = """\
import atexit, runpy, sys

def peak():
    try:
        with open("/proc/self/status") as status:
            sys.stderr.writelines(line for line in status if line.startswith("VmHWM:"))
    except OSError:
        pass

atexit.register(peak)
runpy.run_module("m0nbar", run_name="__main__", alter_sys=True)
"""


def instance(n: int) -> tuple[gen.Instance, gen.Decoration]:
    """The instance, and the decoration its reference value was read off."""
    rng = random.Random(f"ladder:{n}")
    tree = gen.bushy_tree(n, rng)
    # for reason "ok", make_instance's first draw is gen.balanced's
    twin = random.Random()
    twin.setstate(rng.getstate())
    decoration = gen.balanced(tree, twin, 0.3)
    return gen.make_instance("bushy", tree, "ok", rng, psi_share=0.3, vary=False), decoration


def halves_match(balanced: list[dict], decoration: gen.Decoration) -> bool:
    """Whether eval's (parent half, child half) per edge are the generator's.

    Edges are matched by (smallest label, block size), which is unique in a
    laminar family.  One walk up the generator's tree reads both off its
    leaves, in time linear in n; reading them off the block masks would take
    time quadratic in n (1.5 s at n = 102,400).
    """
    tree = decoration.tree
    low = [min(labels, default=tree.n + 1) for labels in tree.leaves]
    size = list(map(len, tree.leaves))
    for v in reversed(tree.order):  # children before parents
        p = tree.parent[v]
        if p is not None:
            low[p] = min(low[p], low[v])
            size[p] += size[v]
    expected = {(low[v], size[v]): [decoration.up[v], decoration.down[v]] for v in tree.edges}
    got = {(entry["edge"][0], len(entry["edge"])): entry["halves"] for entry in balanced}
    return len(balanced) == len(expected) and got == expected


def main() -> int:
    start = time.perf_counter()
    inst, decoration = instance(N)
    print(f"generated n={inst.n}: codim {inst.codim}, {len(inst.text)} bytes of input, "
          f"{time.perf_counter() - start:.1f} s")

    limit = LIMIT_MB << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, "eval", "--format", "json", "--n", str(inst.n)],
        input=inst.text, capture_output=True, text=True, env=env, preexec_fn=cap_memory,
    )
    took = time.perf_counter() - start
    hwm = [line for line in proc.stderr.splitlines() if line.startswith("VmHWM:")]
    peak = hwm[-1].split(":", 1)[1].strip() if hwm else "unavailable"
    print(f"eval --format json under a {LIMIT_MB} MB address-space limit: "
          f"exit {proc.returncode}, {took:.2f} s, peak resident {peak}")
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr, end="")
        return 1
    out = json.loads(proc.stdout)
    ok = (out["reason"], gen.decimal_to_int(out["value"])) == (inst.reason, inst.value)
    print("value and reason match the reference" if ok else
          f"MISMATCH: got {out['reason']}, expected {inst.reason} and the reference value")
    start = time.perf_counter()
    same = halves_match(out["balanced"], decoration)
    print(f"halves of all {inst.codim} edges match the generator's decoration, "
          f"{time.perf_counter() - start:.2f} s" if same else
          "MISMATCH: the balanced halves differ from the generator's decoration")
    return 0 if ok and same else 1


if __name__ == "__main__":
    raise SystemExit(main())
