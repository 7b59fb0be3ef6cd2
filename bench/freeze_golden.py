#!/usr/bin/env python3
"""Freeze the golden output digests in bench/golden.json.

    python3 bench/freeze_golden.py

Records, for the current m0nbar sources, the sha256 of the stdout of every
stratum-large op and of a batch-small sample in json, text and dot form,
per input variant; the rows each check suite reports; and the stdout of
the set-up process.  Every recorded output is first checked against the
generator's reference.  Re-freezing accepts whatever m0nbar prints now, so
do it only when an output change is intended.
"""

from __future__ import annotations

import json
import sys

import gen
import run


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"error: output disagrees with the reference: {what}")


def main() -> int:
    api = run.load_api()
    _, setup_out = run.timed_process([sys.executable, "-m", "m0nbar", *run.SETUP_ARGV])
    golden = {"setup": run.digest(setup_out), "batch-small": {}, "stratum-large": {},
              "oracle-check": {}}
    for variant in range(run.VARIANTS):
        sample = []
        for inst in run.golden_batch_sample(variant):
            outs = run.batch_outputs(api, inst)
            require(run.check_json(outs[0], inst), inst.text)
            sample.append([run.digest(o) for o in outs])
        golden["batch-small"][str(variant)] = sample
        large = {}
        for inst in gen.stratum_large(variant):
            rc, out = run.capture_main(api, run.eval_argv(inst))
            require(rc == 0 and run.check_json(out, inst), inst.key)
            large[inst.key] = run.digest(out)
        golden["stratum-large"][str(variant)] = large
        print(f"variant {variant} frozen", flush=True)
    for suite, n_max in run.ORACLE_CYCLE:
        rc, out = run.capture_main(api, run.check_argv(suite, n_max, 0))
        payload = json.loads(out)
        require(rc == 0 and payload["ok"], f"check --suite {suite} --n-max {n_max}")
        golden["oracle-check"][f"{suite}:{n_max}"] = payload["results"]
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
