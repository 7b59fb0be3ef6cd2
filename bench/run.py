#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for m0nbar.

Run from the repository root:

    python3 bench/run.py --workload batch-small --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one caller, no threads; child processes run one at
a time):

* ``batch-small``   distinct small products, n in 5..16, evaluated in-process
                    through parse -> to_boundary_product -> product_to_decorated
                    -> evaluate.
* ``stratum-large`` large strata (random n 250..2000, the same strata made
                    unbalanced, maximal caterpillars, psi monomials) through
                    ``cli.main(["eval", ..., "--format", "json"])``.
* ``oracle-check``  ``cli.main(["check", ...])`` over the expansion, string and
                    flag suites.

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics, with every time scaled to a reference host speed (see
``HostSpeed``).  With ``--trace 1`` the run is split into an untraced
half and a traced half, and the line carries the per-layer metrics,
derived from spans recorded around each call into m0nbar.  Results, per-op
medians and spans are written to ``bench/results/`` when the run ends.

Every output is checked against a reference computed by ``bench/gen.py``
and, where frozen, against the golden digests in ``bench/golden.json``; a
mismatch or an exception counts as a failed op.  The m0nbar sources are
taken from ``src/`` beside this directory; without them the run exits 2.
This process never raises CPython's int-to-text digit limit or the
recursion limit: output that needs them is a failure of m0nbar.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import gzip
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
RESULTS = BENCH / "results"

# seeds map onto this many input variants of the frozen golden data
VARIANTS = 8
GOLDEN_BATCH_SAMPLE = 24
BATCH_FORMATS = ("json", "text", "dot")
SETUP_RUNS = 4  # fresh processes before the timed loop, and as many after it
SETUP_ARGV = ("eval", "--n", "4", "psi1")
ORACLE_CYCLE = (("expansion", 5), ("expansion", 6), ("expansion", 7), ("expansion", 8),
                ("string", 10), ("flag", 6), ("flag", 7))
ORACLE_SUITE_N = (("expansion", 8), ("string", 10), ("flag", 7))
BATCH_MAIN_EVERY = 8  # traced chains also time main() on every 8th op
TICK_EVERY_S = 0.1  # host speed is sampled this often in a timed loop
# a tick's time, the geometric mean of the two reference loops, on the
# host the benchmark was defined on: 2 vCPUs of an Intel Xeon, CPython 3.11.7
REFERENCE_S = 0.003

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "scaling_exponent": "1",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
CHAIN_LAYERS = ("cli.parse", "cli.to_boundary_product", "trees.tree_from_splits",
                "intersect.decorate_self", "weights.balance", "weights.factors_self",
                "cli.render_json")
PER_LAYER_UNITS = {
    "trace.ops_per_s": "1/s",
    "trace.overhead_ops_per_s": "1/s",
    "oracle.expansion_nonzero_share": "ratio",
    "weights.balance_useful_ratio": "ratio",
    "workload.mean_codim": "count",
    "workload.max_value_digits": "count",
    "workload.known_defect_failures": "count",
}


def load_api() -> SimpleNamespace:
    """Import m0nbar from the checkout's ``src``; exit 2 when it is missing."""
    if not (SRC / "m0nbar" / "__init__.py").is_file():
        print(f"error: m0nbar sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import m0nbar
    import m0nbar.cli
    import m0nbar.errors
    import m0nbar.oracle

    if not Path(m0nbar.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported m0nbar from {m0nbar.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return SimpleNamespace(
        parse=m0nbar.cli.parse,
        to_boundary_product=m0nbar.cli.to_boundary_product,
        main=m0nbar.cli.main,
        build_parser=m0nbar.cli.build_parser,
        product_to_decorated=m0nbar.product_to_decorated,
        tree_from_splits=m0nbar.tree_from_splits,
        balance=m0nbar.balance,
        evaluate=m0nbar.evaluate,
        EMPTY=m0nbar.EMPTY,
        enumerate_stable_trees=m0nbar.enumerate_stable_trees,
        IncompatibleSplits=m0nbar.errors.IncompatibleSplits,
        random_decorated_tree=m0nbar.oracle.random_decorated_tree,
        expansion_eval=m0nbar.oracle.expansion_eval,
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def capture_main(api, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = api.main(argv)
    return rc, buf.getvalue()


def eval_argv(inst: gen.Instance, fmt: str = "json") -> list[str]:
    return ["eval", "--n", str(inst.n), "--format", fmt, inst.text]


def check_argv(suite: str, n_max: int, seed: int) -> list[str]:
    return ["check", "--suite", suite, "--n-max", str(n_max), "--seed", str(seed),
            "--format", "json"]


def check_json(stdout: str, inst: gen.Instance) -> bool:
    payload = json.loads(stdout)
    return payload["reason"] == inst.reason and gen.decimal_to_int(payload["value"]) == inst.value


def timed_process(argv: list[str]) -> tuple[float, str]:
    """Wall time and stdout of one child process, run to completion."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return time.perf_counter() - start, proc.stdout


def setup_process(runs: int) -> tuple[list[float], str]:
    """Wall times of fresh ``python -m m0nbar eval --n 4 psi1`` processes,
    scaled to the reference host speed, and their stdout."""
    argv = [sys.executable, "-m", "m0nbar", *SETUP_ARGV]
    speed, spans, outs = HostSpeed(), [], []
    for _ in range(runs):
        speed.tick()
        start = time.perf_counter()
        outs.append(timed_process(argv)[1])
        spans.append((start, time.perf_counter()))
    speed.tick()
    times = [speed.scale(start, end) for start, end in spans]
    return times, outs[0] if len(set(outs)) == 1 else ""


def elapsed_us(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - start) * 1e6


def median_us(fn, *args, repeat: int) -> float:
    return statistics.median(elapsed_us(fn, *args) for _ in range(repeat))


def slope(keys: list[str], values: list[float], family: str) -> float:
    """Least-squares log-log slope of median value against n over one op family.

    The family is the op kinds ``f"{family}{n}"``; 0.0 when fewer than two
    sizes ran or a median is not positive.
    """
    points = []
    for n in sorted({int(k[len(family):]) for k in keys
                     if k.startswith(family) and k[len(family):].isdigit()}):
        med = statistics.median(v for k, v in zip(keys, values) if k == f"{family}{n}")
        if med <= 0:
            return 0.0
        points.append((math.log(n), math.log(med)))
    if len(points) < 2:
        return 0.0
    return statistics.linear_regression(*zip(*points)).slope


# --------------------------------------------------------------------------- host speed


def _reference_int() -> int:
    total = 0
    for i in range(60_000):
        total += i * i
    return total


class _Node:
    __slots__ = ("left", "right", "label")

    def __init__(self, left, right, label):
        self.left, self.right, self.label = left, right, label


def _build(lo: int, hi: int) -> _Node:
    if hi - lo == 1:
        return _Node(None, None, lo)
    mid = (lo + hi) // 2
    return _Node(_build(lo, mid), _build(mid, hi), lo)


def _depths(node: _Node, depth: int) -> dict[int, int]:
    if node.left is None:
        return {node.label: depth}
    out = _depths(node.left, depth + 1)
    out.update(_depths(node.right, depth + 1))
    return out


def _reference_objects() -> list:
    depths = _depths(_build(0, 1500), 0)
    return sorted(depths.items(), key=lambda item: (item[1], -item[0]))


REFERENCE_LOOPS = (_reference_int, _reference_objects)


class HostSpeed:
    """How fast the host runs, sampled by fixed reference loops.

    The host is shared: its speed for pure-Python work moves by up to 40%
    over seconds, and whole runs minutes apart differ by as much, which
    swamps the change a later commit makes.  A tick times two loops that
    call nothing of m0nbar, with the garbage collector off so that their
    time does not depend on the rest of the heap: small-integer arithmetic,
    and recursive calls that build small objects and dicts and sort them.
    Over three minutes of alternating stratum-large and oracle-check ops
    with ticks, the log of m0nbar's op times moved one for one with the log
    of this tick time, and what was left of their spread was less than half
    of it; a tick that timed big-integer arithmetic in place of the objects
    loop caught only three quarters of the movement.

    Inside ``with speed:`` a SIGALRM timer ticks TICK_EVERY_S apart, also
    in the middle of an op, so an op of seconds is scaled by the speed over
    its whole course, not only at its ends.  ``scale`` removes the ticks
    that fell inside an op from its wall time, and multiplies the rest by
    REFERENCE_S over the mean tick time from the tick just before the op to
    the one just after it: the time the op would take on a host where a
    tick takes REFERENCE_S.
    """

    def __init__(self):
        self.starts, self.ends, self.took = array("d"), array("d"), array("d")

    def tick(self) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        times = []
        for loop in REFERENCE_LOOPS:
            begin = time.perf_counter()
            loop()
            times.append(time.perf_counter() - begin)
        if collecting:
            gc.enable()
        self.took.append(statistics.geometric_mean(times))
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> HostSpeed:
        self.tick()
        self.handler = signal.signal(signal.SIGALRM, self._alarm)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S)
        return self

    def _alarm(self, *_signal) -> None:
        # one-shot timers, re-armed after each tick, so ticks never nest;
        # an alarm already pending when __exit__ begins does nothing
        if self.armed:
            self.tick()
            signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S)

    def __exit__(self, *exc) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.handler)
        self.tick()

    def scale(self, start: float, end: float) -> float:
        """The time at the reference host speed of an op that ran from
        ``start`` to ``end``."""
        before = max(bisect.bisect_right(self.ends, start) - 1, 0)
        after = min(bisect.bisect_left(self.starts, end), len(self.took) - 1)
        inside = sum(self.ends[i] - self.starts[i] for i in range(before + 1, after))
        return (end - start - inside) * REFERENCE_S / statistics.fmean(self.took[before:after + 1])


# --------------------------------------------------------------------------- tracing


class Tracer:
    """Spans kept in memory: (op id, span id, parent span id, name, n, start, end).

    Spans of one op share its op id.  An inner call timed "on the same
    input" (``tree_from_splits`` under ``product_to_decorated``, ``balance``
    under ``evaluate``) runs right after the chain and names its outer call
    as parent; the outer call's self time is its duration minus the inner
    one.  Durations are scaled to the reference host speed by ``speed``,
    which ticks while the traced loop runs.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.speed = HostSpeed()

    def call(self, op: int, parent: int | None, name: str, n: int, fn, *args):
        """Run ``fn(*args)`` inside a span; returns its result and the span id."""
        span = len(self.spans)
        start = time.perf_counter()
        try:
            return fn(*args), span
        finally:
            self.spans.append((op, span, parent, name, n, start, time.perf_counter()))

    def durations(self) -> list[dict[str, float]]:
        """Per op, in op order: span name -> duration in seconds."""
        out: dict[int, dict[str, float]] = {}
        for op, _, _, name, _, start, end in self.spans:
            out.setdefault(op, {})[name] = self.speed.scale(start, end)
        return [out[op] for op in sorted(out)]

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def chain(api, inst: gen.Instance):
    decorated = api.product_to_decorated(api.to_boundary_product(api.parse(inst.text, inst.n)))
    if decorated is api.EMPTY:
        return "empty", 0
    result = api.evaluate(decorated)
    return result.reason, result.value


def traced_chain(api, tracer: Tracer, op: int, inst: gen.Instance):
    """The library chain with a span per call.

    Returns the outcome and a function that then times the two inner calls
    on the same input, so the chain's own time carries only the tracing cost.
    """
    n = inst.n
    expr, _ = tracer.call(op, None, "cli.parse", n, api.parse, inst.text, n)
    product, _ = tracer.call(op, None, "cli.to_boundary_product", n, api.to_boundary_product, expr)
    decorated, dspan = tracer.call(op, None, "intersect.product_to_decorated", n,
                                   api.product_to_decorated, product)
    espan = None
    if decorated is api.EMPTY:
        outcome = "empty", 0
    else:
        result, espan = tracer.call(op, None, "weights.evaluate", n, api.evaluate, decorated)
        outcome = result.reason, result.value

    def inner():
        with contextlib.suppress(api.IncompatibleSplits):
            tracer.call(op, dspan, "trees.tree_from_splits", n, api.tree_from_splits,
                        product.ground, product.divisor_powers.keys())
        if espan is not None:
            tracer.call(op, espan, "weights.balance", n, api.balance, decorated)

    return outcome, inner


def layer_rows(tracer: Tracer) -> list[dict[str, float]]:
    """Per-op layer times in seconds, with self times derived."""
    rows = []
    for spans in tracer.durations():
        row = {name: spans[name] for name in ("cli.parse", "cli.to_boundary_product",
                                              "trees.tree_from_splits", "weights.balance")
               if name in spans}
        if "intersect.product_to_decorated" in spans:
            row["intersect.decorate_self"] = (spans["intersect.product_to_decorated"]
                                              - spans.get("trees.tree_from_splits", 0.0))
        if "weights.evaluate" in spans:
            row["weights.factors_self"] = spans["weights.evaluate"] - spans["weights.balance"]
        if "cli.main_json" in spans:
            library = sum(spans.get(k, 0.0) for k in ("cli.parse", "cli.to_boundary_product",
                                                      "intersect.product_to_decorated",
                                                      "weights.evaluate"))
            row["cli.render_json"] = spans["cli.main_json"] - library
        rows.append(row)
    return rows


def summarize_layers(rows: list[dict], keys: list[str], family: str) -> dict[str, float]:
    """Median microseconds per chain layer, and its log-log slope over an op family."""
    out = {}
    for layer in CHAIN_LAYERS:
        pairs = [(k, r[layer]) for r, k in zip(rows, keys) if layer in r]
        out[f"{layer}_us"] = statistics.median(v for _, v in pairs) * 1e6 if pairs else 0.0
        out[f"{layer}.slope"] = slope(*zip(*pairs), family) if pairs else 0.0
    return out


# --------------------------------------------------------------------------- workloads


def quantile(values: list[float], q: float) -> float:
    """The q-quantile, 0 < q < 1, interpolated between the samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def kind_timing(tally: Tally, mix: list[str]) -> tuple[float, float, float]:
    """Ops per second, p50 and p99 latency of one pass over ``mix``, each op
    kind at its median latency in the run.

    Weighting the kinds by one pass rather than by the run keeps a last pass
    that the deadline cut short from tilting the mix.
    """
    median = {k: statistics.median(tally.times(k)) for k in set(mix)}
    per_op = sorted(median[k] for k in mix)
    return len(per_op) / sum(per_op), statistics.median(per_op), quantile(per_op, 0.99)


@dataclass
class Tally:
    """Timed ops and verification checks of one run."""

    # seconds at the reference host speed, set by close
    latencies: array = field(default_factory=lambda: array("d"))
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    keys: list[str] = field(default_factory=list)  # interned
    attempted: int = 0
    failed: int = 0
    # input sizes and expected outcomes; no instance is kept, and an op costs
    # 24 bytes and a pointer, so memory barely grows with the number of ops
    reasons: Counter = field(default_factory=Counter)
    codims: int = 0
    max_digits: int = 0
    errors: list[str] = field(default_factory=list)  # the first few exceptions

    host_speed: float = 1.0  # reference over median tick time, set by close
    peak_rss_mb: float = 0.0  # when the timed loop ended

    def record(self, key: str, start: float, end: float, ok: bool,
               inst: gen.Instance | None = None):
        self.starts.append(start)
        self.ends.append(end)
        self.keys.append(sys.intern(key))
        if inst is not None:
            self.reasons[inst.reason] += 1
            self.codims += inst.codim
            if inst.value:
                self.max_digits = max(self.max_digits, gen.decimal_digits(inst.value))
        self.check(ok)

    def check(self, ok: bool):
        self.attempted += 1
        self.failed += not ok

    def close(self, speed: HostSpeed):
        """End the timed loop: note peak memory, which the sorting and
        scaling that follow would otherwise raise with the number of ops,
        then scale every latency to the reference host speed."""
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.latencies = array("d", map(speed.scale, self.starts, self.ends))
        self.host_speed = REFERENCE_S / statistics.median(speed.took)

    def error(self, exc: Exception):
        if len(self.errors) < 5:
            self.errors.append("".join(traceback.format_exception(exc)))

    @property
    def rate(self) -> float:
        """Ops per second of time spent inside the timed calls."""
        return len(self.latencies) / sum(self.latencies)

    def times(self, key: str) -> list[float]:
        return [t for k, t in zip(self.keys, self.latencies) if k == key]

    def by_key(self) -> dict[str, dict]:
        """Median milliseconds and sample count per op kind, with the samples
        when there are few."""
        out = {}
        for k in sorted(set(self.keys)):
            times = self.times(k)
            out[k] = {"median_ms": statistics.median(times) * 1e3, "count": len(times)}
            if len(times) <= 100:
                out[k]["samples_ms"] = [t * 1e3 for t in times]
        return out

    def outcome_counts(self) -> dict[str, float]:
        total = max(1, sum(self.reasons.values()))
        ok, nb = self.reasons["ok"], self.reasons["no_balance"]
        return {
            **{f"workload.reason_share.{r}": self.reasons[r] / total for r in gen.REASONS},
            "weights.balance_useful_ratio": ok / (ok + nb) if ok + nb else 0.0,
            "workload.mean_codim": self.codims / total,
            "workload.max_value_digits": float(self.max_digits),
        }


def batch_stream(seed: int):
    """Endless distinct batch-small instances for one seed."""
    block = 0
    while True:
        yield from gen.batch_small(seed * 1_000_003 + block, 512)
        block += 1


def golden_batch_sample(variant: int) -> list[gen.Instance]:
    return gen.batch_small(variant, GOLDEN_BATCH_SAMPLE)


def batch_outputs(api, inst: gen.Instance) -> list[str]:
    return [capture_main(api, eval_argv(inst, fmt))[1] for fmt in BATCH_FORMATS]


def traced_batch_op(api, tracer: Tracer, op: int, inst: gen.Instance):
    """One traced batch-small op; returns the outcome and the chain's own time."""
    start = time.perf_counter()
    got, inner = traced_chain(api, tracer, op, inst)
    elapsed = time.perf_counter() - start
    inner()
    if op % BATCH_MAIN_EVERY == 0:
        tracer.call(op, None, "cli.main_json", inst.n, capture_main, api, eval_argv(inst))
    return got, elapsed


def suite_layers(api, seed: int, tracer: Tracer | None) -> dict[str, float]:
    """Time per check suite, from the trace when the workload ran them, else once here."""
    out = {}
    for suite, n_max in ORACLE_SUITE_N:
        name = f"oracle.{suite}_suite"
        if tracer is not None:
            times = [tracer.speed.scale(start, end) for _, _, _, nm, n, start, end in tracer.spans
                     if nm == name and n == n_max]
        else:
            start = time.perf_counter()
            capture_main(api, check_argv(suite, n_max, seed))
            times = [time.perf_counter() - start]
        out[f"{name}_ms"] = statistics.median(times) * 1e3
    return out


class BatchSmall:
    name = "batch-small"
    scaling = "n"  # op kinds n5 ... n16

    def __init__(self, api, seed: int, golden: dict):
        self.api, self.seed = api, seed
        self.variant = seed % VARIANTS
        self.golden = golden["batch-small"][str(self.variant)]

    def verify(self, tally: Tally, notes: dict):
        """The golden sample in json, text and dot form."""
        for inst, digests in zip(golden_batch_sample(self.variant), self.golden):
            try:
                outs = batch_outputs(self.api, inst)
                ok = [digest(o) for o in outs] == digests and check_json(outs[0], inst)
            except Exception as exc:
                ok = False
                tally.error(exc)
            tally.check(ok)

    def run(self, seconds: float, tracer: Tracer | None = None) -> Tally:
        api, tally = self.api, Tally()
        speed = tracer.speed if tracer else HostSpeed()
        stream = batch_stream(self.seed)
        for inst in [next(stream) for _ in range(200)]:  # warm-up, untimed
            chain(api, inst)
        deadline = time.perf_counter() + seconds
        with speed:
            while time.perf_counter() < deadline:
                inst = next(stream)
                start = time.perf_counter()
                try:
                    if tracer is None:
                        got = chain(api, inst)
                        end = time.perf_counter()
                    else:
                        got, elapsed = traced_batch_op(api, tracer, len(tally.keys), inst)
                        end = start + elapsed
                    ok = got == (inst.reason, inst.value)
                except Exception as exc:
                    end, ok = time.perf_counter(), False
                    tally.error(exc)
                tally.record(f"n{inst.n}", start, end, ok, inst)
        tally.close(speed)
        return tally

    def timing(self, tally: Tally) -> tuple[float, float, float]:
        return (tally.rate, statistics.median(tally.latencies),
                quantile(tally.latencies, 0.99))

    def layer_metrics(self, traced: Tally, tracer: Tracer) -> tuple[dict, dict]:
        metrics = summarize_layers(layer_rows(tracer), traced.keys, self.scaling)
        metrics.update(traced.outcome_counts())
        metrics.update(suite_layers(self.api, self.seed, None))
        return metrics, {}

    def main_sample(self) -> list[gen.Instance]:
        return golden_batch_sample(self.variant)


class StratumLarge:
    name = "stratum-large"
    scaling = "random:"  # the random family, n 250 ... 2000

    def __init__(self, api, seed: int, golden: dict):
        self.api, self.seed = api, seed
        self.variant = seed % VARIANTS
        self.instances = gen.stratum_large(self.variant)
        self.golden = golden["stratum-large"][str(self.variant)]
        self.passes = 0

    def eval_json(self, inst: gen.Instance) -> tuple[int, str]:
        return capture_main(self.api, eval_argv(inst))

    def verify(self, tally: Tally, notes: dict):
        failed, notes["psi_monomial_n2000"] = self.defect_probe()
        tally.check(not failed)

    def schedule(self, deadline: float):
        """Passes over the instances until ``deadline``, the first one whole.

        Each pass visits every instance once in a shuffled order, so the
        samples of one kind spread over the run.
        """
        whole = True
        while True:
            order = list(self.instances)
            random.Random(f"pass:{self.seed}:{self.passes}").shuffle(order)
            self.passes += 1
            for inst in order:
                if not whole and time.perf_counter() >= deadline:
                    return
                yield inst
            whole = False

    def run(self, seconds: float, tracer: Tracer | None = None) -> Tally:
        tally, speed = Tally(), tracer.speed if tracer else HostSpeed()
        self.eval_json(self.instances[0])  # warm-up, untimed
        with speed:
            for inst in self.schedule(time.perf_counter() + seconds):
                op = len(tally.keys)
                start = time.perf_counter()
                try:
                    if tracer is None:
                        rc, out = self.eval_json(inst)
                    else:
                        (rc, out), _ = tracer.call(op, None, "cli.main_json", inst.n,
                                                   self.eval_json, inst)
                    end = time.perf_counter()
                    if tracer is not None:
                        traced_chain(self.api, tracer, op, inst)[1]()
                    ok = (rc == 0 and digest(out) == self.golden[inst.key]
                          and check_json(out, inst))
                except Exception as exc:
                    end, ok = time.perf_counter(), False
                    tally.error(exc)
                tally.record(f"{inst.family}:{inst.n}", start, end, ok, inst)
        tally.close(speed)
        return tally

    def timing(self, tally: Tally) -> tuple[float, float, float]:
        return kind_timing(tally, [f"{inst.family}:{inst.n}" for inst in self.instances])

    def defect_probe(self) -> tuple[bool, str]:
        """psi1 ... psi(n-3) at n=2000, whose value 1997! has more than 4300 digits.

        Returns (counts as a failed op, note).  m0nbar 0.1.0 raises
        ValueError while rendering that value; this known defect is reported
        here and as ``workload.known_defect_failures`` rather than as a
        failed op.  Any other exception, a non-zero exit or a wrong value
        is a failed op.
        """
        inst = gen.psi_monomial(gen.PSI_PROBE_N)
        try:
            rc, out = self.eval_json(inst)
        except ValueError as exc:
            if "limit" in str(exc) and "digits" in str(exc):
                return False, f"known defect: {exc}"
            return True, f"failed: {exc!r}"
        except Exception as exc:
            return True, f"failed: {exc!r}"
        try:
            ok = rc == 0 and check_json(out, inst)
        except ValueError as exc:
            return True, f"failed: {exc!r}"
        return (not ok), "ok" if ok else "wrong output"

    def layer_metrics(self, traced: Tally, tracer: Tracer) -> tuple[dict, dict]:
        rows = layer_rows(tracer)
        metrics = summarize_layers(rows, traced.keys, self.scaling)
        metrics.update(traced.outcome_counts())
        metrics.update(suite_layers(self.api, self.seed, None))
        return metrics, {"layers_by_n": self.layers_by_n(rows, traced.keys)}

    def layers_by_n(self, rows: list[dict], keys: list[str]) -> dict:
        """Median microseconds per layer for each random-family n and the top caterpillar."""
        top = f"caterpillar:{gen.CATERPILLAR_LADDER[-1]}"
        wanted = [f"random:{n}" for n, _ in gen.RANDOM_LADDER] + [top]
        return {
            key: {layer: statistics.median(r[layer] for r, k in zip(rows, keys) if k == key) * 1e6
                  for layer in CHAIN_LAYERS}
            for key in wanted
        }

    def main_sample(self) -> list[gen.Instance]:
        # explain --coloring grows about cubically: only the first n=250 stratum
        return [self.instances[0]]


class OracleCheck:
    name = "oracle-check"
    scaling = "expansion:"  # the expansion suite at --n-max 5 ... 8

    def __init__(self, api, seed: int, golden: dict):
        self.api, self.seed = api, seed
        self.rows = golden["oracle-check"]

    def suite(self, suite: str, n_max: int, seed: int) -> tuple[int, str]:
        return capture_main(self.api, check_argv(suite, n_max, seed))

    def expected(self, suite: str, n_max: int, seed: int) -> str:
        payload = {"suite": suite, "n_max": n_max, "seed": seed,
                   "results": self.rows[f"{suite}:{n_max}"], "ok": True}
        return json.dumps(payload, indent=2) + "\n"

    def verify(self, tally: Tally, notes: dict):
        pass

    @staticmethod
    def schedule(deadline: float):
        """Cycles over ORACLE_CYCLE until ``deadline``, the first one whole."""
        for cycle in itertools.count():
            for suite, n_max in ORACLE_CYCLE:
                if cycle and time.perf_counter() >= deadline:
                    return
                yield suite, n_max

    def run(self, seconds: float, tracer: Tracer | None = None) -> Tally:
        """Cycles over ORACLE_CYCLE after one untimed warm-up cycle."""
        tally, speed = Tally(), tracer.speed if tracer else HostSpeed()
        for suite, n_max in ORACLE_CYCLE:
            self.suite(suite, n_max, 0)
        with speed:
            for suite, n_max in self.schedule(time.perf_counter() + seconds):
                op = len(tally.keys)
                k = self.seed * 1009 + op
                start = time.perf_counter()
                try:
                    if tracer is None:
                        rc, out = self.suite(suite, n_max, k)
                    else:
                        (rc, out), _ = tracer.call(op, None, f"oracle.{suite}_suite", n_max,
                                                   self.suite, suite, n_max, k)
                    end = time.perf_counter()
                    ok = rc == 0 and out == self.expected(suite, n_max, k)
                except Exception as exc:
                    end, ok = time.perf_counter(), False
                    tally.error(exc)
                tally.record(f"{suite}:{n_max}", start, end, ok)
        tally.close(speed)
        return tally

    def timing(self, tally: Tally) -> tuple[float, float, float]:
        return kind_timing(tally, [f"{suite}:{n_max}" for suite, n_max in ORACLE_CYCLE])

    def layer_metrics(self, traced: Tally, tracer: Tracer) -> tuple[dict, dict]:
        metrics = suite_layers(self.api, self.seed, tracer)
        # the chain layers run on a panel of batch-small instances
        panel, panel_tally = Tracer(), Tally()
        with panel.speed:
            for op, inst in enumerate(itertools.islice(batch_stream(self.seed), 600)):
                traced_batch_op(self.api, panel, op, inst)
                panel_tally.record(f"n{inst.n}", 0.0, 0.0, True, inst)
        metrics.update(summarize_layers(layer_rows(panel), panel_tally.keys, BatchSmall.scaling))
        metrics.update(panel_tally.outcome_counts())
        return metrics, {}

    def main_sample(self) -> list[gen.Instance]:
        return golden_batch_sample(self.seed % VARIANTS)


WORKLOADS = {cls.name: cls for cls in (BatchSmall, StratumLarge, OracleCheck)}


# --------------------------------------------------------------------------- metrics


def end_to_end(work, tally: Tally, setup_times: list[float]) -> dict[str, float]:
    ops_per_s, p50, p99 = work.timing(tally)
    return {
        "ops_per_s": ops_per_s,
        "latency_p50_ms": p50 * 1e3,
        "latency_p99_ms": p99 * 1e3,
        "scaling_exponent": slope(tally.keys, tally.latencies, work.scaling),
        "peak_rss_mb": tally.peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }


def setup_layers(api) -> dict[str, float]:
    bare = statistics.median(timed_process([sys.executable, "-c", "pass"])[0] for _ in range(5))
    imp = statistics.median(timed_process([sys.executable, "-c", "import m0nbar.cli"])[0]
                            for _ in range(5))
    return {
        "setup.interpreter_ms": bare * 1e3,
        "setup.import_ms": (imp - bare) * 1e3,
        "setup.build_parser_us": median_us(api.build_parser, repeat=51),
    }


def main_format_layers(api, sample: list[gen.Instance]) -> dict[str, float]:
    forms = {
        "cli.main_text_us": lambda i: eval_argv(i, "text"),
        "cli.main_dot_us": lambda i: eval_argv(i, "dot"),
        "cli.main_explain_us": lambda i: ["explain", "--coloring", "--n", str(i.n), i.text],
    }
    return {name: statistics.median(elapsed_us(capture_main, api, argv(i)) for i in sample)
            for name, argv in forms.items()}


def oracle_counts(api, seed: int) -> dict[str, float]:
    """Full enumeration at n=7, and the share of nonzero values among the
    instances the expansion suite draws at --n-max 8 and this seed."""
    out = {"trees.enumerate_ms": median_us(lambda: sum(1 for _ in api.enumerate_stable_trees(7)),
                                           repeat=3) / 1e3}
    rng = random.Random(seed)
    nonzero = total = 0
    for n in range(4, 9):
        for _ in range(300):
            total += 1
            nonzero += api.expansion_eval(api.random_decorated_tree(n, rng)) != 0
    out["oracle.expansion_nonzero_share"] = nonzero / total
    return out


def per_layer(api, work, seconds: float, notes: dict) -> tuple[dict, dict, Tracer, Tally]:
    """Untraced half, traced half, then the per-layer panels."""
    untraced = work.run(seconds / 2)
    tracer = Tracer()
    traced = work.run(seconds / 2, tracer)
    metrics, extras = work.layer_metrics(traced, tracer)
    metrics.update(main_format_layers(api, work.main_sample()))
    metrics.update(oracle_counts(api, work.seed))
    metrics.update(setup_layers(api))
    metrics["trace.ops_per_s"] = traced.rate
    metrics["trace.overhead_ops_per_s"] = traced.rate - untraced.rate
    metrics["workload.known_defect_failures"] = float(
        notes.get("psi_monomial_n2000", "").startswith("known defect"))
    extras["ops_untraced"] = untraced.by_key()
    both = Tally(attempted=untraced.attempted + traced.attempted,
                 failed=untraced.failed + traced.failed, errors=untraced.errors + traced.errors)
    return metrics, extras, tracer, both


def unit_of(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.startswith("workload.reason_share."):
        return "ratio"
    if name.endswith(".slope"):
        return "1"
    for suffix, unit in (("_us", "us"), ("_ms", "ms")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def provenance() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    api = load_api()
    golden = json.loads(GOLDEN.read_text())
    work = WORKLOADS[workload](api, seed, golden)
    checks, notes = Tally(), {}
    setup_times, setup_out = setup_process(SETUP_RUNS)
    checks.check(digest(setup_out) == golden["setup"])
    work.verify(checks, notes)
    tracer = None
    if trace:
        metrics, extras, tracer, tally = per_layer(api, work, seconds, notes)
        timed = tally.attempted
    else:
        tally = work.run(seconds)
        setup_times += setup_process(SETUP_RUNS)[0]
        metrics = end_to_end(work, tally, setup_times)
        extras = {"host_speed": tally.host_speed, "ops": tally.by_key()}
        timed = len(tally.latencies)
    failed = checks.failed + tally.failed
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted + tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k) if trace else END_TO_END_UNITS[k]}
                    for k, v in sorted(metrics.items())},
    }
    errors = checks.errors + tally.errors
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "provenance": provenance(), "timed_ops": timed, "notes": notes,
              "setup_runs_s": setup_times, "errors": errors, **extras, "result": result}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.jsonl.gz")
    for error in errors:
        print(error, file=sys.stderr)
    print("# provenance " + json.dumps(record["provenance"]))
    print(f"# {workload}: {timed} timed ops, {len(setup_times)} set-up processes; notes {notes}")
    for key, value in extras.items():
        print(f"# {key} " + json.dumps(value))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
