"""Self-tests for the benchmark: generators, references, reason mix, metric names,
host-speed scaling.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import itertools
import json
import random
import re
import signal
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402

API = run.load_api()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def decorate(inst):
    return API.product_to_decorated(API.to_boundary_product(API.parse(inst.text, inst.n)))


def test_generators_are_deterministic_per_seed():
    assert gen.batch_small(7, 200) == gen.batch_small(7, 200)
    assert gen.batch_small(7, 200) != gen.batch_small(8, 200)
    assert gen.stratum_large(3) == gen.stratum_large(3)
    assert gen.stratum_large(3) != gen.stratum_large(4)
    first = list(itertools.islice(run.batch_stream(5), 600))
    assert first == list(itertools.islice(run.batch_stream(5), 600))
    assert len({i.text for i in first}) > 590


@pytest.mark.parametrize("seed", range(4))
def test_construction_values_agree_with_expansion_oracle(seed):
    from m0nbar.oracle import expansion_eval, surviving_decompositions

    checked = Counter()
    for inst in gen.batch_small(seed, 400):
        if inst.n > 9:
            continue
        decorated = decorate(inst)
        if inst.reason == "empty":
            assert decorated is API.EMPTY
        else:
            assert expansion_eval(decorated) == inst.value
            survivors = len(surviving_decompositions(decorated))
            assert survivors == (1 if inst.reason == "ok" else 0)
        checked[inst.reason] += 1
    assert min(checked[r] for r in gen.REASONS) >= 10


def test_reference_values_are_independent_of_the_labels_chosen():
    # psi1 ... psi(n-3) on n points is (n-3)!; the README examples are fixed
    assert gen.psi_monomial(10).value == 5040
    values = {inst.text: inst.value for inst in gen.batch_small(0, 2)}
    assert sorted(values.values()) == [-36, 3]


def test_declared_reason_mix_is_met():
    insts = gen.batch_small(11, 2002)
    share = Counter(i.reason for i in insts)
    assert abs(share["ok"] / len(insts) - 0.5) < 0.01
    assert abs(share["no_balance"] / len(insts) - 0.25) < 0.01
    assert abs(share["empty"] / len(insts) - 0.25) < 0.01
    assert {i.n for i in insts} == set(gen.BATCH_N)

    large = Counter((i.family, i.reason) for i in gen.stratum_large(0))
    assert large == {("random", "ok"): 10, ("unbalanced", "no_balance"): 10,
                     ("caterpillar", "ok"): 3, ("psi", "ok"): 2}
    assert len({i.key for i in gen.stratum_large(0)}) == 25


def test_unbalanced_and_empty_certificates():
    tree = gen.random_tree(40, random.Random(1), 0.5)
    full = (1 << tree.n) - 1
    for v in tree.edges:
        a, b = tree.block[v], tree.block[v] ^ full
        assert not gen.crosses(tree.block[v], a, full) and not gen.crosses(a, b, full)
    assert gen.crosses(0b0011, 0b0110, 0b1111)
    for inst in gen.stratum_large(1):
        if inst.reason == "no_balance":
            assert API.evaluate(decorate(inst)).reason == "no_balance"


def test_decimal_helpers_handle_values_beyond_the_digit_limit():
    big = gen.psi_monomial(gen.PSI_PROBE_N).value
    assert gen.decimal_digits(big) > 4300
    assert gen.decimal_digits(10**5000) == 5001
    assert gen.decimal_digits(10**5000 - 1) == 5000
    assert gen.decimal_to_int("-" + "9" * 5000) == -(10**5000 - 1)


def test_metric_names_and_units():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", ["batch-small", "oracle-check"])
def test_runs_report_every_declared_metric(workload):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run(workload, 1, 0.2, trace=trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec[section]}


def test_host_speed_scaling_drops_ticks_inside_an_op():
    speed = run.HostSpeed()
    speed.starts.extend([0.0, 1.0, 3.0])
    speed.ends.extend([0.1, 1.1, 3.1])
    speed.took.extend([0.5, 2.0, 0.5])
    # the middle tick fell inside the op; the mean tick is 1.0
    assert speed.scale(0.5, 2.0) == pytest.approx(1.4 * run.REFERENCE_S)
    # an op between two ticks is scaled by those two alone
    assert speed.scale(0.2, 0.9) == pytest.approx(0.7 * run.REFERENCE_S / 1.25)


def test_host_speed_ticks_during_a_long_op_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with run.HostSpeed() as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * run.TICK_EVERY_S:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.took) >= 4  # entry, exit and at least two inside
    assert list(speed.starts) == sorted(speed.starts)
    assert 0 < speed.scale(start, end) < (end - start) * run.REFERENCE_S / min(speed.took)
