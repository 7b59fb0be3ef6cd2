"""Expression grammar, output formats, and exit codes."""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m0nbar import cli, oracle, weights
from m0nbar.cli import (
    _EXPANSION_TRIALS,
    _SPLIT_BITS,
    Expression,
    _digits,
    _json_output,
    _report,
    build_parser,
    main,
    parse,
    render,
    to_boundary_product,
)
from m0nbar.errors import DegreeMismatch, LabelOutOfRange, ParseError, TooLarge, UnstableSplit
from m0nbar.oracle import random_stable_tree
from m0nbar.trees import MarkedSet, Split, make_split, tree_from_splits

EXAMPLE = "D{1,2}^2 D{3,4,5}^3 D{1,2,3,4,5,6,7,8}^4 D{11,12} D{13,14,15}^2"
PSI_EXAMPLE = "psi4 psi7^2 D{1,2}^2 D{3,4,5} D{1,2,3,4,5,6,7,8}^3 D{11,12} D{13,14,15}^2"

# Exact stdout of eval (text/json/dot), explain and explain --coloring for
# the two README examples, an empty meet (n=5) and a no_balance product
# (n=7), plus enumerate --n 5.  Refactors must leave these bytes alone.
PINNED = json.loads(Path(__file__).with_name("cli_stdout.json").read_text())


class TestParse:
    def test_example_factors(self):
        expr = parse(EXAMPLE, 15)
        assert len(expr.factors) == 5
        assert [kind for kind, _, _ in expr.factors] == ["divisor"] * 5
        assert [e for _, _, e in expr.factors] == [2, 3, 4, 1, 2]

    def test_psi_example_factors(self):
        expr = parse("psi4^2 * psi7 * " + EXAMPLE, 15)
        kinds = [kind for kind, _, _ in expr.factors]
        assert kinds == ["psi", "psi"] + ["divisor"] * 5
        assert expr.factors[0] == ("psi", 4, 2)
        assert expr.factors[1] == ("psi", 7, 1)

    def test_star_and_whitespace_both_separate(self):
        assert parse("D{1,2}*D{4,5}", 5) == parse("D{1,2} D{4,5}", 5)

    def test_juxtaposition_without_separator_is_rejected(self):
        with pytest.raises(ParseError):
            parse("D{1,2}D{4,5}", 5)

    def test_singleton_divisor_is_unstable(self):
        with pytest.raises(UnstableSplit):
            parse("D{1}", 5)

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            parse("D{1,7}", 5)
        with pytest.raises(LabelOutOfRange):
            parse("psi0", 5)

    def test_positions_in_errors(self):
        with pytest.raises(ParseError) as info:
            parse("D{1,2} @", 5)
        assert info.value.position == 7

    def test_unclosed_block(self):
        with pytest.raises(ParseError):
            parse("D{1,2", 5)

    def test_duplicate_label(self):
        with pytest.raises(ParseError):
            parse("D{1,1,2}", 5)

    def test_empty_expression(self):
        with pytest.raises(ParseError):
            parse("   ", 5)

    def test_explicit_complement_accepted(self):
        assert parse("D{1,2}|{3,4,5}", 5) == parse("D{1,2}", 5)

    def test_wrong_complement_rejected(self):
        with pytest.raises(ParseError):
            parse("D{1,2}|{3,4}", 5)
        with pytest.raises(ParseError):
            parse("D{1,2}|{2,3,4,5}", 5)

    def test_same_divisor_spelled_both_ways(self):
        expr = parse("D{1,2} D{3,4,5}", 5)
        product = to_boundary_product(expr)
        split = make_split(MarkedSet.range(5), {1, 2})
        assert product.divisor_powers == {split: 2}

    def test_zero_exponent_drops_out(self):
        expr = parse("D{1,2}^0 psi1^2", 5)
        product = to_boundary_product(expr)
        assert product.divisor_powers == {}
        assert product.psi_powers == {1: 2}

    def test_render_round_trip(self):
        for text, n in [
            (EXAMPLE, 15),
            (PSI_EXAMPLE, 15),
            ("D{1,2}^0 * psi3", 6),
            ("D{2,3}|{1,4,5}^2", 5),
        ]:
            expr = parse(text, n)
            assert parse(render(expr), n) == expr


@pytest.mark.parametrize(
    "text, n, error, position, message",
    [
        ("", 5, ParseError, 0, "expected a factor"),
        ("   ", 5, ParseError, 3, "expected a factor"),
        ("D(1,2)", 5, ParseError, 1, "expected '{'"),
        ("D{,2}", 5, ParseError, 2, "expected a label"),
        ("D{1,}", 5, ParseError, 4, "expected a label"),
        ("D{1,2", 5, ParseError, 5, "expected '}' or ','"),
        ("D{1x}", 5, ParseError, 3, "expected '}' or ','"),
        ("D{1,1,9}", 5, ParseError, 1, "duplicate label in block"),
        ("D{1,9}^x", 5, LabelOutOfRange, None, "label 9 outside 1..5"),
        ("D{1}^x", 5, ParseError, 5, "expected an exponent"),
        ("D{1,2}|3", 5, ParseError, 7, "expected '{'"),
        ("D{1,2}|{3,4}", 5, ParseError, 7, "second block must be the exact complement of the first"),
        ("D{1,2}|{2,4,5}", 5, ParseError, 7, "second block must be the exact complement of the first"),
        ("psi", 5, ParseError, 3, "expected a marked-point label after 'psi'"),
        ("D{1,2}D{4,5}", 5, ParseError, 6, "expected '*' or whitespace between factors"),
        ("D{1,2} *", 5, ParseError, 8, "expected a factor after '*'"),
        # literals past the int() digit limit, after and before a missing '}'
        pytest.param("D{1,2," + "1" * 4400 + "}", 6, ParseError, 6,
                     "a label has too many digits", id="long-last-label"),
        pytest.param("D{" + "1" * 4400 + ",2", 6, ParseError, 2,
                     "a label has too many digits", id="long-label-unclosed"),
    ],
)
def test_parse_diagnostics(text, n, error, position, message):
    # the class, position and message of each check, in the order they fire
    with pytest.raises(error) as info:
        parse(text, n)
    if position is None:
        assert str(info.value) == message
    else:
        assert (info.value.position, info.value.message) == (position, message)


class TestEval:
    def test_example_text(self, capsys):
        assert main(["eval", "--n", "15", EXAMPLE]) == 0
        out = capsys.readouterr().out
        assert "value = -36" in out
        assert "sign = -1" in out

    def test_psi_example_text(self, capsys):
        assert main(["eval", "--n", "15", PSI_EXAMPLE]) == 0
        assert "value = 3" in capsys.readouterr().out

    def test_empty_intersection_text(self, capsys):
        assert main(["eval", "--n", "5", "D{1,2} D{1,3}"]) == 0
        assert "value = 0 (empty intersection)" in capsys.readouterr().out

    def test_no_balance_text(self, capsys):
        assert main(["eval", "--n", "7", "D{1,2}^3 D{5,6,7}"]) == 0
        assert "value = 0 (no balanced weighting)" in capsys.readouterr().out

    def test_json_payload(self, capsys):
        assert main(["eval", "--n", "15", "--format", "json", EXAMPLE]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 15
        assert payload["value"] == "-36"
        assert payload["sign"] == -1
        assert payload["reason"] == "ok"
        assert len(payload["stratum"]["splits"]) == 5
        assert sorted(payload["vertex_dims"]) == [0, 0, 1, 1, 2, 3]
        assert len(payload["balanced"]) == 5
        assert all(len(item["halves"]) == 2 for item in payload["balanced"])

    def test_json_empty_reason(self, capsys):
        assert main(["eval", "--n", "5", "--format", "json", "D{1,2} D{1,3}"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == "0"
        assert payload["reason"] == "empty"
        assert payload["stratum"] is None

    def test_json_is_byte_stable(self, capsys):
        main(["eval", "--n", "15", "--format", "json", PSI_EXAMPLE])
        first = capsys.readouterr().out
        main(["eval", "--n", "15", "--format", "json", PSI_EXAMPLE])
        second = capsys.readouterr().out
        assert first == second

    def test_dot_output(self, capsys):
        assert main(["eval", "--n", "15", "--format", "dot", PSI_EXAMPLE]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph stratum {")
        assert "v0 -- " in out
        assert 'label="psi=2"' in out
        assert out.endswith("}\n")

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(EXAMPLE))
        assert main(["eval", "--n", "15"]) == 0
        assert "value = -36" in capsys.readouterr().out

    def test_parse_error_exit_code(self, capsys):
        assert main(["eval", "--n", "5", "D{1,2} @"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unstable_split_exit_code(self, capsys):
        assert main(["eval", "--n", "5", "D{1}"]) == 2

    def test_degree_mismatch_exit_code(self, capsys):
        assert main(["eval", "--n", "5", "D{1,2}"]) == 3
        err = capsys.readouterr().err
        assert "degree 1" in err and "n - 3 = 2" in err


@pytest.mark.parametrize("case", PINNED, ids=lambda case: " ".join(case["argv"]))
def test_pinned_stdout(case, capsys):
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]


@pytest.mark.parametrize(
    "argv, error, code",
    [
        (["eval", "--n", "5", "D{1,2} @"], ParseError, 2),
        (["eval", "--n", "5", "D{1}"], UnstableSplit, 2),
        (["eval", "--n", "5", "D{1,7}"], LabelOutOfRange, 2),
        (["eval", "--n", "5", "psi0"], LabelOutOfRange, 2),
        (["enumerate", "--n", "10"], TooLarge, 2),
        (["eval", "--n", "5", "D{1,2}"], DegreeMismatch, 3),
        # literals past the int() digit limit
        (["eval", "--n", "6", "D{" + "1" * 4400 + ",2}"], ParseError, 2),
        (["eval", "--n", "6", "psi1^" + "1" * 4400], ParseError, 2),
    ],
)
def test_error_exit_codes(argv, error, code, capsys):
    args = build_parser().parse_args(argv)
    with pytest.raises(error):
        args.func(args)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("built_by", ["mask", "make_split"])
def test_json_eval_reads_each_block_at_most_once(built_by, monkeypatch):
    # a split built from its mask computes its block once; make_split fills
    # it from the side it was given, so the whole chain never reads a mask
    tree = random_stable_tree(2000, random.Random(0))
    ground = tree.ground
    if built_by == "mask":
        splits = [Split(ground, e.block_mask) for e in tree.edges]
    else:
        splits = [make_split(ground, ground.labels_of(e.block_mask)) for e in tree.edges]
    factors = tuple(("divisor", s, 1) for s in splits) + (("psi", 1, ground.n - 3 - len(splits)),)
    calls = []
    labels_of = MarkedSet.labels_of

    def counted(self, mask):
        calls.append(mask)
        return labels_of(self, mask)

    monkeypatch.setattr(MarkedSet, "labels_of", counted)
    assert tree_from_splits(ground, splits) == tree
    out = json.loads(_json_output(_report(Expression(ground.n, factors))))
    assert len(calls) <= (len(splits) if built_by == "mask" else 0)
    monkeypatch.undo()
    assert out["stratum"]["splits"] == [list(ground.labels_of(e.block_mask)) for e in tree.edges]


def reference_json(report):
    # the renderer as one json.dumps of the whole payload, which fixes the
    # layout that _json_output writes piece by piece
    result = report.result
    blocks = [row.split.block for row in report.edges]
    payload = {
        "n": report.product.ground.n,
        "value": _digits(result.value),
        "sign": result.sign,
        "reason": result.reason,
        "stratum": None if report.decorated is None else {"splits": blocks},
        "edge_weights": [row.k for row in report.edges],
        "vertex_dims": [row.dim for row in report.vertices],
        "balanced": [],
        "factors": {"edges": [], "vertices": []},
    }
    if result.weighting is not None:
        payload["balanced"] = [
            {"edge": block, "halves": list(row.halves)} for block, row in zip(blocks, report.edges)
        ]
        payload["factors"] = {
            "edges": [_digits(row.factor) for row in report.edges],
            "vertices": [_digits(row.factor) for row in report.vertices],
        }
    return json.dumps(payload) + "\n"


def bench_gen():
    # the benchmark's seeded generators, imported from the checkout
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        import gen
    finally:
        sys.path.remove(bench)
    return gen


def test_report_at_large_n_builds_no_mask():
    # the evaluation path reads blocks as labels: a stratum-large tree keeps
    # its block_masks slot unset and no edge caches a block_mask
    gen = bench_gen()
    tree = gen.bushy_tree(2000, random.Random("ladder:2000"))
    bushy = gen.make_instance("random", tree, "ok", random.Random(1), psi_share=0.3, vary=False)
    report = cli._report(cli.parse(bushy.text, 2000))
    tree = report.decorated.tree
    assert report.result.reason == "ok" and tree.codim > 1000
    with pytest.raises(AttributeError):
        object.__getattribute__(tree, "block_masks")
    assert not any("block_mask" in vars(e) for e in tree.edges)


def test_json_output_matches_one_json_dumps():
    gen = bench_gen()
    tree = gen.bushy_tree(2000, random.Random("ladder:2000"))
    bushy = gen.make_instance("random", tree, "ok", random.Random(1), psi_share=0.3, vary=False)
    cases = [
        ("D{1,2} D{1,3}", 5, "empty"),
        ("D{1,2}^3 D{5,6,7}", 7, "no_balance"),
        (EXAMPLE, 15, "ok"),  # sign -1, labels up to 15
        (bushy.text, 2000, "ok"),
        # 5997! has more than _SPLIT_BITS bits
        (" ".join(f"psi{i}" for i in range(1, 5998)), 6000, "ok"),
    ]
    cases += [(inst.text, inst.n, inst.reason)
              for seed in (0, 7) for inst in gen.batch_small(seed, 200)]
    seen, bits = set(), 0
    for text, n, reason in cases:
        report = _report(parse(text, n))
        assert report.result.reason == reason
        seen.add((reason, report.result.sign))
        bits = max(bits, report.result.value.bit_length())
        assert _json_output(report) == reference_json(report)
    assert bits > _SPLIT_BITS
    assert seen >= {("empty", 1), ("no_balance", 1), ("ok", 1), ("ok", -1)}



@pytest.mark.parametrize("n_max, suite", [("-1", "all"), ("3", "flag"), ("2", "string")])
def test_check_with_no_n_in_range_is_an_error(n_max, suite, capsys):
    # no suite row runs, so there is no success to report
    assert main(["check", "--suite", suite, "--n-max", n_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", [["eval", "--format", "json"], ["eval"], ["explain"]])
def test_value_past_the_int_text_limit(command, capsys):
    # psi1 ... psi1997 on 2000 points is 1997!, over 5700 digits
    expr = " ".join(f"psi{i}" for i in range(1, 1998))
    assert main([*command, "--n", "2000", expr]) == 0
    out = capsys.readouterr().out
    if "json" in command:
        value = json.loads(out)["value"]
    else:
        value = out.rstrip("\n").rpartition("value = ")[2]
    assert int(Decimal(value)) == math.factorial(1997)


def test_split_digits_match_the_plain_conversion():
    # every value above _SPLIT_BITS takes the divide-and-conquer path
    big = -math.factorial(50000)  # 213,237 digits
    edge = 1 << _SPLIT_BITS
    rng = random.Random(41)
    values = [0, 1, -1, 10**4299, -(10**4300), edge - 1, edge, edge + 1, -edge - 1, big]
    values += [rng.getrandbits(_SPLIT_BITS + rng.randint(-64, 64)) for _ in range(4)]
    values += [(1 << bits) - 1 for bits in (_SPLIT_BITS * 2, _SPLIT_BITS * 2 + 1)]
    for value in values:
        assert _digits(value) == str(Decimal(value))


class TestExplain:
    def test_walkthrough(self, capsys):
        assert main(["explain", "--n", "15", EXAMPLE]) == 0
        out = capsys.readouterr().out
        assert "greedy balancing" in out
        assert "peel v0" in out
        assert "value = -36" in out

    def test_coloring_view(self, capsys):
        assert main(["explain", "--n", "15", "--coloring", EXAMPLE]) == 0
        out = capsys.readouterr().out
        assert "split vertex" in out
        assert "value = -36" in out

    def test_coloring_reports_empty(self, capsys):
        assert main(["explain", "--n", "5", "--coloring", "D{1,2} D{1,3}"]) == 0
        out = capsys.readouterr().out
        assert "incompatible with edge" in out
        assert "value = 0 (empty intersection)" in out

    def test_no_balance_narration(self, capsys):
        assert main(["explain", "--n", "7", "D{1,2}^3 D{5,6,7}"]) == 0
        assert "value = 0 (no balanced weighting)" in capsys.readouterr().out

    def test_psi_overload_names_the_vertex(self, capsys):
        # v0 carries leaves 1, 2 and one edge, so its dimension is 0
        assert main(["explain", "--n", "6", "D{1,2} psi1^2"]) == 0
        out = capsys.readouterr().out
        assert "psi weight 2 at v0 exceeds its dimension 0: no balanced weighting" in out
        assert "half-weight went negative" not in out
        assert out.endswith("value = 0 (no balanced weighting)\n")


class TestEnumerate:
    def test_codim_one_listing(self, capsys):
        assert main(["enumerate", "--n", "4", "--codim", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert sorted(lines) == ["2,3|1,4", "2,4|1,3", "3,4|1,2"]

    def test_count_only(self, capsys):
        assert main(["enumerate", "--n", "5", "--count-only"]) == 0
        assert capsys.readouterr().out.strip() == "26"

    def test_trivial_stratum_line(self, capsys):
        assert main(["enumerate", "--n", "4", "--codim", "0"]) == 0
        assert capsys.readouterr().out.strip() == "(trivial stratum)"

    def test_guard_exit_code(self, capsys):
        assert main(["enumerate", "--n", "10"]) == 2


class TestCheck:
    def test_string_suite(self, capsys):
        assert main(["check", "--suite", "string", "--n-max", "6"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_flag_suite(self, capsys):
        assert main(["check", "--suite", "flag", "--n-max", "5"]) == 0

    def test_expansion_suite(self, capsys, monkeypatch):
        # each case enumerates its decompositions once, for both the oracle's
        # signed sum and the term count
        calls = []
        enumerate_all = oracle.surviving_decompositions

        def counted(decorated):
            calls.append(decorated)
            return enumerate_all(decorated)

        monkeypatch.setattr(oracle, "surviving_decompositions", counted)
        assert main(["check", "--suite", "expansion", "--n-max", "5"]) == 0
        assert len(calls) == 2 * _EXPANSION_TRIALS  # n = 4 and n = 5

    def test_expansion_suite_balances_once_per_trial(self, capsys, monkeypatch):
        # the ratio check reuses the weighting evaluate() found
        calls = []
        balance = weights.balance

        def counted(decorated, trace=None):
            calls.append(decorated)
            return balance(decorated, trace)

        monkeypatch.setattr(weights, "balance", counted)
        assert main(["check", "--suite", "expansion", "--n-max", "5"]) == 0
        assert len(calls) == 2 * _EXPANSION_TRIALS  # n = 4 and n = 5

    def test_json_report(self, capsys):
        assert main(["check", "--suite", "string", "--n-max", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert all(row["failures"] == 0 for row in payload["results"])

    def test_guard(self, capsys):
        assert main(["check", "--suite", "flag", "--n-max", "9"]) == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "m0nbar", "eval", "--n", "4", "D{1,2}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "value = 1" in proc.stdout


def test_reader_closing_stdout_early_exits_1():
    # enumerate --n 8 writes about 2.7 MB, far more than a pipe buffers
    proc = subprocess.Popen(
        [sys.executable, "-m", "m0nbar", "enumerate", "--n", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"(trivial stratum)\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def run_with_closed_fd(fd, argv):
    """``python -m m0nbar *argv`` in a child whose file descriptor fd is
    closed before it starts, as the shell's ``>&-`` or ``<&-`` does."""
    return subprocess.run(
        [sys.executable, "-m", "m0nbar", *argv],
        capture_output=True,
        preexec_fn=lambda: os.close(fd),
        timeout=60,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--n", "4", "psi1"],
        ["explain", "--coloring", "--n", "5", "D{1,2}^2"],
        ["enumerate", "--n", "5"],
        ["check", "--suite", "string", "--n-max", "5"],
    ],
)
def test_closed_stdout_exits_1(argv):
    # like a reader that closes standard output early: exit 1, stderr empty
    proc = run_with_closed_fd(1, argv)
    assert proc.returncode == 1
    assert proc.stderr == b""


@pytest.mark.parametrize("command", ["eval", "explain"])
def test_closed_stdin_without_an_expression_exits_2(command):
    # a closed standard input reads as empty
    proc = run_with_closed_fd(0, [command, "--n", "4"])
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"error: at position 0: expected a factor\n"


def eval_in_600_mb(n, expr):
    """``m0nbar eval --n n expr`` in a child whose address space is capped."""
    resource = pytest.importorskip("resource")
    limit = 600 << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "m0nbar", "eval", "--n", str(n), expr],
        capture_output=True,
        text=True,
        preexec_fn=cap_memory,
        timeout=120,
    )


@pytest.mark.parametrize(
    "expr, code, message",
    [
        ("psi1", 3, "error: total degree 1 != n - 3"),
        ("psi1^99999997", 2, "error: out of memory"),
    ],
)
def test_huge_n_ends_in_an_exit_code(expr, code, message):
    # the ground set costs O(1) memory at any n, so the degree check runs;
    # a product that does need memory per label runs out and exits 2
    proc = eval_in_600_mb(100000000, expr)
    assert proc.returncode == code
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "n, expr, code, message",
    [
        (2**62, "psi1", 3, "error: total degree 1 != n - 3"),
        (2**63 - 2, "psi1", 3, "error: total degree 1 != n - 3"),
        (2**63, "psi1", 3, "error: total degree 1 != n - 3"),
        (10**30, "psi1", 3, "error: total degree 1 != n - 3"),
        # the degree matches, but no machine holds a list of 2^62 labels
        (2**62, f"psi1^{2**62 - 3}", 2, "error: out of memory"),
        (2**63, f"psi1^{2**63 - 3}", 2, "error: out of memory"),
    ],
)
def test_n_past_a_machine_word_ends_in_an_exit_code(n, expr, code, message):
    # n is never taken by len(), which fails past sys.maxsize
    proc = eval_in_600_mb(n, expr)
    assert proc.returncode == code
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@st.composite
def near_grammar(draw):
    """(n, text): a product that mostly follows the grammar, at n 3..9."""
    n = draw(st.integers(3, 9))
    # 0 and n + 1 are out of range, so draw them rarely
    label = st.sampled_from([*range(1, n + 1)] * 8 + [0, n + 1])
    factors, degree = [], 0
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            side = draw(st.lists(label, min_size=2, max_size=max(2, n - 2), unique=True))
            text = "D{" + ",".join(map(str, side)) + "}"
            if draw(st.booleans()):
                rest = [lab for lab in range(1, n + 1) if lab not in side]
                text += "|{" + ",".join(map(str, rest)) + "}"
        else:
            text = f"psi{draw(label)}"
        exponent = draw(st.integers(0, 4) | st.none())
        degree += 1 if exponent is None else exponent
        factors.append(text if exponent is None else f"{text}^{exponent}")
    # without a top-up almost every draw is a degree mismatch
    if degree < n - 3 and draw(st.booleans()):
        factors.append(f"psi{draw(st.integers(1, n))}^{n - 3 - degree}")
    text = draw(st.sampled_from([" ", "*", " * "])).join(factors)
    # one draw in three inserts a stray character
    stray = draw(st.sampled_from([""] * 24 + list("{}|^,*0D9 xp")))
    at = draw(st.integers(0, len(text)))
    text = text[:at] + stray + text[at:]
    return n, text


@settings(max_examples=250, derandomize=True, deadline=None)
@given(near_grammar())
def test_grammar_fuzz_through_main(case):
    n, text = case
    try:
        expr = parse(text, n)
    except (ParseError, LabelOutOfRange, UnstableSplit):
        pass
    else:
        assert parse(render(expr), n) == expr
    for command in (["eval", "--format", "text"], ["eval", "--format", "json"],
                    ["eval", "--format", "dot"], ["explain"], ["explain", "--coloring"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, "--n", str(n), text])
        assert code in (0, 2, 3)
        if code == 0:
            assert out.getvalue() and not err.getvalue()
        else:
            assert err.getvalue().startswith("error: ")


# grammar characters, ASCII digits, whitespace that str.isspace() accepts
# (ASCII, Latin-1, Unicode spaces and separators), and anything at all
_ANY_CHAR = (
    st.sampled_from("D{}|^,*psi0123456789 \t\n\x0b\x0c\r\x1c\x1f\x85\xa0\u2003\u2028\u3000")
    | st.characters()
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(3, 9), st.text(_ANY_CHAR, max_size=30))
def test_arbitrary_text_fuzz(n, text):
    try:
        parse(text, n)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)
    except (LabelOutOfRange, UnstableSplit):
        pass
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # "--" keeps a text that starts with '-' from reading as an option
        code = main(["eval", "--n", str(n), "--", text])
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().startswith("error: ")


@st.composite
def check_or_enumerate(draw):
    """argv for check or enumerate: small values that run, huge ones only past a guard."""
    if draw(st.booleans()):
        suite = draw(st.sampled_from(["expansion", "string", "flag", "all"]))
        # every single suite refuses an n past its guard; "all" caps itself
        # at the guards instead, so it would run them in full
        if suite != "all" and draw(st.integers(0, 4)) == 0:
            n_max = draw(st.integers(11, 10**30))
        else:
            n_max = draw(st.integers(-2, 6))
        return ["check", "--suite", suite, "--n-max", str(n_max),
                "--seed", str(draw(st.integers())),
                "--format", draw(st.sampled_from(["json", "text"]))]
    n = draw(st.integers(3, 7) | st.integers(10, 10**30))
    argv = ["enumerate", "--n", str(n)]
    if draw(st.booleans()):
        argv += ["--codim", str(draw(st.integers(-3, 6)))]
    if draw(st.booleans()):
        argv.append("--count-only")
    return argv


@settings(max_examples=150, derandomize=True, deadline=None)
@given(check_or_enumerate())
def test_check_and_enumerate_fuzz_through_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith("error: ")
        return
    assert not err.getvalue()
    if argv[0] == "check" or "--count-only" in argv:
        assert out.getvalue()
    else:
        # a --codim no stratum has lists nothing and still exits 0
        n = int(argv[2])
        codim = int(argv[4]) if "--codim" in argv else 0
        assert bool(out.getvalue()) == (0 <= codim <= n - 3)
