"""Expression grammar, output formats, and exit codes."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bench_gen
from m0nbar import cli, combinat, errors, oracle, weights
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
from m0nbar.trees import MarkedSet, Split, enumerate_stable_trees, make_split, tree_from_splits

EXAMPLE = "D{1,2}^2 D{3,4,5}^3 D{1,2,3,4,5,6,7,8}^4 D{11,12} D{13,14,15}^2"
PSI_EXAMPLE = "psi4 psi7^2 D{1,2}^2 D{3,4,5} D{1,2,3,4,5,6,7,8}^3 D{11,12} D{13,14,15}^2"

# Exact stdout of eval (text/json/dot), explain and explain --coloring for
# the two README examples, an empty meet (n=5) and a no_balance product
# (n=7), plus enumerate --n 5.  Refactors must leave these bytes alone.
PINNED = json.loads(Path(__file__).with_name("cli_stdout.json").read_text())

# Exact stdout of check --suite all --n-max 10: every suite up to its guard.
# The counts do not depend on the seed.
CHECK_ALL_TEXT = """\
expansion n=4: 300 checked, 0 discrepancies [ok]
expansion n=5: 300 checked, 0 discrepancies [ok]
expansion n=6: 300 checked, 0 discrepancies [ok]
expansion n=7: 300 checked, 0 discrepancies [ok]
expansion n=8: 300 checked, 0 discrepancies [ok]
string    n=3: 1 checked, 0 discrepancies [ok]
string    n=4: 4 checked, 0 discrepancies [ok]
string    n=5: 15 checked, 0 discrepancies [ok]
string    n=6: 56 checked, 0 discrepancies [ok]
string    n=7: 210 checked, 0 discrepancies [ok]
string    n=8: 792 checked, 0 discrepancies [ok]
string    n=9: 3003 checked, 0 discrepancies [ok]
string    n=10: 11440 checked, 0 discrepancies [ok]
flag      n=4: 6 checked, 0 discrepancies [ok]
flag      n=5: 325 checked, 0 discrepancies [ok]
flag      n=6: 27730 checked, 0 discrepancies [ok]
flag      n=7: 100000 checked, 0 discrepancies [ok]
all checks passed
"""
# the same rows as (suite, n, checked)
CHECK_ALL_ROWS = (
    [("expansion", n, 300) for n in range(4, 9)]
    + list(zip(["string"] * 8, range(3, 11), [1, 4, 15, 56, 210, 792, 3003, 11440]))
    + list(zip(["flag"] * 4, range(4, 8), [6, 325, 27730, 100000]))
)


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
        # a side holding label 1 is checked by its complement: the duplicate
        # and range verdicts still come first, then stability
        ("D{1,1,1,1}", 5, ParseError, 1, "duplicate label in block"),
        ("D{1,1,2}", 6, ParseError, 1, "duplicate label in block"),
        ("D{1,2,9}", 5, LabelOutOfRange, None, "label 9 outside 1..5"),
        ("D{1,2,3,4}", 5, UnstableSplit, None,
         "a split side has 4 of 5 marked points; both need >= 2"),
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
        # a factor that reads in part: the first violation, not the separator
        ("D{1,2}^x", 5, ParseError, 7, "expected an exponent"),
        ("psi1^2psi2", 5, ParseError, 6, "expected '*' or whitespace between factors"),
        ("psi1 *", 5, ParseError, 6, "expected a factor after '*'"),
        ("D{1,1}x", 5, ParseError, 1, "duplicate label in block"),
        pytest.param("psi9^" + "1" * 4400, 5, LabelOutOfRange, None,
                     "label 9 outside 1..5", id="range-before-long-exponent"),
        pytest.param("psi" + "1" * 4400, 5, ParseError, 3,
                     "a marked-point label after 'psi' has too many digits", id="long-psi-label"),
        pytest.param("psi1^" + "1" * 4400, 5, ParseError, 5,
                     "an exponent has too many digits", id="long-exponent"),
        pytest.param("D{1,2}|{3," + "1" * 4400 + ",5}", 5, ParseError, 10,
                     "a label has too many digits", id="long-label-second-block"),
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


@pytest.mark.parametrize(
    "text, n, factors",
    [
        ("D{01,2}", 5, [("divisor", (3, 4, 5), 1)]),
        ("D{2,1}", 5, [("divisor", (3, 4, 5), 1)]),
        ("D{1,2}|{3,4,5}^2", 5, [("divisor", (3, 4, 5), 2)]),
        ("D{1,2}\u3000psi3", 5, [("divisor", (3, 4, 5), 1), ("psi", 3, 1)]),
        ("\tpsi1^2 *psi2\n", 6, [("psi", 1, 2), ("psi", 2, 1)]),
    ],
)
def test_parse_spellings(text, n, factors):
    # leading zeros, unsorted labels, the written complement, Unicode spaces
    assert _outcome(text, n) == factors


def _outcome(text, n):
    """parse's factors, with each split as its block, or the error it raises."""
    try:
        expr = parse(text, n)
    except ParseError as exc:
        return ["ParseError", exc.position, exc.message]
    except (LabelOutOfRange, UnstableSplit) as exc:
        return [type(exc).__name__, str(exc)]
    return [(kind, payload.block if kind == "divisor" else payload, exponent)
            for kind, payload, exponent in expr.factors]


def _parse_corpus(rng, count):
    """(text, n): products at n 3..30 that mostly follow the grammar, half of them mutated."""
    pieces = ["D", "{", "}", "|", "^", ",", "*", "psi", "0", "9", " ", "\u3000", "x", "\n"]
    separators = [" "] * 8 + ["*", " * ", "\t", "\u3000", "", "**"]
    for _ in range(count):
        n = rng.randint(3, 30)
        factors = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.3:
                text = "psi" + str(rng.choice([0, n + 1] if rng.random() < 0.05 else range(1, n + 1)))
            else:
                stable = n > 3 and rng.random() < 0.9
                side = rng.sample(range(1, n + 1), rng.randint(2, n - 2) if stable else 1)
                labels = [str(lab) for lab in side]
                if rng.random() < 0.05:
                    labels.append(rng.choice(labels + ["0", str(n + 1), "0" + labels[0]]))
                text = "D{" + ",".join(labels) + "}"
                if rng.random() < 0.3:
                    rest = [lab for lab in range(1, n + 1) if lab not in side]
                    if rng.random() < 0.2:
                        rest.pop()
                    text += "|{" + ",".join(map(str, rest or side)) + "}"
            if rng.random() < 0.5:
                text += "^" + str(rng.randint(0, 4))
            factors.append(text)
        text = "".join(f + rng.choice(separators) for f in factors)
        if rng.random() < 0.8:
            text = text.rstrip()
        for _ in range(rng.choice([0, 0, 0, 1, 2, 3])):
            at = rng.randint(0, len(text))
            cut = at + rng.randint(0, 3)
            piece = "7" * 4400 if rng.random() < 0.02 else rng.choice(pieces)
            text = text[:at] + rng.choice([piece, "", text[at:cut] * 2]) + text[cut:]
        yield text, n


def test_parse_outcomes_are_pinned():
    # factors or error of 20,000 seeded products: a change to what parse
    # accepts, or to an error's class, position or message, moves the digest
    digest = hashlib.sha256()
    for text, n in _parse_corpus(random.Random(20), 20_000):
        digest.update(repr(_outcome(text, n)).encode() + b"\n")
    assert digest.hexdigest() == "bcfffc73721b660ff1a555523c8423f5b57765267db5b2dfa256ed997a7fbdfa"


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


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("error", list(_subclasses(errors.M0nbarError)),
                         ids=lambda error: error.__name__)
def test_every_package_error_maps_to_an_exit_code(error, capsys, monkeypatch):
    # main's one arm covers the whole hierarchy: exit 3 for a degree
    # mismatch, exit 2 for every other class, the message on stderr
    g5 = MarkedSet.range(5)
    args = {
        errors.IncompatibleSplits: (make_split(g5, {1, 3}), make_split(g5, {1, 2})),
        errors.EdgeConditionFails: (make_split(g5, {1, 2}),),
        errors.ParseError: (4, "expected a factor"),
    }.get(error, ("raised on purpose",))
    exc = error(*args)

    def raising(expr):
        raise exc

    monkeypatch.setattr(cli, "_report", raising)
    assert main(["eval", "--n", "5", "psi1 psi2"]) == (3 if error is DegreeMismatch else 2)
    assert capsys.readouterr() == ("", f"error: {exc}\n")


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
    # layout that _json_output writes piece by piece; it reads the tables
    result, decorated = report.result, report.decorated
    tree = None if decorated is None else decorated.tree
    blocks = [] if tree is None else [e.block for e in tree.edges]
    payload = {
        "n": report.product.ground.n,
        "value": _digits(result.value),
        "sign": result.sign,
        "reason": result.reason,
        "stratum": None if tree is None else {"splits": blocks},
        "edge_weights": [] if tree is None else list(decorated.edge_weight.values()),
        "vertex_dims": [] if tree is None else list(tree.dims),
        "balanced": [],
        "factors": {"edges": [], "vertices": []},
    }
    if result.weighting is not None:
        payload["balanced"] = [
            {"edge": block, "halves": list(halves)}
            for block, halves in zip(blocks, result.weighting.halves)
        ]
        payload["factors"] = {
            "edges": [_digits(f) for f in result.edge_factors],
            "vertices": [_digits(f) for f in result.vertex_factors],
        }
    return json.dumps(payload) + "\n"


def test_report_at_large_n_builds_no_mask():
    # the evaluation path reads blocks as labels: no edge of a stratum-large
    # tree caches a block_mask, and the tree keeps no keyed copy of its edges
    gen = bench_gen()
    tree = gen.bushy_tree(2000, random.Random("ladder:2000"))
    bushy = gen.make_instance("random", tree, "ok", random.Random(1), psi_share=0.3, vary=False)
    report = cli._report(cli.parse(bushy.text, 2000))
    tree = report.decorated.tree
    assert report.result.reason == "ok" and tree.codim > 1000
    assert not any("block_mask" in vars(e) for e in tree.edges)
    assert not hasattr(tree, "splits") and not hasattr(tree, "block_masks")


def test_report_and_json_output_leave_the_leaf_view_unbuilt():
    # evaluation and the json renderer read the leaf table; only text, dot
    # and explain read the per-vertex leaf view, which dot's read fills
    report = _report(parse(bushy_stratum().text, 2000))
    _json_output(report)
    tree = report.decorated.tree
    assert report.result.reason == "ok" and tree._vertex_leaves is None
    cli._dot_output(report)
    assert tree._vertex_leaves is tree.vertex_leaves


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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int text limit")
@pytest.mark.parametrize("limit", [None, 640, 0], ids=["default", "floor", "unlimited"])
def test_digits_across_the_str_boundary(limit):
    # values below 2^2000 print with str(), which no digit limit refuses;
    # from 2^2000 on they take the Decimal paths
    values = [1, 2**1999, 2**2000 - 1, 2**2000, 2**2001]
    values = [0] + values + [-v for v in values]
    saved = sys.get_int_max_str_digits()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        for value in values:
            assert _digits(value) == str(Decimal(value))
    finally:
        sys.set_int_max_str_digits(saved)


@contextlib.contextmanager
def collector(enabled):
    """The cyclic collector switched on or off, and the caller's state after."""
    saved = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if saved else gc.disable)()


def bushy_stratum():
    # bench/gen.py's bushy stratum at n = 2000, balanced ("ok")
    gen = bench_gen()
    tree = gen.bushy_tree(2000, random.Random("ladder:2000"))
    return gen.make_instance("random", tree, "ok", random.Random(1), psi_share=0.3, vary=False)


def test_eval_path_makes_no_reference_cycles(capsys):
    # main pauses the cyclic collector, which is free only while the report,
    # every eval format and explain leave no cycle for a collection to find
    bushy = bushy_stratum()
    cases = [(bushy.text, bushy.n), ("D{1,2}^3 D{5,6,7}", 7), ("D{1,2} D{1,3}", 5)]
    cases += [(inst.text, inst.n) for inst in bench_gen().batch_small(3, 50)]
    reasons = set()
    gc.collect()
    with collector(False):
        for text, n in cases:
            report = _report(parse(text, n))
            reasons.add(report.result.reason)
            for render in cli._RENDERERS.values():
                render(report)
            cli._cmd_explain(argparse.Namespace(n=n, expr=text, coloring=n <= 60))
        assert gc.collect() == 0
    capsys.readouterr()
    assert reasons == {"ok", "no_balance", "empty"}


def traced_peak(call):
    """What call() returns, and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def caterpillar_stratum():
    # bench/gen.py's maximal caterpillar at n = 800, whose json output is
    # about 3 MB
    gen = bench_gen()
    rng = random.Random("caterpillar:800")
    return gen.make_instance("caterpillar", gen.caterpillar_tree(800, rng), "ok", rng, vary=False)


@pytest.mark.parametrize("stratum", [bushy_stratum, caterpillar_stratum],
                         ids=["bushy", "caterpillar"])
def test_eval_working_set_is_proportional_to_its_output(stratum, capsys):
    # an eval holds its stratum's tables and its output, nothing that grows
    # faster; the first call loads what a process keeps for every call
    inst = stratum()
    argv = ["eval", "--n", str(inst.n), "--format", "json", inst.text]
    assert main(argv) == 0
    out = capsys.readouterr().out
    status, peak = traced_peak(lambda: main(argv))
    assert status == 0 and capsys.readouterr().out == out
    assert peak < 16 * len(out)


class TestCollectorPause:
    # main runs each command with the cyclic collector paused and hands the
    # caller's state back however the command ends

    @pytest.fixture
    def seen(self, monkeypatch):
        # the collector's state while the command parses its expression
        states = []
        parse = cli.parse

        def recorded(text, n):
            states.append(gc.isenabled())
            return parse(text, n)

        monkeypatch.setattr(cli, "parse", recorded)
        return states

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("argv, code", [
        (["eval", "--n", "5", "D{1,2}^2"], 0),
        (["eval", "--n", "5", "D{1,2"], 2),  # parse error
        (["eval", "--n", "5", "D{1,2}"], 3),  # degree mismatch
    ])
    def test_state_after_an_exit_code(self, argv, code, enabled, seen, capsys):
        with collector(enabled):
            assert main(argv) == code
            assert gc.isenabled() is enabled
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_after_an_escaping_exception(self, enabled, seen, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with collector(enabled):
            with pytest.raises(BrokenPipeError):
                main(["eval", "--n", "5", "D{1,2}^2"])
            assert gc.isenabled() is enabled
        assert seen == [False]

    def test_state_after_a_usage_error(self, capsys):
        with collector(True):
            with pytest.raises(SystemExit):
                main(["eval", "--n", "2", "psi1"])
            assert gc.isenabled()

    def test_eval_at_n_2000_runs_no_collection(self, capsys):
        bushy = bushy_stratum()
        generations = []

        def hook(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        argv = ["eval", "--format", "json", "--n", str(bushy.n), bushy.text]
        with collector(True):
            # an empty young generation, so that what the command leaves
            # behind does not start a collection as soon as it returns
            gc.collect()
            gc.callbacks.append(hook)
            try:
                status = main(argv)
            finally:
                gc.callbacks.remove(hook)
        assert status == 0 and generations == []
        assert json.loads(capsys.readouterr().out)["reason"] == "ok"


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
        # a product with no divisor has no steps: --coloring adds nothing
        assert main(["explain", "--coloring", "--n", "6", "psi1^3"]) == 0
        out = capsys.readouterr().out
        assert main(["explain", "--n", "6", "psi1^3"]) == 0
        assert out == capsys.readouterr().out
        assert "assembling" not in out

    def test_names_each_divisor_once(self, capsys, monkeypatch):
        # the steps, the peel and the edge lines share one block|complement
        # text per divisor; EXAMPLE has 5 divisors
        calls = []
        to_text = Split.__str__

        def counted(self):
            calls.append(self)
            return to_text(self)

        monkeypatch.setattr(Split, "__str__", counted)
        for command in (["explain", "--coloring"], ["explain"]):
            calls.clear()
            assert main([*command, "--n", "15", EXAMPLE]) == 0
            assert "value = -36" in capsys.readouterr().out
            assert len(calls) == 5

    def test_coloring_reports_empty(self, capsys):
        assert main(["explain", "--n", "5", "--coloring", "D{1,2} D{1,3}"]) == 0
        out = capsys.readouterr().out
        assert "incompatible with edge" in out
        assert "value = 0 (empty intersection)" in out

    def test_vertex_count_agrees_in_number(self, capsys):
        assert main(["explain", "--n", "6", "psi1^3"]) == 0
        assert "\nstratum has 1 internal vertex:\n" in capsys.readouterr().out
        assert main(["explain", "--n", "6", "D{1,2} psi1^2"]) == 0
        assert "\nstratum has 2 internal vertices:\n" in capsys.readouterr().out

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

    def test_coloring_on_random_strata_is_pinned(self, capsys):
        # random decorated strata at n = 8..40, factors shuffled, and for each
        # one of codim >= 2 a twin whose last divisor crosses an edge of the
        # others, with the same exponent, so the witness line is printed
        rng = random.Random(19)
        digest = hashlib.sha256()
        for n in range(8, 41):
            for _ in range(3):
                decorated = oracle.random_decorated_tree(n, rng)
                factors = [("divisor", e, k + 1) for e, k in decorated.edge_weight.items()]
                factors += [("psi", lab, w) for lab, w in decorated.psi_weight.items()]
                rng.shuffle(factors)
                products = [factors]
                at = [i for i, (kind, _, _) in enumerate(factors) if kind == "divisor"]
                if len(at) >= 2:
                    edge = factors[rng.choice(at[:-1])][1]
                    inside = rng.choice(edge.block)
                    outside = rng.choice([lab for lab in edge.complement if lab != 1])
                    crossing = make_split(edge.ground, {inside, outside})
                    twin = factors.copy()
                    twin[at[-1]] = ("divisor", crossing, factors[at[-1]][2])
                    products.append(twin)
                for product in products:
                    text = render(Expression(n, tuple(product)))
                    assert main(["explain", "--coloring", "--n", str(n), text]) == 0
                    digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == (
            "b153124ec7bf3b74b4319ed4548e1a008703e7d98cade3a989eebcf8ec016c2d")


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

    def test_counts(self, capsys):
        for n, count in zip(range(4, 10), (4, 26, 236, 2752, 39208, 660032)):
            assert main(["enumerate", "--n", str(n), "--count-only"]) == 0
            assert capsys.readouterr() == (f"{count}\n", "")

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_listing_is_the_tree_listing(self, n, capsys):
        # the listing read off block masks against one written from the
        # enumerated trees, at every codimension and one past each end
        trees = list(enumerate_stable_trees(n))
        for codim in (None, *range(-1, n - 1)):
            argv = ["enumerate", "--n", str(n)] + ([] if codim is None else ["--codim", str(codim)])
            assert main(argv) == 0
            lines = [" ; ".join(map(str, t.edges)) if t.edges else "(trivial stratum)"
                     for t in trees if codim in (None, t.codim)]
            assert capsys.readouterr() == ("".join(line + "\n" for line in lines), "")

    @pytest.mark.parametrize("argv, digest", [
        (["--n", "7"], "9cd1b261b6d4c030dbc3bef0540084cf02ab701e52034861f31bed58ec6fe0c1"),
        (["--n", "8", "--codim", "2"],
         "99462bf47ae2a64c65b98e65040efec819c1a00f6bdc1467234e967facadc31f"),
    ])
    def test_pinned_listing(self, argv, digest, capsys):
        # sha256 of the whole listing, so the order of strata and of each
        # stratum's splits is pinned along with their text
        assert main(["enumerate", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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
        # each trial balances once, inside evaluate(); the oracle never calls balance
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

    def test_all_text_bytes(self, capsys):
        assert main(["check", "--suite", "all", "--n-max", "10"]) == 0
        assert capsys.readouterr() == (CHECK_ALL_TEXT, "")

    @pytest.mark.parametrize("seed", [0, 3])
    def test_all_json_bytes(self, seed, capsys):
        argv = ["check", "--suite", "all", "--n-max", "10", "--seed", str(seed), "--format", "json"]
        assert main(argv) == 0
        rows = [{"suite": suite, "n": n, "checked": checked, "failures": 0}
                for suite, n, checked in CHECK_ALL_ROWS]
        payload = {"suite": "all", "n_max": 10, "seed": seed, "results": rows, "ok": True}
        assert capsys.readouterr() == (json.dumps(payload, indent=2) + "\n", "")

    @pytest.mark.parametrize("suite, guard", [("expansion", 8), ("string", 10), ("flag", 7)])
    def test_guard_is_the_largest_n_a_suite_runs(self, suite, guard, capsys):
        # alone, a suite prints its rows of check --suite all
        assert main(["check", "--suite", suite, "--n-max", str(guard)]) == 0
        lines = CHECK_ALL_TEXT.splitlines(keepends=True)
        rows = "".join(line for line in lines if line.startswith(suite + " "))
        assert capsys.readouterr() == (rows + "all checks passed\n", "")
        assert main(["check", "--suite", suite, "--n-max", str(guard + 1)]) == 2
        message = f"error: suite '{suite}' is guarded at n <= {guard}, got --n-max {guard + 1}\n"
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("suite, guard", [("expansion", 8), ("string", 10), ("flag", 7)])
    def test_working_set_at_the_guard_is_under_1_mib(self, suite, guard, capsys):
        # no suite lists all its cases, so its traced peak does not grow with
        # their number (11,440 at string's guard); the first call imports
        # the oracle and fills its caches
        argv = ["check", "--suite", suite, "--n-max", str(guard)]
        assert main(argv) == 0
        status, peak = traced_peak(lambda: main(argv))
        assert status == 0
        assert peak < 1 << 20

    def test_enumeration_working_set_at_the_guard_is_under_64_mib(self, capsys):
        # the enumerator lists the families inside each block once per call
        # and keeps them until the listing ends: about 33 MiB at n = 9
        argv = ["enumerate", "--n", "9", "--count-only"]
        assert main(argv) == 0
        status, peak = traced_peak(lambda: main(argv))
        assert (status, capsys.readouterr()) == (0, ("660032\n" * 2, ""))
        assert peak < 64 << 20

    def test_expansion_guard_stays_within_the_oracle_budget(self):
        # random_decorated_tree spends at most the stratum's dimension, at
        # most n - 3, on edge weights, so check never meets BudgetExceeded
        assert cli._EXPANSION_LIMIT - 3 <= oracle.EXPANSION_BUDGET

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "suite, name, fake, rows",
        [
            ("string", "string_eq_psi_integral", lambda real: lambda n, e: real(n, e) + 1,
             [(3, 1, 1), (4, 4, 4), (5, 15, 15), (6, 56, 56)]),
            ("flag", "_blocks_meet", lambda real: lambda masks1, masks2: True,
             [(4, 6, 3), (5, 325, 255), (6, 27730, 25920)]),
            ("expansion", "surviving_decompositions", lambda real: lambda decorated: [],
             [(4, 300, 300), (5, 300, 294), (6, 300, 258)]),
        ],
    )
    def test_discrepancies_exit_4(self, suite, name, fake, rows, fmt, capsys, monkeypatch):
        # a wrong reference makes the suite fail; rows are (n, checked, failures)
        monkeypatch.setattr(oracle, name, fake(getattr(oracle, name)))
        assert main(["check", "--suite", suite, "--n-max", "6", "--format", fmt]) == 4
        if fmt == "json":
            results = [{"suite": suite, "n": n, "checked": checked, "failures": failures}
                       for n, checked, failures in rows]
            payload = {"suite": suite, "n_max": 6, "seed": 0, "results": results, "ok": False}
            expected = json.dumps(payload, indent=2) + "\n"
        else:
            expected = "".join(
                f"{suite.ljust(9)} n={n}: {checked} checked, {failures} discrepancies [FAIL]\n"
                for n, checked, failures in rows
            ) + "DISCREPANCIES FOUND\n"
        assert capsys.readouterr() == (expected, "")

    @pytest.mark.parametrize("mutant, failing", [("multinomial", {6: 3}), ("sign", {7: 5, 8: 5})])
    def test_expansion_suite_catches_a_wrong_value(self, mutant, failing, capsys, monkeypatch):
        # mutants on the evaluator's side, with which the oracle shares
        # nothing: every multinomial an m0nbar module calls by name doubles
        # at a top of 3 or more with two or more nonzero parts, or the value
        # flips sign at an odd total edge weight of 3 or more
        if mutant == "multinomial":
            real = combinat.multinomial

            def doubled(top, parts):
                parts = list(parts)
                value = real(top, parts)
                return 2 * value if top >= 3 and sum(p > 0 for p in parts) >= 2 else value

            for name, module in list(sys.modules.items()):
                if name.partition(".")[0] == "m0nbar" and hasattr(module, "multinomial"):
                    monkeypatch.setattr(module, "multinomial", doubled)
        else:
            real = cli.evaluate

            def flipped(decorated):
                result = real(decorated)
                k = sum(decorated.edge_weight.values())
                return result._replace(value=-result.value) if k % 2 and k >= 3 else result

            monkeypatch.setattr(cli, "evaluate", flipped)
        argv = ["check", "--suite", "expansion", "--n-max", "8", "--format", "json"]
        assert main(argv) == 4
        rows = json.loads(capsys.readouterr().out)["results"]
        assert {r["n"]: r["failures"] for r in rows if r["failures"]} == failing

    def test_expansion_suite_compares_the_halves(self, capsys, monkeypatch):
        # each surviving term with every edge's halves swapped keeps its
        # value, its ratio and its count; only the halves tell it apart
        real = oracle.surviving_decompositions
        differ = dict.fromkeys(range(4, 7), 0)

        def swapped(decorated):
            terms = real(decorated)
            faked = [([(hc, hp) for hp, hc in halves], c) for halves, c in terms]
            differ[decorated.tree.ground.n] += faked != terms
            return faked

        monkeypatch.setattr(oracle, "surviving_decompositions", swapped)
        assert main(["check", "--suite", "expansion", "--n-max", "6", "--format", "json"]) == 4
        rows = json.loads(capsys.readouterr().out)["results"]
        assert [(r["n"], r["failures"]) for r in rows] == list(differ.items())
        assert differ[5] and differ[6]

    def test_expansion_suite_draws_from_one_stream(self, capsys, monkeypatch):
        # one random.Random(seed) runs on from one n to the next
        drawn = []
        draw = oracle.random_decorated_tree

        def recorded(n, rng, *rest):
            drawn.append(draw(n, rng, *rest))
            return drawn[-1]

        monkeypatch.setattr(oracle, "random_decorated_tree", recorded)
        assert main(["check", "--suite", "expansion", "--n-max", "6", "--seed", "3"]) == 0
        rng = random.Random(3)
        assert drawn == [draw(n, rng) for n in range(4, 7) for _ in range(_EXPANSION_TRIALS)]

    def test_flag_suite_passes_the_seed_at_every_n(self, capsys, monkeypatch):
        calls = []
        certify = oracle.flag_certify

        def recorded(n, sample_limit=None, seed=0):
            calls.append((n, seed))
            return certify(n, sample_limit, seed)

        monkeypatch.setattr(oracle, "flag_certify", recorded)
        assert main(["check", "--suite", "flag", "--n-max", "6", "--seed", "11"]) == 0
        assert calls == [(4, 11), (5, 11), (6, 11)]


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
        # the complement of a side holding label 1 needs the labels as a set
        ("D{1,2}", 2, "error: out of memory"),
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
        (2**63, "D{1,2}", 2, "error: out of memory"),
        (10**30, "D{1,2}", 2, "error: out of memory"),
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
