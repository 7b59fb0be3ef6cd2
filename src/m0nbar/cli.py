"""Command-line front end.

Grammar for product expressions::

    expr    := factor (("*" | WS) factor)*
    factor  := divisor | psi
    divisor := "D" "{" labels "}" ("|" "{" labels "}")? ("^" NAT)?
    psi     := "psi" NAT ("^" NAT)?
    labels  := NAT ("," NAT)*

The number of marked points is always the explicit --n flag, never
inferred, because D{1,2} names different divisors for different n.  When
the optional second block is written it must be the exact complement of
the first.  parse reads each factor, with the separator after it, in one
regex match, then checks its values; a step-by-step reader runs only to
name the first violation of a factor that fails the match or a check.

Exit codes: 0 success (a value of 0 is a success), 1 the reader closed
standard output before the output was written, 2 parse or usage error,
including input too large for this machine's memory and every package
error (M0nbarError) but DegreeMismatch, 3 degree mismatch, 4 oracle
discrepancy.
"""

from __future__ import annotations

import argparse
import collections
import decimal
import gc
import json
import operator
import os
import re
import sys

from .combinat import multinomial
from .errors import DegreeMismatch, EdgeConditionFails, M0nbarError, ParseError, TooLarge
from .intersect import EMPTY, BoundaryProduct, color_for_divisor, product_to_decorated
from .trees import (MarkedSet, Split, _complement, _families, _require_labels, _require_stable,
                    _split_of_block, _split_table, ordered_splits, tree_from_splits)
from .weights import EvalResult, _price, balance, evaluate

_NAT = re.compile(r"[0-9]+")
# a factor and its separator: a psi label (group 1) or a divisor's blocks
# (2, 3), the exponent (4), the separator (5) with its '*' (6).  The
# separator is empty only at the end of the text or where the factor runs
# into the next.  A block is any run of digits and commas; parse's scan
# refuses an empty label.
_FACTOR = re.compile(
    r"(?:psi([0-9]+)|D\{([0-9,]+)\}(?:\|\{([0-9,]+)\})?)(?:\^([0-9]+))?(\s*(\*)?\s*)"
)
# json's C scanner reads "[1,2,...]" about twice as fast as int() per label;
# it refuses leading zeros, which int() reads
_scan_json = json.JSONDecoder().scan_once

# the expansion and string suites' guards, read only by _cmd_check's table
_EXPANSION_LIMIT = 8
_STRING_LIMIT = 10
_FLAG_SAMPLE = 100_000
_EXPANSION_TRIALS = 300


class Expression(collections.namedtuple("Expression", "n factors")):
    """A parsed product: the marked-point count and the factor sequence.

    Each factor is a (kind, payload, exponent) triple: ("divisor", Split, k)
    or ("psi", label, k).
    """

    __slots__ = ()


def parse(text: str, n: int) -> Expression:
    """Parse an expression against the grammar above.

    Each factor and its separator are one match of _FACTOR, whose groups
    are read in one call; only the value checks run on them.  An empty
    separator before the end of the text is a factor that runs into the
    next.  A divisor's labels, read by json's scanner and sorted,
    canonicalize it at once, so two spellings of one divisor compare equal
    and no mask is built.  A side holding label 1 is checked and
    complemented by one set difference from 1..n: it holds distinct labels
    of 1..n exactly when the difference has n - len(side) labels, and the
    difference is the split's block.  Any other side is checked by its set
    of labels and its smallest and largest.  One call into trees makes the
    Split of a checked block.  A factor that fails the match or a check
    goes to _violation, which reads it step by step only to name the first
    violation.  Raises ParseError with a position on grammar violations,
    LabelOutOfRange for labels outside 1..n, and UnstableSplit for a split
    with a side smaller than two.
    """
    ground = MarkedSet.range(n)
    size = len(text)
    factors: list[tuple[str, object, int]] = []
    pos = size - len(text.lstrip())
    if pos == size:
        raise ParseError(pos, "expected a factor")
    while True:
        m = _FACTOR.match(text, pos)
        if m is None:
            raise _violation(text, pos, n)
        psi, first, second, power, separator, star = m.groups()
        end = m.end()
        if not separator and end < size:  # a factor that runs into the next
            raise _violation(text, pos, n)
        try:
            if psi:
                kind, payload = "psi", int(psi)
                valid = 1 <= payload <= n
            else:
                kind = "divisor"
                try:
                    payload = _scan_json("[" + first + "]", 0)[0]
                except (StopIteration, ValueError):  # an empty label, or a leading zero
                    payload = list(map(int, first.split(",")))
                payload.sort()
                if payload[0] == 1:
                    # each repeated label and each label past n leaves the
                    # complement, the canonical block, one label short
                    block = _complement(payload, ground)
                    valid = len(block) + len(payload) == n
                else:
                    block = tuple(payload)
                    valid = len(set(block)) == len(block) and block[0] > 0 and block[-1] <= n
                if second and valid:
                    # the two blocks hold each label of 1..n once between them
                    both = payload + list(map(int, second.split(",")))
                    valid = sorted(both) == list(range(1, n + 1))
            exponent = int(power) if power else 1
        except ValueError:  # an empty label, or a literal past sys.get_int_max_str_digits()
            valid = False
        if not valid:
            raise _violation(text, pos, n)
        if kind == "divisor":
            if not 2 <= len(payload) <= n - 2:
                # the side as written is what an unstable split's error counts
                _require_stable(len(payload), n)
            payload = _split_of_block(ground, block)
        factors.append((kind, payload, exponent))
        if end == size:
            if star:
                raise ParseError(size, "expected a factor after '*'")
            return Expression(n, tuple(factors))
        pos = end


def _violation(text: str, pos: int, n: int) -> ParseError:
    """Read the factor at pos step by step and raise its first violation.

    parse calls this only for a factor that it could not take whole, so
    when the factor itself reads, the separator after it is the violation,
    and that error is returned for the caller to raise.
    """
    side = None
    if text.startswith("psi", pos):
        label, pos = _nat(text, pos + 3, "a marked-point label after 'psi'")
        _require_labels(n, (label,))
    elif text.startswith("D", pos):
        side, pos = _block(text, pos + 1, n)
        if text.startswith("|", pos):
            other, q = _block(text, pos + 1, n)
            if len(side) + len(other) != n or not set(side).isdisjoint(other):
                raise ParseError(pos + 1, "second block must be the exact complement of the first")
            pos = q
    else:
        raise ParseError(pos, "expected 'D{...}' or 'psiK'")
    if text.startswith("^", pos):
        pos = _nat(text, pos + 1, "an exponent")[1]
    if side is not None:
        _require_stable(len(side), n)
    return ParseError(pos, "expected '*' or whitespace between factors")


def _nat(text: str, p: int, what: str) -> tuple[int, int]:
    m = _NAT.match(text, p)
    if not m:
        raise ParseError(p, f"expected {what}")
    try:
        return int(m.group()), m.end()
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ParseError(p, f"{what} has too many digits") from None


def _block(text: str, p: int, n: int) -> tuple[list[int], int]:
    """The labels of the block whose '{' is at p, ascending, and the position after it."""
    if not text.startswith("{", p):
        raise ParseError(p, "expected '{'")
    labels, q = [], p
    while not labels or text.startswith(",", q):
        label, q = _nat(text, q + 1, "a label")
        labels.append(label)
    if not text.startswith("}", q):
        raise ParseError(q, "expected '}' or ','")
    ordered = sorted(labels)
    if len(set(ordered)) != len(ordered):
        raise ParseError(p, "duplicate label in block")
    _require_labels(n, labels)
    return ordered, q + 1


def render(expr: Expression) -> str:
    """Canonical text for an expression; reparsing gives an equal Expression."""
    parts = []
    for kind, payload, exponent in expr.factors:
        if kind == "psi":
            piece = f"psi{payload}"
        else:
            piece = "D{" + ",".join(str(x) for x in payload.block) + "}"
        if exponent != 1:
            piece += f"^{exponent}"
        parts.append(piece)
    return " ".join(parts)


def to_boundary_product(expr: Expression) -> BoundaryProduct:
    """Collect the factor sequence into exponent maps; X^0 factors drop out."""
    ground = MarkedSet.range(expr.n)
    divisors: dict[Split, int] = {}
    psi: dict[int, int] = {}
    for kind, payload, exponent in expr.factors:
        if exponent == 0:
            continue
        if kind == "psi":
            psi[payload] = psi.get(payload, 0) + exponent
        else:
            divisors[payload] = divisors.get(payload, 0) + exponent
    return BoundaryProduct(ground, divisors, psi)


# Below this many bits _digits prints with str(): 2^2000 has 603 digits,
# under the 640-digit floor of sys.set_int_max_str_digits, so str() never
# refuses such a value, and it is the fastest conversion.
_STR_BITS = 2000
# Above this many bits _digits splits the value: the conversions tie near
# 24,000 bits, and at 2^15 the split takes 1.14 ms to Decimal's 1.76 ms
# (CPython 3.11, one Xeon core).  No value the benchmark times has 2^15 bits.
_SPLIT_BITS = 1 << 15
# the size of the pieces a split conversion converts directly
_PIECE_BITS = 1 << 12


def _digits(value: int) -> str:
    # Decimal prints any number of digits exactly; str(int) refuses more than
    # sys.get_int_max_str_digits() of them.  Both convert in time quadratic
    # in the digits, so larger values split first.
    bits = value.bit_length()
    if bits <= _STR_BITS:
        return str(value)
    if bits <= _SPLIT_BITS:
        return str(decimal.Decimal(value))
    if value < 0:
        return "-" + _digits(-value)
    return str(_split_decimal(value))


def _split_decimal(value: int) -> decimal.Decimal:
    """An exact Decimal equal to a non-negative int, by divide and conquer.

    The value is cut at 2^(_PIECE_BITS * 2^j) into a high and a low half;
    each half is converted the same way, one level down, and the halves are
    recombined as high * 2^(_PIECE_BITS * 2^j) + low in an exact context,
    where libmpdec multiplies large numbers in sub-quadratic time.  The
    powers are squared once each.  This is the method of CPython 3.12's
    int-to-decimal conversion (Lib/_pylong.py).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        # powers[j] == 2 ** (_PIECE_BITS << j)
        powers = [decimal.Decimal(1 << _PIECE_BITS)]
        while _PIECE_BITS << len(powers) < value.bit_length():
            powers.append(powers[-1] * powers[-1])

        def convert(v: int, j: int) -> decimal.Decimal:
            # v < 2 ** (_PIECE_BITS << (j + 1))
            if j < 0:
                return decimal.Decimal(v)
            shift = _PIECE_BITS << j
            high = v >> shift
            return convert(high, j - 1) * powers[j] + convert(v - (high << shift), j - 1)

        return convert(value, len(powers) - 1)


# One product's evaluation.  ``decorated`` is None when the strata do not
# meet.  Every output format reads the tables these hold: the tree's
# ``edges``, ``ends`` and ``dims`` (text and dot also its ``vertex_leaves``),
# the decoration's ``edge_weight`` and psi weights (``psi_weight`` by label,
# ``vertex_psi`` by vertex), and the result's halves and factors, which are
# empty when no balanced weighting exists.
_Report = collections.namedtuple("_Report", "product decorated result")


def _report(expr: Expression, trace: list | None = None) -> _Report:
    # evaluate's steps, with balance's peel steps collected in trace if given
    product = to_boundary_product(expr)
    decorated = product_to_decorated(product)
    if decorated is EMPTY:
        return _Report(product, None, EvalResult.empty_intersection())
    return _Report(product, decorated, _price(decorated, balance(decorated, trace)))


def _verdict(report: _Report) -> list[str]:
    if report.decorated is None:
        return ["value = 0 (empty intersection)"]
    result = report.result
    if result.weighting is None:
        return ["value = 0 (no balanced weighting)"]
    return [f"sign = {'+1' if result.sign > 0 else '-1'}", f"value = {_digits(result.value)}"]


def _text_output(report: _Report) -> str:
    lines = [f"n = {report.product.ground.n}"]
    decorated, result = report.decorated, report.result
    if decorated is not None:
        tree = decorated.tree
        lines.append(f"stratum: codim {len(tree.edges)}, dim {tree.dim}")
        for v, (leaves, dim) in enumerate(zip(tree.vertex_leaves, tree.dims)):
            lines.append(f"  v{v}: leaves {','.join(map(str, leaves)) or '-'}  dim {dim}")
        edges = [f"  edge v{p}-v{c}  {e}  k={k}"
                 for e, (p, c), k in zip(tree.edges, tree.ends, decorated.edge_weight.values())]
        if result.weighting is None:
            lines += edges
        else:
            factors = list(map(_digits, result.edge_factors))
            lines += [f"{line}  halves {hp}+{hc}  factor {f}"
                      for line, (hp, hc), f in zip(edges, result.weighting.halves, factors)]
        lines += [f"  psi at leaf {lab} (v{tree.leaf_vertex(lab)}): weight {w}"
                  for lab, w in decorated.psi_weight.items()]
        if result.weighting is not None:
            factors += map(_digits, result.vertex_factors)
            lines.append(f"factors: {' * '.join(factors)}")
    return "\n".join(lines + _verdict(report)) + "\n"


def _json_output(report: _Report) -> str:
    """The report as one JSON line, in json.dumps's layout.

    json.dumps writes the scalars and the factors.  Each block's text is
    written once, from one string per label, and goes into both
    ``stratum.splits`` and ``balanced``.
    """
    result, decorated = report.result, report.decorated
    n = report.product.ground.n
    if decorated is None:
        edges, weights, dims = (), [], []
    else:
        tree = decorated.tree
        edges, weights, dims = tree.edges, list(decorated.edge_weight.values()), tree.dims
    if sum(len(e.block) for e in edges) >= n:
        # the blocks spell n labels or more: a table of n strings pays off
        table = list(map(str, range(n + 1)))
        blocks = ["[" + ", ".join(operator.itemgetter(*e.block)(table)) + "]" for e in edges]
    else:
        blocks = ["[" + ", ".join(map(str, e.block)) + "]" for e in edges]
    head = {"n": n, "value": _digits(result.value), "sign": result.sign, "reason": result.reason}
    out = [json.dumps(head)[:-1], ', "stratum": ']
    out += ["null"] if decorated is None else ['{"splits": [', ", ".join(blocks), "]}"]
    out += [', "edge_weights": ', json.dumps(weights),
            ', "vertex_dims": ', json.dumps(dims),
            ', "balanced": [']
    if result.weighting is not None:
        for i, (block, (hp, hc)) in enumerate(zip(blocks, result.weighting.halves)):
            out += [', {"edge": ' if i else '{"edge": ', block, f', "halves": [{hp}, {hc}]}}']
    # both factor tuples are empty without a weighting
    factors = {
        "edges": list(map(_digits, result.edge_factors)),
        "vertices": list(map(_digits, result.vertex_factors)),
    }
    out += ['], "factors": ', json.dumps(factors), "}\n"]
    return "".join(out)


def _dot_output(report: _Report) -> str:
    lines = ["graph stratum {"]
    decorated, weighting = report.decorated, report.result.weighting
    if decorated is None:
        lines.append('  note [shape=plaintext, label="empty intersection: value 0"];')
    else:
        tree = decorated.tree
        lines.append("  node [shape=circle];")
        lines += [f'  v{v} [label="{dim}"];' for v, dim in enumerate(tree.dims)]
        labels = [f"k={k}" for k in decorated.edge_weight.values()]
        if weighting is not None:
            labels = [f"{label}: {hp}+{hc}" for label, (hp, hc) in zip(labels, weighting.halves)]
        lines += [f'  v{p} -- v{c} [label="{label}"];' for (p, c), label in zip(tree.ends, labels)]
        psi = decorated.psi_weight
        for v, leaves in enumerate(tree.vertex_leaves):
            for lab in leaves:
                lines.append(f'  leaf{lab} [shape=plaintext, label="{lab}"];')
                suffix = f' [label="psi={psi[lab]}"]' if lab in psi else ""
                lines.append(f"  v{v} -- leaf{lab}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _read_expression(args) -> Expression:
    if args.expr is not None:
        text = args.expr
    else:
        # a closed standard input (sys.stdin is None) reads as empty
        text = sys.stdin.read() if sys.stdin is not None else ""
    return parse(text, args.n)


# eval's --format choices, in --help's order
_RENDERERS = {"text": _text_output, "json": _json_output, "dot": _dot_output}


def _cmd_eval(args) -> int:
    sys.stdout.write(_RENDERERS[args.format](_report(_read_expression(args))))
    return 0


def _coloring_steps(ground: MarkedSet, name: dict[Split, str]) -> list[str]:
    # name: the product's divisors in factor order, each once, with their text.
    # Each step builds the stratum of the divisors inserted so far and colors
    # it against the next: one tree build per step.  The coloring is the one
    # crossing check: the earlier steps certified the prefix, so its build cannot fail.
    divisors = list(name)
    steps = ["assembling the stratum one divisor at a time:", f"  start with {name[divisors[0]]}"]
    for i, d in enumerate(divisors[1:], 1):
        tree = tree_from_splits(ground, divisors[:i])
        try:
            coloring = color_for_divisor(tree, d)
        except EdgeConditionFails as fail:
            # the strata do not meet, so the report's verdict is "empty"
            steps.append(
                f"  insert {name[d]}: incompatible with edge {name[fail.witness]} "
                "-- empty intersection"
            )
            break
        colored = ", ".join(f"{name[e]}={coloring.edge_colors[e]}" for e in tree.edges)
        blues = name[d].partition("|")[0]  # the leaves in the divisor's block
        steps.append(f"  insert {name[d]}: edge colors [{colored}]")
        steps.append(f"    blue leaves {{{blues}}}, split vertex v{coloring.split_vertex}")
    return steps


def _cmd_explain(args) -> int:
    expr = _read_expression(args)
    trace: list = []  # the peel steps of the balancing the report prices
    report = _report(expr, trace)  # raises DegreeMismatch before any output
    product = report.product
    # each divisor's text once: every edge or witness named below is a divisor
    name = {d: str(d) for d in product.divisor_powers}
    out = [
        f"n = {args.n}",
        f"product: {render(expr)}",
        f"degree: {product.total_degree} (divisors {sum(product.divisor_powers.values())} "
        f"+ psi {sum(product.psi_powers.values())}), n - 3 = {args.n - 3}",
    ]
    if args.coloring and name:
        out += _coloring_steps(product.ground, name)
    decorated, result = report.decorated, report.result
    if decorated is not None:
        tree = decorated.tree
        count = tree.num_vertices
        out.append(f"stratum has {count} internal {'vertex' if count == 1 else 'vertices'}:")
        vertices = zip(tree.vertex_leaves, tree.dims, decorated.vertex_psi)
        for v, (leaves, dim, pairs) in enumerate(vertices):
            leaves = ",".join(map(str, leaves)) or "-"
            psi = "".join(f", psi^{w} at leaf {lab}" for lab, w in pairs)
            out.append(f"  v{v}: leaves {{{leaves}}}, dim {dim}{psi}")
        if trace:
            out.append("greedy balancing, peeling vertices with one unresolved edge:")
            for v, e, near, far in trace:
                out.append(f"  peel v{v} along {name[e]}: k(v{v})={near}, far half={far}")
        if result.weighting is not None:
            edges = zip(tree.edges, decorated.edge_weight.values(), result.weighting.halves,
                        result.edge_factors)
            for e, k, (hp, hc), f in edges:
                out.append(f"edge {name[e]}: ({k}; {hp},{hc}) -> {_digits(f)}")
            for v, (dim, f) in enumerate(zip(tree.dims, result.vertex_factors)):
                out.append(f"vertex v{v}: multinomial of dim {dim} -> {_digits(f)}")
        elif trace:
            out.append("a half-weight went negative: no balanced weighting")
        else:
            # balance stops before any peel only when psi weights overload a vertex
            loads = [(sum(w for _, w in pairs), dim)
                     for pairs, dim in zip(decorated.vertex_psi, tree.dims)]
            v, (psi, dim) = next((v, load) for v, load in enumerate(loads) if load[0] > load[1])
            out.append(f"psi weight {psi} at v{v} exceeds its dimension {dim}: "
                       "no balanced weighting")
    out += _verdict(report)
    print("\n".join(out))
    return 0


def _cmd_enumerate(args) -> int:
    # the strata's block masks, in enumerate_stable_trees order: no tree is built
    families = _families(args.n, args.codim)
    if args.count_only:
        print(sum(1 for _ in families))
        return 0
    # every canonical block of 1..n, named once and ranked in `edges` order,
    # in lists indexed by mask
    n = args.n
    rank, name = [0] * (1 << n), [""] * (1 << n)
    for r, s in enumerate(ordered_splits(_split_table(n).values())):
        rank[s.block_mask], name[s.block_mask] = r, str(s)
    write = sys.stdout.write
    for family in families:
        line = " ; ".join(map(name.__getitem__, sorted(family, key=rank.__getitem__)))
        write((line or "(trivial stratum)") + "\n")
    return 0


def _cmd_check(args) -> int:
    # check is the one command that runs the oracle, so only it imports it
    import random

    from . import oracle

    rng = random.Random(args.seed)  # one stream for every n of the expansion suite

    def expansion(n: int) -> tuple[int, int]:
        failures = 0
        for _ in range(_EXPANSION_TRIALS):
            decorated = oracle.random_decorated_tree(n, rng)
            result = evaluate(decorated)
            terms = oracle.surviving_decompositions(decorated)
            # the weighting evaluate read its value off is the one term, or none is
            ok = ([h for h, _ in terms] == ([result.weighting.halves] if result.weighting else [])
                  and oracle._signed_total(decorated, terms) == result.value)
            failures += not ok
        return _EXPANSION_TRIALS, failures

    def string(n: int) -> tuple[int, int]:
        # the reference depends only on the multiset of exponents (at most 15
        # per row), so it runs once per multiset; multinomial runs on every
        # composition as the generator makes it, so no list of them is kept
        reference: dict[tuple[int, ...], int] = {}
        checked = failures = 0
        for vec in oracle.compositions(n - 3, n):
            key = tuple(sorted(vec))
            if key not in reference:
                reference[key] = oracle.string_eq_psi_integral(n, dict(enumerate(vec, 1)))
            checked += 1
            failures += reference[key] != multinomial(n - 3, vec)
        return checked, failures

    def flag(n: int) -> tuple[int, int]:
        report = oracle.flag_certify(n, sample_limit=_FLAG_SAMPLE, seed=args.seed)
        return report.pairs_checked, len(report.discrepancies)

    # each suite's smallest n, its guard (the largest n it runs at), and its
    # (checked, failures) at one n, in the order "all" runs them
    suites = {
        "expansion": (4, _EXPANSION_LIMIT, expansion),
        "string": (3, _STRING_LIMIT, string),
        "flag": (4, oracle.FLAG_LIMIT, flag),
    }
    rows: list[dict] = []
    for name in suites if args.suite == "all" else [args.suite]:
        first, guard, run = suites[name]
        if name == args.suite and args.n_max > guard:
            raise TooLarge(f"suite '{name}' is guarded at n <= {guard}, got --n-max {args.n_max}")
        for n in range(first, min(args.n_max, guard) + 1):
            checked, failures = run(n)
            rows.append({"suite": name, "n": n, "checked": checked, "failures": failures})
    if not rows:
        raise M0nbarError(f"--n-max {args.n_max} leaves no n to check in suite '{args.suite}'")
    ok = all(r["failures"] == 0 for r in rows)
    if args.format == "json":
        print(json.dumps({"suite": args.suite, "n_max": args.n_max, "seed": args.seed,
                          "results": rows, "ok": ok}, indent=2))
    else:
        for r in rows:
            state = "ok" if r["failures"] == 0 else "FAIL"
            print(f"{r['suite']:9s} n={r['n']}: {r['checked']} checked, "
                  f"{r['failures']} discrepancies [{state}]")
        print("all checks passed" if ok else "DISCREPANCIES FOUND")
    return 0 if ok else 4


def _marked_count(text: str) -> int:
    value = int(text)
    if value < 3:
        raise argparse.ArgumentTypeError("need at least 3 marked points")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="m0nbar",
        description="Exact intersection numbers of boundary divisors and psi classes "
        "on the moduli space of stable genus-zero n-pointed curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a dimension-zero product")
    p.add_argument("--n", type=_marked_count, required=True, help="number of marked points")
    p.add_argument("--format", choices=list(_RENDERERS), default="text")
    p.add_argument("expr", nargs="?", default=None, help="expression; stdin when omitted")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("explain", help="evaluate with a step-by-step derivation")
    p.add_argument("--n", type=_marked_count, required=True)
    p.add_argument("--coloring", action="store_true",
                   help="also show the edge-coloring insertion of each divisor")
    p.add_argument("expr", nargs="?", default=None)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("enumerate", help="list the stable trees on 1..n")
    p.add_argument("--n", type=_marked_count, required=True)
    p.add_argument("--codim", type=int, default=None,
                   help="restrict to this many internal edges; a codimension no stratum "
                        "has (below 0 or above n - 3) lists nothing, and --count-only "
                        "prints 0, both exiting 0")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", help="run the brute-force verification suites")
    p.add_argument("--suite", choices=["expansion", "string", "flag", "all"], required=True,
                   help="the suite to run; all runs every suite in turn")
    p.add_argument("--n-max", type=int, required=True,
                   help="check each n from the suite's smallest up to this; a single suite "
                        "past its guard exits 2, and all caps each suite at its guard")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the expansion suite's random trees and of the flag "
                        "suite's sampled pairs")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    # The command runs with the cyclic collector paused: evaluation and its
    # renderers make no reference cycles, so a collection pass would only
    # scan the tables, which grow with n.  The caller's state comes back.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except M0nbarError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3 if isinstance(exc, DegreeMismatch) else 2
        except (MemoryError, OverflowError):
            # OverflowError: a table of more than sys.maxsize entries, which
            # no memory holds
            print(f"error: out of memory in {args.command}", file=sys.stderr)
            return 2
    finally:
        if collecting:
            gc.enable()


def entry() -> None:
    if sys.stdout is None:
        # standard output was closed before the start (>&-), so nothing can
        # be written: the exit of a reader that closes it early
        raise SystemExit(1)
    try:
        status = main()
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BrokenPipeError:
        # the reader closed standard output: send what is still buffered to
        # devnull, so the interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)
