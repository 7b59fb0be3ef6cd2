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
the first.

Exit codes: 0 success (a value of 0 is a success), 1 the reader closed
standard output before the output was written, 2 parse or usage error,
including input too large for this machine's memory, 3 degree mismatch,
4 oracle discrepancy.
"""

from __future__ import annotations

import argparse
import collections
import decimal
import itertools
import json
import operator
import os
import re
import sys

from .combinat import multinomial
from .errors import (
    DegreeMismatch,
    EdgeConditionFails,
    LabelOutOfRange,
    ParseError,
    TooLarge,
    UnstableSplit,
)
from .intersect import (
    EMPTY,
    BoundaryProduct,
    color_for_divisor,
    meet_divisor,
    product_to_decorated,
)
from .trees import MarkedSet, Split, enumerate_stable_trees, split_of_side, tree_from_splits
from .weights import EvalResult, _ratio, balance, evaluate

_NAT = re.compile(r"[0-9]+")
# a block's labels and commas, matched as one run; parse() cuts it before an
# empty label, which is faster than matching label by label
_LABELS = re.compile(r"[0-9][0-9,]*")
_SEPARATOR = re.compile(r"\s*(\*)?\s*")
# json's C scanner reads "[1,2,...]" about twice as fast as int() per label;
# it refuses leading zeros, which int() reads
_scan_json = json.JSONDecoder().scan_once

# the largest n each check suite runs at; the flag suite's is oracle.FLAG_LIMIT
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

    Each label block is one regex match, converted to ints by json's
    scanner, and sorted.  Divisors are canonicalized immediately, from the
    labels, so two spellings of the same divisor compare equal and no mask
    is built.  Raises ParseError with a position on
    grammar violations, LabelOutOfRange for labels outside 1..n, and
    UnstableSplit for splits with a side smaller than two.
    """
    ground = MarkedSet.range(n)
    size = len(text)
    factors: list[tuple[str, object, int]] = []

    def nat(p: int, what: str) -> tuple[int, int]:
        m = _NAT.match(text, p)
        if not m:
            raise ParseError(p, f"expected {what}")
        try:
            return int(m.group()), m.end()
        except ValueError:  # past sys.get_int_max_str_digits()
            raise ParseError(p, f"{what} has too many digits") from None

    def block(p: int) -> tuple[list[int], int]:
        """The labels of the block at p, ascending, and the position after it."""
        if not text.startswith("{", p):
            raise ParseError(p, "expected '{'")
        m = _LABELS.match(text, p + 1)
        if not m:
            raise ParseError(p + 1, "expected a label")
        written = m.group()
        # the labels end before the first empty one
        empty = written.find(",,")
        written = written[:empty] if empty >= 0 else written.rstrip(",")
        try:
            labels = _scan_json("[" + written + "]", 0)[0]
        except ValueError:  # a leading zero, or a label too long for int()
            digits = written.split(",")
            try:
                labels = list(map(int, digits))
            except ValueError:
                # every label before the first long one is shorter, so the
                # long one's text first occurs where it is written
                for lab in digits:
                    nat(text.index(lab, p), "a label")
                raise
        q = p + 1 + len(written)
        if text.startswith(",", q):
            raise ParseError(q + 1, "expected a label")
        if not text.startswith("}", q):
            raise ParseError(q, "expected '}' or ','")
        ordered = sorted(labels)
        if len(set(ordered)) != len(ordered):
            raise ParseError(p, "duplicate label in block")
        if ordered[0] < 1 or ordered[-1] > n:
            lab = next(lab for lab in labels if not 1 <= lab <= n)
            raise LabelOutOfRange(f"label {lab} outside 1..{n}")
        return ordered, q + 1

    pos = size - len(text.lstrip())
    if pos == size:
        raise ParseError(pos, "expected a factor")
    while True:
        if text.startswith("psi", pos):
            kind = "psi"
            payload, pos = nat(pos + 3, "a marked-point label after 'psi'")
            if not 1 <= payload <= n:
                raise LabelOutOfRange(f"label {payload} outside 1..{n}")
        elif text[pos] == "D":
            kind = "divisor"
            payload, pos = block(pos + 1)
            if text.startswith("|", pos):
                other, q = block(pos + 1)
                if len(payload) + len(other) != n or not set(payload).isdisjoint(other):
                    raise ParseError(
                        pos + 1, "second block must be the exact complement of the first"
                    )
                pos = q
        else:
            raise ParseError(pos, "expected 'D{...}' or 'psiK'")
        exponent = 1
        if text.startswith("^", pos):
            exponent, pos = nat(pos + 1, "an exponent")
        if kind == "divisor":
            payload = split_of_side(ground, payload)
        factors.append((kind, payload, exponent))
        m = _SEPARATOR.match(text, pos)
        if m.end() == size:
            if m.group(1):
                raise ParseError(size, "expected a factor after '*'")
            break
        if m.end() == pos:
            raise ParseError(pos, "expected '*' or whitespace between factors")
        pos = m.end()
    return Expression(n, tuple(factors))


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


# Above this many bits _digits splits the value; below it the plain
# conversion is as fast, and every value the benchmark renders stays there.
_SPLIT_BITS = 1 << 16
# the size of the pieces a split conversion converts directly
_PIECE_BITS = 1 << 12


def _digits(value: int) -> str:
    # Decimal prints any number of digits exactly; str(int) refuses more than
    # sys.get_int_max_str_digits() of them.  Both convert in time quadratic
    # in the digits, so larger values split first.
    if value.bit_length() <= _SPLIT_BITS:
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


# One product's evaluation as rows that every output format prints.
# ``decorated`` is None when the strata do not meet.  ``edges`` follow
# ``tree.edges`` and ``vertices`` the vertex numbering; halves and factors
# are None when no balanced weighting exists.
_Report = collections.namedtuple("_Report", "product decorated result edges vertices")
_EdgeRow = collections.namedtuple("_EdgeRow", "split parent child k halves factor")
_VertexRow = collections.namedtuple("_VertexRow", "leaves dim psi factor")


def _report(expr: Expression) -> _Report:
    product = to_boundary_product(expr)
    decorated = product_to_decorated(product)
    if decorated is EMPTY:
        return _Report(product, None, EvalResult.empty_intersection(), [], [])
    result = evaluate(decorated)
    tree, w = decorated.tree, result.weighting
    # halves and factors follow tree order, and are empty when w is None
    rows = itertools.zip_longest(
        tree.edges, tree.ends, decorated.edge_weight.values(),
        () if w is None else w.halves, (f for _, f in result.edge_factors),
    )
    edges = [_EdgeRow(e, p, c, k, halves, f) for e, (p, c), k, halves, f in rows]
    rows = itertools.zip_longest(
        tree.vertex_leaves, tree.dims, decorated.vertex_psi,
        (f for _, f in result.vertex_factors),
    )
    vertices = list(itertools.starmap(_VertexRow, rows))
    return _Report(product, decorated, result, edges, vertices)


def _verdict(report: _Report) -> list[str]:
    if report.decorated is None:
        return ["value = 0 (empty intersection)"]
    result = report.result
    if result.weighting is None:
        return ["value = 0 (no balanced weighting)"]
    return [f"sign = {'+1' if result.sign > 0 else '-1'}", f"value = {_digits(result.value)}"]


def _text_output(report: _Report) -> str:
    lines = [f"n = {report.product.ground.n}"]
    if report.decorated is not None:
        dim = sum(row.dim for row in report.vertices)
        lines.append(f"stratum: codim {len(report.edges)}, dim {dim}")
        for v, row in enumerate(report.vertices):
            lines.append(f"  v{v}: leaves {','.join(map(str, row.leaves)) or '-'}  dim {row.dim}")
        for row in report.edges:
            line = f"  edge v{row.parent}-v{row.child}  {row.split}  k={row.k}"
            if row.halves is not None:
                line += f"  halves {row.halves[0]}+{row.halves[1]}  factor {_digits(row.factor)}"
            lines.append(line)
        psi = sorted((lab, v, w) for v, row in enumerate(report.vertices) for lab, w in row.psi)
        lines += [f"  psi at leaf {lab} (v{v}): weight {w}" for lab, v, w in psi]
        if report.result.weighting is not None:
            factors = [_digits(row.factor) for row in report.edges + report.vertices]
            lines.append(f"factors: {' * '.join(factors)}")
    return "\n".join(lines + _verdict(report)) + "\n"


def _json_output(report: _Report) -> str:
    """The report as one JSON line, in json.dumps's layout.

    json.dumps writes the scalars and the factors.  Each block's text is
    written once, from one string per label, and goes into both
    ``stratum.splits`` and ``balanced``.
    """
    result, edges = report.result, report.edges
    n = report.product.ground.n
    if sum(len(row.split.block) for row in edges) >= n:
        # the blocks spell n labels or more: a table of n strings pays off
        table = list(map(str, range(n + 1)))
        blocks = ["[" + ", ".join(operator.itemgetter(*row.split.block)(table)) + "]"
                  for row in edges]
    else:
        blocks = ["[" + ", ".join(map(str, row.split.block)) + "]" for row in edges]
    head = {"n": n, "value": _digits(result.value), "sign": result.sign, "reason": result.reason}
    out = [json.dumps(head)[:-1], ', "stratum": ']
    out += ["null"] if report.decorated is None else ['{"splits": [', ", ".join(blocks), "]}"]
    out += [', "edge_weights": ', json.dumps([row.k for row in edges]),
            ', "vertex_dims": ', json.dumps([row.dim for row in report.vertices]),
            ', "balanced": [']
    factors = {"edges": [], "vertices": []}
    if result.weighting is not None:
        for i, (block, row) in enumerate(zip(blocks, edges)):
            hp, hc = row.halves
            out += [', {"edge": ' if i else '{"edge": ', block, f', "halves": [{hp}, {hc}]}}']
        factors = {
            "edges": [_digits(row.factor) for row in edges],
            "vertices": [_digits(row.factor) for row in report.vertices],
        }
    out += ['], "factors": ', json.dumps(factors), "}\n"]
    return "".join(out)


def _dot_output(report: _Report) -> str:
    lines = ["graph stratum {"]
    if report.decorated is None:
        lines.append('  note [shape=plaintext, label="empty intersection: value 0"];')
    else:
        lines.append("  node [shape=circle];")
        lines += [f'  v{v} [label="{row.dim}"];' for v, row in enumerate(report.vertices)]
        for row in report.edges:
            label = f"k={row.k}"
            if row.halves is not None:
                label += f": {row.halves[0]}+{row.halves[1]}"
            lines.append(f'  v{row.parent} -- v{row.child} [label="{label}"];')
        for v, row in enumerate(report.vertices):
            psi = dict(row.psi)
            for lab in row.leaves:
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


def _cmd_eval(args) -> int:
    renderer = {"text": _text_output, "json": _json_output, "dot": _dot_output}[args.format]
    sys.stdout.write(renderer(_report(_read_expression(args))))
    return 0


def _coloring_steps(expr: Expression) -> list[str]:
    divisors = list(dict.fromkeys(
        payload for kind, payload, exponent in expr.factors if kind == "divisor" and exponent > 0
    ))
    if not divisors:
        return []
    # every edge of the growing tree, and every witness, is one of the divisors
    name = {d: str(d) for d in divisors}
    steps = ["assembling the stratum one divisor at a time:", f"  start with {name[divisors[0]]}"]
    tree = tree_from_splits(MarkedSet.range(expr.n), divisors[:1])
    for d in divisors[1:]:
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
        blues = ",".join(map(str, d.block))  # the leaves in the divisor's block
        steps.append(f"  insert {name[d]}: edge colors [{colored}]")
        steps.append(f"    blue leaves {{{blues}}}, split vertex v{coloring.split_vertex}")
        tree = meet_divisor(tree, d)
    return steps


def _cmd_explain(args) -> int:
    expr = _read_expression(args)
    report = _report(expr)  # raises DegreeMismatch before any output
    product = report.product
    out = [
        f"n = {args.n}",
        f"product: {render(expr)}",
        f"degree: {product.total_degree} (divisors {sum(product.divisor_powers.values())} "
        f"+ psi {sum(product.psi_powers.values())}), n - 3 = {args.n - 3}",
    ]
    if args.coloring:
        out += _coloring_steps(expr)
    if report.decorated is not None:
        out.append(f"stratum has {len(report.vertices)} internal vertices:")
        for v, row in enumerate(report.vertices):
            leaves = ",".join(map(str, row.leaves)) or "-"
            psi = "".join(f", psi^{w} at leaf {lab}" for lab, w in row.psi)
            out.append(f"  v{v}: leaves {{{leaves}}}, dim {row.dim}{psi}")
        trace: list = []
        balance(report.decorated, trace)
        if trace:
            out.append("greedy balancing, peeling vertices with one unresolved edge:")
            for v, e, near, far in trace:
                out.append(f"  peel v{v} along {e}: k(v{v})={near}, far half={far}")
        if report.result.weighting is not None:
            for row in report.edges:
                out.append(f"edge {row.split}: ({row.k}; {row.halves[0]},{row.halves[1]}) "
                           f"-> {_digits(row.factor)}")
            for v, row in enumerate(report.vertices):
                out.append(f"vertex v{v}: multinomial of dim {row.dim} -> {_digits(row.factor)}")
        elif trace:
            out.append("a half-weight went negative: no balanced weighting")
        else:
            # balance stops before any peel only when psi weights overload a vertex
            loads = [(sum(w for _, w in row.psi), row.dim) for row in report.vertices]
            v, (psi, dim) = next((v, load) for v, load in enumerate(loads) if load[0] > load[1])
            out.append(f"psi weight {psi} at v{v} exceeds its dimension {dim}: "
                       "no balanced weighting")
    out += _verdict(report)
    print("\n".join(out))
    return 0


def _cmd_enumerate(args) -> int:
    count = 0
    for tree in enumerate_stable_trees(args.n, args.codim):
        count += 1
        if not args.count_only:
            if tree.codim == 0:
                print("(trivial stratum)")
            else:
                print(" ; ".join(str(e) for e in tree.edges))
    if args.count_only:
        print(count)
    return 0


def _run_flag_suite(n_max: int, seed: int) -> list[dict]:
    from . import oracle

    rows = []
    for n in range(4, min(n_max, oracle.FLAG_LIMIT) + 1):
        report = oracle.flag_certify(n, sample_limit=_FLAG_SAMPLE, seed=seed)
        rows.append(
            {
                "suite": "flag",
                "n": n,
                "checked": report.pairs_checked,
                "failures": len(report.discrepancies),
            }
        )
    return rows


def _run_string_suite(n_max: int) -> list[dict]:
    from . import oracle

    rows = []
    integral = oracle.string_eq_psi_integral
    for n in range(3, min(n_max, _STRING_LIMIT) + 1):
        checked = failures = 0
        for vec in oracle.compositions(n - 3, n):
            checked += 1
            if integral(n, dict(enumerate(vec, 1))) != multinomial(n - 3, vec):
                failures += 1
        rows.append({"suite": "string", "n": n, "checked": checked, "failures": failures})
    return rows


def _run_expansion_suite(n_max: int, seed: int) -> list[dict]:
    import random

    from . import oracle

    rows = []
    rng = random.Random(seed)
    for n in range(4, min(n_max, _EXPANSION_LIMIT) + 1):
        checked = failures = 0
        for _ in range(_EXPANSION_TRIALS):
            checked += 1
            decorated = oracle.random_decorated_tree(n, rng)
            result = evaluate(decorated)
            terms = oracle.surviving_decompositions(decorated)
            ok = oracle._signed_total(decorated, terms) == result.value and len(terms) <= 1
            if result.weighting is not None:
                ok = ok and _ratio(result.weighting) == result.value
            else:
                ok = ok and result.value == 0
            if not ok:
                failures += 1
        rows.append({"suite": "expansion", "n": n, "checked": checked, "failures": failures})
    return rows


def _cmd_check(args) -> int:
    # check is the one command that runs the oracle, so only it imports it
    from . import oracle

    guards = {"expansion": _EXPANSION_LIMIT, "string": _STRING_LIMIT, "flag": oracle.FLAG_LIMIT}
    if args.suite != "all" and args.n_max > guards[args.suite]:
        raise TooLarge(
            f"suite '{args.suite}' is guarded at n <= {guards[args.suite]}, "
            f"got --n-max {args.n_max}"
        )
    rows: list[dict] = []
    if args.suite in ("expansion", "all"):
        rows += _run_expansion_suite(args.n_max, args.seed)
    if args.suite in ("string", "all"):
        rows += _run_string_suite(args.n_max)
    if args.suite in ("flag", "all"):
        rows += _run_flag_suite(args.n_max, args.seed)
    if not rows:
        print(f"error: --n-max {args.n_max} leaves no n to check in suite '{args.suite}'",
              file=sys.stderr)
        return 2
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
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
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
    p.add_argument("--suite", choices=["expansion", "string", "flag", "all"], required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UnstableSplit, LabelOutOfRange, TooLarge, DegreeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, DegreeMismatch) else 2
    except (MemoryError, OverflowError):
        # OverflowError: a table of more than sys.maxsize entries, which no
        # memory holds
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return 2


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
