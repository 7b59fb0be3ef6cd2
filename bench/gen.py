"""Seeded workload generators with references that never consult m0nbar.

Every instance is built from a stable tree this module grows itself.  A
balanced instance draws, at each internal vertex, a weak composition of the
vertex dimension (degree - 3) over its incident edges and its leaves: the
parts on edges are half-weights, the parts on leaves are psi exponents.
The edge weight is the sum of its two halves and the divisor exponent is
that weight plus one.  The reference value is then

    (-1)^(sum of edge weights) * prod_e C(k_e, half) * prod_v dim_v! / prod(parts!)

computed with ``math.comb``; balanced weightings are unique, so this is
the intersection number.  An unbalanced instance gives one edge half 0 at
its child end, then moves one unit of weight from outside that subtree
onto a leaf inside it, so the half forced across the edge is -1; the cut
test here proves it.  An empty instance adds a two-label divisor whose
bitmask crosses an edge of the stratum.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass

REASONS = ("ok", "no_balance", "empty")
# batch-small cycles through this pattern, so each kind is well represented
BATCH_PATTERN = ("ok", "ok", "no_balance", "empty")
BATCH_N = range(5, 17)

# The two README n=15 expressions and their documented values.
README_EXPRESSIONS = (
    ("D{1,2}^2 D{3,4,5}^3 D{1,2,3,4,5,6,7,8}^4 D{11,12} D{13,14,15}^2", -36),
    ("psi4 psi7^2 D{1,2}^2 D{3,4,5} D{1,2,3,4,5,6,7,8}^3 D{11,12} D{13,14,15}^2", 3),
)


@dataclass(frozen=True)
class Instance:
    """One generated product with its expected outcome."""

    family: str
    n: int
    text: str
    reason: str
    value: int
    codim: int
    index: int = 0  # tells apart instances of one family and n

    @property
    def key(self) -> str:
        return f"{self.family}:{self.n}:{self.index}"


class Tree:
    """A stable tree on labels 1..n, rooted at the vertex holding label 1.

    ``parent[v]`` is None for the root; ``block[v]`` is the bitmask (bit
    ``label - 1``) of the leaves below the edge from v to its parent, which
    is the side of that split not containing label 1.
    """

    def __init__(self, n: int, leaves: list[list[int]], links: list[tuple[int, int]]):
        self.n = n
        self.leaves = leaves
        adj: list[list[int]] = [[] for _ in leaves]
        for a, b in links:
            adj[a].append(b)
            adj[b].append(a)
        root = next(v for v, labs in enumerate(leaves) if 1 in labs)
        self.root = root
        self.parent: list[int | None] = [None] * len(leaves)
        self.children: list[list[int]] = [[] for _ in leaves]
        order = [root]
        seen = {root}
        for v in order:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    self.parent[w] = v
                    self.children[v].append(w)
                    order.append(w)
        self.order = order  # parents before children
        self.block = [0] * len(leaves)
        for v in reversed(order):
            mask = 0
            for lab in leaves[v]:
                mask |= 1 << (lab - 1)
            for c in self.children[v]:
                mask |= self.block[c]
            self.block[v] = mask
        assert all(self.degree(v) >= 3 for v in order)

    @property
    def edges(self) -> list[int]:
        """Non-root vertices; each names the edge to its parent."""
        return [v for v in self.order if v != self.root]

    def degree(self, v: int) -> int:
        return len(self.leaves[v]) + len(self.children[v]) + (self.parent[v] is not None)

    def subtree(self, v: int) -> set[int]:
        out, stack = set(), [v]
        while stack:
            u = stack.pop()
            out.add(u)
            stack.extend(self.children[u])
        return out


def random_tree(n: int, rng: random.Random, p_subdivide: float) -> Tree:
    """Grow a stable tree by inserting shuffled labels one at a time.

    With probability ``p_subdivide`` a label subdivides a uniformly chosen
    internal or leaf edge (adding one internal edge), otherwise it joins a
    uniformly chosen internal vertex, so the expected codimension is about
    ``p_subdivide * n``.
    """
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    leaves: list[list[int]] = [labels[:3]]
    home = {lab: 0 for lab in labels[:3]}
    links: list[tuple[int, int]] = []
    placed = labels[:3]
    for lab in labels[3:]:
        if rng.random() < p_subdivide:
            w = len(leaves)
            pick = rng.randrange(len(links) + len(placed))
            if pick < len(links):
                a, b = links[pick]
                links[pick] = (a, w)
                links.append((w, b))
                leaves.append([lab])
            else:
                other = placed[pick - len(links)]
                u = home[other]
                leaves[u].remove(other)
                links.append((u, w))
                leaves.append([other, lab])
                home[other] = w
            home[lab] = w
        else:
            u = rng.randrange(len(leaves))
            leaves[u].append(lab)
            home[lab] = u
        placed.append(lab)
    return Tree(n, leaves, links)


def bushy_tree(n: int, rng: random.Random) -> Tree:
    """A stable tree of depth about log n with randomly placed labels.

    Label 1 sits alone at the root.  A subtree on at most four labels is one
    vertex holding them; a larger one keeps zero or one label at its vertex
    and splits the rest into two or three parts of near-equal size.  The
    shape depends on n only, so timings compare across seeds; ``rng``
    shuffles the labels, so the blocks are random.
    """
    shape = random.Random(f"bushy:{n}")
    labels = list(range(2, n + 1))
    rng.shuffle(labels)
    leaves: list[list[int]] = [[1]]
    links: list[tuple[int, int]] = []
    pending = [(0, labels, 2 + (len(labels) > 4))]
    while pending:
        parent, labs, parts = pending.pop()
        for k in range(parts):
            part = labs[k * len(labs) // parts:(k + 1) * len(labs) // parts]
            w = len(leaves)
            links.append((parent, w))
            if len(part) <= 4:
                leaves.append(part)
                continue
            keep = shape.choice((0, 0, 1))
            leaves.append(part[:keep])
            rest = part[keep:]
            cuts = shape.choice((2, 2, 3)) if len(rest) >= 6 else 2
            pending.append((w, rest, cuts))
    return Tree(n, leaves, links)


def caterpillar_tree(n: int, rng: random.Random) -> Tree:
    """The maximal caterpillar: a path of n - 2 trivalent vertices.

    Label 1 sits at one end, so every block is an initial run of the path;
    the other labels are shuffled.
    """
    labels = list(range(2, n + 1))
    rng.shuffle(labels)
    labels.insert(0, 1)
    leaves = [labels[:2]] + [[lab] for lab in labels[2:-2]] + [labels[-2:]]
    links = [(i, i + 1) for i in range(n - 3)]
    return Tree(n, leaves, links)


class Decoration:
    """Half-weights per edge end plus psi exponents per leaf.

    ``down[v]`` is the half at v's end of the edge to its parent, ``up[v]``
    the half at the parent's end.  The edge weight is their sum.
    """

    def __init__(self, tree: Tree):
        self.tree = tree
        self.down = [0] * len(tree.leaves)
        self.up = [0] * len(tree.leaves)
        self.psi: dict[int, int] = {}

    def weight(self, v: int) -> int:
        return self.down[v] + self.up[v]


def balanced(tree: Tree, rng: random.Random, psi_share: float, zero_child=None) -> Decoration:
    """Draw a weak composition of each vertex dimension over its slots.

    Leaves are eligible for psi at a vertex with probability ``psi_share``.
    ``zero_child``, if given, gets half 0 at its own end of its parent
    edge, which :func:`unbalance` relies on.
    """
    dec = Decoration(tree)
    for v in tree.order:
        slots: list[tuple[str, int]] = [("up", c) for c in tree.children[v]]
        if tree.parent[v] is not None and v != zero_child:
            slots.append(("down", v))
        if rng.random() < psi_share or not slots:
            slots += [("psi", lab) for lab in tree.leaves[v]]
        for _ in range(tree.degree(v) - 3):
            kind, key = slots[rng.randrange(len(slots))]
            if kind == "psi":
                dec.psi[key] = dec.psi.get(key, 0) + 1
            elif kind == "up":
                dec.up[key] += 1
            else:
                dec.down[key] += 1
    return dec


def reference_value(dec: Decoration) -> int:
    """Sign times edge binomials times vertex multinomials, by math.comb."""
    tree = dec.tree
    value = 1
    total = 0
    for v in tree.edges:
        k = dec.weight(v)
        total += k
        value *= math.comb(k, dec.down[v])
    for v in tree.order:
        parts = [dec.up[c] for c in tree.children[v]]
        parts += [dec.psi.get(lab, 0) for lab in tree.leaves[v]]
        if tree.parent[v] is not None:
            parts.append(dec.down[v])
        remaining = tree.degree(v) - 3
        assert sum(parts) == remaining
        for p in parts:
            value *= math.comb(remaining, p)
            remaining -= p
    return -value if total % 2 else value


def forced_halves(tree: Tree, weight: dict[int, int], psi: dict[int, int]) -> dict[int, int]:
    """The half each edge must carry at its child end, from the cut equations.

    Across the edge above v, the subtree below must absorb its own total
    dimension: the sum of its vertex dimensions, less its psi weight and
    the weights of the edges inside it.  A balanced weighting exists iff
    every forced half lies in [0, k_e].
    """
    dims = [0] * len(tree.leaves)
    forced: dict[int, int] = {}
    for v in reversed(tree.order):
        d = tree.degree(v) - 3 - sum(psi.get(lab, 0) for lab in tree.leaves[v])
        for c in tree.children[v]:
            d += dims[c] - weight[c]
        dims[v] = d
        if tree.parent[v] is not None:
            forced[v] = d
    return forced


def certified_reason(tree: Tree, weight: dict[int, int], psi: dict[int, int]) -> str:
    forced = forced_halves(tree, weight, psi)
    if all(0 <= forced[v] <= weight[v] for v in tree.edges):
        return "ok"
    return "no_balance"


def unbalance(dec: Decoration, child: int, rng: random.Random) -> tuple[dict, dict] | None:
    """Move one unit of weight from outside ``child``'s subtree onto a leaf there.

    ``child`` carries half 0 at its end of its parent edge, so the forced
    half there becomes -1.  Returns (edge weights, psi) or None when no
    weight outside the subtree is left to move.
    """
    tree = dec.tree
    inside = tree.subtree(child)
    weight = {v: dec.weight(v) for v in tree.edges}
    psi = dict(dec.psi)
    sources = [("e", v) for v in tree.edges if v not in inside and weight[v]]
    sources += [("p", lab) for lab, k in sorted(psi.items())
                if k and not tree.block[child] >> (lab - 1) & 1]
    if not sources:
        return None
    kind, key = sources[rng.randrange(len(sources))]
    if kind == "e":
        weight[key] -= 1
    else:
        psi[key] -= 1
        if not psi[key]:
            del psi[key]
    target = rng.choice(tree.leaves[child]) if tree.leaves[child] else None
    if target is None:
        target = next(lab for v in sorted(inside) for lab in tree.leaves[v])
    psi[target] = psi.get(target, 0) + 1
    return weight, psi


def crosses(a: int, b: int, full: int) -> bool:
    """Two splits (as block masks) cross iff all four intersections are non-empty."""
    return bool(a & b and a & ~b & full and ~a & b & full and ~a & ~b & full)


def _labels(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def spell(n: int, divisors: list[tuple[int, int]], psi: dict[int, int], rng: random.Random,
          vary: bool = True) -> str:
    """Render a product in the m0nbar grammar, with seeded spelling variety.

    ``divisors`` holds (block mask, exponent) pairs.  With ``vary`` the side
    written is either block, sometimes both are written, labels are
    shuffled, exponents are sometimes split into repeated factors, and
    separators alternate between blanks and ``*``; without it the smaller
    side is written once, in order.
    """
    full = (1 << n) - 1
    factors = []
    for mask, exp in divisors:
        if not vary:
            side = mask if mask.bit_count() * 2 <= n else full ^ mask
            piece = "D{" + ",".join(map(str, _labels(side))) + "}"
            factors.append(piece + (f"^{exp}" if exp != 1 else ""))
            continue
        side = mask if rng.random() < 0.5 else full ^ mask
        labels = _labels(side)
        rng.shuffle(labels)
        piece = "D{" + ",".join(map(str, labels)) + "}"
        if rng.random() < 0.15:
            rest = _labels(full ^ side)
            rng.shuffle(rest)
            piece += "|{" + ",".join(map(str, rest)) + "}"
        if exp > 1 and rng.random() < 0.2:
            factors.append(piece)
            exp -= 1
        factors.append(piece + (f"^{exp}" if exp != 1 or rng.random() < 0.1 else ""))
    for lab, k in sorted(psi.items()):
        factors.append(f"psi{lab}" + (f"^{k}" if k != 1 else ""))
    if vary:
        rng.shuffle(factors)
        seps = [rng.choice((" ", " * ", "*", "  ")) for _ in factors[1:]]
        return factors[0] + "".join(s + f for s, f in zip(seps, factors[1:]))
    return " ".join(factors)


def _zero_child(tree: Tree) -> int | None:
    # the edge closest to halving the labels: a large subtree, so its clash
    # is found late, and a large outside to take the moved weight from
    return min(tree.edges, key=lambda v: abs(2 * tree.block[v].bit_count() - tree.n), default=None)


def make_instance(family: str, tree: Tree, reason: str, rng: random.Random,
                  psi_share: float = 0.5, vary: bool = True) -> Instance | None:
    """Build one instance of the requested reason on ``tree``, or None if impossible."""
    zero = _zero_child(tree) if reason == "no_balance" else None
    if reason == "no_balance" and zero is None:
        return None
    dec = balanced(tree, rng, psi_share, zero_child=zero)
    weight = {v: dec.weight(v) for v in tree.edges}
    psi = dict(dec.psi)
    extra: list[tuple[int, int]] = []
    value = reference_value(dec)
    if reason == "no_balance":
        moved = unbalance(dec, zero, rng)
        if moved is None:
            return None
        weight, psi = moved
        value = 0
        assert certified_reason(tree, weight, psi) == "no_balance"
    elif reason == "empty":
        if not tree.edges:
            return None
        target = tree.edges[rng.randrange(len(tree.edges))]
        full = (1 << tree.n) - 1
        inside, outside = _labels(tree.block[target]), _labels(full ^ tree.block[target])
        cross = 1 << (rng.choice(inside) - 1) | 1 << (rng.choice(outside) - 1)
        assert crosses(tree.block[target], cross, full)
        # keep the total degree: take one unit from some factor other than the target
        units = [("e", v) for v in tree.edges if v != target or weight[v]]
        units += [("p", lab) for lab in sorted(psi)]
        kind, key = units[rng.randrange(len(units))]
        if kind == "p":
            psi[key] -= 1
            if not psi[key]:
                del psi[key]
        elif weight[key]:
            weight[key] -= 1
        else:
            del weight[key]
        extra.append((cross, 1))
        value = 0
    else:
        assert certified_reason(tree, weight, psi) == "ok"
    divisors = [(tree.block[v], weight[v] + 1) for v in tree.edges if v in weight] + extra
    text = spell(tree.n, divisors, psi, rng, vary)
    return Instance(family, tree.n, text, reason, value, len(tree.edges))


def batch_small(seed: int, count: int) -> list[Instance]:
    """``count`` small products, n in 5..16, reasons cycling through BATCH_PATTERN.

    The two README expressions come first.
    """
    rng = random.Random(f"batch-small:{seed}")
    out = [Instance("readme", 15, text, "ok", value, 5) for text, value in README_EXPRESSIONS]
    while len(out) < count:
        reason = BATCH_PATTERN[len(out) % len(BATCH_PATTERN)]
        n = rng.choice(BATCH_N)
        tree = random_tree(n, rng, p_subdivide=rng.choice((0.2, 0.4, 0.6)))
        inst = make_instance("batch", tree, reason, rng)
        if inst is not None:
            out.append(inst)
    return out


# (n, count): more distinct strata at small n, so that the median op of
# stratum-large is sampled many times per run
RANDOM_LADDER = ((250, 4), (500, 4), (1000, 1), (2000, 1))
CATERPILLAR_LADDER = (200, 400, 800)
PSI_LADDER = (500, 1000)
# psi1 ... psi1997 has value 1997!, which has more than the 4300 digits
# CPython converts to text by default; it runs as a separate probe
PSI_PROBE_N = 2000


def psi_monomial(n: int) -> Instance:
    text = " ".join(f"psi{i}" for i in range(1, n - 2))
    return Instance("psi", n, text, "ok", math.factorial(n - 3), 0)


def stratum_large(variant: int) -> list[Instance]:
    """The large strata for one input variant.

    Each random stratum comes with its provably unbalanced twin on the same
    tree.
    """
    rng = random.Random(f"stratum-large:{variant}")
    out = []
    for n, count in RANDOM_LADDER:
        for index in range(count):
            tree = bushy_tree(n, rng)
            for family, reason in (("random", "ok"), ("unbalanced", "no_balance")):
                inst = make_instance(family, tree, reason, rng, psi_share=0.3, vary=False)
                out.append(dataclasses.replace(inst, index=index))
    for n in CATERPILLAR_LADDER:
        out.append(make_instance("caterpillar", caterpillar_tree(n, rng), "ok", rng, vary=False))
    out += [psi_monomial(n) for n in PSI_LADDER]
    return out


def decimal_to_int(text: str) -> int:
    """Parse a decimal string of any length without CPython's digit limit."""
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def decimal_digits(value: int) -> int:
    """Number of decimal digits of |value|, without converting it to text."""
    value = abs(value)
    if value == 0:
        return 1
    guess = max(1, int(value.bit_length() * 0.30102999566398120))
    while 10 ** guess <= value:
        guess += 1
    while guess > 1 and 10 ** (guess - 1) > value:
        guess -= 1
    return guess
