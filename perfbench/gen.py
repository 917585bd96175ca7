"""Seeded inputs and their expected answers for the in-process workloads.

Every input is built from a seed, and its expected answer comes from how it
was built or from oracle.py, never from narybands.  Inputs are generated in
rounds: a round is a fixed list of strata (shape and kind), and the seed
picks the labeling, the block pair and the perturbation inside each
stratum.  Whole rounds keep the cost mix of a run the same on every seed.
"""

import itertools
import json
import random
from dataclasses import dataclass
from functools import lru_cache

import oracle

# block -> (builder taking the arity, whether its bands are reducible)
BLOCKS = {
    "chain1": (lambda n: oracle.chain_min(1, n), True),
    "chain2": (lambda n: oracle.chain_min(2, n), True),
    "chain3": (lambda n: oracle.chain_min(3, n), True),
    "chain4": (lambda n: oracle.chain_min(4, n), True),
    "and4": (oracle.bitwise_and4, True),
    "sum2": (lambda n: oracle.sum_mod(2, n), True),
    "sum3": (lambda n: oracle.sum_mod(3, n), True),
    "sum4": (lambda n: oracle.sum_mod(4, n), True),
    "red4": (lambda n: oracle.fixture(oracle.REDUCIBLE4), True),
    "irr4": (lambda n: oracle.fixture(oracle.IRREDUCIBLE4), False),
}

# The quinary bands with four elements that products of blocks give; their
# labeled pool is about 50 tables, so one stratum draws from all of them.
_QUINARY_BANDS = (
    ("chain4", "chain1"), ("and4", "chain1"), ("chain2", "sum2"),
    ("sum4", "chain1"), ("sum2", "sum2"),
)

# One round of `analyze`: 16 bands and 9 near-bands.  The counts are odd so
# that every median falls inside one stratum rather than between two.
ANALYZE_ROUND = (
    ("band", 3, (("chain4", "chain4"),)),
    ("band", 3, (("red4", "irr4"),)),
    ("band", 3, (("red4", "red4"),)),
    ("band", 3, (("irr4", "chain3"),)),
    ("band", 3, (("and4", "chain3"),)),
    ("band", 3, (("red4", "sum2"),)),
    ("band", 3, (("and4", "sum2"),)),
    ("band", 3, (("irr4", "chain2"),)),
    ("band", 3, (("irr4", "sum2"),)),
    ("band", 3, (("chain4", "chain2"),)),
    ("band", 3, (("chain3", "sum2"),)),
    ("band", 3, (("chain3", "chain2"),)),
    ("band", 4, (("chain2", "sum3"),)),
    ("band", 4, (("sum3", "chain2"),)),
    ("band", 4, (("chain3", "chain2"),)),
    ("band", 5, _QUINARY_BANDS),
    ("near-band", 3, (("red4", "irr4"),)),
    ("near-band", 3, (("chain4", "chain3"),)),
    ("near-band", 3, (("and4", "sum2"),)),
    ("near-band", 3, (("chain3", "sum2"),)),
    ("near-band", 3, (("irr4", "chain1"),)),
    ("near-band", 4, (("chain2", "sum3"),)),
    ("near-band", 4, (("and4", "chain1"),)),
    ("near-band", 5, (("sum4", "chain1"),)),
    ("near-band", 5, (("sum2", "sum2"),)),
)

# One round of `reduce-wide`: every k, both halves, both arities.
GADGET_KS = tuple(range(6, 14))
GADGET_ARITIES = (3, 5)

_TRIES = 200


@dataclass
class Op:
    text: str
    kind: str
    expected: dict


class Stream:
    """Seeded op generator that never hands out the same input twice.

    `seen` is shared between the warm-up and the timed stream of a run, so
    no timed input equals a warm-up input.  A stratum whose labeled pool is
    used up repeats an input rather than loop forever; `repeats` counts
    those, and the run reports it.
    """

    def __init__(self, label: str, seen: set):
        self.rng = random.Random(label)
        self.seen = seen
        self.repeats = 0

    def fresh(self, draw) -> Op:
        """draw() until it gives an input not handed out before."""
        for _ in range(_TRIES):
            op = draw()
            if op.text not in self.seen:
                self.seen.add(op.text)
                return op
        self.repeats += 1
        return op


def table_text(t) -> str:
    labels = [str(i) for i in range(t.shape[0])]
    return json.dumps({"arity": t.ndim, "elements": labels, "values": t.ravel().tolist()})


@lru_cache(maxsize=None)
def _mixed_multisets(m: int, n: int) -> tuple:
    """Argument multisets with at least two distinct elements."""
    return tuple(
        c for c in itertools.combinations_with_replacement(range(m), n) if len(set(c)) > 1
    )


def _band_expected(t, reducible: bool) -> dict:
    classes = oracle.sigma_classes(t)
    return {
        "classification": oracle.classification(classes, t.shape[0]),
        "classes": classes,
        "validate": 0,
        "compose": oracle.digest(t.ravel().tolist()),
        "json_classes": classes,
        "reducible": reducible,
        "verify": 0 if reducible else None,
    }


def _analyze_op(stream: Stream, kind: str, n: int, pairs) -> Op:
    rng = stream.rng
    a, b = pairs[rng.randrange(len(pairs))]
    build_a, red_a = BLOCKS[a]
    build_b, red_b = BLOCKS[b]
    t = oracle.product(build_a(n), build_b(n))
    m = t.shape[0]
    t = oracle.relabel(t, rng.sample(range(m), m))
    if kind == "band":
        return Op(table_text(t), kind, _band_expected(t, red_a and red_b))
    # near-band: reassign one mixed argument multiset, so the table stays
    # symmetric and idempotent; redraw the rare perturbation that is a band
    multisets = _mixed_multisets(m, n)
    while True:
        cells = multisets[rng.randrange(len(multisets))]
        near = t.copy()
        old = int(near[cells])
        value = (old + 1 + rng.randrange(m - 1)) % m
        for args in set(itertools.permutations(cells)):
            near[args] = value
        if not (oracle.is_symmetric(near) and oracle.is_idempotent(near)):
            raise RuntimeError("a near-band lost symmetry or idempotency")
        witness = oracle.associativity_witness(near)
        if witness is not None:
            break
    args, position = witness
    expected = {"violation": "associative", "args": list(args), "position": position}
    return Op(table_text(near), kind, expected)


def analyze_rounds(stream: Stream, count: int) -> list[list[Op]]:
    rounds = []
    for _ in range(count):
        order = list(ANALYZE_ROUND)
        stream.rng.shuffle(order)
        rounds.append(
            [stream.fresh(lambda s=s: _analyze_op(stream, *s)) for s in order]
        )
    return rounds


# --- reduce-wide: the reducibility gadget ---------------------------------
#
# k free maximal classes D_i ~ Z2 over a trivial bottom, plus maximal A, B,
# C ~ Z2 whose pairwise meets AB, BC, CA ~ Z2 sit over the same bottom.
# Every connecting map is the positional identity, except that the
# irreducible half shifts A -> CA by one, forcing a = b = c = a + 1.

_UNDER = {"AB": ("A", "B"), "BC": ("B", "C"), "CA": ("C", "A")}
_MEETS = {frozenset(v): k for k, v in _UNDER.items()}


def _leq(lo: str, hi: str) -> bool:
    return lo == hi or lo == "bot" or hi in _UNDER.get(lo, ())


def _meet(x: str, y: str) -> str:
    if _leq(x, y):
        return x
    if _leq(y, x):
        return y
    return _MEETS.get(frozenset((x, y)), "bot")


def gadget(k: int, n: int, reducible: bool, rng: random.Random):
    """(system document, expected reduction document) for one gadget."""
    names = [f"D{i}" for i in range(k)] + ["A", "B", "C", "AB", "BC", "CA", "bot"]
    rng.shuffle(names)
    index = {c: i for i, c in enumerate(names)}
    members, next_id = {}, 0
    for c in names:
        width = 1 if c == "bot" else 2
        members[c] = list(range(next_id, next_id + width))
        next_id += width
    size = next_id

    def image(hi: str, lo: str, pos: int) -> int:
        if lo == "bot":
            return members[lo][0]
        if not reducible and (hi, lo) == ("A", "CA"):
            pos = 1 - pos
        return members[lo][pos]

    homs = []
    for hi in names:
        for lo in names:
            if _leq(lo, hi):
                mapping = {str(x): image(hi, lo, p) for p, x in enumerate(members[hi])}
                homs.append({"from": index[hi], "to": index[lo], "map": mapping})
    groups = []
    for c in names:
        e = members[c]
        cayley = [[e[(i + j) % len(e)] for j in range(len(e))] for i in range(len(e))]
        groups.append({"class": index[c], "neutral": e[0], "cayley": cayley})
    labels = [str(i) for i in range(size)]
    doc = {
        "arity": n,
        "elements": labels,
        "classes": [members[c] for c in names],
        "meet": [[index[_meet(x, y)] for y in names] for x in names],
        "groups": groups,
        "homs": homs,
    }
    if reducible:
        # the search keeps each maximal class's least member; the neutral
        # is that member, so G(x, y) adds positions in the meet class
        class_of = {x: c for c in names for x in members[c]}
        pos = {x: p for c in names for p, x in enumerate(members[c])}
        values = []
        for x in range(size):
            for y in range(size):
                g = _meet(class_of[x], class_of[y])
                values.append(members[g][(pos[x] + pos[y]) % len(members[g])])
        result = {
            "reducible": True,
            "selection": {str(index[c]): members[c][0] for c in names},
            "table": {"arity": 2, "elements": labels, "values": values},
        }
    else:
        # the search fails at every meet of A, B, C; the witness is the one
        # with the least class index, with both its members as images and
        # both members of both classes above it as sources
        low = min(_UNDER, key=lambda c: index[c])
        uppers = sorted(_UNDER[low], key=lambda c: index[c])
        result = {
            "reducible": False,
            "witness": {
                "class": index[low],
                "images": members[low],
                "sources": [[index[c], x] for c in uppers for x in members[c]],
            },
        }
    return doc, result


def _gadget_op(stream: Stream, k: int, n: int, reducible: bool) -> Op:
    doc, result = gadget(k, n, reducible, stream.rng)
    expected = {"validate": 0, "reducible": reducible, "result": oracle.digest(result)}
    kind = "reducible" if reducible else "irreducible"
    return Op(json.dumps(doc), kind, expected)


def reduce_rounds(stream: Stream, count: int) -> list[list[Op]]:
    strata = list(itertools.product(GADGET_KS, GADGET_ARITIES, (True, False)))
    rounds = []
    for _ in range(count):
        stream.rng.shuffle(strata)
        rounds.append([stream.fresh(lambda s=s: _gadget_op(stream, *s)) for s in strata])
    return rounds
