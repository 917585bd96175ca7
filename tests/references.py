"""Earlier implementations kept as references for the code that replaced
them: each computes its result its own way, and the tests compare."""

import itertools
import json
import math
import random
from pathlib import Path

import numpy as np

from narybands import (
    AssociativityWitness,
    ClassGroup,
    Classification,
    ConsistencyError,
    InputError,
    OpTable,
    StrongSystem,
    check_associative,
    check_idempotent,
    check_symmetric,
    extend,
    QuotientSemilattice,
    SigmaPartition,
    invariant_factors,
    lambda_table,
    require_band,
)


def covers_reference(q):
    """QuotientSemilattice.covers by the triple loop over leq: (upper,
    lower) with lower < upper and no class strictly between."""
    k = q.size
    out = []
    for a in range(k):
        for b in range(k):
            if a == b or not q.leq(b, a):
                continue
            if not any(c != a and c != b and q.leq(b, c) and q.leq(c, a) for c in range(k)):
                out.append((a, b))
    return out


def semilattice_laws_reference(t):
    """QuotientSemilattice's verdict on the binary table t by the three
    table scans, in its law order: None, or the error type and message."""
    for scan, law in (
        (check_symmetric, "commutative"),
        (check_idempotent, "idempotent"),
        (check_associative, "associative"),
    ):
        if scan(t) is not None:
            return ConsistencyError, f"meet table is not {law}"
    return None


def order_reference(q):
    """QuotientSemilattice's order queries read per pair off the meet
    table's values: meet_of, leq, uppers, comparable_pairs and the top-down
    order (fewest classes above first, then by index)."""
    k, values = q.size, q.meet.values
    meet = [list(values[a * k : (a + 1) * k]) for a in range(k)]
    uppers = tuple(tuple(d for d in range(k) if d != c and meet[c][d] == c) for c in range(k))
    return {
        "meet_of": meet,
        "leq": [[meet[sup][sub] == sub for sup in range(k)] for sub in range(k)],
        "uppers": uppers,
        "comparable_pairs": [(a, b) for a in range(k) for b in range(k) if meet[a][b] == b],
        "top_down": tuple(sorted(range(k), key=lambda c: (len(uppers[c]), c))),
    }


def hom_steps_reference(meet):
    """compose._hom_steps planned on the k x k meet array: the order and
    its covers from a boolean matrix product."""
    meet = np.asarray(meet)
    k = len(meet)
    leq = meet == np.arange(k)[:, None]  # leq[c, d]: c <= d
    less = leq & ~np.eye(k, dtype=bool)
    lo = less.astype(np.intp)
    # c < a is a cover when no class lies strictly between them
    covered = less & (lo @ lo == 0)
    leq, less, covered = np.stack([leq, less, covered]).tolist()
    uppers = [[d for d in range(k) if less[c][d]] for c in range(k)]
    steps = []
    for c in sorted(range(k), key=lambda c: (len(uppers[c]), c)):
        if uppers[c]:
            covers = tuple(a for a in range(k) if covered[c][a])
            routes = tuple((g, tuple(a for a in covers if leq[a][g])) for g in uppers[c])
            steps.append((c, covers, routes))
    return tuple(steps)


def group_laws_reference(cayley, e_pos, n):
    """The laws of an Abelian group with exponent dividing n-1 that the
    binary table cayley with neutral position e_pos fails, cell by cell, as
    (code, message) pairs in the order identity, commutativity,
    associativity, inverses, exponent."""
    k, cay = cayley.size, cayley.values
    out = []
    if any(cay[e_pos * k + i] != i or cay[i * k + e_pos] != i for i in range(k)):
        out.append(("group-identity", "neutral does not act as identity"))
    if not all(cay[i * k + j] == cay[j * k + i] for i in range(k) for j in range(k)):
        out.append(("group-commutative", "operation is not commutative"))
    if any(
        cay[cay[i * k + j] * k + l] != cay[i * k + cay[j * k + l]]
        for i in range(k)
        for j in range(k)
        for l in range(k)
    ):
        out.append(("group-associative", "operation is not associative"))
    if any(e_pos not in cay[i * k : (i + 1) * k] for i in range(k)):
        out.append(("group-inverse", "some element has no inverse"))
    if any(power_reference(cayley, i, n - 1) != e_pos for i in range(k)):
        out.append(("group-exponent", f"exponent does not divide {n - 1}"))
    return out


def group_law_violations_reference(system, n):
    """validate_system's group-law checks, one block per class group, as
    (code, message) pairs."""
    return [
        (code, f"class {g.class_index}: {message}")
        for g in system.groups
        for code, message in group_laws_reference(g.cayley, g.position(g.neutral), n)
    ]


def power_reference(cayley, i, count):
    """The count-fold product ((i * i) * i) * ... of position i in the
    binary table cayley (count >= 1), one product at a time until a
    product repeats, then read off the cycle the products run in."""
    products = [i]  # products[s] is the (s + 1)-fold product
    while len(products) < count:
        nxt = cayley.values[products[-1] * cayley.size + i]
        if nxt in products:
            start = products.index(nxt)
            return products[start + (count - 1 - start) % (len(products) - start)]
        products.append(nxt)
    return products[count - 1]


def pair_maps_reference(system):
    """Each connecting map as {x: image of x} over the upper class, keyed
    (upper, lower), read cell by cell from the flat image tuple wherever
    the quotient orders the pair."""
    k, classes = system.partition.size, system.partition.classes
    return {
        (a, b): {x: system.image[x * k + b] for x in classes[a]}
        for a in range(k)
        for b in range(k)
        if system.quotient.leq(b, a)
    }


def coherence_reference(system, chosen):
    """build_reduction's coherence error for the selection chosen, by the
    walk over pair_maps_reference: the message for the first strict pair
    (a, b) in order whose map does not send chosen[a] to chosen[b], or
    None."""
    for (a, b), images in sorted(pair_maps_reference(system).items()):
        if a != b and images[chosen[a]] != chosen[b]:
            return (
                f"selection is not coherent: map ({a}, {b}) sends {chosen[a]} "
                f"to {images[chosen[a]]}, not {chosen[b]}"
            )
    return None


def build_reduction_reference(system, selection, n):
    """build_reduction cell by cell, without its coherence checks: meet the
    two classes, map both arguments down, multiply there and then n-2
    times by the selected neutral."""
    chosen = selection.by_class
    m = system.size
    class_of = system.partition.class_of
    homs = pair_maps_reference(system)
    values = []
    for x in range(m):
        cx = class_of[x]
        for y in range(m):
            gamma = system.quotient.meet_of(cx, class_of[y])
            group = system.groups[gamma]
            u = homs[(cx, gamma)][x]
            v = homs[(class_of[y], gamma)][y]
            r = group.op(u, v)
            for _ in range(n - 2):
                r = group.op(r, chosen[gamma])
            values.append(r)
    return OpTable(2, m, tuple(values))


def assoc_witness_reference(t, starts):
    """check_associative by the tuple scan: for each start in order, every
    (2n-1)-tuple in lexicographic order, evaluating both nestings cell by
    cell; the first tuple where nesting at start and at start + 1 differ."""
    m, n = t.size, t.arity
    values = t.values

    def nested(args, start):
        # value of F(args[:start], F(args[start:start+n]), args[start+n:])
        inner = 0
        for k in range(start, start + n):
            inner = inner * m + args[k]
        code = 0
        for k in range(start):
            code = code * m + args[k]
        code = code * m + values[inner]
        for k in range(start + n, len(args)):
            code = code * m + args[k]
        return values[code]

    for s in starts:
        for args in itertools.product(range(m), repeat=2 * n - 1):
            if nested(args, s) != nested(args, s + 1):
                return AssociativityWitness(args, s + 1)
    return None


def multiset_index_reference(size, arity):
    """The argument multisets of an arity-ary table on size elements, in
    combinations_with_replacement order; the multiset number of each
    argument tuple in flat order; and the flat index of each multiset's
    sorted tuple.  Every argument tuple is sorted and looked up by the
    flat index of its sorted tuple, as the dense index once did."""
    multisets = tuple(itertools.combinations_with_replacement(range(size), arity))
    strides = size ** np.arange(arity - 1, -1, -1)
    rep_codes = np.asarray(multisets) @ strides
    rank = np.zeros(size**arity, dtype=np.intp)
    rank[rep_codes] = np.arange(len(multisets))
    digits = np.indices((size,) * arity, dtype=np.uint8).reshape(arity, -1)
    digits.sort(axis=0)
    codes = np.zeros(size**arity, dtype=np.intp)
    for row, stride in zip(digits, strides):
        codes += row * stride
    return multisets, rank[codes], rep_codes


def reductions_reference(t, symmetric_only=True):
    """brute_force_reductions by the plain scan: every binary table (every
    symmetric one when symmetric_only) whose (n-1)-fold extension is t and
    which is associative, in order of values."""
    m, n = t.size, t.arity
    cells = [(x, y) for x in range(m) for y in range(x if symmetric_only else 0, m)]
    out = []
    for digits in itertools.product(range(m), repeat=len(cells)):
        chosen = dict(zip(cells, digits))
        values = (chosen.get((x, y), chosen.get((y, x))) for x in range(m) for y in range(m))
        g = OpTable(2, m, tuple(values))
        if extend(g, n - 1) == t and check_associative(g) is None:
            out.append(g)
    return sorted(out, key=lambda g: g.values)


def hom_violations_reference(system, n):
    """validate_system's checks of the connecting maps, pair by pair through
    per-pair dicts (pair_maps_reference), as (code, message) pairs: identity
    and multiplicative per pair in key order, then coherence along every
    chain a >= b >= c."""
    out = []
    homs = pair_maps_reference(system)
    for (a, b), hom in sorted(homs.items()):
        if a == b and any(x != y for x, y in hom.items()):
            out.append(("hom-identity", f"map ({a}, {a}) is not the identity"))
        # phi(x * y) = phi(x) * phi(y) * phi(e)^(n-2) in the target group
        gu, gl = system.groups[a], system.groups[b]
        shift = gl.position(hom[gu.neutral])
        tail = power_reference(gl.cayley, shift, n - 2) if n > 2 else None

        def rhs(x, y):
            r = gl.op_position(gl.position(hom[x]), gl.position(hom[y]))
            return r if tail is None else gl.op_position(r, tail)

        if any(
            gl.position(hom[gu.op(x, y)]) != rhs(x, y)
            for x in gu.members
            for y in gu.members
        ):
            message = f"map ({a}, {b}) is not a homomorphism of the class extensions"
            out.append(("hom-multiplicative", message))
    for a, b in sorted(homs):
        for c in range(system.quotient.size):
            if (b, c) in homs and (a, c) in homs:
                upper, lower, direct = homs[(a, b)], homs[(b, c)], homs[(a, c)]
                if any(lower[upper[x]] != direct[x] for x in direct):
                    message = f"maps along {a} >= {b} >= {c} do not compose coherently"
                    out.append(("hom-composition", message))
    return out


def make_group_reference(factors, order):
    """make_group's values cell by cell: digit-wise sums, first factor most
    significant, without the arity checks."""
    values = []
    for x in range(order):
        for y in range(order):
            rx, ry = x, y
            digits = []
            for f in reversed(factors):
                digits.append((rx % f + ry % f) % f)
                rx //= f
                ry //= f
            code = 0
            for f, d in zip(factors, reversed(digits)):
                code = code * f + d
            values.append(code)
    return OpTable(2, order, tuple(values))


def associated_band_reference(t):
    """associated_band without its band check: row x read from the code
    of (x, ..., x, 0), built digit by digit."""
    m, n = t.size, t.arity
    values = []
    for x in range(m):
        head = 0
        for _ in range(n - 1):
            head = head * m + x
        base = head * m
        values.extend(t.values[base : base + m])
    return OpTable(2, m, tuple(values))


def neutral_elements_reference(t):
    """neutral_elements cell by cell: e such that every slot of
    (e, ..., e, x, e, ..., e) gives x back."""
    m, n = t.size, t.arity
    return frozenset(
        e
        for e in range(m)
        if all(t.eval((e,) * slot + (x,) + (e,) * (n - 1 - slot)) == x for slot in range(n) for x in range(m))
    )


def class_group_reference(t, members, e=None, index=0):
    """class_group reading each cell t(x, e, ..., e, y) through t.eval and
    checking the laws cell by cell (group_laws_reference)."""
    members = tuple(sorted(members))
    if e is None:
        e = members[0]
    if e not in members:
        raise InputError(f"neutral candidate {e} is not a member")
    pos = {x: i for i, x in enumerate(members)}
    mid = [e] * (t.arity - 2)
    values = []
    for x in members:
        for y in members:
            v = t.eval((x, *mid, y))
            if v not in pos:
                raise ConsistencyError(f"class is not closed: ({x}, {y}) -> {v}")
            values.append(pos[v])
    cayley = OpTable(2, len(members), tuple(values))
    failed = group_laws_reference(cayley, pos[e], t.arity)
    if failed:
        raise ConsistencyError(f"class {index}: {failed[0][1]}")
    sig = invariant_factors(cayley, pos[e])
    if math.prod(sig) != len(members) or any((t.arity - 1) % d != 0 for d in sig):
        raise ConsistencyError(f"factor signature {sig} inconsistent with class of order {len(members)}")
    return ClassGroup(index, members, e, cayley, sig)


def classify_reference(t, verify=True):
    """classify by comparing translation rows: all identity is a group
    extension, all distinct a semilattice extension."""
    lam = lambda_table(t, verify=verify)
    if t.size == 1:
        return Classification.GROUP_EXTENSION
    identity = tuple(range(t.size))
    if all(row == identity for row in lam.rows):
        return Classification.GROUP_EXTENSION
    if len(set(lam.rows)) == t.size:
        return Classification.SEMILATTICE_EXTENSION
    return Classification.GENERAL


def image_matrix_reference(band, partition, semilattice):
    """StrongSystem.image read off the associated band's values, checked
    cell by cell: the image of x in a class c at or below the class of x
    is B(y, x), for any y in c.  ConsistencyError, for the first comparable
    pair in order, when the members of the lower class disagree or an
    image escapes it."""
    class_of, k = np.asarray(partition.class_of), partition.size
    values = np.reshape(band, (len(class_of), len(class_of)))
    # below[x, c]: c is at or below the class of x
    below = np.array([[semilattice.leq(c, a) for c in range(k)] for a in range(k)])[class_of]
    image = np.where(below, values[[c[0] for c in partition.classes]].T, -1)
    # wrong[y, x]: B(y, x) is not the image of x in the class of y, or escapes it
    wrong = (values != image[:, class_of].T) | (class_of[values] != class_of[:, None])
    ys, xs = (below[:, class_of].T & wrong).nonzero()
    if len(ys):
        upper, lower = min(zip(class_of[xs].tolist(), class_of[ys].tolist()))
        rows = values[np.ix_(partition.classes[lower], partition.classes[upper])]
        if (rows != rows[0]).any():
            raise ConsistencyError(f"translation maps from class {lower} disagree on class {upper}")
        escaped = next(v for v in rows[0].tolist() if class_of[v] != lower)
        raise ConsistencyError(f"translation image {escaped} escapes class {lower}")
    return tuple(image.ravel().tolist())


def quotient_reference(t, partition):
    """quotient by folding every combination of representatives through the
    partition, one tuple of classes at a time, on t and on its associated
    band read digit by digit (associated_band_reference)."""
    if len(partition.class_of) != t.size:
        raise InputError("partition size does not match table size")
    k = partition.size
    class_of = partition.class_of

    def classwise(table):
        out = []
        for cls_args in itertools.product(range(k), repeat=table.arity):
            result = None
            for combo in itertools.product(*(partition.classes[c] for c in cls_args)):
                code = 0
                for a in combo:
                    code = code * table.size + a
                got = class_of[table.values[code]]
                if result is None:
                    result = got
                elif got != result:
                    raise ConsistencyError(
                        f"cell {cls_args} depends on representatives; not a congruence"
                    )
            out.append(result)
        return OpTable(table.arity, k, tuple(out))

    t_quotient = classwise(t)
    band_quotient = classwise(associated_band_reference(t))
    return t_quotient, band_quotient, QuotientSemilattice(band_quotient)


def decompose_reference(t, verify=True):
    """decompose by checking first: the band scan, then the sigma classes
    as the equal rows of B(x, y) = t(x, ..., x, y) read through t.eval,
    the meet from quotient_reference's loop over every cell of t and of
    its associated band, the class groups and the connecting maps checked
    cell by cell, with no check that the system composes back to t."""
    if verify:
        require_band(t)
    m, n = t.size, t.arity
    rows = [tuple(t.eval((x,) * (n - 1) + (y,)) for y in range(m)) for x in range(m)]
    by_row = {}
    for x, row in enumerate(rows):
        by_row.setdefault(row, []).append(x)
    classes = sorted(tuple(c) for c in by_row.values())
    class_of = [next(i for i, c in enumerate(classes) if x in c) for x in range(m)]
    partition = SigmaPartition(class_of, classes)
    _, _, semilattice = quotient_reference(t, partition)
    groups = tuple(class_group_reference(t, c, index=i) for i, c in enumerate(classes))
    image = image_matrix_reference(rows, partition, semilattice)
    return StrongSystem(t.arity, partition, semilattice, groups, image)


# A corpus of bands past the catalogs: numpy arrays of shape (m,) * n,
# indexed by argument tuples, built with numpy alone, each with the facts
# its factors fix: the sorted sizes of its classes (their count is the
# class count, each the order of its class group) and its reducibility.


def _grids(m, n):
    return np.broadcast_arrays(*np.ix_(*[np.arange(m)] * n))


def chain_band(c, n):
    """n-ary min on the chain 0 < ... < c-1: c one-element classes, reduced
    by binary min."""
    return np.minimum.reduce(_grids(c, n)), {"sizes": (1,) * c, "reducible": True}


def sum_band(d, n):
    """n-ary sum mod d, a band when d divides n - 1: one class, the group
    Z_d, reduced by binary sum mod d."""
    assert (n - 1) % d == 0
    return sum(_grids(d, n)) % d, {"sizes": (d,), "reducible": True}


# the ternary fixtures' facts; acceptance 06 pins the reducibility of the
# two four-element ones
FIXTURE_FACTS = {
    "reducible4": ((1, 1, 2), True),
    "irreducible4": ((1, 1, 2), False),
    "tmin3": ((1, 1, 1), True),
    "txor2": ((2,), True),
}


def fixture_band(name):
    doc = json.loads((Path(__file__).parent / "fixtures" / f"{name}.json").read_text())
    sizes, reducible = FIXTURE_FACTS[name]
    shape = (len(doc["elements"]),) * doc["arity"]
    return np.reshape(doc["values"], shape), {"sizes": sizes, "reducible": reducible}


def product_band(first, second):
    """The direct product, element (x, y) numbered x * |second| + y: its
    classes are the products of the factors' classes, and it is reducible
    iff both factors are."""
    (a, facts_a), (b, facts_b) = first, second
    left, right = np.divmod(np.arange(len(a) * len(b)), len(b))
    t = a[np.ix_(*[left] * a.ndim)] * len(b) + b[np.ix_(*[right] * b.ndim)]
    sizes = tuple(sorted(x * y for x in facts_a["sizes"] for y in facts_b["sizes"]))
    return t, {"sizes": sizes, "reducible": facts_a["reducible"] and facts_b["reducible"]}


def relabeled_band(band, perm):
    """band relabeled by perm: perm(args) goes to perm(t(args))."""
    t, facts = band
    perm = np.asarray(perm)
    return perm[t[np.ix_(*[np.argsort(perm)] * t.ndim)]], facts


def product_corpus(seed):
    """(name, t, facts) for the products of every two factors of one arity,
    and of three at n = 3, each relabeled by a seeded random permutation.
    The factors: chains of 1-3 elements, sums mod each d > 1 dividing
    n - 1, and at n = 3 the four band fixtures.  Products stop at 36
    elements at n = 3, 12 at n = 5 and 9 at n = 4."""
    rng = random.Random(seed)
    out = []
    for n, limit in ((3, 36), (4, 9), (5, 12)):
        factors = {f"chain{c}": chain_band(c, n) for c in (1, 2, 3)}
        factors.update({f"sum{d}": sum_band(d, n) for d in range(2, n) if (n - 1) % d == 0})
        if n == 3:
            factors.update({name: fixture_band(name) for name in FIXTURE_FACTS})
        for count in (2, 3) if n == 3 else (2,):
            for names in itertools.combinations_with_replacement(sorted(factors), count):
                band = factors[names[0]]
                for name in names[1:]:
                    band = product_band(band, factors[name])
                m = len(band[0])
                if m <= limit:
                    perm = rng.sample(range(m), m)
                    out.append(("x".join(names) + f"-n{n}", *relabeled_band(band, perm)))
    return out
