"""Earlier implementations kept as references for the code that replaced
them: each computes its result its own way, and the tests compare."""

import itertools
import math

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
    class_group,
    extend,
    invariant_factors,
    lambda_table,
    quotient,
    require_band,
)
from narybands.bandcore import _rows_sigma
from narybands.structure import _failed_group_laws


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


def group_law_violations_reference(system, n):
    """validate_system's group-law checks, one block per class group, as
    (code, message) pairs."""
    out = []
    for g in system.groups:
        k = g.order
        cay = g.cayley.values
        e_pos = g.position(g.neutral)
        label = f"class {g.class_index}"
        if any(cay[e_pos * k + i] != i or cay[i * k + e_pos] != i for i in range(k)):
            out.append(("group-identity", f"{label}: neutral does not act as identity"))
        commutative = all(cay[i * k + j] == cay[j * k + i] for i in range(k) for j in range(k))
        if not commutative:
            out.append(("group-commutative", f"{label}: operation is not commutative"))
        if any(
            cay[cay[i * k + j] * k + l] != cay[i * k + cay[j * k + l]]
            for i in range(k)
            for j in range(k)
            for l in range(k)
        ):
            out.append(("group-associative", f"{label}: operation is not associative"))
        if any(e_pos not in cay[i * k : (i + 1) * k] for i in range(k)):
            out.append(("group-inverse", f"{label}: some element has no inverse"))
        if any(g.power_position(i, n - 1) != e_pos for i in range(k)):
            out.append(("group-exponent", f"{label}: exponent does not divide {n - 1}"))
    return out


def build_reduction_reference(system, selection, n):
    """build_reduction cell by cell, without its coherence checks: meet the
    two classes, map both arguments down, multiply there and then n-2
    times by the selected neutral."""
    chosen = selection.by_class
    m = system.size
    class_of = system.partition.class_of
    values = []
    for x in range(m):
        cx = class_of[x]
        for y in range(m):
            gamma = system.quotient.meet_of(cx, class_of[y])
            group = system.groups[gamma]
            u = system.homs[(cx, gamma)].apply(x)
            v = system.homs[(class_of[y], gamma)].apply(y)
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
    the HomMap views, as (code, message) pairs: identity and multiplicative
    per pair in key order, then coherence along every chain a >= b >= c."""
    out = []
    homs = system.homs
    for (a, b), hom in sorted(homs.items()):
        if a == b and any(x != y for x, y in hom.mapping):
            out.append(("hom-identity", f"map ({a}, {a}) is not the identity"))
        # phi(x * y) = phi(x) * phi(y) * phi(e)^(n-2) in the target group
        gu, gl = system.groups[a], system.groups[b]
        shift = gl.position(hom.apply(gu.neutral))
        tail = gl.power_position(shift, n - 2) if n > 2 else None

        def rhs(x, y):
            r = gl.op_position(gl.position(hom.apply(x)), gl.position(hom.apply(y)))
            return r if tail is None else gl.op_position(r, tail)

        if any(
            gl.position(hom.apply(gu.op(x, y))) != rhs(x, y)
            for x in gu.members
            for y in gu.members
        ):
            message = f"map ({a}, {b}) is not a homomorphism of the class extensions"
            out.append(("hom-multiplicative", message))
    for a, b in sorted(homs):
        for c in range(system.quotient.size):
            if (b, c) in homs and (a, c) in homs:
                upper, lower, direct = homs[(a, b)], homs[(b, c)], homs[(a, c)]
                if any(lower.apply(upper.apply(x)) != direct.apply(x) for x, _ in direct.mapping):
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
    """class_group reading each cell t(x, e, ..., e, y) through t.eval, the
    checks after the cell reads shared with the library."""
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
    failed = next(_failed_group_laws(cayley, pos[e], t.arity), None)
    if failed is not None:
        raise ConsistencyError(f"class {index}: {failed[1]}")
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


def decompose_reference(t, verify=True):
    """decompose by checking first: the band scan, then the sigma classes,
    the meet from quotient's loop over every cell of t and of its
    associated band, the class groups and the connecting maps checked
    cell by cell, with no check that the system composes back to t."""
    if verify:
        require_band(t)
    lam = lambda_table(t, verify=False)
    partition = _rows_sigma(lam)
    _, _, semilattice = quotient(t, partition)
    groups = tuple(class_group(t, c, index=i) for i, c in enumerate(partition.classes))
    image = image_matrix_reference(lam.rows, partition, semilattice)
    return StrongSystem(t.arity, partition, semilattice, groups, image)
