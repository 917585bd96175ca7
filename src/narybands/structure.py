"""Strong semilattice decomposition of a symmetric n-ary band.

Every symmetric n-ary band splits into a semilattice of classes, each
carrying an Abelian group whose exponent divides n-1, glued together by
connecting homomorphisms.  This module extracts that system from a table,
validates a system given independently, and serializes both ways.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError, InputError, Violation
from .bandcore import QuotientSemilattice, SigmaPartition, _rows_sigma, lambda_table
from .optable import (
    OpTable,
    _multiset_args,
    _orbit_values,
    _read_only,
    _strides,
    check_associative,
    check_symmetric,
    require_band,
    symmetric_table,
)


@dataclass(frozen=True)
class ClassGroup:
    """One class of the decomposition as an Abelian group.

    cayley is position-based: entry (i, j) is the position within members
    of members[i] * members[j].  neutral is a global element index.
    """

    class_index: int
    members: tuple[int, ...]
    neutral: int
    cayley: OpTable
    factor_signature: tuple[int, ...]

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "factor_signature", tuple(self.factor_signature))
        if not members or list(members) != sorted(set(members)):
            raise InputError("members must be nonempty, sorted, and distinct")
        if self.neutral not in members:
            raise InputError(f"neutral {self.neutral} is not a member")
        if self.cayley.arity != 2 or self.cayley.size != len(members):
            raise InputError("cayley must be binary over the member positions")
        object.__setattr__(self, "_pos", {x: i for i, x in enumerate(members)})

    @property
    def order(self) -> int:
        return len(self.members)

    def position(self, x: int) -> int:
        try:
            return self._pos[x]
        except KeyError:
            raise InputError(f"element {x} is not in class {self.class_index}") from None

    def op(self, x: int, y: int) -> int:
        """Group product of two global elements."""
        k = self.order
        return self.members[self.cayley.values[self.position(x) * k + self.position(y)]]

    def op_position(self, i: int, j: int) -> int:
        return self.cayley.values[i * self.order + j]


def _power(f, x: int, count: int) -> int:
    """f, a sequence of positions, applied count >= 0 times to x as the step
    loop would, in at most len(f) + 1 steps: the walk stops at its first
    repeated position and indexes into the cycle."""
    seen = {}  # position: step
    while len(seen) < count and x not in seen:
        seen[x] = len(seen)
        x = f[x]
    if len(seen) < count:  # x is back at step seen[x]
        path, start = list(seen), seen[x]
        x = path[start + (count - start) % (len(path) - start)]
    return x


def _orders(values, size, neutral):
    orders = []
    for x in range(size):
        p = x
        count = 1
        while p != neutral:
            p = values[p * size + x]
            count += 1
            if count > size:
                raise ConsistencyError("power chain never reaches the neutral element")
        orders.append(count)
    return orders


def _invariant_factors(values, size, neutral):
    if size == 1:
        return ()
    orders = _orders(values, size, neutral)
    top = max(orders)
    gen = orders.index(top)
    cyclic = [neutral]
    p = values[neutral * size + gen]
    while p != neutral:
        cyclic.append(p)
        p = values[p * size + gen]
    coset_of = {}
    reps = []
    for x in range(size):
        if x in coset_of:
            continue
        cid = len(reps)
        reps.append(x)
        for h in cyclic:
            coset_of[values[x * size + h]] = cid
    count = len(reps)
    quot = [
        coset_of[values[reps[i] * size + reps[j]]] for i in range(count) for j in range(count)
    ]
    return _invariant_factors(quot, count, coset_of[neutral]) + (top,)


def invariant_factors(table: OpTable, neutral: int = 0) -> tuple[int, ...]:
    """Invariant-factor signature (d1, ..., dr), d1 | d2 | ... | dr, of a
    finite Abelian group given by its Cayley table and identity index.

    Derived by repeatedly splitting off a cyclic subgroup of maximal order.
    The table must be a commutative group table; cheap symptoms of anything
    else raise ConsistencyError.
    """
    if table.arity != 2:
        raise InputError("group table must be binary")
    if not 0 <= neutral < table.size:
        raise InputError(f"neutral index {neutral} out of range")
    k = table.size
    full = list(range(k))
    for x in range(k):
        if sorted(table.values[x * k : (x + 1) * k]) != full:
            raise ConsistencyError(f"row {x} is not a permutation; not a group table")
        for y in range(x):
            if table.values[x * k + y] != table.values[y * k + x]:
                raise ConsistencyError("table is not commutative")
    return _invariant_factors(table.values, k, neutral)


def _failed_group_laws(cayley: OpTable, e_pos: int, n: int):
    """The laws of an Abelian group with exponent dividing n-1 that the
    binary table cayley, with neutral position e_pos, fails, each as
    (code, message), in the order identity, commutativity, associativity,
    inverses, exponent.  A generator, so the first failure costs no more
    checks."""
    k = cayley.size
    cay = cayley.values
    if any(cay[e_pos * k + i] != i or cay[i * k + e_pos] != i for i in range(k)):
        yield "group-identity", "neutral does not act as identity"
    if check_symmetric(cayley) is not None:
        yield "group-commutative", "operation is not commutative"
    if check_associative(cayley) is not None:
        yield "group-associative", "operation is not associative"
    if any(e_pos not in cay[i * k : (i + 1) * k] for i in range(k)):
        yield "group-inverse", "some element has no inverse"
    # column i maps p to p * i: i^(n-1) is its (n-2)-th power at i
    if any(_power(cay[i::k], i, n - 2) != e_pos for i in range(k)):
        yield "group-exponent", f"exponent does not divide {n - 1}"


def class_group(t: OpTable, members, e: int | None = None, index: int = 0) -> ClassGroup:
    """Group structure on one sigma class: x * y = t(x, e, ..., e, y).

    e defaults to the least member.  Closure, the group axioms,
    commutativity, and exponent dividing arity-1 are all verified; a
    failure means members is not a sigma class of a symmetric band and
    raises ConsistencyError.
    """
    members = tuple(sorted(members))
    if not members or len(set(members)) != len(members):
        raise InputError("members must be a nonempty set of elements")
    for x in members:
        if not 0 <= x < t.size:
            raise InputError(f"member {x} outside the carrier")
    if e is None:
        e = members[0]
    if e not in members:
        raise InputError(f"neutral candidate {e} is not a member")
    k = len(members)
    pos = {x: i for i, x in enumerate(members)}
    strides = _strides(t.size, t.arity)
    mid = e * sum(strides[1:-1])
    values = []
    for x in members:
        row = x * strides[0] + mid
        for y in members:
            v = t.values[row + y]
            if v not in pos:
                raise ConsistencyError(f"class is not closed: ({x}, {y}) -> {v}")
            values.append(pos[v])
    cayley = OpTable(2, k, tuple(values))
    failed = next(_failed_group_laws(cayley, pos[e], t.arity), None)
    if failed is not None:
        raise ConsistencyError(f"class {index}: {failed[1]}")
    sig = invariant_factors(cayley, pos[e])
    if math.prod(sig) != k or any((t.arity - 1) % d != 0 for d in sig):
        raise ConsistencyError(f"factor signature {sig} inconsistent with class of order {k}")
    return ClassGroup(index, members, e, cayley, sig)


@dataclass(frozen=True)
class StrongSystem:
    """Semilattice of classes, a group per class, coherent connecting maps.

    partition splits the m elements into k classes, quotient orders them
    and groups holds one ClassGroup per class; arity is the n reducibility
    is decided at and validation and composition default to.  image holds
    every connecting map as one flat m x k matrix of elements:
    image[x * k + c] is the image of x in class c if c is at or below the
    class of x, else -1.  Built, a system holds its data as the three
    read-only arrays _compose_orbits takes: _image, the m x k matrix; _meet,
    the quotient's own k x k meet; _cayleys, the class tables end to end.
    """

    arity: int
    partition: SigmaPartition
    quotient: QuotientSemilattice
    groups: tuple[ClassGroup, ...]
    image: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.arity, int) or self.arity < 2:
            raise InputError(f"arity must be an integer >= 2, got {self.arity!r}")
        groups, image = tuple(self.groups), tuple(int(v) for v in self.image)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "image", image)
        m, k = self.size, self.partition.size
        if self.quotient.size != k or len(groups) != k:
            raise InputError("partition, quotient, and groups disagree on class count")
        for i, g in enumerate(groups):
            if g.class_index != i:
                raise InputError(f"group at slot {i} carries class_index {g.class_index}")
            if g.members != self.partition.classes[i]:
                raise InputError(f"group {i} members disagree with the partition")
        if len(image) != m * k:
            raise InputError(f"image must have {m} x {k} cells, got {len(image)}")
        # an image outside -1..m-1 reads as m, an element of no class
        matrix = np.array([v if -1 <= v < m else m for v in image], dtype=np.intp).reshape(m, k)
        meet, class_of = self.quotient._meet, np.asarray(self.partition.class_of)
        below = self.quotient._leq[class_of]  # below[x, c]: c is at or below the class of x
        if ((matrix != -1) != below).any():
            raise InputError("homs must cover exactly the comparable class pairs")
        xs, cs = (below & (np.append(class_of, k)[matrix] != np.arange(k))).nonzero()
        if len(xs):
            a, b = min(zip(class_of[xs].tolist(), cs.tolist()))
            raise InputError(f"hom ({a}, {b}) maps outside class {b}")
        cayleys = np.array([v for g in groups for v in g.cayley.values], dtype=np.intp)
        _read_only(matrix, cayleys)
        for name, array in {"_image": matrix, "_meet": meet, "_cayleys": cayleys}.items():
            object.__setattr__(self, name, array)

    @property
    def size(self) -> int:
        return len(self.partition.class_of)


def _compose_orbits(n, class_of, members, meets, cayleys, images) -> "np.ndarray":
    """Values on the argument multisets of arity n of the bands composed
    from systems on the same classes, one row per system.

    class_of[x] is the class of element x; class c has the elements
    members[c], in position order.  System s has the k x k meet table
    meets[s], its class groups' flat tables of positions laid end to end
    in cayleys[s], and the m x k matrix images[s] (flat or not): the image
    of x in class c, an element, for every c at or below the class of x;
    other cells are never read.  Each multiset is sent into the meet of its
    classes and its images are multiplied there: the meet is commutative
    and the groups are Abelian, so one value per multiset fixes the table.
    """
    m, k = len(class_of), len(members)
    args = _multiset_args(m, n)
    arg_classes = np.asarray(class_of, dtype=np.intp)[args]
    meet = np.asarray(meets, dtype=np.intp).reshape(-1, k, k)
    cayley = np.asarray(cayleys, dtype=np.intp).reshape(len(meet), -1)
    image = np.asarray(images, dtype=np.intp).reshape(len(meet), m, k)
    # the class groups as one table of elements per system: product[s, x, y]
    # is x * y when x and y share a class (other cells are never read)
    product = np.zeros((len(meet), m, m), dtype=np.intp)
    start = 0
    for c in map(np.asarray, members):
        table = cayley[:, start : start + len(c) ** 2].reshape(-1, len(c), len(c))
        product[:, c[:, None], c] = c[table]
        start += len(c) ** 2
    row = np.arange(len(meet))[:, None]
    alpha = arg_classes[:, 0]
    for j in range(1, n):
        alpha = meet[row, alpha, arg_classes[:, j]]
    acc = image[row, args[:, 0], alpha]
    for j in range(1, n):
        acc = product[row, acc, image[row, args[:, j], alpha]]
    return acc


def _compose_system(system: StrongSystem, n: int, cayleys) -> OpTable:
    """The symmetric table of arity n composed from system (_compose_orbits)
    through the class tables cayleys: flat tables of positions laid end to
    end in class order, the class groups' own or re-based ones."""
    p = system.partition
    orbits = _compose_orbits(n, p.class_of, p.classes, system._meet, cayleys, system._image)
    return symmetric_table(n, system.size, orbits[0])


def _pair_maps(system: StrongSystem) -> dict[tuple[int, int], dict[int, int]]:
    """The connecting maps keyed (upper, lower), (i, i) included, each as
    {x: image of x} over the upper class, read from system's image matrix."""
    rows, classes = system._image.tolist(), system.partition.classes
    pairs = system.quotient.comparable_pairs()
    return {(a, b): {x: rows[x][b] for x in classes[a]} for a, b in pairs}


def hom_maps(t: OpTable, verify: bool = True) -> dict[tuple[int, int], dict[int, int]]:
    """Connecting maps of t keyed (upper, lower), (i, i) included, each as
    {x: image of x} over the upper class, from decompose(t, verify)."""
    return _pair_maps(decompose(t, verify))


def decompose(t: OpTable, verify: bool = True) -> StrongSystem:
    """Strong-system decomposition of a symmetric n-ary band, read off its
    associated band B(x, y) = t(x, ..., x, y), then certified.

    Classes are B's equal rows; the meet, and the image of x in a class at
    or below its own, are B on the least members of the classes; class
    groups take their least member as neutral (any gives the same
    extensions).  By the structure theorem t is a band iff this system is
    valid and composes back to t, so that is the only check: a band is
    never scanned.  Any other t raises the ConsistencyError of the first
    failed step or, with verify, require_band's DomainError and witness.
    """
    try:
        lam = lambda_table(t, verify=False)
        partition = _rows_sigma(lam)
        class_of, band = np.asarray(partition.class_of), np.asarray(lam.rows)
        least, class_ids = [c[0] for c in partition.classes], np.arange(partition.size)
        meet = class_of[band[np.ix_(least, least)]]
        semilattice = QuotientSemilattice(OpTable(2, len(least), tuple(meet.ravel().tolist())))
        groups = tuple(class_group(t, c, index=i) for i, c in enumerate(partition.classes))
        below = semilattice._leq[class_of]  # below[x, c]: c is at or below the class of x
        image = np.where(below, band[least].T, -1)
        if (below & (class_of[image] != class_ids)).any():
            raise ConsistencyError("a translation image escapes its class")
        system = StrongSystem(t.arity, partition, semilattice, groups, image.ravel().tolist())
        # class_group has checked the group laws at t's arity: the maps remain
        failed = next(_failed_hom_laws(system, t.arity), None)
        if failed is not None:
            raise ConsistencyError(f"decomposed system fails validation: {': '.join(failed)}")
        composed = _compose_orbits(
            t.arity, class_of, partition.classes, system._meet, system._cayleys, system._image
        )[0]
        orbits = _orbit_values(t)
        if orbits is None or not np.array_equal(composed, orbits):
            raise ConsistencyError("decomposed system does not compose back to the table")
    except ConsistencyError:
        if verify:
            require_band(t)
        raise
    return system


def validate_system(system: StrongSystem, arity: int | None = None) -> list[Violation]:
    """All strong-system violations, empty when the system is valid.

    Structural shape is enforced by the types; this checks the algebraic
    conditions: group laws, commutativity, exponent dividing arity-1,
    identity connecting maps, composition coherence along chains, and each
    map being a homomorphism of the class extensions.
    """
    n = system.arity if arity is None else arity
    if not isinstance(n, int) or n < 2:
        raise InputError(f"arity must be an integer >= 2, got {n!r}")
    out = [
        Violation(code, f"class {g.class_index}: {message}")
        for g in system.groups
        for code, message in _failed_group_laws(g.cayley, g.position(g.neutral), n)
    ]
    return out + [Violation(*law) for law in _failed_hom_laws(system, n)]


def _failed_hom_laws(system: StrongSystem, n: int):
    """validate_system's laws of the connecting maps that system fails at
    arity n, as (code, message), a generator like _failed_group_laws.  The
    laws are gathers over the maps into one lower class at a time, so no
    array outgrows the m x k image matrix or the class tables."""
    image, cayleys, groups = system._image, system._cayleys, system.groups
    k, elements = len(groups), np.arange(system.size)
    class_of, sizes = np.asarray(system.partition.class_of), np.array([g.order for g in groups])
    order = np.argsort(class_of, kind="stable")  # the classes' members end to end
    start, offset = np.cumsum(sizes) - sizes, np.cumsum(sizes**2) - sizes**2
    position = np.argsort(order) - start[class_of]  # of each element in its class
    above, leq = image != -1, system.quotient._leq  # leq[b, c]: c <= b
    phi = np.where(above, position[image], 0)  # phi[x, b]: position of x's image in b, or 0
    # cell i of the class tables, of class pair_class[i], is x * y: xs, ys, xys
    pair_class = np.repeat(np.arange(k), sizes**2)
    cell, first = np.arange(len(cayleys)) - offset[pair_class], start[pair_class]
    xs, ys = order[first + cell // sizes[pair_class]], order[first + cell % sizes[pair_class]]
    xys = order[first + cayleys]
    # phi is an n-ary hom between class extensions iff, for x, y in the
    # upper class, phi(x * y) = phi(x) * phi(y) * phi(e)^(n-2) in the lower class
    tail = np.zeros((k, k), dtype=np.intp)  # tail[a, b] = phi(e_a)^(n-2) in b
    for a, b in system.quotient.comparable_pairs() if n > 2 else []:
        p = int(phi[groups[a].neutral, b])  # column p of b's table maps q to q * p
        tail[a, b] = _power(groups[b].cayley.values[p :: groups[b].order], p, n - 3)
    # (a, b, law): map (a, b) breaks law 0, identity, or law 1, multiplicativity
    failed = {(a, a, 0) for a in class_of[image[elements, class_of] != elements].tolist()}
    incoherent = set()
    for b, size in enumerate(sizes.tolist()):
        col, up = phi[:, b], above[xs, b]
        rhs = cayleys[offset[b] + col[xs[up]] * size + col[ys[up]]]
        if n > 2:
            rhs = cayleys[offset[b] + rhs * size + tail[pair_class[up], b]]
        broken = pair_class[up][col[xys[up]] != rhs]
        failed.update(zip(broken.tolist(), [b] * len(broken), [1] * len(broken)))
        # x's image in c, for each c <= b, is the image in c of x's image in b
        xb, cs = above[:, b].nonzero()[0], leq[b].nonzero()[0]
        i, j = (image[image[xb, b, None], cs] != image[xb[:, None], cs]).nonzero()
        incoherent.update(zip(class_of[xb[i]].tolist(), [b] * len(i), cs[j].tolist()))
    for a, b, law in sorted(failed):
        if law == 0:
            yield "hom-identity", f"map ({a}, {a}) is not the identity"
        else:
            message = f"map ({a}, {b}) is not a homomorphism of the class extensions"
            yield "hom-multiplicative", message
    for a, b, c in sorted(incoherent):
        yield "hom-composition", f"maps along {a} >= {b} >= {c} do not compose coherently"


def require_valid_system(system: StrongSystem, arity: int | None = None) -> None:
    """DomainError naming every violation validate_system reports, if any."""
    report = validate_system(system, arity)
    if report:
        summary = "; ".join(f"{v.code}: {v.message}" for v in report)
        raise DomainError(f"system fails validation: {summary}")


def system_to_doc(system: StrongSystem, labels=None) -> dict:
    """JSON-ready document; see system_from_doc for the shape."""
    size = system.size
    if labels is None:
        labels = [str(i) for i in range(size)]
    labels = list(labels)
    if len(labels) != size:
        raise InputError(f"{len(labels)} labels for {size} elements")
    groups = []
    for g in system.groups:
        rows = [
            [g.members[g.op_position(i, j)] for j in range(g.order)] for i in range(g.order)
        ]
        groups.append({"class": g.class_index, "neutral": g.neutral, "cayley": rows})
    homs = [
        {"from": a, "to": b, "map": {str(x): y for x, y in images.items()}}
        for (a, b), images in _pair_maps(system).items()
    ]
    return {
        "arity": system.arity,
        "elements": labels,
        "classes": [list(c) for c in system.partition.classes],
        "meet": system._meet.tolist(),
        "groups": groups,
        "homs": homs,
    }


def _doc_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def system_from_doc(doc) -> tuple[StrongSystem, tuple[str, ...]]:
    """Parse a strong-system document.

    Shape: {"arity": n, "elements": [labels], "classes": [[element]...],
    "meet": [[class]...], "groups": [{"class", "neutral", "cayley"}...],
    "homs": [{"from", "to", "map"}...]} with all references by 0-based
    index.  Factor signatures are recomputed, never trusted from the file.
    """
    if not isinstance(doc, dict):
        raise InputError("system document must be a JSON object")
    missing = {"arity", "elements", "classes", "meet", "groups", "homs"} - doc.keys()
    if missing:
        raise InputError(f"system document missing keys: {sorted(missing)}")
    arity = _doc_int(doc["arity"], "arity")
    labels = doc["elements"]
    if (
        not isinstance(labels, list)
        or not labels
        or not all(isinstance(e, str) for e in labels)
        or len(set(labels)) != len(labels)
    ):
        raise InputError("elements must be a nonempty list of distinct strings")
    size = len(labels)
    classes = doc["classes"]
    if not isinstance(classes, list) or not all(isinstance(c, list) for c in classes):
        raise InputError("classes must be a list of lists")
    classes = tuple(tuple(_doc_int(x, "class member") for x in c) for c in classes)
    class_of = [None] * size
    for i, members in enumerate(classes):
        for x in members:
            if not 0 <= x < size or class_of[x] is not None:
                raise InputError("classes must partition the element indices")
            class_of[x] = i
    if any(c is None for c in class_of):
        raise InputError("classes must cover every element")
    partition = SigmaPartition(tuple(class_of), classes)
    k = len(classes)
    meet = doc["meet"]
    if (
        not isinstance(meet, list)
        or len(meet) != k
        or not all(isinstance(r, list) and len(r) == k for r in meet)
    ):
        raise InputError(f"meet must be a {k}x{k} table")
    flat = tuple(_doc_int(v, "meet entry") for row in meet for v in row)
    semilattice = QuotientSemilattice(OpTable(2, k, flat))
    raw_groups = doc["groups"]
    if not isinstance(raw_groups, list) or len(raw_groups) != k:
        raise InputError(f"groups must list one entry per class ({k})")
    groups: list[ClassGroup | None] = [None] * k
    for entry in raw_groups:
        if not isinstance(entry, dict) or {"class", "neutral", "cayley"} - entry.keys():
            raise InputError("each group needs class, neutral, and cayley")
        idx = _doc_int(entry["class"], "group class")
        if not 0 <= idx < k or groups[idx] is not None:
            raise InputError(f"group class {idx} repeated or out of range")
        members = classes[idx]
        pos = {x: i for i, x in enumerate(members)}
        neutral = _doc_int(entry["neutral"], "group neutral")
        if neutral not in pos:
            raise InputError(f"neutral {neutral} is outside class {idx}")
        rows = entry["cayley"]
        if (
            not isinstance(rows, list)
            or len(rows) != len(members)
            or not all(isinstance(r, list) and len(r) == len(members) for r in rows)
        ):
            raise InputError(f"cayley for class {idx} must be {len(members)}x{len(members)}")
        values = []
        for row in rows:
            for v in row:
                v = _doc_int(v, "cayley entry")
                if v not in pos:
                    raise InputError(f"cayley entry {v} is outside class {idx}")
                values.append(pos[v])
        cayley = OpTable(2, len(members), tuple(values))
        try:
            signature = invariant_factors(cayley, pos[neutral])
        except ConsistencyError:
            signature = ()
        groups[idx] = ClassGroup(idx, members, neutral, cayley, signature)
    raw_homs = doc["homs"]
    if not isinstance(raw_homs, list):
        raise InputError("homs must be a list")
    image = [-1] * (size * k)  # the cells of pairs the document leaves out stay -1
    seen = set()
    for entry in raw_homs:
        if not isinstance(entry, dict) or {"from", "to", "map"} - entry.keys():
            raise InputError("each hom needs from, to, and map")
        a = _doc_int(entry["from"], "hom source class")
        b = _doc_int(entry["to"], "hom target class")
        if not (0 <= a < k and 0 <= b < k) or (a, b) in seen:
            raise InputError(f"hom ({a}, {b}) repeated or out of range")
        seen.add((a, b))
        raw_map = entry["map"]
        if not isinstance(raw_map, dict):
            raise InputError(f"hom ({a}, {b}) map must be an object")
        mapping = {}
        for key, img in raw_map.items():
            try:
                src = int(key)
            except (TypeError, ValueError):
                raise InputError(f"hom ({a}, {b}) has non-integer source {key!r}") from None
            mapping[src] = _doc_int(img, "hom image")
        if len(mapping) != len(raw_map):
            raise InputError("mapping has a repeated source element")
        if sorted(mapping) != list(classes[a]):
            raise InputError(f"hom ({a}, {b}) domain is not exactly class {a}")
        for src, img in mapping.items():
            image[src * k + b] = img
    system = StrongSystem(arity, partition, semilattice, tuple(groups), image)
    return system, tuple(labels)


def system_to_json(system: StrongSystem, labels=None) -> str:
    return json.dumps(system_to_doc(system, labels), separators=(", ", ": "))


def system_from_json(text: str) -> tuple[StrongSystem, tuple[str, ...]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    return system_from_doc(doc)
