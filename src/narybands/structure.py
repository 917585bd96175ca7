"""Strong semilattice decomposition of a symmetric n-ary band.

Every symmetric n-ary band splits into a semilattice of classes, each
carrying an Abelian group whose exponent divides n-1, glued together by
connecting homomorphisms.  This module extracts that system from a table,
validates a system given independently, and serializes both ways.
"""

import itertools
import json
from dataclasses import dataclass

from .errors import ConsistencyError, InputError, Violation
from .bandcore import (
    QuotientSemilattice,
    SigmaPartition,
    associated_band,
    quotient,
    sigma_partition,
)
from .optable import (
    OpTable,
    check_associative,
    check_symmetric,
    require_band,
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

    def power_position(self, i: int, count: int) -> int:
        """count-fold product of the element at position i (count >= 1)."""
        acc = i
        for _ in range(count - 1):
            acc = self.op_position(acc, i)
        return acc


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
    mid = [e] * (t.arity - 2)
    values = []
    for x in members:
        for y in members:
            v = t.eval((x, *mid, y))
            if v not in pos:
                raise ConsistencyError(f"class is not closed: ({x}, {y}) -> {v}")
            values.append(pos[v])
    cayley = OpTable(2, k, tuple(values))
    e_pos = pos[e]
    for i in range(k):
        if cayley.values[e_pos * k + i] != i or cayley.values[i * k + e_pos] != i:
            raise ConsistencyError(f"{e} is not neutral in its class")
    if check_symmetric(cayley) is not None:
        raise ConsistencyError("class operation is not commutative")
    if check_associative(cayley, use_symmetry=True) is not None:
        raise ConsistencyError("class operation is not associative")
    for i in range(k):
        if e_pos not in cayley.values[i * k : (i + 1) * k]:
            raise ConsistencyError(f"member position {i} has no inverse")
    group = ClassGroup(index, members, e, cayley, invariant_factors(cayley, e_pos))
    if t.arity > 2:
        for i in range(k):
            if group.power_position(i, t.arity - 1) != e_pos:
                raise ConsistencyError("class group exponent does not divide arity - 1")
    else:
        if k != 1:
            raise ConsistencyError("binary bands admit only trivial class groups")
    sig = group.factor_signature
    prod = 1
    for d in sig:
        prod *= d
    if prod != k or any((t.arity - 1) % d != 0 for d in sig):
        raise ConsistencyError(f"factor signature {sig} inconsistent with class of order {k}")
    return group


@dataclass(frozen=True)
class HomMap:
    """Connecting map between two classes, stored as (source, image) pairs
    over global element indices, sorted by source."""

    from_class: int
    to_class: int
    mapping: tuple[tuple[int, int], ...]

    def __post_init__(self):
        items = self.mapping.items() if isinstance(self.mapping, dict) else self.mapping
        pairs = tuple(sorted((int(a), int(b)) for a, b in items))
        object.__setattr__(self, "mapping", pairs)
        image = dict(pairs)
        if len(image) != len(pairs):
            raise InputError("mapping has a repeated source element")
        object.__setattr__(self, "_image", image)

    def apply(self, x: int) -> int:
        try:
            return self._image[x]
        except KeyError:
            raise InputError(f"element {x} is outside the map's source class") from None

    def as_dict(self) -> dict[int, int]:
        return dict(self.mapping)


@dataclass(frozen=True)
class StrongSystem:
    """Semilattice of classes, a group per class, coherent connecting maps.

    homs is keyed by (upper, lower) over every comparable pair, including
    (i, i).  arity records the n the system was built for; validation and
    composition default to it.
    """

    arity: int
    partition: SigmaPartition
    quotient: QuotientSemilattice
    groups: tuple[ClassGroup, ...]
    homs: dict[tuple[int, int], HomMap]

    def __post_init__(self):
        if not isinstance(self.arity, int) or self.arity < 2:
            raise InputError(f"arity must be an integer >= 2, got {self.arity!r}")
        groups = tuple(self.groups)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "homs", dict(self.homs))
        k = self.partition.size
        if self.quotient.size != k or len(groups) != k:
            raise InputError("partition, quotient, and groups disagree on class count")
        for i, g in enumerate(groups):
            if g.class_index != i:
                raise InputError(f"group at slot {i} carries class_index {g.class_index}")
            if g.members != self.partition.classes[i]:
                raise InputError(f"group {i} members disagree with the partition")
        if set(self.homs) != set(self.quotient.comparable_pairs()):
            raise InputError("homs must cover exactly the comparable class pairs")
        for (a, b), hom in self.homs.items():
            if hom.from_class != a or hom.to_class != b:
                raise InputError(f"hom at key ({a}, {b}) is labeled ({hom.from_class}, {hom.to_class})")
            if tuple(x for x, _ in hom.mapping) != self.partition.classes[a]:
                raise InputError(f"hom ({a}, {b}) domain is not exactly class {a}")
            members_b = set(self.partition.classes[b])
            for _, img in hom.mapping:
                if img not in members_b:
                    raise InputError(f"hom ({a}, {b}) maps outside class {b}")

    @property
    def size(self) -> int:
        return len(self.partition.class_of)


def hom_maps(
    t: OpTable,
    partition: SigmaPartition | None = None,
    semilattice: QuotientSemilattice | None = None,
    verify: bool = True,
) -> dict[tuple[int, int], HomMap]:
    """Connecting maps of t: for lower <= upper, the translation row of any
    lower-class element restricted to the upper class.

    Representative-independence across the lower class is asserted;
    failure raises ConsistencyError.
    """
    if verify:
        require_band(t)
    if partition is None:
        partition = sigma_partition(t, verify=False)
    if semilattice is None:
        semilattice = quotient(t, partition)[2]
    band = associated_band(t, verify=False)
    m = t.size
    out: dict[tuple[int, int], HomMap] = {}
    for upper in range(partition.size):
        for lower in range(partition.size):
            if not semilattice.leq(lower, upper):
                continue
            candidates = []
            for y in partition.classes[lower]:
                candidates.append(
                    tuple((x, band.values[y * m + x]) for x in partition.classes[upper])
                )
            if any(c != candidates[0] for c in candidates[1:]):
                raise ConsistencyError(
                    f"translation maps from class {lower} disagree on class {upper}"
                )
            for _, img in candidates[0]:
                if partition.class_of[img] != lower:
                    raise ConsistencyError(
                        f"translation image {img} escapes class {lower}"
                    )
            out[(upper, lower)] = HomMap(upper, lower, candidates[0])
    return out


def decompose(t: OpTable, verify: bool = True) -> StrongSystem:
    """Full structural decomposition of a symmetric n-ary band.

    Neutral elements default to each class's least member; any choice
    yields the same class extensions.
    """
    if verify:
        require_band(t)
    partition = sigma_partition(t, verify=False)
    _, _, semilattice = quotient(t, partition)
    groups = tuple(
        class_group(t, partition.classes[i], index=i) for i in range(partition.size)
    )
    homs = hom_maps(t, partition, semilattice, verify=False)
    return StrongSystem(t.arity, partition, semilattice, groups, homs)


def _hom_respects_groups(system: StrongSystem, n: int, a: int, b: int) -> bool:
    # phi is an n-ary hom between class extensions iff
    # phi(x * y) = phi(x) * phi(y) * phi(e)^(n-2) in the target group
    hom = system.homs[(a, b)]
    gu = system.groups[a]
    gl = system.groups[b]
    shift = hom.apply(gu.neutral)
    shift_pos = gl.position(shift)
    tail = gl.power_position(shift_pos, n - 2) if n > 2 else None
    for x in gu.members:
        for y in gu.members:
            lhs = gl.position(hom.apply(gu.op(x, y)))
            rhs = gl.op_position(gl.position(hom.apply(x)), gl.position(hom.apply(y)))
            if tail is not None:
                rhs = gl.op_position(rhs, tail)
            if lhs != rhs:
                return False
    return True


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
    out: list[Violation] = []
    report = out.append
    for g in system.groups:
        k = g.order
        cay = g.cayley.values
        e_pos = g.position(g.neutral)
        label = f"class {g.class_index}"
        if any(cay[e_pos * k + i] != i or cay[i * k + e_pos] != i for i in range(k)):
            report(Violation("group-identity", f"{label}: neutral does not act as identity"))
        sym = check_symmetric(g.cayley)
        if sym is not None:
            report(Violation("group-commutative", f"{label}: operation is not commutative"))
        if check_associative(g.cayley, use_symmetry=sym is None) is not None:
            report(Violation("group-associative", f"{label}: operation is not associative"))
        if any(e_pos not in cay[i * k : (i + 1) * k] for i in range(k)):
            report(Violation("group-inverse", f"{label}: some element has no inverse"))
        if any(g.power_position(i, n - 1) != e_pos for i in range(k)):
            report(
                Violation("group-exponent", f"{label}: exponent does not divide {n - 1}")
            )
    for (a, b), hom in sorted(system.homs.items()):
        if a == b:
            if any(x != y for x, y in hom.mapping):
                report(Violation("hom-identity", f"map ({a}, {a}) is not the identity"))
        if not _hom_respects_groups(system, n, a, b):
            report(
                Violation(
                    "hom-multiplicative",
                    f"map ({a}, {b}) is not a homomorphism of the class extensions",
                )
            )
    pairs = sorted(system.homs)
    for a, b in pairs:
        for c in range(system.quotient.size):
            if (b, c) not in system.homs or (a, c) not in system.homs:
                continue
            upper = system.homs[(a, b)]
            lower = system.homs[(b, c)]
            direct = system.homs[(a, c)]
            if any(lower.apply(upper.apply(x)) != direct.apply(x) for x, _ in direct.mapping):
                report(
                    Violation(
                        "hom-composition",
                        f"maps along {a} >= {b} >= {c} do not compose coherently",
                    )
                )
    return out


def system_to_doc(system: StrongSystem, labels=None) -> dict:
    """JSON-ready document; see system_from_doc for the shape."""
    size = system.size
    if labels is None:
        labels = [str(i) for i in range(size)]
    labels = list(labels)
    if len(labels) != size:
        raise InputError(f"{len(labels)} labels for {size} elements")
    k = system.partition.size
    meet = [
        [system.quotient.meet_of(a, b) for b in range(k)] for a in range(k)
    ]
    groups = []
    for g in system.groups:
        rows = [
            [g.members[g.op_position(i, j)] for j in range(g.order)] for i in range(g.order)
        ]
        groups.append({"class": g.class_index, "neutral": g.neutral, "cayley": rows})
    homs = [
        {"from": a, "to": b, "map": {str(x): y for x, y in system.homs[(a, b)].mapping}}
        for a, b in sorted(system.homs)
    ]
    return {
        "arity": system.arity,
        "elements": labels,
        "classes": [list(c) for c in system.partition.classes],
        "meet": meet,
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
    homs: dict[tuple[int, int], HomMap] = {}
    for entry in raw_homs:
        if not isinstance(entry, dict) or {"from", "to", "map"} - entry.keys():
            raise InputError("each hom needs from, to, and map")
        a = _doc_int(entry["from"], "hom source class")
        b = _doc_int(entry["to"], "hom target class")
        if not (0 <= a < k and 0 <= b < k) or (a, b) in homs:
            raise InputError(f"hom ({a}, {b}) repeated or out of range")
        raw_map = entry["map"]
        if not isinstance(raw_map, dict):
            raise InputError(f"hom ({a}, {b}) map must be an object")
        pairs = []
        for key, img in raw_map.items():
            try:
                src = int(key)
            except (TypeError, ValueError):
                raise InputError(f"hom ({a}, {b}) has non-integer source {key!r}") from None
            pairs.append((src, _doc_int(img, "hom image")))
        homs[(a, b)] = HomMap(a, b, tuple(pairs))
    system = StrongSystem(arity, partition, semilattice, tuple(groups), homs)
    return system, tuple(labels)


def system_to_json(system: StrongSystem, labels=None) -> str:
    return json.dumps(system_to_doc(system, labels), separators=(", ", ": "))


def system_from_json(text: str) -> tuple[StrongSystem, tuple[str, ...]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    return system_from_doc(doc)
