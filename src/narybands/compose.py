"""Synthesis: the inverse direction of decomposition.

Builds symmetric n-ary bands out of strong-system data, constructs the
Abelian groups and connecting homomorphisms the systems are made of, and
enumerates every symmetric n-ary band on a small carrier, both by
composing systems and by backtracking over symmetric idempotent tables.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, DomainError, InputError, ResourceError
from .bandcore import QuotientSemilattice
from .optable import (
    OpTable,
    _canonical_forms,
    extend,
    multiset_index,
    relabel,
    symmetric_table,
)
from .structure import StrongSystem, validate_system

ENUMERATE_SIZE_LIMIT = 5
BRUTE_CANDIDATE_BUDGET = 2**21


@dataclass(frozen=True)
class GroupSpec:
    """Abelian group as a product of cyclic factors.

    factors are normalized: sorted ascending, trivial factors dropped, so
    the trivial group is GroupSpec(1, ()).  Which arities admit the group
    is checked by make_group, not here.
    """

    order: int
    factors: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.order, int) or self.order < 1:
            raise InputError(f"group order must be a positive integer, got {self.order!r}")
        factors = []
        for f in self.factors:
            if not isinstance(f, int) or f < 1:
                raise InputError(f"cyclic factor {f!r} must be a positive integer")
            if f > 1:
                factors.append(f)
        factors = tuple(sorted(factors))
        object.__setattr__(self, "factors", factors)
        product = 1
        for f in factors:
            product *= f
        if product != self.order:
            raise InputError(f"factors {factors} multiply to {product}, not {self.order}")


def make_group(spec: GroupSpec, arity: int) -> OpTable:
    """Cayley table of the direct product of spec's cyclic factors.

    Identity is element 0; element indices are the mixed-radix encoding of
    factor digit tuples, first factor most significant.  Every factor must
    divide arity-1 so the group fits a class of an arity-ary band.
    """
    if not isinstance(arity, int) or arity < 2:
        raise InputError(f"arity must be an integer >= 2, got {arity!r}")
    for f in spec.factors:
        if (arity - 1) % f != 0:
            raise InputError(f"cyclic factor {f} does not divide {arity - 1}")
    k = spec.order
    factors = spec.factors
    values = []
    for x in range(k):
        for y in range(k):
            # digit-wise sum, first factor most significant
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
    return OpTable(2, k, tuple(values))


def group_homs(g1: OpTable, g2: OpTable) -> tuple[tuple[int, ...], ...]:
    """All multiplicative maps between two group tables, brute-forced.

    A multiplicative map between groups is automatically a group
    homomorphism, so no identity bookkeeping is needed.
    """
    if g1.arity != 2 or g2.arity != 2:
        raise InputError("group tables must be binary")
    k1, k2 = g1.size, g2.size
    out = []
    for candidate in itertools.product(range(k2), repeat=k1):
        if all(
            candidate[g1.values[x * k1 + y]]
            == g2.values[candidate[x] * k2 + candidate[y]]
            for x in range(k1)
            for y in range(k1)
        ):
            out.append(candidate)
    return tuple(out)


def nary_homs(g1: OpTable, g2: OpTable, arity: int) -> list[tuple[int, ...]]:
    """All homomorphisms between the arity-ary extensions of two groups:
    exactly the translates of the group homomorphisms.

    Both groups must be Abelian with exponent dividing arity-1 for the
    characterization to hold.
    """
    k2 = g2.size
    found = set()
    for psi in group_homs(g1, g2):
        for shift in range(k2):
            found.add(tuple(g2.values[shift * k2 + p] for p in psi))
    return sorted(found)


@lru_cache(maxsize=None)
def _cached_nary_homs(g1: OpTable, g2: OpTable, arity: int) -> tuple[tuple[int, ...], ...]:
    return tuple(nary_homs(g1, g2, arity))


@dataclass(frozen=True)
class BandCatalog:
    """Enumeration result: entries plus labeled and iso-class counts.

    entries hold every labeled table (sorted by canonical values, then own
    values) or one canonical representative per iso class, depending on
    how the catalog was requested; both counts are always present.
    """

    size: int
    arity: int
    entries: tuple[OpTable, ...]
    labeled: int
    iso: int

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for t in self.entries:
            if t.size != self.size or t.arity != self.arity:
                raise InputError("catalog entry has mismatched size or arity")
        if self.labeled < self.iso or self.iso < 0:
            raise InputError("catalog counts are inconsistent")


def _catalog(m: int, n: int, tables, up_to_iso: bool) -> BandCatalog:
    canon = dict(zip((t.values for t in tables), _canonical_forms(tables)))
    iso = len(set(canon.values()))
    if up_to_iso:
        entries = tuple(OpTable(n, m, v) for v in sorted(set(canon.values())))
    else:
        entries = tuple(sorted(tables, key=lambda t: (canon[t.values], t.values)))
    return BandCatalog(m, n, entries, len(tables), iso)


def brute_force_bands(m: int, n: int, max_candidates: int = BRUTE_CANDIDATE_BUDGET) -> BandCatalog:
    """Independent oracle: every symmetric idempotent associative table,
    found by backtracking over its values on argument multisets.

    Symmetric F is associative iff G(A, B) = F({F(A)} + B) depends only on
    A + B (n-multiset A, (n-1)-multiset B).  Each value tried for a free
    multiset is a search node; it registers G under A + B for the pairs it
    makes evaluable, and a clash prunes.  ResourceError past max_candidates
    nodes, or up front when the shortest search (free multisets times
    choices of B) or one table (m^n cells) is larger.  Shares no code with
    check_associative or the structure theory.
    """
    if not isinstance(m, int) or m < 1 or not isinstance(n, int) or n < 2:
        raise InputError("need size >= 1 and arity >= 2")
    free = math.comb(m + n - 1, n) - m
    if max(free * math.comb(m + n - 2, n - 1), m**n) > max_candidates:
        raise ResourceError(
            f"searching {free} multisets of {m}**{n}-cell tables exceeds budget {max_candidates}"
        )
    # multiplicities in base 2n code a multiset, so codes add like multisets
    unit = [(2 * n) ** x for x in range(m)]
    cells = list(itertools.combinations_with_replacement(range(m), n))
    cell_code = [sum(unit[x] for x in c) for c in cells]
    cell_of = {k: i for i, k in enumerate(cell_code)}
    halves = itertools.combinations_with_replacement(range(m), n - 1)
    half_code = [sum(unit[x] for x in b) for b in halves]
    outer = [[cell_of[h + unit[v]] for h in half_code] for v in range(m)]  # {v} + B
    splits = [[(x, k - unit[x]) for x in sorted(set(c))] for c, k in zip(cells, cell_code)]
    values: list = [None] * len(cells)
    holders: list[list[int]] = [[] for _ in range(m)]  # assigned multisets by value
    registry: dict[int, int] = {}  # code of A + B -> G(A, B)
    trail: list = []  # (multiset, registry keys it added), in assignment order

    def assign(c: int, v: int) -> bool:
        values[c] = v
        a = cell_code[c]
        found = [(a + h, values[o]) for h, o in zip(half_code, outer[v]) if values[o] is not None]
        found += [(cell_code[d] + b, v) for x, b in splits[c] for d in holders[x]]
        added = []
        for key, g in found:
            old = registry.get(key)
            if old is None:
                registry[key] = g
                added.append(key)
            elif old != g:
                for k in added:
                    del registry[k]
                values[c] = None
                return False
        holders[v].append(c)
        trail.append((c, added))
        return True

    for x in range(m):
        assign(cell_of[n * unit[x]], x)  # registers only x^(2n-1) -> x
    order = [i for i, c in enumerate(cells) if c[0] != c[-1]]
    flat = [cell_of[sum(unit[x] for x in a)] for a in itertools.product(range(m), repeat=n)]
    bands = []
    v = nodes = 0  # v: the next value to try at the current depth
    while True:
        depth = len(trail) - m
        if depth == len(order):
            bands.append(OpTable(n, m, tuple(values[i] for i in flat)))
        elif v < m:
            nodes += 1
            if nodes > max_candidates:
                raise ResourceError(f"band search passed the budget of {max_candidates} nodes")
            v = 0 if assign(order[depth], v) else v + 1
            continue
        if depth == 0:
            break
        c, added = trail.pop()
        for key in added:
            del registry[key]
        holders[values[c]].pop()
        v = values[c] + 1
        values[c] = None
    return _catalog(m, n, bands, up_to_iso=False)


@lru_cache(maxsize=None)
def _semilattice_tables(k: int) -> tuple[OpTable, ...]:
    """Every meet table on k labeled elements, sorted by values.

    Removing a maximal element from a finite meet semilattice leaves a
    meet semilattice, so each table on k elements comes from one on k-1
    by adding a new maximal element x under some label.  x may sit above
    any nonempty down-set D such that, for every y, the members of D below
    y have a greatest one; that one is meet(x, y).  Distinct growths of
    one table are deduplicated by value tuple.
    """
    if k == 1:
        return (OpTable(2, 1, (0,)),)
    p = k - 1
    found = set()
    for base in _semilattice_tables(p):
        meet = base.values
        # below[y] is the down-set of y
        below = [frozenset(z for z in range(p) if meet[z * p + y] == z) for y in range(p)]
        for mask in range(1, 1 << p):
            down = frozenset(z for z in range(p) if mask >> z & 1)
            if any(not below[y] <= down for y in down):
                continue
            tops = []
            for y in range(p):
                common = down & below[y]
                top = next((z for z in common if common <= below[z]), None)
                if top is None:
                    break
                tops.append(top)
            else:
                for label in range(k):
                    new = [i if i < label else i + 1 for i in range(p)]
                    values = [label] * (k * k)
                    for a in range(p):
                        for b in range(p):
                            values[new[a] * k + new[b]] = new[meet[a * p + b]]
                        values[label * k + new[a]] = values[new[a] * k + label] = new[tops[a]]
                    found.add(tuple(values))
    return tuple(OpTable(2, k, v) for v in sorted(found))


def _hom_steps(meet: "np.ndarray") -> tuple:
    """_hom_systems' plan for a k x k meet array: the classes below some
    other class, top-down, each as (c, covers, routes), where covers are
    the classes covering c and routes pair each class g above c with the
    covers of c at or below g."""
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


@lru_cache(maxsize=None)
def _semilattices(k: int) -> tuple[tuple["np.ndarray", tuple], ...]:
    """_semilattice_tables(k) as (k x k meet array, _hom_steps plan).

    The semilattice laws are checked (QuotientSemilattice) on the first
    table of each isomorphism class only: the others are relabelings of
    it, and commutativity, idempotency and associativity survive
    relabeling.
    """
    tables = _semilattice_tables(k)
    checked = set()
    out = []
    for t, form in zip(tables, _canonical_forms(tables)):
        if form not in checked:
            QuotientSemilattice(t)
            checked.add(form)
        meet = np.asarray(t.values, dtype=np.intp).reshape(k, k)
        out.append((meet, _hom_steps(meet)))
    return tuple(out)


def _factor_multisets(order: int, exponent_cap: int, least: int = 2):
    if order == 1:
        yield ()
        return
    f = least
    while f <= order:
        if order % f == 0 and exponent_cap % f == 0:
            for rest in _factor_multisets(order // f, exponent_cap, f):
                yield (f,) + rest
        f += 1


@lru_cache(maxsize=None)
def _class_structures(size: int, arity: int):
    """Distinct arity-ary group extensions on a class of the given size.

    Each entry is (extension table, one binary group table producing it);
    extensions from different neutrals coincide, so the dictionary keyed by
    extension values dedupes them.
    """
    found: dict[tuple[int, ...], OpTable] = {}
    for factors in _factor_multisets(size, arity - 1):
        base = make_group(GroupSpec(size, factors), arity)
        for perm in itertools.permutations(range(size)):
            g = relabel(base, perm)
            found.setdefault(extend(g, arity - 1).values, g)
    return tuple((OpTable(arity, size, v), g) for v, g in sorted(found.items()))


def _set_partitions(m: int):
    """All partitions of {0..m-1}, blocks sorted and ordered by least member."""

    def rec(x, blocks):
        if x == m:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(x)
            yield from rec(x + 1, blocks)
            b.pop()
        blocks.append([x])
        yield from rec(x + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def _hom_systems(steps, bases, arity: int):
    """All coherent systems of position maps for the strict comparable pairs.

    Classes are processed top-down in the order of steps (_hom_steps); maps
    are chosen freely on covering pairs and derived along longer chains,
    pruning when two derivations of the same pair disagree.  Checking only
    factorizations through covers is enough: coherence for longer chains
    follows by induction down the processing order.
    """
    phi: dict[tuple[int, int], tuple[int, ...]] = {}

    def rec(idx):
        if idx == len(steps):
            yield dict(phi)
            return
        c, covers, routes = steps[idx]
        choice_lists = [_cached_nary_homs(bases[a], bases[c], arity) for a in covers]
        for combo in itertools.product(*choice_lists):
            assigned = dict(zip(covers, combo))
            derived = []
            for g, vias in routes:
                maps = {
                    assigned[a] if a == g else tuple(assigned[a][p] for p in phi[(g, a)])
                    for a in vias
                }
                if len(maps) > 1:
                    break
                derived.append(((g, c), maps.pop()))
            else:
                phi.update(derived)
                yield from rec(idx + 1)
                for pair, _ in derived:
                    del phi[pair]

    yield from rec(0)


@lru_cache(maxsize=64)
def _multiset_args(size: int, arity: int) -> "np.ndarray":
    args = np.asarray(multiset_index(size, arity).multisets, dtype=np.intp)
    args.flags.writeable = False
    return args


def _compose_orbits(n, class_of, meet, members, cayleys, images) -> "np.ndarray":
    """Values of a composed band on its argument multisets of arity n.

    class_of[x] is the class of element x and meet the k x k meet table of
    the classes.  Class c has the elements members[c], in position order,
    and the group cayleys[c], a flat table of positions.  images[x, c] is
    the position in class c of the image of x, for every class c at or
    below the class of x.  Each multiset is sent into the meet of its
    classes and its images are multiplied there: the meet is commutative
    and the groups are Abelian, so one value per multiset fixes the table.
    """
    args = _multiset_args(len(class_of), n)
    arg_classes = np.asarray(class_of, dtype=np.intp)[args]
    alpha = arg_classes[:, 0]
    for j in range(1, n):
        alpha = meet[alpha, arg_classes[:, j]]
    orders = np.array([len(c) for c in members], dtype=np.intp)
    # the classes' tables and members laid end to end, class c's starting
    # at cayley_start[c] and member_start[c]
    cayley_start = np.cumsum(orders**2) - orders**2
    member_start = np.cumsum(orders) - orders
    cayley = np.concatenate(cayleys).astype(np.intp, copy=False)
    base = cayley_start[alpha]
    order = orders[alpha]
    pos = images[args, alpha[:, None]]
    acc = pos[:, 0]
    for j in range(1, n):
        acc = cayley[base + acc * order + pos[:, j]]
    return np.concatenate(members)[member_start[alpha] + acc]


def compose(system: StrongSystem, arity: int | None = None, verify: bool = True) -> OpTable:
    """Glue a strong system back into one operation table.

    Each argument multiset is sent into the meet of its classes through
    the connecting maps and folded there through the class group.  The
    meet is commutative and the groups are Abelian, so the result is
    symmetric and each multiset is evaluated once.
    """
    n = system.arity if arity is None else arity
    if not isinstance(n, int) or n < 2:
        raise InputError(f"arity must be an integer >= 2, got {n!r}")
    if verify:
        report = validate_system(system, n)
        if report:
            summary = "; ".join(f"{v.code}: {v.message}" for v in report)
            raise DomainError(f"system fails validation: {summary}")
    groups = system.groups
    k = len(groups)
    images = np.zeros((system.size, k), dtype=np.intp)
    for (_, lower), hom in system.homs.items():
        for x, image in hom.mapping:
            images[x, lower] = groups[lower].position(image)
    orbit = _compose_orbits(
        n,
        system.partition.class_of,
        np.asarray(system.quotient.meet.values, dtype=np.intp).reshape(k, k),
        [g.members for g in groups],
        [g.cayley.values for g in groups],
        images,
    )
    return symmetric_table(n, system.size, orbit)


def enumerate_bands(m: int, n: int, up_to_iso: bool = False) -> BandCatalog:
    """Every symmetric n-ary band on m labeled elements, built by
    composing systems: partition x semilattice x class groups x coherent
    connecting maps.

    Distinctness of all composed tables is asserted, since a band
    determines its system up to per-class neutral choice.
    """
    if not isinstance(m, int) or m < 1 or not isinstance(n, int) or n < 2:
        raise InputError("need size >= 1 and arity >= 2")
    if m > ENUMERATE_SIZE_LIMIT:
        raise ResourceError(f"enumeration supports at most {ENUMERATE_SIZE_LIMIT} elements")
    tables = []
    seen = set()
    for classes in _set_partitions(m):
        options = [_class_structures(len(c), n) for c in classes]
        if any(not o for o in options):
            continue
        k = len(classes)
        class_of = [0] * m
        own = np.zeros((m, k), dtype=np.intp)  # each element's position in its class
        for c, members in enumerate(classes):
            for i, x in enumerate(members):
                class_of[x] = c
                own[x, c] = i
        for meet, plan in _semilattices(k):
            for assign in itertools.product(*options):
                bases = [entry[1] for entry in assign]
                cayleys = [base.values for base in bases]
                for phi in _hom_systems(plan, bases, n):
                    images = own.copy()
                    for (g, c), pmap in phi.items():
                        images[classes[g], c] = pmap
                    orbit = _compose_orbits(n, class_of, meet, classes, cayleys, images)
                    t = symmetric_table(n, m, orbit)
                    if t.values in seen:
                        raise ConsistencyError("two distinct systems composed equal")
                    seen.add(t.values)
                    tables.append(t)
    return _catalog(m, n, tables, up_to_iso)
