"""Synthesis: the inverse direction of decomposition.

Builds symmetric n-ary bands out of strong-system data, constructs the
Abelian groups and connecting homomorphisms the systems are made of, and
enumerates every symmetric n-ary band on a small carrier, both by
composing systems and by backtracking over symmetric idempotent tables.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConsistencyError, InputError, ResourceError
from .bandcore import QuotientSemilattice
from .optable import (
    OpTable,
    _canonical_forms,
    _canonical_orbits,
    _passes,
    _require_index,
    symmetric_table,
)
from .structure import (
    StrongSystem, _compose_orbits, _compose_system, _table_cells, require_valid_system
)

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
    elements = np.arange(spec.order)
    values = np.zeros((spec.order, spec.order), dtype=np.intp)
    # digit-wise sum, last factor least significant
    weight = 1
    for f in reversed(spec.factors):
        digit = elements // weight % f
        values += (digit[:, None] + digit) % f * weight
        weight *= f
    return OpTable(2, spec.order, tuple(values.ravel().tolist()))


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
    """Enumeration result: orbit rows plus labeled and iso-class counts.

    rows hold the uint8 orbit vectors (values on the argument multisets)
    of every labeled table (sorted by canonical values, then own values)
    or of one canonical representative per iso class, depending on how
    the catalog was requested; both counts are always present.  entries
    builds the tables the first time it is read.
    """

    size: int
    arity: int
    rows: tuple[bytes, ...]
    labeled: int
    iso: int

    def __post_init__(self):
        rows = tuple(map(bytes, self.rows))
        object.__setattr__(self, "rows", rows)
        width = math.comb(self.size + self.arity - 1, self.arity)
        values = np.frombuffer(b"".join(rows), dtype=np.uint8)
        if {len(r) for r in rows} - {width} or (len(values) and values.max() >= self.size):
            raise InputError("catalog row does not fit the size and arity")
        if self.labeled < self.iso or self.iso < 0:
            raise InputError("catalog counts are inconsistent")

    @cached_property
    def entries(self) -> tuple[OpTable, ...]:
        return tuple(symmetric_table(self.arity, self.size, list(r)) for r in self.rows)


def _catalog(m: int, n: int, classes: dict[bytes, set[bytes]], up_to_iso: bool) -> BandCatalog:
    """The catalog of whole isomorphism classes of symmetric tables, each
    keyed by its least orbit vector and holding all of its own
    (_canonical_orbits with every): classes in key order, the tables of
    each in order of their own bytes, which order like the tables."""
    forms = sorted(classes)
    labeled = sum(map(len, classes.values()))
    rows = forms if up_to_iso else [r for form in forms for r in sorted(classes[form])]
    return BandCatalog(m, n, rows, labeled, len(forms))


def _closed_catalog(m: int, n: int, orbits: "np.ndarray") -> BandCatalog:
    """The catalog of the symmetric tables with the orbit vectors orbits
    (uint8 rows), which must be closed under relabeling: ConsistencyError
    if one of them relabels to a table not among them."""
    classes = _canonical_orbits(orbits, m, n, every=True)
    if set().union(*classes.values()) != set(map(bytes, orbits)):
        raise ConsistencyError("the tables found are not closed under relabeling")
    return _catalog(m, n, classes, up_to_iso=False)


def brute_force_bands(m: int, n: int) -> BandCatalog:
    """Independent oracle: every symmetric idempotent associative table,
    found by backtracking over its values on argument multisets.

    Symmetric F is associative iff G(A, B) = F({F(A)} + B) depends only on
    A + B (n-multiset A, (n-1)-multiset B).  Each value tried for a free
    multiset is a search node; it registers G under A + B for the pairs it
    makes evaluable, and a clash prunes.  ResourceError past
    BRUTE_CANDIDATE_BUDGET nodes, or up front when the shortest search
    (free multisets times choices of B) or one table (m^n cells) is larger.
    Shares no code with check_associative or the structure theory.
    """
    if not isinstance(m, int) or m < 1 or not isinstance(n, int) or n < 2:
        raise InputError("need size >= 1 and arity >= 2")
    budget, free = BRUTE_CANDIDATE_BUDGET, math.comb(m + n - 1, n) - m
    if _passes(m, n, budget) or free * math.comb(m + n - 2, n - 1) > budget:
        raise ResourceError(
            f"searching {free} multisets of {m}**{n}-cell tables exceeds budget {budget}"
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
    bands = []  # orbit vectors: cells are the multisets, in cells order
    v = nodes = 0  # v: the next value to try at the current depth
    while True:
        depth = len(trail) - m
        if depth == len(order):
            bands.append(values.copy())
        elif v < m:
            nodes += 1
            if nodes > budget:
                raise ResourceError(f"band search passed the budget of {budget} nodes")
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
    return _closed_catalog(m, n, np.array(bands, dtype=np.uint8))


def _hom_steps(q: QuotientSemilattice) -> tuple:
    """_hom_systems' plan for a meet semilattice: the classes below some
    other class, top-down, each as (c, covers, routes), where covers are
    the classes covering c and routes pair each class g above c with the
    covers of c at or below g."""
    cover_pairs = q.covers()
    steps = []
    for c in q._top_down:
        if q.uppers[c]:
            covers = tuple(a for a, b in cover_pairs if b == c)
            routes = tuple((g, tuple(a for a in covers if q.leq(a, g))) for g in q.uppers[c])
            steps.append((c, covers, routes))
    return tuple(steps)


def _grown_meets(q: QuotientSemilattice):
    """The meet arrays grown from the p classes of q by a new maximal
    element p.  It may sit above any nonempty down-set D such that, for
    every y, the members of D below y have a greatest one; that one is the
    meet of p and y."""
    p = q.size
    below = [set(np.flatnonzero(row).tolist()) for row in q._leq]
    for mask in range(1, 1 << p):
        down = {z for z in range(p) if mask >> z & 1}
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
            grown = np.full((p + 1, p + 1), p, dtype=np.intp)
            grown[:p, :p] = q._meet
            grown[p, :p] = grown[:p, p] = tops
            yield grown


@lru_cache(maxsize=None)
def _semilattices(k: int) -> tuple[QuotientSemilattice, ...]:
    """One meet semilattice on k elements per isomorphism class.

    Removing a maximal element from a finite meet semilattice leaves one,
    so each class on k elements grows from a class on k-1 by a new maximal
    element (_grown_meets).  The growths are deduplicated by canonical
    form, the first of each class is kept, and the semilattice laws are
    checked (QuotientSemilattice) on the kept ones only.
    """
    if k == 1:
        grown = [np.zeros((1, 1), dtype=np.intp)]
    else:
        grown = [g for q in _semilattices(k - 1) for g in _grown_meets(q)]
    tables = [OpTable(2, k, tuple(g.ravel().tolist())) for g in grown]
    kept = {}
    for t, form in zip(tables, _canonical_forms(tables)):
        if form not in kept:
            kept[form] = QuotientSemilattice(t)
    return tuple(kept.values())


def _factor_multisets(order: int, exponent_cap: int, least: int = 1):
    """One factor list per Abelian group of this order whose exponent
    divides exponent_cap: its invariant factors d1 | d2 | ... | dr, each
    above 1 and a multiple of least."""
    if order == 1:
        yield ()
        return
    for f in range(least, order + 1, least):
        if f > 1 and order % f == 0 and exponent_cap % f == 0:
            for rest in _factor_multisets(order // f, exponent_cap, f):
                yield (f,) + rest


def _compositions(m: int):
    """Every composition (s_0, ..., s_{k-1}) of m into positive parts."""
    for k in range(1, m + 1):
        for cuts in itertools.combinations(range(1, m), k - 1):
            yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, m)))


def _hom_systems(steps, bases, arity: int):
    """All coherent systems of position maps for the strict comparable pairs.

    Classes are processed top-down in the order of steps (_hom_steps); maps
    are chosen freely on covering pairs and derived along longer chains,
    pruning when two derivations of the same pair disagree.  Checking only
    factorizations through covers is enough: coherence for longer chains
    follows by induction down the processing order.  A map into a
    one-element class is forced (all zeros) and coherent, so those steps
    are skipped, their maps left out of phi and read as zeros.
    """
    steps = [step for step in steps if bases[step[0]].size > 1]
    zeros = [(0,) * base.size for base in bases]
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
                    assigned[a]
                    if a == g
                    else tuple(assigned[a][p] for p in phi.get((g, a), zeros[g]))
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
    if system.size == 1:
        return OpTable(n, 1, (0,))  # every one-element system is valid
    _require_index(system.size, n)  # builds nothing, before n-step group checks
    if verify:
        require_valid_system(system, n)
    return _compose_system(system, n, system._cayleys)


def enumerate_bands(m: int, n: int, up_to_iso: bool = False) -> BandCatalog:
    """Every symmetric n-ary band on m labeled elements, built by
    composing one candidate or more per isomorphism class and relabeling.

    A band's isomorphism class is fixed by its semilattice of classes up
    to isomorphism, the class sizes on its nodes, one group type per class
    and a coherent system of connecting maps.  So the candidates are: per
    composition of m, classes as contiguous blocks; one meet semilattice
    per isomorphism class on that many nodes (_semilattices); one make_group
    table per group type of each class; every coherent system of maps
    (_hom_systems).  Every band relabels onto a candidate: its classes
    onto the blocks in the order of a representative's nodes, its class
    groups onto the make_group tables (the maps are translates of
    homomorphisms, so the choice of neutral does not matter).

    The candidates of each composition are composed in one batch and
    asserted distinct on their orbit vectors, since a band determines its
    system once its neutrals are fixed.  The labeled tables of a class are
    the distinct relabelings of its first candidate (_canonical_orbits).
    """
    if not isinstance(m, int) or m < 1 or not isinstance(n, int) or n < 2:
        raise InputError("need size >= 1 and arity >= 2")
    if m > ENUMERATE_SIZE_LIMIT:
        raise ResourceError(f"enumeration supports at most {ENUMERATE_SIZE_LIMIT} elements")
    if m == 1:
        return BandCatalog(1, n, (b"\0",), 1, 1)
    blocks = []
    for sizes in _compositions(m):
        options = [
            [make_group(GroupSpec(s, f), n) for f in _factor_multisets(s, n - 1)] for s in sizes
        ]
        if not all(options):
            continue
        k = len(sizes)
        starts = [0, *itertools.accumulate(sizes)]
        classes = [range(starts[c], starts[c + 1]) for c in range(k)]
        class_of = [c for c, s in enumerate(sizes) for _ in range(s)]
        # x in its own class, else the least member of c (forced if c has one element)
        own = [x if c == class_of[x] else starts[c] for x in range(m) for c in range(k)]
        systems = []  # (meet, cayley, image) per system, as _compose_orbits takes them
        for q in _semilattices(k):
            # singleton classes only: every map is forced, nothing to plan
            plan = _hom_steps(q) if k < m else ()
            for bases in itertools.product(*options):
                cayley = [v for base in bases for v in base.values]
                for phi in _hom_systems(plan, bases, n):
                    image = own.copy()
                    for (g, c), pmap in phi.items():
                        for x, p in zip(classes[g], pmap):
                            image[x * k + c] = starts[c] + p
                    systems.append((q._meet, cayley, image))
        layout = _table_cells(classes, m)
        blocks.append(_compose_orbits(n, class_of, layout, *zip(*systems)).astype(np.uint8))
    orbits = np.concatenate(blocks)
    if len(set(map(bytes, orbits))) < len(orbits):
        raise ConsistencyError("two distinct systems composed equal")
    return _catalog(m, n, _canonical_orbits(orbits, m, n, every=True), up_to_iso)
