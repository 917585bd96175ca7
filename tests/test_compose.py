import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import time

import numpy as np
import pytest

from narybands import (
    BandCatalog,
    ConsistencyError,
    DomainError,
    GroupSpec,
    InputError,
    OpTable,
    QuotientSemilattice,
    ResourceError,
    band_violation,
    brute_force_bands,
    canonical_form,
    check_associative,
    check_idempotent,
    check_symmetric,
    compose,
    decompose,
    enumerate_bands,
    extend,
    group_homs,
    invariant_factors,
    make_group,
    nary_homs,
    neutral_elements,
    table_from_function,
)

from conftest import relabel_cells
from references import (
    covers_reference,
    hom_steps_reference,
    make_group_reference,
    multiset_index_reference,
    order_reference,
    product_corpus,
)

# the package re-exports the function compose under the module's name
compose_module = importlib.import_module("narybands.compose")
optable_module = importlib.import_module("narybands.optable")

LABELED_N3 = {1: 1, 2: 3, 3: 18, 4: 197, 5: 3225}
ISO_N3 = {1: 1, 2: 2, 3: 4, 4: 14, 5: 45}
# SHA-256 of the values of the (5, 3) catalog's 3,225 tables, in catalog order
CATALOG_5_3_SHA256 = "38dac89efd58f92717e9de1d88705cf54e34f500533277439720636ba42ea795"


def test_make_group_cyclic():
    g = make_group(GroupSpec(3, (3,)), 4)
    for x in range(3):
        for y in range(3):
            assert g.eval((x, y)) == (x + y) % 3
    assert neutral_elements(g) == frozenset({0})


def factor_multisets_reference(order, exponent_cap, least=2):
    """Every multiset of cyclic factors above 1 that multiply to order and
    divide exponent_cap, ascending: several per group type (Z6 as (2, 3)
    and as (6,))."""
    if order == 1:
        yield ()
        return
    for f in range(least, order + 1):
        if order % f == 0 and exponent_cap % f == 0:
            for rest in factor_multisets_reference(order // f, exponent_cap, f):
                yield (f,) + rest


def class_structures_reference(size, arity):
    """Every labeled arity-ary group extension on size elements: each
    cyclic factorization's group relabeled every way, cell by cell, and
    extended."""
    found = set()
    for factors in factor_multisets_reference(size, arity - 1):
        base = make_group(GroupSpec(size, factors), arity)
        for perm in itertools.permutations(range(size)):
            found.add(extend(relabel_cells(base, perm), arity - 1).values)
    return found


@pytest.mark.parametrize("size, arity", [(2, 3), (3, 3), (4, 3), (2, 5), (4, 5), (3, 4), (5, 6)])
def test_class_structures_match_reference(size, arity):
    # the one-class bands are the labeled group extensions, which
    # enumeration reaches by relabeling one make_group table per type.  A
    # band has one class iff each translation x -> t(x, a2, ..., an) is a
    # permutation: otherwise arguments in its least class pull every x there
    catalog = enumerate_bands(size, arity)
    rows = np.frombuffer(b"".join(catalog.rows), dtype=np.uint8).reshape(len(catalog.rows), -1)
    dense = rows[:, multiset_index_reference(size, arity)[1]]
    columns = np.sort(dense.reshape(len(dense), size, -1), axis=1)
    one_class = np.all(columns == np.arange(size)[:, None], axis=(1, 2))
    assert {tuple(v) for v in dense[one_class].tolist()} == class_structures_reference(size, arity)


def test_class_structures_of_size_6_at_arity_7():
    # Z6 is one group type, and its extension has 720 / (6 * 2) labelings:
    # 6 translations and 2 automorphisms fix it
    assert list(compose_module._factor_multisets(6, 6)) == [(6,)]
    z6 = extend(make_group(GroupSpec(6, (6,)), 7), 6)
    row = optable_module._orbit_values(z6)[None]
    classes = optable_module._canonical_orbits(row, 6, 7, every=True)
    assert [len(tables) for tables in classes.values()] == [60]


@pytest.mark.parametrize("n", [3, 4, 5, 7, 9, 13])
def test_factor_multisets_give_one_list_per_group_type(n):
    for order in range(1, 13):
        got = list(compose_module._factor_multisets(order, n - 1))
        types = [invariant_factors(make_group(GroupSpec(order, f), n)) for f in got]
        # invariant factors, each dividing the next and n - 1
        assert [tuple(f) for f in got] == types
        assert len(set(types)) == len(types)
        want = {
            invariant_factors(make_group(GroupSpec(order, f), n))
            for f in factor_multisets_reference(order, n - 1)
        }
        assert set(types) == want


def test_make_group_digit_order():
    # first factor is most significant: element 1 is the generator of the
    # last factor
    g = make_group(GroupSpec(6, (2, 3)), 7)
    assert g.eval((1, 1)) == 2
    assert g.eval((3, 3)) == 0
    assert g.eval((4, 5)) == 0
    assert g.eval((1, 2)) == 0
    assert g.eval((3, 1)) == 4


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 9, 13, 17, 25, 33])
def test_make_group_matches_the_reference(n):
    # every factor list whose factors divide n - 1, several per group type
    for order in range(1, 33):
        for factors in factor_multisets_reference(order, n - 1):
            got = make_group(GroupSpec(order, factors), n)
            assert got == make_group_reference(factors, order)
            assert {type(v) for v in got.values} == {int}


def test_make_group_validates():
    with pytest.raises(InputError):
        GroupSpec(4, (2,))
    with pytest.raises(InputError):
        make_group(GroupSpec(3, (3,)), 3)  # 3 does not divide 2
    with pytest.raises(InputError):
        make_group(GroupSpec(2, (2,)), 1)


def test_group_spec_normalizes():
    assert GroupSpec(4, (2, 2, 1)).factors == (2, 2)
    assert GroupSpec(6, (3, 2)).factors == (2, 3)


def test_group_homs_counts():
    triv = make_group(GroupSpec(1, ()), 3)
    z2 = make_group(GroupSpec(2, (2,)), 3)
    k4 = make_group(GroupSpec(4, (2, 2)), 3)
    assert len(group_homs(triv, k4)) == 1
    assert len(group_homs(z2, z2)) == 2
    assert len(group_homs(k4, z2)) == 4
    assert len(group_homs(z2, k4)) == 4
    assert len(group_homs(k4, k4)) == 16


def test_group_homs_are_multiplicative():
    z2 = make_group(GroupSpec(2, (2,)), 3)
    k4 = make_group(GroupSpec(4, (2, 2)), 3)
    for phi in group_homs(k4, z2):
        assert phi[0] == 0
        for x in range(4):
            for y in range(4):
                assert phi[k4.eval((x, y))] == z2.eval((phi[x], phi[y]))


def test_nary_homs_golden():
    triv = make_group(GroupSpec(1, ()), 3)
    z2 = make_group(GroupSpec(2, (2,)), 3)
    assert nary_homs(triv, z2, 3) == [(0,), (1,)]
    assert nary_homs(z2, z2, 3) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_nary_homs_are_shifted_group_homs():
    z2 = make_group(GroupSpec(2, (2,)), 3)
    k4 = make_group(GroupSpec(4, (2, 2)), 3)
    expected = set()
    for g2 in range(4):
        for psi in group_homs(z2, k4):
            expected.add(tuple(k4.eval((g2, p)) for p in psi))
    assert set(nary_homs(z2, k4, 3)) == expected
    assert len(nary_homs(k4, z2, 3)) == 8


def test_nary_homs_brute_equivalence():
    specs = [GroupSpec(1, ()), GroupSpec(2, (2,)), GroupSpec(4, (2, 2))]
    for s1 in specs:
        for s2 in specs:
            g1, g2 = make_group(s1, 3), make_group(s2, 3)
            e1, e2 = extend(g1, 2), extend(g2, 2)
            brute = [
                phi
                for phi in itertools.product(range(s2.order), repeat=s1.order)
                if all(
                    phi[e1.eval(args)] == e2.eval(tuple(phi[a] for a in args))
                    for args in itertools.product(range(s1.order), repeat=3)
                )
            ]
            assert brute == nary_homs(g1, g2, 3)


def test_compose_inverts_decompose(f1, f2, min3, xor3):
    for t in (f1, f2, min3, xor3):
        assert compose(decompose(t)).values == t.values


def test_compose_at_higher_arity_is_extension(f2):
    system = decompose(f2)
    assert compose(system, 5).values == extend(f2, 2).values


def test_compose_rejects_bad_arity(f1):
    with pytest.raises(DomainError):
        compose(decompose(f1), 4)  # group exponent 2 does not divide 3


def test_compose_verify_rejects_broken_system():
    # k4-over-z2 band with the connecting map replaced by a non-hom
    def op(x, y, z):
        if max(x, y, z) < 4:
            return x ^ y ^ z
        p = 0
        for a in (x, y, z):
            p ^= 0 if a < 4 else a - 4
        return 4 + p

    system = decompose(table_from_function(3, 6, op))
    image = list(system.image)  # two classes: x's image in class 1 at 2 * x + 1
    image[1:9:2] = [4, 5, 4, 4]
    broken = dataclasses.replace(system, image=image)
    with pytest.raises(DomainError):
        compose(broken)
    out = compose(broken, verify=False)
    assert band_violation(out) is not None


def test_enumerate_counts():
    for m, expected in LABELED_N3.items():
        catalog = enumerate_bands(m, 3)
        assert catalog.labeled == expected
        assert catalog.iso == ISO_N3[m]
        assert len(catalog.entries) == expected


@pytest.mark.parametrize(
    "m, arities, counts",
    [
        (5, (12, 2), (1065, 15)),
        (4, (17, 9, 5), (200, 15)),
        (3, (22, 4), (10, 3)),
        (2, (63, 3), (3, 2)),
        (2, (64, 2), (2, 1)),
    ],
)
def test_counts_depend_on_the_arity_through_the_group_types(m, arities, counts):
    # the bands are fixed by the group types whose exponent divides n - 1,
    # so arities that admit the same types on m elements count alike
    for n in arities:
        catalog = enumerate_bands(m, n)
        assert (catalog.labeled, catalog.iso) == counts


@pytest.mark.parametrize(
    "m, top, alike", [(5, 28, 4), (4, 48, 2), (3, 127, 7), (2, 1023, 3)]
)
def test_enumerate_at_the_largest_admitted_arity(m, top, alike):
    # one relabeling holds the C(m+n-1, n) multisets of n arguments, at
    # most 2**20 arguments: top is the largest such n.  Each class is
    # relabeled chunk by chunk, m! permutations in all; top counts like an
    # arity admitting the same group types, and top + 1 is refused
    start = time.perf_counter()
    catalog = enumerate_bands(m, top)
    assert time.perf_counter() - start < 10
    expected = enumerate_bands(m, alike)
    assert (catalog.labeled, catalog.iso) == (expected.labeled, expected.iso)
    refusal = f"multisets of arity {top + 1} hold over 1048576 arguments$"
    with pytest.raises(ResourceError, match=refusal):
        enumerate_bands(m, top + 1)


def test_enumerate_one_element_at_any_arity():
    for n in (2, 3, 64, 10**9):
        catalog = enumerate_bands(1, n)
        assert (catalog.rows, catalog.labeled, catalog.iso) == ((b"\0",), 1, 1)


def test_enumerate_entries_are_bands(catalog_n3):
    for m in (1, 2, 3, 4):
        for t in catalog_n3[m]:
            assert band_violation(t) is None


def test_enumerate_entries_sorted_and_distinct(catalog_n3):
    # grouped by isomorphism class: classes ordered by their least
    # relabeling, tables within a class by their own values
    for m in catalog_n3:
        keys = [
            (min(relabel_cells(t, p).values for p in itertools.permutations(range(m))), t.values)
            for t in catalog_n3[m]
        ]
        assert keys == sorted(keys)
        assert len({t.values for t in catalog_n3[m]}) == len(catalog_n3[m])


def test_enumerate_up_to_iso():
    catalog = enumerate_bands(3, 3, up_to_iso=True)
    assert len(catalog.entries) == catalog.iso == 4
    assert catalog.labeled == 18
    for t in catalog.entries:
        assert canonical_form(t).values == t.values
    canons = {t.values for t in catalog.entries}
    assert len(canons) == 4


def test_enumerate_closed_under_relabeling(catalog_n3):
    values = {t.values for t in catalog_n3[3]}
    for t in catalog_n3[3]:
        for perm in itertools.permutations(range(3)):
            assert relabel_cells(t, perm).values in values


def test_enumerate_binary_gives_semilattices():
    # at arity 2 the class groups are trivial, so the catalog is exactly
    # the commutative idempotent associative tables: the generated meet
    # semilattices composed, and what the oracle's search finds.
    labeled = {1: 1, 2: 2, 3: 9, 4: 76, 5: 1065}
    iso = {1: 1, 2: 1, 3: 2, 4: 5, 5: 15}
    for m in labeled:
        grown = {
            relabel_cells(q.meet, p).values
            for q in compose_module._semilattices(m)
            for p in itertools.permutations(range(m))
        }
        catalog = enumerate_bands(m, 2)
        oracle = brute_force_bands(m, 2)
        assert len(grown) == catalog.labeled == oracle.labeled == labeled[m]
        assert len(compose_module._semilattices(m)) == catalog.iso == oracle.iso == iso[m]
        expected = {t.values for t in oracle.entries}
        assert grown == expected
        assert {t.values for t in catalog.entries} == expected


def test_enumerate_does_not_use_the_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration called brute_force_bands")

    monkeypatch.setattr(compose_module, "brute_force_bands", refuse)
    compose_module._semilattices.cache_clear()
    catalog = enumerate_bands(4, 3)
    assert (catalog.labeled, catalog.iso) == (197, 14)


def test_enumerate_validates_each_meet_class_once(monkeypatch):
    built = []

    def counting(meet):
        built.append(meet)
        return QuotientSemilattice(meet)

    monkeypatch.setattr(compose_module, "QuotientSemilattice", counting)
    compose_module._semilattices.cache_clear()
    try:
        catalog = enumerate_bands(4, 3)
    finally:
        compose_module._semilattices.cache_clear()
    assert (catalog.labeled, catalog.iso) == (197, 14)
    # one per isomorphism class of meet tables on 1 to 4 classes: 1 + 1 + 2 + 5
    assert [sum(t.size == k for t in built) for k in range(1, 5)] == [1, 1, 2, 5]
    # every labeled meet table is a relabeling of a checked one
    for k in range(1, 5):
        relabelings = {
            relabel_cells(v, p).values
            for v in built
            if v.size == k
            for p in itertools.permutations(range(k))
        }
        assert {t.values for t in enumerate_bands(k, 2).entries} == relabelings


def test_semilattice_class_counts():
    # meet semilattices on k elements up to isomorphism are the lattices on
    # k + 1 elements (add a top): OEIS A006966
    counts = [len(compose_module._semilattices(k)) for k in range(1, 7)]
    assert counts == [1, 1, 2, 5, 15, 53]
    for k in range(1, 7):
        for q in compose_module._semilattices(k):
            assert QuotientSemilattice(q.meet) == q and q.size == k


def test_hom_steps_match_quotient_semilattice():
    # the plan read off the semilattice's order against the one read off
    # the meet array by a matrix product
    # every labeled meet table on up to 5 elements: the binary bands
    tables = [t for k in range(1, 6) for t in enumerate_bands(k, 2).entries]
    assert len(tables) == 1153
    for t in tables:
        meet = np.asarray(t.values).reshape(t.size, t.size)
        assert compose_module._hom_steps(QuotientSemilattice(t)) == hom_steps_reference(meet)


def order_queries(q):
    """q's order queries, in order_reference's shape."""
    k = q.size
    return {
        "meet_of": [[q.meet_of(a, b) for b in range(k)] for a in range(k)],
        "leq": [[q.leq(sub, sup) for sup in range(k)] for sub in range(k)],
        "uppers": q.uppers,
        "comparable_pairs": q.comparable_pairs(),
        "top_down": q._top_down,
    }


def test_semilattice_order_matches_the_references():
    # every meet semilattice class on up to 6 elements (77 of them) and the
    # quotient of every product band: the queries read _leq, the references
    # the meet's values pair by pair, and every answer is a plain int or bool
    classes = [q for k in range(1, 7) for q in compose_module._semilattices(k)]
    assert len(classes) == 77
    for q in classes:
        meet = np.asarray(q.meet.values).reshape(q.size, q.size)
        assert compose_module._hom_steps(q) == hom_steps_reference(meet)
    systems = [
        decompose(OpTable(v.ndim, len(v), tuple(v.ravel().tolist())))
        for _, v, _ in product_corpus(61)
    ]
    for q in classes + [system.quotient for system in systems]:
        queries = order_queries(q)
        assert queries == order_reference(q)
        assert q.covers() == covers_reference(q)
        json.dumps([q.covers(), *queries.values()])  # no numpy scalar anywhere
        assert {type(v) for row in queries["leq"] for v in row} == {bool}
        assert {type(v) for row in queries["meet_of"] for v in row} == {int}
        assert not (q._meet.flags.writeable or q._leq.flags.writeable)
    for system in systems:
        assert system._meet is system.quotient._meet
        assert not (system._image.flags.writeable or system._cayleys.flags.writeable)


def test_enumerate_rejects_a_non_associative_meet_table(monkeypatch):
    # rock-paper-scissors: commutative and idempotent, but
    # (0 1) 2 = 1 2 = 2 while 0 (1 2) = 0 2 = 0
    bad = OpTable(2, 3, (0, 1, 0, 1, 1, 2, 0, 2, 2))
    assert check_symmetric(bad) is None and check_idempotent(bad) is None
    assert check_associative(bad) is not None
    grown_meets = compose_module._grown_meets

    def growing(q):
        yield from grown_meets(q)
        if q.size == 2:
            yield np.asarray(bad.values).reshape(3, 3)

    monkeypatch.setattr(compose_module, "_grown_meets", growing)
    compose_module._semilattices.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match="meet table is not associative"):
            enumerate_bands(3, 3)
    finally:
        compose_module._semilattices.cache_clear()


def test_enumerate_relabels_once_per_class(monkeypatch):
    # warm the meet tables first, so only the band classes are counted
    for k in range(1, 5):
        compose_module._semilattices(k)
    scans = []
    relabeled_orbits = optable_module._relabeled_orbits

    def counting(orbit, size, arity):
        scans.append(tuple(orbit.tolist()))
        return relabeled_orbits(orbit, size, arity)

    monkeypatch.setattr(optable_module, "_relabeled_orbits", counting)
    catalog = enumerate_bands(4, 3)
    assert (catalog.labeled, catalog.iso) == (197, 14)
    assert len(scans) == 14


def test_enumerate_counts_build_no_table(monkeypatch):
    # the meet tables' canonical forms build tables of their own
    for k in range(1, 6):
        compose_module._semilattices(k)
    build = optable_module.symmetric_table
    built = []

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(compose_module, "symmetric_table", counting)
    monkeypatch.setattr(optable_module, "symmetric_table", counting)
    catalog = enumerate_bands(5, 3)
    assert (catalog.labeled, catalog.iso, len(built)) == (3225, 45, 0)
    entries = catalog.entries
    assert len(built) == 3225 and catalog.entries is entries
    assert all(t.size == 5 and t.arity == 3 for t in entries)
    digest = hashlib.sha256(bytes(v for t in entries for v in t.values)).hexdigest()
    assert digest == CATALOG_5_3_SHA256


def test_band_catalog_checks_rows():
    ternary_min = table_from_function(3, 2, lambda *a: min(a))
    assert BandCatalog(2, 3, [bytes([0, 0, 0, 1])], 1, 1).entries == (ternary_min,)
    for row in ([0, 0, 1], [0, 0, 2, 1]):
        with pytest.raises(InputError, match="does not fit"):
            BandCatalog(2, 3, [bytes(row)], 1, 1)
    with pytest.raises(InputError, match="counts"):
        BandCatalog(2, 3, [bytes([0, 0, 0, 1])], 1, 2)


def test_cold_enumerate_plans_partitions_with_a_larger_class(monkeypatch):
    hom_steps = compose_module._hom_steps
    planned = []

    def counting(q):
        planned.append(q.size)
        return hom_steps(q)

    monkeypatch.setattr(compose_module, "_hom_steps", counting)
    assert enumerate_bands(5, 3).labeled == 3225
    # ternary class sizes are 1, 2 or 4: the compositions (1,4) and (4,1)
    # on the 1 meet class of 2 nodes, the 3 arrangements of (1,2,2) on 2
    # classes of 3 nodes and the 4 of (1,1,1,2) on 5 classes of 4 nodes; a
    # group of order 5 or 3 does not exist, and 5 singleton classes leave
    # no map to choose
    assert [planned.count(k) for k in range(1, 6)] == [0, 2, 6, 20, 0]


def hom_systems_reference(steps, bases, arity):
    """_hom_systems searching every step, maps into one-element classes
    included."""
    phi = {}

    def rec(idx):
        if idx == len(steps):
            yield dict(phi)
            return
        c, covers, routes = steps[idx]
        choice_lists = [compose_module._cached_nary_homs(bases[a], bases[c], arity) for a in covers]
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


@pytest.mark.parametrize("n", [3, 5])
def test_hom_systems_match_the_full_search(n):
    # every composition of up to 5 elements into at most 4 classes that
    # enumeration builds on, every labeled meet table (not only the one per
    # isomorphism class that enumeration reads) and group type assignment
    meets = {k: enumerate_bands(k, 2).entries for k in range(1, 5)}
    planned = set()
    for m in range(1, 6):
        for sizes in compose_module._compositions(m):
            k = len(sizes)
            options = [
                [make_group(GroupSpec(s, f), n) for f in compose_module._factor_multisets(s, n - 1)]
                for s in sizes
            ]
            if k > 4 or not all(options):
                continue
            for t in meets[k]:
                meet = np.asarray(t.values).reshape(k, k)
                plan = compose_module._hom_steps(QuotientSemilattice(t))
                planned.add(t.values)
                # the forced maps: from each class g into a one-element class below it
                forced = {
                    (g, c): (0,) * sizes[g]
                    for g in range(k)
                    for c in range(k)
                    if c != g and meet[g, c] == c and sizes[c] == 1
                }
                for bases in itertools.product(*options):
                    got = [{**forced, **phi} for phi in compose_module._hom_systems(plan, bases, n)]
                    want = list(hom_systems_reference(plan, bases, n))
                    assert sorted(sorted(p.items()) for p in got) == sorted(
                        sorted(p.items()) for p in want
                    )
    assert len(planned) == 1 + 2 + 9 + 76


def test_enumerate_rejects_equal_composed_systems(monkeypatch):
    hom_systems = compose_module._hom_systems

    def twice(*args):
        for phi in hom_systems(*args):
            yield phi
            yield phi

    monkeypatch.setattr(compose_module, "_hom_systems", twice)
    with pytest.raises(ConsistencyError, match="two distinct systems composed equal"):
        enumerate_bands(3, 3)


def test_compositions():
    assert sorted(compose_module._compositions(4)) == sorted(
        c for k in range(1, 5) for c in itertools.product(range(1, 5), repeat=k) if sum(c) == 4
    )
    assert len(list(compose_module._compositions(5))) == 16


def test_brute_force_rejects_rows_not_closed_under_relabeling(monkeypatch):
    closed_catalog = compose_module._closed_catalog
    catalog = brute_force_bands(3, 3)
    rows = np.frombuffer(b"".join(catalog.rows), dtype=np.uint8).reshape(len(catalog.rows), -1)
    assert closed_catalog(3, 3, rows).rows == catalog.rows
    # the first table is not fixed by every relabeling, so dropping it
    # leaves a relabeling of it that has no table left
    first = catalog.entries[0]
    assert relabel_cells(first, (1, 0, 2)).values != first.values
    with pytest.raises(ConsistencyError, match="not closed under relabeling"):
        closed_catalog(3, 3, rows[1:])

    # the search's own rows, with the same table dropped
    def dropping(m, n, orbits):
        return closed_catalog(m, n, orbits[[r.tobytes() != catalog.rows[0] for r in orbits]])

    monkeypatch.setattr(compose_module, "_closed_catalog", dropping)
    with pytest.raises(ConsistencyError, match="not closed under relabeling"):
        brute_force_bands(3, 3)


@pytest.mark.parametrize("n, labeled", [(3, 197), (5, 200)])
def test_batched_compose_matches_one_system_calls(monkeypatch, n, labeled):
    # each batch that enumeration composes is checked against the kernel
    # run on each of its systems alone
    kernel = compose_module._compose_orbits
    batches = []

    def checking(arity, class_of, layout, meets, cayleys, images):
        out = kernel(arity, class_of, layout, meets, cayleys, images)
        alone = [
            kernel(arity, class_of, layout, [meet], [cayley], [image])[0]
            for meet, cayley, image in zip(meets, cayleys, images)
        ]
        assert np.array_equal(out, np.array(alone))
        batches.append((set(layout.sizes.tolist()), len(meets)))
        return out

    monkeypatch.setattr(compose_module, "_compose_orbits", checking)
    assert enumerate_bands(4, n).labeled == labeled
    # some batch stacks several systems on classes of different sizes
    assert any(len(sizes) > 1 and count > 1 for sizes, count in batches)


def test_compose_inverts_decompose_on_the_4_5_catalog():
    for t in enumerate_bands(4, 5).entries:
        assert compose(decompose(t, verify=False)).values == t.values


def test_enumerate_validates_input():
    with pytest.raises(InputError):
        enumerate_bands(0, 3)
    with pytest.raises(InputError):
        enumerate_bands(2, 1)
    with pytest.raises(ResourceError):
        enumerate_bands(6, 3)


def test_brute_force_golden_counts():
    catalog = brute_force_bands(2, 3)
    assert catalog.labeled == 3 and catalog.iso == 2
    values = {t.values for t in catalog.entries}
    ternary_min = table_from_function(3, 2, lambda *a: min(a))
    ternary_max = table_from_function(3, 2, lambda *a: max(a))
    ternary_xor = table_from_function(3, 2, lambda x, y, z: x ^ y ^ z)
    assert values == {ternary_min.values, ternary_max.values, ternary_xor.values}


def test_brute_force_respects_budget(monkeypatch):
    # the budget counts search nodes: (4,3) needs 6,124 and (6,3) passes
    # the default 2**21; the search reads the constant when it runs
    monkeypatch.setattr(compose_module, "BRUTE_CANDIDATE_BUDGET", 1000)
    with pytest.raises(ResourceError, match="1000 nodes"):
        brute_force_bands(4, 3)
    monkeypatch.setattr(compose_module, "BRUTE_CANDIDATE_BUDGET", 10_000)
    with pytest.raises(ResourceError, match="10000 nodes"):
        brute_force_bands(6, 3)
    monkeypatch.undo()
    # refused before any search: the (2,30) tables have 2**30 cells each
    with pytest.raises(ResourceError, match="exceeds budget"):
        brute_force_bands(2, 30)


def test_brute_force_binary_counts():
    small = brute_force_bands(3, 2)
    assert small.labeled == 9 and small.iso == 2
    big = brute_force_bands(4, 2)
    assert big.labeled == 76 and big.iso == 5
    for t in big.entries:
        assert check_symmetric(t) is None


def exhaustive_bands(m, n):
    """Reference for brute_force_bands: every symmetric idempotent table,
    one value per sorted argument tuple, kept when check_associative passes."""
    multisets = list(itertools.combinations_with_replacement(range(m), n))
    free = [ms for ms in multisets if ms[0] != ms[-1]]
    out = set()
    for assignment in itertools.product(range(m), repeat=len(free)):
        cells = dict(zip(free, assignment))
        cells.update({(x,) * n: x for x in range(m)})
        t = table_from_function(n, m, lambda *a: cells[tuple(sorted(a))])
        if check_associative(t) is None:
            out.add(t.values)
    return out


@pytest.mark.parametrize(
    "m, n",
    [(1, 3), (2, 3), (3, 3), (3, 2), (4, 2)] + [(2, n) for n in range(2, 8)],
)
def test_brute_force_matches_exhaustive_scan(m, n):
    catalog = brute_force_bands(m, n)
    values = [t.values for t in catalog.entries]
    assert len(values) == len(set(values)) == catalog.labeled
    assert set(values) == exhaustive_bands(m, n)


def cauchy_frobenius_iso(tables):
    """Isomorphism classes among tables closed under relabeling, counted
    as the mean number of tables a relabeling fixes.  relabel(t, p) = t
    iff t(p(x1), ..., p(xn)) = p(t(x1, ..., xn)) for every argument tuple."""
    m, n = tables[0].size, tables[0].arity
    dense = np.array([t.values for t in tables])
    digits = np.indices((m,) * n).reshape(n, -1)
    strides = m ** np.arange(n - 1, -1, -1)
    fixed = 0
    for p in itertools.permutations(range(m)):
        p = np.array(p)
        moved = strides @ p[digits]
        fixed += int(np.all(dense[:, moved] == p[dense], axis=1).sum())
    assert fixed % math.factorial(m) == 0
    return fixed // math.factorial(m)


@pytest.mark.parametrize("m, n, iso", [(4, 3, 14), (4, 5, 15), (5, 2, 15), (5, 3, 45)])
def test_brute_force_iso_counts_by_cauchy_frobenius(oracle, m, n, iso):
    catalog = oracle(m, n)
    assert cauchy_frobenius_iso(catalog.entries) == catalog.iso == iso


def test_catalog_matches_brute_force():
    for m in (1, 2, 3):
        fast = {t.values for t in enumerate_bands(m, 3).entries}
        slow = {t.values for t in brute_force_bands(m, 3).entries}
        assert fast == slow
