import importlib
import itertools
import math

import numpy as np
import pytest

from narybands import (
    ConsistencyError,
    DomainError,
    GroupSpec,
    HomMap,
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
    make_group,
    nary_homs,
    neutral_elements,
    relabel,
    table_from_function,
)

# the package re-exports the function compose under the module's name
compose_module = importlib.import_module("narybands.compose")
optable_module = importlib.import_module("narybands.optable")

LABELED_N3 = {1: 1, 2: 3, 3: 18, 4: 197, 5: 3225}
ISO_N3 = {1: 1, 2: 2, 3: 4, 4: 14, 5: 45}


def test_make_group_cyclic():
    g = make_group(GroupSpec(3, (3,)), 4)
    for x in range(3):
        for y in range(3):
            assert g.eval((x, y)) == (x + y) % 3
    assert neutral_elements(g) == frozenset({0})


def test_make_group_digit_order():
    # first factor is most significant: element 1 is the generator of the
    # last factor
    g = make_group(GroupSpec(6, (2, 3)), 7)
    assert g.eval((1, 1)) == 2
    assert g.eval((3, 3)) == 0
    assert g.eval((4, 5)) == 0
    assert g.eval((1, 2)) == 0
    assert g.eval((3, 1)) == 4


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
    broken_map = dict(system.homs)
    broken_map[(0, 1)] = HomMap(0, 1, {0: 4, 1: 5, 2: 4, 3: 4})
    broken = type(system)(
        system.arity, system.partition, system.quotient, system.groups, broken_map
    )
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


def test_enumerate_entries_are_bands(catalog_n3):
    for m in (1, 2, 3, 4):
        for t in catalog_n3[m]:
            assert band_violation(t) is None


def test_enumerate_entries_sorted_and_distinct(catalog_n3):
    # grouped by isomorphism class: classes ordered by their least
    # relabeling, tables within a class by their own values
    for m in catalog_n3:
        keys = [
            (min(relabel(t, p).values for p in itertools.permutations(range(m))), t.values)
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
            assert relabel(t, perm).values in values


def test_enumerate_binary_gives_semilattices():
    # at arity 2 the class groups are trivial, so the catalog is exactly
    # the commutative idempotent associative tables: the generated meet
    # semilattices composed, and what the oracle's search finds.
    labeled = {1: 1, 2: 2, 3: 9, 4: 76, 5: 1065}
    iso = {1: 1, 2: 1, 3: 2, 4: 5, 5: 15}
    for m in labeled:
        grown = compose_module._semilattice_tables(m)
        catalog = enumerate_bands(m, 2)
        oracle = brute_force_bands(m, 2)
        assert len(grown) == catalog.labeled == oracle.labeled == labeled[m]
        assert catalog.iso == oracle.iso == iso[m]
        expected = {t.values for t in oracle.entries}
        assert {t.values for t in grown} == expected
        assert {t.values for t in catalog.entries} == expected


def test_enumerate_does_not_use_the_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration called brute_force_bands")

    monkeypatch.setattr(compose_module, "brute_force_bands", refuse)
    compose_module._semilattice_tables.cache_clear()
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
            relabel(v, p).values
            for v in built
            if v.size == k
            for p in itertools.permutations(range(k))
        }
        assert {t.values for t in compose_module._semilattice_tables(k)} <= relabelings


def test_hom_steps_match_quotient_semilattice():
    # the plan read off the meet array against one read off the checked
    # semilattice's leq and covers
    def reference(q):
        k = q.size
        uppers = [[d for d in range(k) if d != c and q.leq(c, d)] for c in range(k)]
        cover_pairs = q.covers()
        steps = []
        for c in sorted(range(k), key=lambda c: (len(uppers[c]), c)):
            if uppers[c]:
                covers = tuple(a for a, b in cover_pairs if b == c)
                routes = tuple(
                    (g, tuple(a for a in covers if a == g or q.leq(a, g))) for g in uppers[c]
                )
                steps.append((c, covers, routes))
        return tuple(steps)

    tables = [t for k in range(1, 6) for t in compose_module._semilattice_tables(k)]
    assert len(tables) == 1153
    for t in tables:
        meet = np.asarray(t.values).reshape(t.size, t.size)
        assert compose_module._hom_steps(meet) == reference(QuotientSemilattice(t))


def test_enumerate_rejects_a_non_associative_meet_table(monkeypatch):
    # rock-paper-scissors: commutative and idempotent, but
    # (0 1) 2 = 1 2 = 2 while 0 (1 2) = 0 2 = 0
    bad = OpTable(2, 3, (0, 1, 0, 1, 1, 2, 0, 2, 2))
    assert check_symmetric(bad) is None and check_idempotent(bad) is None
    assert check_associative(bad) is not None
    tables = compose_module._semilattice_tables
    monkeypatch.setattr(
        compose_module, "_semilattice_tables", lambda k: tables(k) + ((bad,) if k == 3 else ())
    )
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


def test_brute_force_respects_budget():
    # the budget counts search nodes: (4,3) needs 6,124 and (6,3) passes
    # the default 2**21
    with pytest.raises(ResourceError, match="1000 nodes"):
        brute_force_bands(4, 3, max_candidates=1000)
    with pytest.raises(ResourceError, match="10000 nodes"):
        brute_force_bands(6, 3, max_candidates=10_000)
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
        if check_associative(t, use_symmetry=True) is None:
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
