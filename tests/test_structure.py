import dataclasses
import functools
import importlib
import itertools
import json
import random
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from narybands import (
    ClassGroup,
    ConsistencyError,
    DomainError,
    InputError,
    OpTable,
    QuotientSemilattice,
    SigmaPartition,
    StrongSystem,
    associated_band,
    band_violation,
    class_group,
    compose,
    decide_reducible,
    decompose,
    enumerate_bands,
    extend,
    hom_maps,
    invariant_factors,
    lambda_table,
    sigma_partition,
    system_from_doc,
    system_from_json,
    system_to_doc,
    system_to_json,
    table_from_doc,
    table_from_function,
    table_from_json,
    validate_system,
    verify_reduction,
)
from narybands.optable import symmetric_table
from narybands.structure import _power

from conftest import NON_BAND_DOCS, outcome, perturbed, perturbed_multisets, random_tables
from references import (
    class_group_reference,
    decompose_reference,
    group_law_violations_reference,
    hom_violations_reference,
    multiset_index_reference,
    pair_maps_reference,
    product_corpus,
)


def cyclic(k):
    return table_from_function(2, k, lambda x, y: (x + y) % k)


def product_table(ka, kb):
    def op(x, y):
        return ((x // kb + y // kb) % ka) * kb + (x % kb + y % kb) % kb

    return table_from_function(2, ka * kb, op)


def test_invariant_factors_cyclic():
    assert invariant_factors(cyclic(1)) == ()
    assert invariant_factors(cyclic(2)) == (2,)
    assert invariant_factors(cyclic(5)) == (5,)
    assert invariant_factors(cyclic(12)) == (12,)


def test_invariant_factors_products():
    assert invariant_factors(product_table(2, 2)) == (2, 2)
    assert invariant_factors(product_table(2, 4)) == (2, 4)
    assert invariant_factors(product_table(3, 4)) == (12,)
    assert invariant_factors(product_table(6, 2)) == (2, 6)


def test_invariant_factors_divisibility():
    for table in (product_table(4, 2), product_table(2, 6), product_table(9, 3)):
        sig = invariant_factors(table)
        for a, b in zip(sig, sig[1:]):
            assert b % a == 0


def test_invariant_factors_respects_neutral_argument():
    shifted = table_from_function(2, 3, lambda x, y: (x + y - 2) % 3)
    assert invariant_factors(shifted, neutral=2) == (3,)


def test_invariant_factors_rejects_non_group():
    band = table_from_function(2, 2, lambda x, y: min(x, y))
    with pytest.raises(ConsistencyError):
        invariant_factors(band)
    with pytest.raises(ConsistencyError):
        invariant_factors(table_from_function(2, 6, _s3), neutral=0)


def _s3(x, y):
    # S_3 as permutations of {0,1,2} numbered lexicographically
    perms = list(itertools.permutations(range(3)))
    composed = tuple(perms[x][perms[y][i]] for i in range(3))
    return perms.index(composed)


def test_class_group_golden(f1, f2):
    for t in (f1, f2):
        g = class_group(t, (2, 3))
        assert g.neutral == 2
        assert g.factor_signature == (2,)
        assert g.cayley.values == (0, 1, 1, 0)


def test_class_group_matches_the_reference(catalog_tables):
    # each class of each band with each neutral, the same classes on a
    # one-cell perturbation of the band, and random member sets of random
    # tables: the same group, or the same error
    cases = []
    for t, near in zip(catalog_tables, perturbed(catalog_tables, 41)):
        for i, members in enumerate(sigma_partition(t).classes):
            cases += [(t, members, e, i) for e in members] + [(near, members, members[-1], i)]
    rng = random.Random(42)
    for t in random_tables(43, 300):
        members = rng.sample(range(t.size), rng.randint(1, t.size))
        cases.append((t, members, rng.choice(members), 0))
    kinds = set()
    for case in cases:
        got = outcome(class_group, *case)
        assert got == outcome(class_group_reference, *case)
        kinds.add(got[1].split(":")[0] if isinstance(got, tuple) else "group")
    assert {"group", "class is not closed"} < kinds


def test_class_group_neutral_choice_is_immaterial(f1):
    g2 = class_group(f1, (2, 3), e=2)
    g3 = class_group(f1, (2, 3), e=3)
    assert g2.factor_signature == g3.factor_signature == (2,)
    # both neutrals induce the same ternary operation on the class
    assert extend(g2.cayley, 2).values == extend(g3.cayley, 2).values


def test_class_group_position_api(f1):
    g = class_group(f1, (2, 3))
    assert g.op(2, 3) == 3 and g.op(3, 3) == 2
    assert g.position(3) == 1


def test_power_walk_matches_the_step_loop():
    # the walk indexes into the cycle its sequence runs into: random maps,
    # mostly no permutation, have tails before their cycles, and counts up
    # to 60 wrap every cycle of six positions or fewer many times
    rng = random.Random(47)
    for _ in range(100):
        f = [rng.randrange(6) for _ in range(rng.randint(1, 6))]
        f = [p % len(f) for p in f]
        for x in range(len(f)):
            expected = x
            for count in range(61):
                assert _power(f, x, count) == expected
                expected = f[expected]


def test_class_group_rejects_non_class(f1):
    with pytest.raises(ConsistencyError):
        class_group(f1, (0, 1), e=0)
    with pytest.raises(InputError):
        class_group(f1, (2, 3), e=0)
    with pytest.raises(InputError):
        class_group(f1, ())


def test_class_group_binary_nontrivial_rejected():
    t = table_from_function(2, 2, lambda x, y: x ^ y)
    with pytest.raises(ConsistencyError, match="^class 3: exponent does not divide 1$"):
        class_group(t, (0, 1), e=0, index=3)


def test_class_group_raises_the_first_failed_law():
    # (0 1 2) as a ternary class: x * y = t(x, e, y), with e = 0 neutral;
    # the group Z3 has exponent 3, which does not divide 2
    z3 = table_from_function(3, 3, lambda x, y, z: (x - y + z) % 3)
    with pytest.raises(ConsistencyError, match="^class 0: exponent does not divide 2$"):
        class_group(z3, (0, 1, 2))
    # at arity 4 it is a class group
    z3_4 = table_from_function(4, 3, lambda *a: (a[0] - a[1] - a[2] + a[3]) % 3)
    assert class_group(z3_4, (0, 1, 2)).factor_signature == (3,)
    # x * y = y for every e: no element is neutral, and identity is checked first
    right = table_from_function(3, 2, lambda x, y, z: z)
    with pytest.raises(ConsistencyError, match="^class 0: neutral does not act as identity$"):
        class_group(right, (0, 1))


def test_hom_maps_golden(f1, f2):
    homs1 = hom_maps(f1)
    assert homs1[(0, 2)] == {0: 3}
    assert homs1[(1, 2)] == {1: 2}
    homs2 = hom_maps(f2)
    assert homs2[(0, 2)] == {0: 3}
    assert homs2[(1, 2)] == {1: 3}


def test_hom_maps_keys_are_comparable_pairs(f1):
    keys = set(hom_maps(f1))
    assert keys == {(0, 0), (1, 1), (2, 2), (0, 2), (1, 2)}
    assert hom_maps(f1)[(2, 2)] == {2: 2, 3: 3}


def test_hom_maps_are_lambda_restrictions(catalog_n3):
    # each connecting map is the translation row of any target-class element
    for t in catalog_n3[4]:
        p = sigma_partition(t)
        rows = lambda_table(t).rows
        for (upper, lower), hom in hom_maps(t).items():
            for y in p.classes[lower]:
                for x in p.classes[upper]:
                    assert hom[x] == rows[y][x]


def test_decompose_golden(f1):
    system = decompose(f1)
    assert system.arity == 3
    assert system.partition.classes == ((0,), (1,), (2, 3))
    assert [g.factor_signature for g in system.groups] == [(), (), (2,)]
    assert [g.neutral for g in system.groups] == [0, 1, 2]
    assert validate_system(system) == []


def test_decompose_catalog_is_valid(catalog_n3):
    for m in catalog_n3:
        for t in catalog_n3[m]:
            assert validate_system(decompose(t, verify=False)) == []


def test_rerouted_trivial_hom_is_another_valid_system(f1):
    # any map out of a one-element class is a connecting hom, so rerouting
    # it yields a different but still valid system
    system = decompose(f1)
    assert pair_maps_reference(system)[(0, 2)] == {0: 3}
    other = with_images(system, {(0, 2): 2})
    assert pair_maps_reference(other)[(0, 2)] == {0: 2}
    assert validate_system(other) == []


def with_images(system, cells):
    """system with image[x * k + c] set to y for each (x, c): y in cells."""
    k = system.partition.size
    image = list(system.image)
    for (x, c), y in cells.items():
        image[x * k + c] = y
    return dataclasses.replace(system, image=image)


def k4_over_z2():
    """Six elements: a Klein-four class {0..3} above a two-element class
    {4,5}, all of the upper class collapsing onto 4."""

    def op(x, y, z):
        if x < 4 and y < 4 and z < 4:
            return x ^ y ^ z
        p = 0
        for a in (x, y, z):
            p ^= 0 if a < 4 else a - 4
        return 4 + p

    return table_from_function(3, 6, op)


def test_validate_system_catches_bad_multiplicativity():
    system = decompose(k4_over_z2())
    # 16 maps K4 -> Z2 but only 8 shifted homs; this one is not among them
    broken = with_images(system, {(0, 1): 4, (1, 1): 5, (2, 1): 4, (3, 1): 4})
    codes = {v.code for v in validate_system(broken)}
    assert codes == {"hom-multiplicative"}


def test_validate_system_catches_bad_composition(catalog_n3):
    # need a 3-chain whose bottom class has two elements, so the rerouted
    # long map disagrees with the composite of the two short ones
    for t in catalog_n3[4]:
        system = decompose(t, verify=False)
        if system.partition.classes != ((0,), (1,), (2, 3)):
            continue
        if not {(0, 1), (1, 2), (0, 2)} <= set(pair_maps_reference(system)):
            continue
        old = pair_maps_reference(system)[(0, 2)][0]
        broken = with_images(system, {(0, 2): 2 if old == 3 else 3})
        codes = {v.code for v in validate_system(broken)}
        assert codes == {"hom-composition"}
        break
    else:
        pytest.fail("no chain band with a two-element bottom class in the catalog")


def test_system_doc_golden_shape(f2):
    doc = system_to_doc(decompose(f2), ("1", "2", "3", "4"))
    assert doc["arity"] == 3
    assert doc["elements"] == ["1", "2", "3", "4"]
    assert doc["classes"] == [[0], [1], [2, 3]]
    assert doc["meet"] == [[0, 2, 2], [2, 1, 2], [2, 2, 2]]
    assert {"class": 2, "neutral": 2, "cayley": [[2, 3], [3, 2]]} in doc["groups"]
    assert {"from": 1, "to": 2, "map": {"1": 3}} in doc["homs"]
    pairs = [(h["from"], h["to"]) for h in doc["homs"]]
    assert pairs == sorted(pairs)
    assert (2, 2) in pairs


def test_system_round_trip_bit_exact(f1, f2, min3, xor3):
    for t in (f1, f2, min3, xor3):
        system = decompose(t)
        text = system_to_json(system)
        back, labels = system_from_json(text)
        assert back == system
        assert system_to_json(back, labels) == text


@pytest.mark.parametrize(
    "mutate, error, fragment",
    [
        (lambda d: d.pop("meet"), InputError, "missing keys: ['meet']"),
        (lambda d: d.update(arity=1), InputError, "arity must be an integer >= 2"),
        (
            lambda d: d.update(classes=[[0], [1, 2], [3]]),
            InputError,
            "cayley for class 1 must be 2x2",
        ),
        (lambda d: d.update(classes=[[0], [1], [2], [3]]), InputError, "meet must be a 4x4 table"),
        (lambda d: d.update(meet=[[0, 2], [2, 1]]), InputError, "meet must be a 3x3 table"),
        (lambda d: d["groups"].pop(), InputError, "groups must list one entry per class (3)"),
        (lambda d: d["groups"][2].update(neutral=0), InputError, "neutral 0 is outside class 2"),
        (
            lambda d: d["groups"][2].update(cayley=[[2, 0], [3, 2]]),
            InputError,
            "cayley entry 0 is outside class 2",
        ),
        (
            lambda d: d["homs"].pop(),
            InputError,
            "homs must cover exactly the comparable class pairs",
        ),
        (
            lambda d: d["homs"][1].update(map={"0": 0}),
            InputError,
            "hom (0, 2) maps outside class 2",
        ),
        (
            lambda d: d["homs"][1]["map"].update({"9": 2}),
            InputError,
            "hom (0, 2) domain is not exactly class 0",
        ),
        # a map for classes 0 and 1, which are not comparable
        (
            lambda d: d["homs"].append({"from": 0, "to": 1, "map": {"0": 1}}),
            InputError,
            "homs must cover exactly the comparable class pairs",
        ),
        # an image moved into another class
        (
            lambda d: d["homs"][1]["map"].update({"0": 1}),
            InputError,
            "hom (0, 2) maps outside class 2",
        ),
        (
            lambda d: d.update(meet=[[0, 2, 2], [2, 1, 2], [2, 1, 2]]),
            ConsistencyError,
            "meet table is not commutative",
        ),
    ],
    ids=[
        "missing-meet",
        "arity-1",
        "class-sizes",
        "class-count",
        "meet-shape",
        "missing-group",
        "neutral-outside",
        "cayley-outside",
        "missing-hom",
        "image-outside",
        "domain",
        "non-comparable-hom",
        "image-moved-class",
        "non-commutative-meet",
    ],
)
def test_system_doc_rejects_malformed(f1, mutate, error, fragment):
    doc = system_to_doc(decompose(f1))
    mutate(doc)
    with pytest.raises(error) as caught:
        system_from_doc(doc)
    assert type(caught.value) is error
    assert fragment in str(caught.value)


def test_system_from_doc_recomputes_signature(f1):
    doc = system_to_doc(decompose(f1))
    system, _ = system_from_doc(doc)
    assert system.groups[2].factor_signature == (2,)


def test_non_group_cayley_loads_but_fails_validation(f1):
    # a structurally well formed document with a bad class operation is
    # accepted by the parser; validate_system is where it gets flagged
    doc = system_to_doc(decompose(f1))
    doc["groups"][2]["cayley"] = [[2, 3], [3, 3]]
    system, _ = system_from_doc(doc)
    codes = {v.code for v in validate_system(system)}
    assert "group-inverse" in codes or "group-identity" in codes


def dense_compose(system, n):
    """Dense reference for compose: the value of every argument tuple in
    flat order, each tuple pushed into its meet class and multiplied there,
    through element-level tables read off the system's maps and groups."""
    m = system.size
    k = system.partition.size
    cls = np.array(system.partition.class_of)
    meet = np.array([[system.quotient.meet_of(a, b) for b in range(k)] for a in range(k)])
    push = np.full((m, k), -1)
    for (_, lower), hom in pair_maps_reference(system).items():
        for x, image in hom.items():
            push[x, lower] = image
    mult = np.full((m, m), -1)
    for g in system.groups:
        for x in g.members:
            for y in g.members:
                mult[x, y] = g.op(x, y)
    # row j holds argument j of every tuple, first argument most significant
    args = np.indices((m,) * n).reshape(n, -1)
    gamma = cls[args[0]]
    for row in args[1:]:
        gamma = meet[gamma, cls[row]]
    acc = push[args[0], gamma]
    for row in args[1:]:
        acc = mult[acc, push[row, gamma]]
    return tuple(acc.tolist())


def test_decompose_reconstruction_identity(catalog_n3):
    # the defining identity of the decomposition: every value is reached by
    # pushing all arguments into the meet class and multiplying there.
    # compose evaluates one argument multiset per orbit; the reference
    # evaluates every tuple, at the band's arity and at a higher one
    for t in catalog_n3[3] + catalog_n3[4]:
        system = decompose(t)
        assert dense_compose(system, 3) == t.values == compose(system).values
        assert dense_compose(system, 5) == compose(system, 5).values
    # arity 9 (4**9 tuples) runs on one table per isomorphism class
    canonical = {t.values for t in enumerate_bands(4, 5, up_to_iso=True).entries}
    for t in enumerate_bands(4, 5).entries:
        system = decompose(t, verify=False)
        assert dense_compose(system, 5) == t.values == compose(system).values
        if t.values in canonical:
            assert dense_compose(system, 9) == compose(system, 9).values


def symmetric_idempotent_tables(m, n):
    """Every symmetric idempotent table of arity n on m elements."""
    multisets = multiset_index_reference(m, n)[0]
    mixed = [i for i, c in enumerate(multisets) if c[0] != c[-1]]
    for values in itertools.product(range(m), repeat=len(mixed)):
        row = [c[0] for c in multisets]
        for i, v in zip(mixed, values):
            row[i] = v
        yield symmetric_table(n, m, row)


def multiset_perturbations():
    """A seeded sample of each catalog, fewer where the band scan is slow,
    each table with one and with two of its multisets moved."""
    rng = random.Random(51)
    sizes = {(4, 3): 197, (5, 3): 300, (4, 5): 20, (5, 2): 300, (4, 4): 92, (3, 4): 10, (5, 5): 10}
    out = []
    for (m, n), count in sizes.items():
        sample = rng.sample(enumerate_bands(m, n).entries, count)
        out += perturbed_multisets(sample, 52, 1) + perturbed_multisets(sample, 53, 2)
    return out


SMALL = [(2, n) for n in range(2, 8)] + [(3, 2), (3, 3), (4, 2)]
CORPORA = {
    "symmetric-idempotent": lambda _: [
        t for m, n in SMALL for t in symmetric_idempotent_tables(m, n)
    ],
    "catalog-cells": lambda catalog: perturbed(catalog, 54),
    "catalog-multisets": lambda _: multiset_perturbations(),
    "random": lambda _: random_tables(55, 3000),
    "pinned": lambda _: [table_from_doc(doc)[0] for doc in NON_BAND_DOCS.values()],
}


@pytest.mark.parametrize("corpus", CORPORA)
def test_decompose_accepts_exactly_the_bands(corpus, catalog_tables):
    # the system read off t is valid and composes back to t iff t is a
    # band: without verify a non-band raises ConsistencyError and nothing
    # else, with it the DomainError of require_band, law and witness
    tables = CORPORA[corpus](catalog_tables)
    bands = 0
    for t in tables:
        found = band_violation(t)
        if found is None:
            bands += 1
            assert isinstance(decompose(t, verify=False), StrongSystem)
            continue
        with pytest.raises(ConsistencyError):
            decompose(t, verify=False)
        with pytest.raises(DomainError) as info:
            decompose(t)
        assert (info.value.axiom, info.value.witness) == found
    if corpus == "symmetric-idempotent":
        assert (len(tables), bands) == (6436, 118)
    assert bands < len(tables)


def decomposed(f, t):
    got = outcome(f, t)
    return system_to_json(got) if isinstance(got, StrongSystem) else got


BAND_CATALOGS = [(m, n) for n in (2, 3) for m in range(1, 6)] + [(3, 4), (4, 5), (3, 5)]


@pytest.mark.parametrize("m, n", BAND_CATALOGS, ids=[f"{m}-{n}" for m, n in BAND_CATALOGS])
def test_decompose_matches_the_reference_on_catalogs(m, n):
    # the catalog tables are bands, so the reference skips its band scan
    for t in enumerate_bands(m, n).entries:
        assert system_to_json(decompose(t)) == system_to_json(decompose_reference(t, verify=False))


def test_decompose_matches_the_reference_on_fixtures():
    # the same system document or the same DomainError, majority2 included
    for path in sorted((Path(__file__).parent / "fixtures").glob("*.json")):
        t, _ = table_from_json(path.read_text())
        assert decomposed(decompose, t) == decomposed(decompose_reference, t)


def test_decompose_never_scans_a_band(monkeypatch, f1, f2, min3, xor3):
    # the certificate stands in for the band scan and for quotient's loop
    # over every cell: on a band neither runs, and t itself is never
    # checked for associativity (the meet and the class groups still are)
    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append((name, args[0]))
            return original(*args, **kwargs)

        return wrapper

    for module in ("narybands", "optable", "bandcore", "structure", "compose", "reduce"):
        module = importlib.import_module(module if module == "narybands" else f"narybands.{module}")
        for name in ("quotient", "require_band", "check_associative"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for t in (f1, f2, min3, xor3):
        for verify in (True, False):
            decompose(t, verify)
            hom_maps(t, verify)
        assert [(name, arg) for name, arg in calls if arg is t or name != "check_associative"] == []
    assert calls


def reported(system, n):
    return [(v.code, v.message) for v in validate_system(system, n)]


def references(system, n):
    return group_law_violations_reference(system, n) + hom_violations_reference(system, n)


@functools.cache
def catalog_systems(m, n):
    return tuple(decompose(t, verify=False) for t in enumerate_bands(m, n).entries)


# every catalog with m <= 5 at n = 2 and 3, and with m <= 4 at n = 5
CATALOGS = [(m, n) for n, top in ((2, 5), (3, 5), (5, 4)) for m in range(1, top + 1)]


@pytest.mark.parametrize("m, n", CATALOGS, ids=[f"{m}-{n}" for m, n in CATALOGS])
def test_group_laws_match_the_reference_on_catalogs(m, n):
    # every decomposed system of the catalog, checked at its own arity and
    # at others, where the exponent law and the maps' multiplicative law
    # can fail: validate_system reports exactly what the references report
    seen = set()
    for system in catalog_systems(m, n):
        for arity in (2, 3, 4, 5):
            got = reported(system, arity)
            assert got == references(system, arity)
            seen.update(code for code, _ in got if code.startswith("group-"))
            if arity == n:
                assert got == []
    assert seen == (set() if n == 2 or m == 1 else {"group-exponent"})


def test_validate_system_matches_the_references_on_fixtures(f1, f2, min3, xor3):
    for t in (f1, f2, min3, xor3):
        system = decompose(t)
        assert pair_maps_reference(system) == hom_maps(t)
        for arity in (2, 3, 4, 5):
            assert reported(system, arity) == references(system, arity)


@st.composite
def perturbed_systems(draw):
    """A catalog system (n > 2) with a class of two or more elements, with one
    image cell moved to another member of its target class or one class
    group cell changed, and an arity to check it at."""
    m, n = draw(st.sampled_from([(m, n) for m, n in CATALOGS if m > 1 and n > 2]))
    systems = [s for s in catalog_systems(m, n) if s.size > s.partition.size]
    system = draw(st.sampled_from(systems))
    k, classes = system.partition.size, system.partition.classes
    if draw(st.booleans()):
        cells = [
            (x, c)
            for x in range(m)
            for c in range(k)
            if system.image[x * k + c] != -1 and len(classes[c]) > 1
        ]
        x, c = draw(st.sampled_from(cells))
        old = system.image[x * k + c]
        new = draw(st.sampled_from([y for y in classes[c] if y != old]))
        system = with_images(system, {(x, c): new})
    else:
        c = draw(st.sampled_from([c for c in range(k) if len(classes[c]) > 1]))
        g = system.groups[c]
        values = list(g.cayley.values)
        cell = draw(st.integers(0, len(values) - 1))
        values[cell] = draw(st.sampled_from([p for p in range(g.order) if p != values[cell]]))
        group = dataclasses.replace(g, cayley=OpTable(2, g.order, tuple(values)))
        groups = system.groups[:c] + (group,) + system.groups[c + 1 :]
        system = dataclasses.replace(system, groups=groups)
    return system, draw(st.integers(2, 5))


@given(perturbed_systems())
@settings(max_examples=300, deadline=None)
def test_validate_system_matches_the_references_on_perturbations(case):
    system, arity = case
    assert reported(system, arity) == references(system, arity)


def test_strong_system_checks_its_image_matrix(f1):
    # classes (0,), (1,), (2, 3) with 0 > 2 and 1 > 2: x's row of image
    # lists its images in classes 0, 1, 2
    system = decompose(f1)
    assert system.image == (0, -1, 3, -1, 1, 2, -1, -1, 2, -1, -1, 3)
    assert hash(system) == hash(decompose(f1))
    with pytest.raises(InputError, match="^image must have 4 x 3 cells, got 11$"):
        dataclasses.replace(system, image=system.image[:-1])
    with pytest.raises(InputError, match="^homs must cover exactly the comparable class pairs$"):
        with_images(system, {(0, 1): 1})  # classes 0 and 1 are not comparable
    with pytest.raises(InputError, match="^homs must cover exactly the comparable class pairs$"):
        with_images(system, {(0, 2): -1})
    with pytest.raises(InputError, match=r"^hom \(0, 2\) maps outside class 2$"):
        with_images(system, {(0, 2): 1})
    with pytest.raises(InputError, match=r"^hom \(2, 2\) maps outside class 2$"):
        with_images(system, {(3, 2): 4})


def one_class_system(rows, neutral, arity):
    k = len(rows)
    members = tuple(range(k))
    cayley = OpTable(2, k, tuple(v for row in rows for v in row))
    return StrongSystem(
        arity,
        SigmaPartition((0,) * k, (members,)),
        QuotientSemilattice(OpTable(2, 1, (0,))),
        (ClassGroup(0, members, neutral, cayley, ()),),
        members,
    )


@pytest.mark.parametrize(
    "law, message, rows, neutral",
    [
        (
            "identity",
            "neutral does not act as identity",
            [[(x + y) % 3 for y in range(3)] for x in range(3)],
            1,
        ),
        (
            "commutative",
            "operation is not commutative",
            [[_s3(x, y) for y in range(6)] for x in range(6)],
            0,
        ),
        # 1 * 1 * 2 = 2 but 1 * (1 * 2) = 0
        ("associative", "operation is not associative", [[0, 1, 2], [1, 0, 1], [2, 1, 0]], 0),
        ("inverse", "some element has no inverse", [[0, 1], [1, 1]], 0),
        (
            "exponent",
            "exponent does not divide {}",
            [[(x + y) % 3 for y in range(3)] for x in range(3)],
            0,
        ),
    ],
)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_group_laws_match_the_reference_on_broken_tables(law, message, rows, neutral, n):
    # each table breaks its law at every arity, and maybe others with it
    system = one_class_system(rows, neutral, n)
    got = [(v.code, v.message) for v in validate_system(system) if v.code.startswith("group-")]
    assert got == group_law_violations_reference(system, n)
    assert (f"group-{law}", "class 0: " + message.format(n - 1)) in got


def test_map_laws_stay_within_the_image_matrix():
    # a binary band is its own semilattice, so 300 atoms over a bottom give
    # m = k = 301: the map laws gather into one lower class at a time, and
    # their peak stays under eight m x k matrices, not near one m x k x k
    m = 301
    system = decompose(table_from_function(2, m, lambda x, y: x if x == y else 0))
    tracemalloc.start()
    try:
        report = validate_system(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == []
    assert peak < 8 * m * m * np.dtype(np.intp).itemsize


def test_many_classes_never_scan_the_meet(monkeypatch):
    # the 301 classes of the band of atoms over a bottom: the semilattice
    # checks its meet as an order, so the only tables check_associative
    # sees on the way through the structure layer are the 1 x 1 class groups
    m = 301
    t = table_from_function(2, m, lambda x, y: x if x == y else 0)
    scanned = []
    check_associative = importlib.import_module("narybands.optable").check_associative

    def spy(table):
        scanned.append(table.size)
        return check_associative(table)

    for name in ("optable", "bandcore", "structure", "reduce", "compose"):
        module = importlib.import_module(f"narybands.{name}")
        if getattr(module, "check_associative", None) is check_associative:
            monkeypatch.setattr(module, "check_associative", spy)
    system = decompose(t)
    system = system_from_json(system_to_json(system))[0]
    assert validate_system(system) == []
    assert decide_reducible(system).reducible
    assert system.quotient.size == m and scanned and max(scanned) == 1


def test_product_bands_match_their_factors():
    # products of chains, cyclic sums and the fixtures, relabeled: the
    # system has the classes the factors fix, validates, composes back and
    # reads its maps off its matrix, and the band is reducible iff both
    # factors are.  Nothing here scans a band's axioms, so the 12-element
    # quinary product costs what decompose costs
    corpus = product_corpus(61)
    assert max(len(t) for _, t, _ in corpus if t.ndim == 5) >= 12
    for name, values, facts in corpus:
        t = OpTable(values.ndim, len(values), tuple(values.ravel().tolist()))
        system = decompose(t)
        assert tuple(sorted(map(len, system.partition.classes))) == facts["sizes"], name
        assert validate_system(system) == [], name
        assert compose(system) == t, name
        assert hom_maps(t) == pair_maps_reference(system), name
        outcome = decide_reducible(system)
        assert outcome.reducible == facts["reducible"], name
        if outcome.reducible:
            assert verify_reduction(t, outcome.table) == [], name


@pytest.mark.parametrize(
    "rows, codes",
    [([[0, 1], [1, 0]], []), ([[0, 1], [1, 1]], ["group-inverse", "group-exponent"])],
    ids=["z2", "no-group"],
)
def test_group_powers_take_no_time_linear_in_the_arity(rows, codes):
    # one class at arity 10**9 + 1: the exponent law and the hom laws take
    # powers of 10**9 - 1 factors by walking into a cycle, and the reduction
    # re-bases the class at its neutral the same way.  Z2 gives the answers
    # it gives at arity 3, and so does a table that is no group (1 * 1 = 1),
    # up to the arity its exponent message names
    for arity in (3, 10**9 + 1):
        system = one_class_system(rows, 0, arity)
        start = time.perf_counter()
        report = validate_system(system)
        outcome = decide_reducible(system, verify=False)
        assert time.perf_counter() - start < 0.1
        assert [v.code for v in report] == codes
        if arity == 3:
            expected = outcome
        assert outcome == expected and outcome.reducible
    if codes:
        assert report[-1].message == f"class 0: exponent does not divide {10**9}"
