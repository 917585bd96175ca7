import importlib
import itertools
import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from narybands import (
    ClassGroup,
    InputError,
    Irreducible,
    NeutralSelection,
    OpTable,
    QuotientSemilattice,
    Reduction,
    ResourceError,
    SigmaPartition,
    StrongSystem,
    associated_band,
    brute_force_reductions,
    build_reduction,
    canonical_form,
    check_associative,
    check_symmetric,
    class_group,
    decide_reducible,
    decompose,
    enumerate_bands,
    extend,
    invariant_factors,
    neutral_elements,
    reduction_result_to_doc,
    sigma_partition,
    system_from_json,
    system_to_json,
    table_from_function,
    verify_reduction,
)

from conftest import outcome
from references import (
    build_reduction_reference,
    coherence_reference,
    product_corpus,
    reductions_reference,
)

reduce_module = importlib.import_module("narybands.reduce")

F2_REDUCTION_ROWS = (0, 3, 2, 3, 3, 1, 2, 3, 2, 2, 3, 2, 3, 3, 2, 3)


def test_decide_irreducible_golden(f1):
    out = decide_reducible(decompose(f1))
    assert isinstance(out, Irreducible)
    assert not out.reducible
    assert out.witness_class == 2
    assert out.conflicting_images == (2, 3)
    assert out.sources == ((0, 0), (1, 1))


def test_decide_reducible_needs_no_stack_frame_per_class():
    # m - 1 one-element atoms over a one-element bottom, built as a system:
    # more classes than the stack has frames left, and the search still
    # walks them all and reduces the band to its own meet table
    m = 300
    meet = OpTable(2, m, tuple(a if a == b else 0 for a in range(m) for b in range(m)))
    system = StrongSystem(
        2,
        SigmaPartition(tuple(range(m)), tuple((x,) for x in range(m))),
        QuotientSemilattice(meet),
        tuple(ClassGroup(x, (x,), x, OpTable(2, 1, (0,)), ()) for x in range(m)),
        [c if c in (0, x) else -1 for x in range(m) for c in range(m)],
    )
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        out = decide_reducible(system, verify=False)
    finally:
        sys.setrecursionlimit(limit)
    assert out.selection.by_class == tuple(range(m))
    assert out.table == meet


def test_decide_reducible_golden(f2):
    out = decide_reducible(decompose(f2))
    assert isinstance(out, Reduction)
    assert out.reducible
    assert out.selection.by_class == (0, 1, 3)
    assert out.selection.element_for(2) == 3
    assert out.table.values == F2_REDUCTION_ROWS
    assert verify_reduction(f2, out.table) == []


def test_decide_from_serialized_system(f2):
    system, _ = system_from_json(system_to_json(decompose(f2)))
    out = decide_reducible(system)
    assert isinstance(out, Reduction)
    assert out.selection.by_class == (0, 1, 3)


def test_reduction_is_semigroup_extension(f2):
    out = decide_reducible(decompose(f2))
    g = out.table
    assert check_symmetric(g) is None
    assert check_associative(g) is None
    assert extend(g, 2).values == f2.values


def test_build_reduction_coherence(f2):
    system = decompose(f2)
    with pytest.raises(InputError):
        build_reduction(system, NeutralSelection((0, 1)))
    with pytest.raises(InputError):
        build_reduction(system, NeutralSelection((0, 1, 0)))
    with pytest.raises(InputError):
        # 2 is in class 2 but the maps from above both land on 3
        build_reduction(system, NeutralSelection((0, 1, 2)))
    # every selection of every ternary band on 4 elements, and seeded ones
    # of the product bands: the error names the first strict pair, in
    # comparable_pairs order, whose map moves the selection
    systems = [decompose(t) for t in enumerate_bands(4, 3).entries]
    selections = [(s, c) for s in systems for c in itertools.product(*s.partition.classes)]
    rng = random.Random(27)
    for _, values, _ in product_corpus(61)[::4]:
        s = decompose(OpTable(values.ndim, len(values), tuple(values.ravel().tolist())))
        selections += [(s, tuple(map(rng.choice, s.partition.classes))) for _ in range(20)]
    failed = 0
    for s, chosen in selections:
        expected = coherence_reference(s, chosen)
        got = outcome(build_reduction, s, NeutralSelection(chosen))
        assert got == (InputError, expected) if expected else isinstance(got, OpTable)
        failed += expected is not None
    assert 0 < failed < len(selections)


def test_build_reduction_group_case(xor3):
    system = decompose(xor3)
    for e, expected in ((0, (0, 1, 1, 0)), (1, (1, 0, 0, 1))):
        g = build_reduction(system, NeutralSelection((e,)))
        assert g.values == expected
        assert verify_reduction(xor3, g) == []


def test_verify_reduction_preconditions(f1, min3):
    with pytest.raises(InputError):
        verify_reduction(f1, min3)  # size mismatch
    with pytest.raises(InputError):
        verify_reduction(f1, f1)  # not binary


def test_verify_reduction_reports_failures(f1):
    wrong = table_from_function(2, 4, lambda x, y: min(x, y))
    codes = {v.code for v in verify_reduction(f1, wrong)}
    assert "extension" in codes
    skew = table_from_function(2, 4, lambda x, y: x)
    codes = {v.code for v in verify_reduction(f1, skew)}
    assert "symmetric" in codes and "extension" in codes
    tiny = OpTable(2, 4, (0,) * 16)
    codes = {v.code for v in verify_reduction(f1, tiny)}
    assert "surjective" in codes


def test_brute_force_golden(f1, f2, xor3, min3):
    assert brute_force_reductions(f1) == []
    found = brute_force_reductions(f2)
    assert [g.values for g in found] == [F2_REDUCTION_ROWS]
    xors = brute_force_reductions(xor3)
    assert [g.values for g in xors] == [(0, 1, 1, 0), (1, 0, 0, 1)]
    mins = brute_force_reductions(min3)
    assert [g.values for g in mins] == [
        table_from_function(2, 3, lambda x, y: min(x, y)).values
    ]


def test_brute_force_results_are_verified_reductions(f2, xor3):
    for t in (f2, xor3):
        for g in brute_force_reductions(t):
            assert verify_reduction(t, g) == []


def test_brute_force_general_scan_includes_symmetric(xor3):
    sym = brute_force_reductions(xor3, symmetric_only=True)
    allr = brute_force_reductions(xor3, symmetric_only=False)
    assert {g.values for g in sym} <= {g.values for g in allr}


def test_brute_force_binary_input(catalog_n2):
    # arity 2: the table reduces to itself and nothing else is scanned
    for t in catalog_n2[3]:
        assert [g.values for g in brute_force_reductions(t)] == [t.values]


def test_brute_force_budget(monkeypatch):
    # the constant ternary table on 4 elements has 22 symmetric reductions
    # and takes more search nodes than its 16 suffixes; the search reads
    # the budget constant when it runs
    zero = table_from_function(3, 4, lambda *a: 0)
    assert len(brute_force_reductions(zero)) == 22
    monkeypatch.setattr(reduce_module, "REDUCTION_CANDIDATE_BUDGET", 40)
    with pytest.raises(ResourceError, match="^reduction search passed the budget of 40 nodes$"):
        brute_force_reductions(zero)


def test_reduction_search_budget_up_front(monkeypatch):
    # 2**39 suffixes exceed the default budget; refused before the table's
    # values are read, so a bare size and arity suffice
    with pytest.raises(ResourceError, match=r"2\*\*39 = 549755813888 suffixes"):
        brute_force_reductions(SimpleNamespace(size=2, arity=40))
    monkeypatch.setattr(reduce_module, "REDUCTION_CANDIDATE_BUDGET", 26)
    with pytest.raises(ResourceError, match="suffixes"):
        brute_force_reductions(table_from_function(4, 3, lambda *a: min(a)))


def test_reduction_search_runs_past_the_old_scan():
    # 5**15 symmetric candidate tables: more than the old scan's budget
    min5 = table_from_function(3, 5, lambda *a: min(a))
    assert brute_force_reductions(min5) == [table_from_function(2, 5, min)]


def nand(x, y):
    return 1 - (x & y)


def implies(x, y):
    return (1 - x) | y


NAND3 = table_from_function(3, 2, lambda x, y, z: nand(x, nand(y, z)))
IMPLIES3 = table_from_function(3, 2, lambda x, y, z: implies(x, implies(y, z)))


def test_non_associative_nestings_have_no_reduction():
    # NAND and implication extend to their nestings but are not associative
    assert check_associative(table_from_function(2, 2, nand)) is not None
    assert brute_force_reductions(NAND3) == []
    assert brute_force_reductions(IMPLIES3, symmetric_only=False) == []
    assert brute_force_reductions(IMPLIES3) == []


@st.composite
def small_tables(draw):
    """m <= 3 and n <= 4: random values, or the extension of a random
    binary table (so that reductions exist)."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    binary = draw(st.booleans())
    cells = m * m if binary else m**n
    values = tuple(draw(st.lists(st.integers(0, m - 1), min_size=cells, max_size=cells)))
    return extend(OpTable(2, m, values), n - 1) if binary else OpTable(n, m, values)


def assert_search_matches_scan(t):
    assert brute_force_reductions(t) == reductions_reference(t)
    if t.size <= 2:
        assert brute_force_reductions(t, symmetric_only=False) == reductions_reference(t, False)


def test_reduction_search_matches_scan_on_every_small_table():
    # every table on 1 or 2 elements at arity 2 and 3, band or not
    for m, n in ((1, 2), (1, 3), (2, 2), (2, 3)):
        for values in itertools.product(range(m), repeat=m**n):
            assert_search_matches_scan(OpTable(n, m, values))


def test_reduction_search_matches_scan_on_catalogs():
    for n in (2, 3, 4):
        for m in (1, 2, 3):
            for t in enumerate_bands(m, n).entries:
                assert_search_matches_scan(t)
    for t in (NAND3, IMPLIES3):
        assert_search_matches_scan(t)


@given(small_tables())
@settings(max_examples=80, deadline=None)
def test_reduction_search_matches_scan(t):
    assert_search_matches_scan(t)


def test_oracle_agrees_with_decision(catalog_n3):
    for m in (1, 2, 3):
        for t in catalog_n3[m]:
            out = decide_reducible(decompose(t, verify=False), verify=False)
            reds = brute_force_reductions(t)
            assert isinstance(out, Reduction) == (len(reds) > 0)
            if reds:
                assert any(g.values == out.table.values for g in reds)


def test_multiple_reductions_are_isomorphic(catalog_n3):
    # observed over the whole catalog: a band never has two essentially
    # different binary reductions
    hits = 0
    for m in (2, 3):
        for t in catalog_n3[m]:
            reds = brute_force_reductions(t)
            if len(reds) > 1:
                hits += 1
                assert len({canonical_form(g).values for g in reds}) == 1
    assert hits > 0


def test_result_doc_shapes(f1, f2):
    doc = reduction_result_to_doc(decide_reducible(decompose(f2)), "1234")
    assert doc["reducible"] is True
    assert doc["selection"] == {"0": 0, "1": 1, "2": 3}
    assert doc["table"]["values"] == list(F2_REDUCTION_ROWS)
    assert doc["table"]["elements"] == ["1", "2", "3", "4"]
    doc = reduction_result_to_doc(decide_reducible(decompose(f1)))
    assert doc["reducible"] is False
    assert doc["witness"] == {"class": 2, "images": [2, 3], "sources": [[0, 0], [1, 1]]}


def test_reductions_induce_the_same_congruence(catalog_n3):
    # extend(G, 2) = F forces G(x, y) and B(x, y) into the same class
    for m in (2, 3):
        for t in catalog_n3[m]:
            cls = sigma_partition(t, verify=False).class_of
            b = associated_band(t, verify=False)
            for g in brute_force_reductions(t):
                for x in range(m):
                    for y in range(m):
                        assert cls[g.eval((x, y))] == cls[b.eval((x, y))]


def test_group_extension_has_one_reduction_per_element(xor3):
    klein = table_from_function(3, 4, lambda x, y, z: x ^ y ^ z)
    for t, m in ((xor3, 2), (klein, 4)):
        reds = brute_force_reductions(t)
        assert len(reds) == m
        # all reductions are mutually isomorphic abelian groups
        assert len({canonical_form(g).values for g in reds}) == 1
        signatures = set()
        for g in reds:
            (e,) = neutral_elements(g)
            signatures.add(invariant_factors(g, e))
        assert len(signatures) == 1


def test_reduction_restricted_to_class_is_the_class_group(f2):
    p = sigma_partition(f2)
    for g in brute_force_reductions(f2):
        for members in p.classes:
            pos = {x: i for i, x in enumerate(members)}
            k = len(members)
            sub = OpTable(
                2, k, tuple(pos[g.eval((x, y))] for x in members for y in members)
            )
            neutral = next(
                i for i in range(k) if all(sub.eval((i, j)) == j for j in range(k))
            )
            expected = class_group(f2, members).factor_signature
            assert invariant_factors(sub, neutral) == expected


@pytest.mark.parametrize("n, reducible", [(3, 185), (5, 188)])
def test_build_reduction_matches_the_cell_loop(n, reducible):
    # every reducible band of the catalog (of 197 and 200), at the selection
    # decide_reducible returns
    found = 0
    for t in enumerate_bands(4, n).entries:
        system = decompose(t, verify=False)
        out = decide_reducible(system, verify=False)
        if isinstance(out, Reduction):
            found += 1
            assert out.table == build_reduction_reference(system, out.selection, n)
    assert found == reducible
