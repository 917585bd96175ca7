import enum
import importlib
import itertools
import json
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from narybands import (
    AssociativityWitness,
    BandCatalog,
    InputError,
    OpTable,
    ResourceError,
    SymmetryWitness,
    TupleCodec,
    band_violation,
    brute_force_bands,
    canonical_form,
    check_associative,
    check_idempotent,
    check_symmetric,
    enumerate_bands,
    extend,
    neutral_elements,
    relabel,
    require_band,
    table_from_doc,
    table_from_function,
    table_from_json,
    table_to_doc,
    table_to_json,
)
from narybands.errors import DomainError

from conftest import perturbed, random_tables, relabel_cells
from references import (
    assoc_witness_reference,
    multiset_index_reference,
    neutral_elements_reference,
)

optable_module = importlib.import_module("narybands.optable")


def nested_eval(t, args, start):
    """Independent evaluator: collapse args[start:start+arity] first, then
    apply the operation to the remaining window.  Written without the
    library's own nesting helper so associativity checks have a second
    opinion."""
    inner = t.eval(args[start:start + t.arity])
    outer = args[:start] + (inner,) + args[start + t.arity:]
    return t.eval(outer)


def all_nestings_agree(t, args):
    vals = {nested_eval(t, args, s) for s in range(t.arity)}
    return len(vals) == 1


small_tables = st.integers(1, 3).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(st.integers(0, m - 1), min_size=m**2, max_size=m**2),
    )
)


@st.composite
def symmetric_tables(draw):
    """A random value on each argument multiset, m <= 4 and n <= 4."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2, 4))
    multisets = list(itertools.combinations_with_replacement(range(m), n))
    drawn = draw(st.lists(st.integers(0, m - 1), min_size=len(multisets), max_size=len(multisets)))
    on = dict(zip(multisets, drawn))
    return table_from_function(n, m, lambda *a: on[tuple(sorted(a))])


@st.composite
def perturbed_tables(draw):
    """A symmetric table, with one cell redrawn half of the time."""
    t = draw(symmetric_tables())
    values = list(t.values)
    if draw(st.booleans()):
        cell = draw(st.integers(0, len(values) - 1))
        values[cell] = draw(st.integers(0, t.size - 1))
    return OpTable(t.arity, t.size, tuple(values))


def transposition_witness(t):
    """Dense reference for check_symmetric: adjacent transpositions left to
    right, argument tuples lexicographically within each position."""
    for pos in range(t.arity - 1):
        for args in itertools.product(range(t.size), repeat=t.arity):
            swapped = args[:pos] + (args[pos + 1], args[pos]) + args[pos + 2:]
            if t.eval(args) != t.eval(swapped):
                return SymmetryWitness(args, swapped)
    return None


def least_relabeling(t):
    """Dense reference for canonical_form: the least relabeled value tuple."""
    return min(relabel_cells(t, p).values for p in itertools.permutations(range(t.size)))


@st.composite
def any_tables(draw):
    """A random table, m <= 4 and n <= 3, symmetric or not."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2, 3))
    values = draw(st.lists(st.integers(0, m - 1), min_size=m**n, max_size=m**n))
    return OpTable(n, m, tuple(values))


def test_codec_round_trip():
    codec = TupleCodec(3, 4)
    for i, args in enumerate(codec.tuples()):
        assert codec.encode(args) == i
        assert codec.decode(i) == args


def test_codec_first_coordinate_most_significant():
    codec = TupleCodec(5, 2)
    assert codec.encode((1, 0)) == 5
    assert codec.encode((0, 1)) == 1


def test_codec_rejects_bad_input():
    codec = TupleCodec(3, 2)
    with pytest.raises(InputError):
        codec.encode((0,))
    with pytest.raises(InputError):
        codec.encode((0, 3))
    with pytest.raises(InputError):
        codec.decode(9)


def test_table_validation():
    with pytest.raises(InputError):
        OpTable(1, 2, (0, 0))
    with pytest.raises(InputError):
        OpTable(2, 2, (0, 0, 0))
    with pytest.raises(InputError):
        OpTable(2, 2, (0, 0, 0, 2))


def test_table_validation_names_the_first_bad_value():
    # bad values deep in the table: the message names the first in order
    for first, later in ((7, -1), (-1, 7), (2.0, 9), (np.int64(1), 9)):
        values = [0] * 64
        values[40] = first
        values[50] = later
        with pytest.raises(InputError, match=re.escape(f"table value {first!r} outside 0..3")):
            OpTable(3, 4, tuple(values))


def test_table_validation_accepts_bools_and_int_subclasses():
    class Label(enum.IntEnum):
        LOW = 0
        HIGH = 1

    for values in ((False, True, True, True), (0, True, 1, 1), (Label.LOW, 1, 1, Label.HIGH)):
        t = OpTable(2, 2, values)
        assert t.values == values
    with pytest.raises(InputError, match="outside 0..1"):
        OpTable(2, 2, (0, 1, 1, Label.HIGH + 1))
    with pytest.raises(InputError, match=re.escape(repr(np.int64(1)))):
        OpTable(2, 2, (0, 1, 1, np.int64(1)))


def test_table_from_function_matches_eval(min3):
    for args in itertools.product(range(3), repeat=3):
        assert min3.eval(args) == min(args)


def test_check_associative_accepts(min3, xor3):
    assert check_associative(min3) is None
    assert check_associative(xor3) is None


def test_check_associative_majority_witness(maj2):
    w = check_associative(maj2)
    assert w == AssociativityWitness((0, 0, 1, 1, 1), 2)


def test_associative_witness_is_real(maj2):
    w = check_associative(maj2)
    assert nested_eval(maj2, w.args, w.position - 1) != nested_eval(maj2, w.args, w.position)


def test_fast_path_agrees_with_general_scan():
    # exhaustive on every symmetric ternary table over 2 elements: the one
    # nesting pair scanned decides as every pair does
    for values in itertools.product(range(2), repeat=8):
        t = OpTable(3, 2, values)
        if check_symmetric(t) is not None:
            continue
        full = assoc_witness_reference(t, [1, 0])
        assert (check_associative(t) is None) == (full is None)


def test_check_associative_brute_oracle():
    for values in itertools.product(range(2), repeat=8):
        t = OpTable(3, 2, values)
        expected = all(
            all_nestings_agree(t, args) for args in itertools.product(range(2), repeat=5)
        )
        assert (check_associative(t) is None) == expected


def all_starts(t):
    """Every nesting start, rightmost first, as check_associative scans a
    table that is not symmetric."""
    return list(range(t.arity - 2, -1, -1))


@given(st.one_of(perturbed_tables(), any_tables()))
@settings(max_examples=150, deadline=None)
def test_check_associative_matches_tuple_scan(t):
    # witness and position, with chunks of 1, 4 and 7 argument tuples, so
    # witnesses fall across chunks; a symmetric table scans one pair
    starts = [t.arity - 2] if transposition_witness(t) is None else all_starts(t)
    expected = assoc_witness_reference(t, starts)
    assert check_associative(t) == expected
    for bound in (1, 4, 7):
        with mock.patch.object(optable_module, "_CHUNK_CELLS", bound):
            assert check_associative(t) == expected


def test_check_associative_bands_across_chunks(catalog_n3):
    # a band passes every nesting pair, also when each chunk is one tuple
    bands = [t for m in (1, 2, 3) for t in catalog_n3[m]]
    for bound in (1, 4, 7):
        with mock.patch.object(optable_module, "_CHUNK_CELLS", bound):
            assert all(optable_module._assoc_scan(t, all_starts(t)) is None for t in bands)


def test_check_associative_start_order_over_chunk_order(monkeypatch):
    # nesting start 0 fails in the first chunk of four tuples, start 1 only
    # in the sixth; start 1 is scanned first, so its witness is the one
    t = table_from_function(3, 2, lambda x, y, z: int(not (x and (y or z))))
    assert check_symmetric(t) is not None
    assert assoc_witness_reference(t, [0]) == AssociativityWitness((0, 0, 0, 0, 1), 1)
    expected = AssociativityWitness((1, 0, 1, 0, 1), 2)
    assert assoc_witness_reference(t, [1, 0]) == expected
    monkeypatch.setattr(optable_module, "_CHUNK_CELLS", 4)
    assert check_associative(t) == expected


def test_check_associative_holds_one_chunk(monkeypatch):
    # the scan asks _digits for one chunk's suffixes, never for the whole
    # m^(2n-1) argument tuples
    asked = []
    digits = optable_module._digits

    def recording(size, arity):
        asked.append(size**arity)
        return digits(size, arity)

    t = table_from_function(5, 6, lambda *a: min(a))
    monkeypatch.setattr(optable_module, "_digits", recording)
    assert check_associative(t) is None
    assert asked and max(asked) <= optable_module._CHUNK_CELLS < 6**9


def test_check_symmetric_pinned_witness():
    t = table_from_function(3, 3, lambda x, y, z: (x - y + z) % 3)
    w = check_symmetric(t)
    assert w == SymmetryWitness((0, 1, 0), (1, 0, 0))
    assert t.eval(w.args) != t.eval(w.swapped)


@given(perturbed_tables())
@settings(max_examples=150, deadline=None)
def test_check_symmetric_matches_transposition_scan(t):
    assert check_symmetric(t) == transposition_witness(t)


def test_check_symmetric_accepts(min3, maj2):
    assert check_symmetric(min3) is None
    assert check_symmetric(maj2) is None


def test_check_idempotent(xor3, min3):
    assert check_idempotent(min3) is None
    t = table_from_function(3, 2, lambda x, y, z: 0)
    assert check_idempotent(t) == 1


def test_band_violation_order(maj2):
    label, _ = band_violation(maj2)
    assert label == "associative"
    const = table_from_function(3, 2, lambda *a: 0)
    assert band_violation(const)[0] == "idempotent"
    # a table failing several laws reports the first in report order
    flip = table_from_function(2, 2, lambda x, y: 1 - x)
    assert [law for law, w in optable_module._band_laws(flip) if w is not None] == [
        "associative",
        "symmetric",
        "idempotent",
    ]
    assert band_violation(flip) == ("associative", check_associative(flip))
    left = table_from_function(2, 3, lambda x, y: (0, 0, 2)[x])
    assert band_violation(left) == ("symmetric", check_symmetric(left))
    assert check_idempotent(left) == 1


def test_require_band(min3, maj2):
    require_band(min3)
    with pytest.raises(DomainError) as err:
        require_band(maj2)
    assert err.value.axiom == "associative"


def test_extend_binary_min_gives_ternary_min(min3):
    base = table_from_function(2, 3, lambda x, y: min(x, y))
    assert extend(base, 2).values == min3.values


def test_extend_preserves_band_axioms(catalog_n2):
    for t in catalog_n2[3]:
        out = extend(t, 3)
        assert out.arity == 4
        assert band_violation(out) is None


def test_extend_arity_formula(xor3):
    assert extend(xor3, 1).values == xor3.values
    assert extend(xor3, 2).arity == 5


@given(any_tables(), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_extend_matches_right_nesting(t, times):
    out = extend(t, times)
    n = t.arity
    for args in itertools.product(range(t.size), repeat=out.arity):
        # fold the last n arguments first, then each earlier n-1 onto it
        value = t.eval(args[-n:])
        for k in range(times - 1):
            start = len(args) - n - (k + 1) * (n - 1)
            value = t.eval(args[start : start + n - 1] + (value,))
        assert out.eval(args) == value


def test_extend_budget():
    base = table_from_function(2, 3, lambda x, y: min(x, y))
    with pytest.raises(ResourceError):
        extend(base, 30)


def test_extend_budget_is_read_when_it_runs(monkeypatch):
    # 3**13 cells pass the default budget; patched to 1000, extend refuses
    # them naming that budget, before it builds any part of the table
    base = table_from_function(2, 3, lambda x, y: min(x, y))
    monkeypatch.setattr(optable_module, "EXTEND_CELL_BUDGET", 1000)
    message = r"^extension table would need 3\*\*13 cells \(budget 1000\)$"
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match=message):
            extend(base, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_neutral_elements():
    base = table_from_function(2, 3, lambda x, y: min(x, y))
    assert neutral_elements(base) == frozenset({2})
    both = table_from_function(2, 2, lambda x, y: x ^ y)
    assert neutral_elements(both) == frozenset({0})


def test_neutral_elements_matches_the_reference(catalog_tables):
    tables = catalog_tables + perturbed(catalog_tables, 11) + random_tables(12, 300)
    found = [neutral_elements(t) for t in tables]
    assert found == [neutral_elements_reference(t) for t in tables]
    assert sum(map(bool, found)) > len(catalog_tables) // 10


@given(any_tables(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_relabel_matches_cell_loop(t, rng):
    perm = list(range(t.size))
    rng.shuffle(perm)
    assert relabel(t, perm).values == relabel_cells(t, perm).values


def test_relabel_rejects_a_non_permutation(f1):
    with pytest.raises(InputError, match="not a permutation"):
        relabel(f1, (0, 1, 1, 3))


def test_relabel_round_trip(f1):
    perm = (2, 0, 3, 1)
    inv = [0] * 4
    for i, p in enumerate(perm):
        inv[p] = i
    assert relabel(relabel(f1, perm), tuple(inv)).values == f1.values


def test_relabel_conjugates(f1):
    perm = (1, 2, 3, 0)
    out = relabel(f1, perm)
    for args in itertools.product(range(4), repeat=3):
        assert out.eval(tuple(perm[a] for a in args)) == perm[f1.eval(args)]


INDEX_SHAPES = [(m, n) for m in range(1, 7) for n in range(2, 9) if m**n <= 3 * 10**6]


@pytest.mark.parametrize("m, n", INDEX_SHAPES, ids=[f"{m}-{n}" for m, n in INDEX_SHAPES])
def test_multiset_numbering_matches_the_reference(m, n):
    # the multiset list, the dense map and the relabel source of a
    # symmetric table, ranked from the moved multisets' counts, on seeded
    # permutations
    multisets, orbit_of, _ = multiset_index_reference(m, n)
    args = optable_module._multiset_args(m, n)
    assert args.tolist() == [list(c) for c in multisets]
    assert np.array_equal(optable_module._orbit_of(m, n), orbit_of)
    rng = random.Random(m * 10 + n)
    inverse = np.array([rng.sample(range(m), m) for _ in range(6)], dtype=np.intp)
    codes = inverse[:, args] @ (m ** np.arange(n - 1, -1, -1))
    source = optable_module._relabel_source(inverse, m, n, len(multisets))
    assert np.array_equal(source, orbit_of[codes])


def test_canonical_form_is_invariant(f2):
    canon = canonical_form(f2).values
    for perm in itertools.permutations(range(4)):
        assert canonical_form(relabel_cells(f2, perm)).values == canon


def test_canonical_form_is_minimum():
    t = OpTable(2, 2, (1, 0, 0, 1))
    assert canonical_form(t).values == (0, 1, 1, 0)


def test_canonical_form_of_bool_table():
    # OpTable accepts bools; their form is the int table's, as ints
    bools = OpTable(2, 2, (False, True, True, True))
    ints = OpTable(2, 2, (0, 1, 1, 1))
    expected = canonical_form(ints).values
    for form in (canonical_form(bools).values, *optable_module._canonical_forms([bools])):
        assert form == expected
        assert all(type(v) is int for v in form)


def test_canonical_form_matches_relabelings_on_catalogs(catalog_n3):
    for t in catalog_n3[4] + enumerate_bands(4, 5).entries:
        assert canonical_form(t).values == least_relabeling(t)


@given(symmetric_tables())
@settings(max_examples=80, deadline=None)
def test_canonical_form_matches_relabelings_on_non_bands(t):
    assume(band_violation(t) is not None)
    assert canonical_form(t).values == least_relabeling(t)


def test_canonical_form_matches_relabelings_on_non_symmetric():
    tables = (
        table_from_function(3, 3, lambda x, y, z: (x - y + z) % 3),
        table_from_function(2, 4, lambda x, y: (2 * x + y) % 4),
        table_from_function(3, 4, lambda x, y, z: min(x, y) if z < 2 else z),
    )
    for t in tables:
        assert check_symmetric(t) is not None
        assert canonical_form(t).values == least_relabeling(t)


# the least chunk bound that holds one relabeling of a symmetric (4,3)
# table, 20 multisets of 3 arguments: every chunk then holds one permutation
ONE_RELABELING_4_3 = 60


def test_canonical_form_chunks_agree(monkeypatch, f2):
    # one permutation per chunk: the minimum is carried across chunks, on
    # the argument multisets of a symmetric table and on every argument
    # tuple of a non-symmetric one
    non_symmetric = table_from_function(3, 4, lambda x, y, z: min(x, y) if z < 2 else z)
    assert check_symmetric(non_symmetric) is not None
    monkeypatch.setattr(optable_module, "_CHUNK_CELLS", ONE_RELABELING_4_3)
    for t in (f2, non_symmetric):
        expected = least_relabeling(t)
        for perm in ((0, 1, 2, 3), (3, 1, 0, 2), (2, 3, 1, 0)):
            assert canonical_form(relabel_cells(t, perm)).values == expected


def test_canonical_forms_match_canonical_form(monkeypatch):
    # relabeling once per isomorphism class and looking up the rest must
    # agree with canonical_form table by table, also on a list that is not
    # closed under relabeling, on one holding a non-symmetric table, and
    # with one permutation per chunk
    catalog_4_3 = list(enumerate_bands(4, 3).entries)
    subset = random.Random(8).sample(catalog_4_3, 60)
    lists = [
        catalog_4_3,
        list(enumerate_bands(4, 5).entries),
        list(enumerate_bands(5, 2).entries),
        subset,
        subset[:30]
        + [table_from_function(3, 4, lambda x, y, z: min(x, y) if z < 2 else z)]
        + subset[30:],
    ]
    expected = [[canonical_form(t).values for t in tables] for tables in lists]
    for tables, canon in zip(lists, expected):
        assert optable_module._canonical_forms(tables) == canon
    monkeypatch.setattr(optable_module, "_CHUNK_CELLS", ONE_RELABELING_4_3)
    for tables, canon in zip(lists[3:], expected[3:]):
        assert optable_module._canonical_forms(tables) == canon


def test_canonical_form_size_limit():
    t = table_from_function(2, 9, lambda x, y: min(x, y))
    with pytest.raises(ResourceError):
        canonical_form(t)


def test_doc_round_trip(f1):
    labels = ("1", "2", "3", "4")
    doc = table_to_doc(f1, labels)
    back, got = table_from_doc(doc)
    assert back.values == f1.values and got == labels


def test_json_round_trip_default_labels(min3):
    text = table_to_json(min3)
    back, labels = table_from_json(text)
    assert back.values == min3.values
    assert labels == ("0", "1", "2")
    assert json.loads(text)["arity"] == 3


def test_orbit_rows_to_json_matches_table_to_json():
    # catalog lines are written straight from orbit rows, byte for byte what
    # table_to_json gives; the size-8 min table reaches the largest digit
    pairs = itertools.combinations_with_replacement(range(8), 2)
    for catalog in (
        BandCatalog(8, 2, [bytes(min(p) for p in pairs)], 1, 1),
        enumerate_bands(1, 4),
        enumerate_bands(4, 3),
        enumerate_bands(3, 2, up_to_iso=True),
        enumerate_bands(4, 5),
        brute_force_bands(2, 7),
    ):
        want = "\n".join(table_to_json(t) for t in catalog.entries)
        got = optable_module._orbit_rows_to_json(catalog.rows, catalog.size, catalog.arity)
        assert got == want


def test_doc_rejects_malformed():
    good = table_to_doc(table_from_function(2, 2, lambda x, y: x & y))
    for mutate in (
        lambda d: d.pop("arity"),
        lambda d: d.update(arity="2"),
        lambda d: d.update(elements=["a", "a"]),
        lambda d: d.update(elements=["a"]),
        lambda d: d.update(values=[0, 0, 0]),
        lambda d: d.update(values=[0, 0, 0, 9]),
        lambda d: d.update(values="0000"),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(InputError):
            table_from_doc(doc)
    with pytest.raises(InputError):
        table_from_json("[1, 2]")
    with pytest.raises(InputError):
        table_from_json("{not json")


@given(small_tables)
@settings(max_examples=80, deadline=None)
def test_symmetry_oracle_binary(data):
    m, flat = data
    t = OpTable(2, m, tuple(flat))
    expected = all(
        t.eval((x, y)) == t.eval((y, x)) for x in range(m) for y in range(m)
    )
    assert (check_symmetric(t) is None) == expected


@given(small_tables)
@settings(max_examples=80, deadline=None)
def test_json_round_trip_property(data):
    m, flat = data
    t = OpTable(2, m, tuple(flat))
    back, _ = table_from_json(table_to_json(t))
    assert back == t
