import importlib
import itertools
import random

import pytest

from narybands import (
    Classification,
    ConsistencyError,
    LambdaTable,
    OpTable,
    QuotientSemilattice,
    SigmaPartition,
    associated_band,
    band_sigma_related,
    check_right_normal,
    classify,
    extend,
    lambda_table,
    quotient,
    right_normal_sigma_related,
    sigma_partition,
    table_from_function,
)

from conftest import outcome, perturbed, perturbed_multisets, random_tables, relabel_cells
from references import (
    associated_band_reference,
    classify_reference,
    quotient_reference,
    semilattice_laws_reference,
)

compose_module = importlib.import_module("narybands.compose")

F1_B_ROWS = ((0, 2, 2, 3), (3, 1, 2, 3), (3, 2, 2, 3), (3, 2, 2, 3))
F2_B_ROWS = ((0, 3, 2, 3), (3, 1, 2, 3), (3, 3, 2, 3), (3, 3, 2, 3))


def band_rows(t):
    b = associated_band(t)
    return tuple(tuple(b.eval((x, y)) for y in range(t.size)) for x in range(t.size))


def test_associated_band_golden(f1, f2):
    assert band_rows(f1) == F1_B_ROWS
    assert band_rows(f2) == F2_B_ROWS


def test_associated_band_definition(f1):
    b = associated_band(f1)
    for x in range(4):
        for y in range(4):
            assert b.eval((x, y)) == f1.eval((x, x, y))


def test_associated_band_of_extension_is_base(catalog_n2):
    for t in catalog_n2[3]:
        assert associated_band(extend(t, 2)).values == t.values


def test_associated_band_matches_the_reference(catalog_tables):
    tables = catalog_tables + perturbed(catalog_tables, 21) + random_tables(22, 300)
    for t in tables:
        assert associated_band(t, verify=False) == associated_band_reference(t)


def test_lambda_rows_are_band_rows(f2):
    lam = lambda_table(f2)
    b = associated_band(f2)
    for x in range(4):
        assert lam.rows[x] == tuple(b.eval((x, y)) for y in range(4))


def test_lambda_table_rejects_non_idempotent_rows():
    with pytest.raises(ConsistencyError):
        LambdaTable(2, ((0, 1), (0, 0)))


def test_check_right_normal_holds_on_catalog(catalog_n3):
    for m in catalog_n3:
        for t in catalog_n3[m]:
            assert check_right_normal(associated_band(t)) is None


def test_check_right_normal_left_zero_witness():
    left_zero = table_from_function(2, 2, lambda x, y: x)
    law, witness = check_right_normal(left_zero)
    assert law == "right-normal"
    assert witness == (0, 1, 0)


def test_check_right_normal_law_order(maj2):
    const = table_from_function(2, 2, lambda x, y: 0)
    assert check_right_normal(const)[0] == "idempotent"


def test_sigma_predicates_agree(catalog_n3):
    """Row equality, the band form, and the right-normal form define the
    same relation on every catalog band."""
    for m in (1, 2, 3):
        for t in catalog_n3[m]:
            lam = lambda_table(t)
            b = associated_band(t)
            for x in range(m):
                for y in range(m):
                    by_rows = lam.rows[x] == lam.rows[y]
                    assert band_sigma_related(b, x, y) == by_rows
                    assert right_normal_sigma_related(b, x, y) == by_rows


def test_sigma_partition_golden(f1, f2):
    assert sigma_partition(f1).classes == ((0,), (1,), (2, 3))
    assert sigma_partition(f2).classes == ((0,), (1,), (2, 3))


def test_sigma_partition_classes_ordered_by_least_member(catalog_n3):
    for t in catalog_n3[4]:
        classes = sigma_partition(t).classes
        leads = [c[0] for c in classes]
        assert leads == sorted(leads)
        for c in classes:
            assert list(c) == sorted(c)


def test_sigma_partition_validation():
    with pytest.raises(Exception):
        SigmaPartition((0, 0), ((0,),))


def test_sigma_is_congruence(catalog_n3):
    for t in catalog_n3[4]:
        cls = sigma_partition(t).class_of
        seen = {}
        for args in itertools.product(range(4), repeat=3):
            key = tuple(cls[a] for a in args)
            assert seen.setdefault(key, cls[t.eval(args)]) == cls[t.eval(args)]


def test_quotient_golden(f1):
    p = sigma_partition(f1)
    tq, bq, q = quotient(f1, p)
    assert [[q.meet_of(a, b) for b in range(3)] for a in range(3)] == [
        [0, 2, 2],
        [2, 1, 2],
        [2, 2, 2],
    ]
    assert q.leq(2, 0) and q.leq(2, 1) and not q.leq(0, 1)


def test_quotient_band_matches_quotient_table(catalog_n3):
    # the associated band of the quotient is the quotient of the associated band
    for t in catalog_n3[4]:
        p = sigma_partition(t)
        tq, bq, q = quotient(t, p)
        assert associated_band(tq).values == bq.values
        assert extend(bq, 2).values == tq.values


def test_quotient_rejects_non_congruence(f1):
    bad = SigmaPartition((0, 0, 1, 1), ((0, 1), (2, 3)))
    with pytest.raises(ConsistencyError):
        quotient(f1, bad)


def random_partition(rng, m):
    """All singletons, one class, or a seeded random labeling, its classes
    listed by least member."""
    labels = rng.choice([list(range(m)), [0] * m, [rng.randrange(m) for _ in range(m)]])
    classes = sorted({tuple(x for x in range(m) if labels[x] == c) for c in labels})
    class_of = [next(i for i, c in enumerate(classes) if x in c) for x in range(m)]
    return SigmaPartition(class_of, classes)


def test_quotient_matches_the_reference(catalog_tables):
    # the gathers against the loop over every choice of representatives:
    # the same three tables, or the same error type and message (the first
    # representative-dependent tuple of classes), on every catalog band's
    # sigma partition, on one-cell perturbations of those bands under the
    # same partitions, and on seeded random (table, partition) pairs
    rng = random.Random(29)
    pairs = [(t, sigma_partition(t)) for t in catalog_tables]
    pairs += [(u, p) for u, (_, p) in zip(perturbed(catalog_tables, 29), pairs)]
    pairs += [(t, random_partition(rng, t.size)) for t in random_tables(29, 3000)]
    accepted = 0
    for t, p in pairs:
        got = outcome(quotient, t, p)
        assert got == outcome(quotient_reference, t, p)
        accepted += len(got) == 3
    assert 0 < accepted < len(pairs)


def test_quotient_semilattice_validation():
    # the order check against check_symmetric / check_idempotent /
    # check_associative, which share none of its code: every commutative
    # idempotent table on up to 4 classes, then seeded tables on up to 6
    # (symmetrized, arbitrary, and relabeled semilattices as they are or
    # with one cell or one pair of cells moved)
    tables = [OpTable(2, 2, (0, 0, 1, 1))]  # not commutative
    for k in range(1, 5):
        pairs = list(itertools.combinations(range(k), 2))
        for values in itertools.product(range(k), repeat=len(pairs)):
            cells = {(a, a): a for a in range(k)}
            for (a, b), v in zip(pairs, values):
                cells[a, b] = cells[b, a] = v
            tables.append(OpTable(2, k, tuple(cells[ab] for ab in sorted(cells))))
    assert len(tables) == 1 + 4126
    rng = random.Random(27)
    for _ in range(700):
        k = rng.randint(1, 6)
        cells = [[rng.randrange(k) for _ in range(k)] for _ in range(k)]
        idempotent = rng.random() < 0.75
        tables.append(
            table_from_function(
                2, k, lambda a, b: a if a == b and idempotent else cells[min(a, b)][max(a, b)]
            )
        )
        k = rng.randint(1, 6)
        tables.append(OpTable(2, k, tuple(rng.randrange(k) for _ in range(k * k))))
    semilattices = [q.meet for k in range(2, 7) for q in compose_module._semilattices(k)]
    for i in range(700):
        t = rng.choice(semilattices)
        t = relabel_cells(t, rng.sample(range(t.size), t.size))
        tables += [[t], perturbed([t], i), perturbed_multisets([t], i, 1)][i % 3]
    verdicts = []
    for t in tables:
        got = outcome(QuotientSemilattice, t)
        verdicts.append(None if isinstance(got, QuotientSemilattice) else got)
        assert verdicts[-1] == semilattice_laws_reference(t), t
    # every law fails somewhere, and some tables pass
    assert {v and v[1] for v in verdicts} == {
        None,
        "meet table is not commutative",
        "meet table is not idempotent",
        "meet table is not associative",
    }


def test_comparable_pairs_include_equal():
    chain = QuotientSemilattice(table_from_function(2, 2, lambda x, y: min(x, y)))
    assert (0, 0) in chain.comparable_pairs()
    assert (1, 0) in chain.comparable_pairs()
    assert (0, 1) not in chain.comparable_pairs()


def test_classify_examples(f1, min3, xor3):
    assert classify(min3) is Classification.SEMILATTICE_EXTENSION
    assert classify(xor3) is Classification.GROUP_EXTENSION
    assert classify(f1) is Classification.GENERAL


def test_classify_singleton_reports_group():
    one = table_from_function(3, 1, lambda *a: 0)
    assert classify(one) is Classification.GROUP_EXTENSION


def test_semilattice_extension_is_extension_of_band(catalog_n3):
    for m in catalog_n3:
        for t in catalog_n3[m]:
            if classify(t) is Classification.SEMILATTICE_EXTENSION:
                assert extend(associated_band(t), 2).values == t.values


def test_classify_matches_the_row_comparisons(catalog_tables):
    # the sigma partition against the translation rows: equal on every
    # table whose rows pass LambdaTable's checks, the same error otherwise
    tables = catalog_tables + perturbed(catalog_tables, 31) + random_tables(32, 300)
    passing = 0
    for t in tables:
        got = outcome(classify, t, verify=False)
        assert got == outcome(classify_reference, t, verify=False)
        passing += isinstance(got, Classification)
    assert passing > len(catalog_tables)
