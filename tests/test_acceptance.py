"""Acceptance gate: twelve end-to-end criteria, one visible line each.

Each criterion prints `acceptance NN <name>: PASS|FAIL` on the real stdout
so the line survives pytest's capture, then asserts.
"""

import itertools
from narybands import (
    AssociativityWitness,
    Classification,
    GroupSpec,
    InputError,
    Irreducible,
    Reduction,
    associated_band,
    band_violation,
    brute_force_reductions,
    check_associative,
    check_idempotent,
    check_right_normal,
    check_symmetric,
    class_group,
    classify,
    compose,
    decide_reducible,
    decompose,
    enumerate_bands,
    extend,
    hom_maps,
    lambda_table,
    make_group,
    nary_homs,
    quotient,
    sigma_partition,
    table_from_function,
    verify_reduction,
)


def report(capsys, num, name, ok):
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def band_rows(t):
    b = associated_band(t, verify=False)
    return tuple(tuple(b.eval((x, y)) for y in range(t.size)) for x in range(t.size))


def test_01_golden_axioms(capsys, f1, f2, maj2):
    ok = band_violation(f1) is None and band_violation(f2) is None
    ok = ok and check_symmetric(maj2) is None and check_idempotent(maj2) is None
    ok = ok and check_associative(maj2) == AssociativityWitness((0, 0, 1, 1, 1), 2)
    report(capsys, 1, "golden-axioms", ok)


def test_02_golden_associated_bands(capsys, f1, f2):
    ok = band_rows(f1) == ((0, 2, 2, 3), (3, 1, 2, 3), (3, 2, 2, 3), (3, 2, 2, 3))
    ok = ok and band_rows(f2) == ((0, 3, 2, 3), (3, 1, 2, 3), (3, 3, 2, 3), (3, 3, 2, 3))
    report(capsys, 2, "golden-associated-bands", ok)


def test_03_golden_congruence_and_quotient(capsys, f1, f2):
    ok = True
    for t in (f1, f2):
        p = sigma_partition(t)
        ok = ok and p.classes == ((0,), (1,), (2, 3))
        tq, bq, q = quotient(t, p)
        ok = ok and bq.values == (0, 2, 2, 2, 1, 2, 2, 2, 2)
        ok = ok and extend(bq, 2).values == tq.values
    report(capsys, 3, "golden-congruence-quotient", ok)


def test_04_golden_class_group(capsys, f1, f2):
    ok = True
    for t in (f1, f2):
        low = class_group(t, (2, 3), e=2)
        high = class_group(t, (2, 3), e=3)
        ok = ok and low.factor_signature == high.factor_signature == (2,)
        # the induced ternary operation on the class is neutral-independent
        ok = ok and extend(low.cayley, 2).values == extend(high.cayley, 2).values
    report(capsys, 4, "golden-class-group", ok)


def test_05_golden_homs(capsys, f1, f2):
    h1, h2 = hom_maps(f1), hom_maps(f2)
    ok = h1[(0, 2)][0] == 3 and h1[(1, 2)][1] == 2
    ok = ok and h2[(0, 2)][0] == 3 and h2[(1, 2)][1] == 3
    report(capsys, 5, "golden-homs", ok)


def test_06_golden_reducibility(capsys, f1, f2):
    out1 = decide_reducible(decompose(f1))
    ok = isinstance(out1, Irreducible) and out1.conflicting_images == (2, 3)
    out2 = decide_reducible(decompose(f2))
    ok = ok and isinstance(out2, Reduction) and out2.selection.by_class == (0, 1, 3)
    ok = ok and verify_reduction(f2, out2.table) == []
    ok = ok and extend(out2.table, 2).values == f2.values
    report(capsys, 6, "golden-reducibility", ok)


def test_07_reducibility_oracle_equivalence(capsys):
    # every band of (1..5, 3) and (1..4, 5)
    ok = True
    for m, n in [(m, 3) for m in range(1, 6)] + [(m, 5) for m in range(1, 5)]:
        for t in enumerate_bands(m, n).entries:
            decided = decide_reducible(decompose(t, verify=False), verify=False)
            found = brute_force_reductions(t)
            ok = ok and isinstance(decided, Reduction) == (len(found) > 0)
            if isinstance(decided, Reduction):
                ok = ok and any(g.values == decided.table.values for g in found)
    report(capsys, 7, "reducibility-oracle-equivalence", ok)


def test_08_enumeration_matches_brute_force(capsys, oracle):
    # (size, arity): (labeled, iso), every row of the README's counts table
    # plus (4,5)
    counts = {
        (1, 3): (1, 1), (2, 3): (3, 2), (3, 3): (18, 4), (4, 3): (197, 14), (5, 3): (3225, 45),
        (1, 2): (1, 1), (2, 2): (2, 1), (3, 2): (9, 2), (4, 2): (76, 5), (5, 2): (1065, 15),
        (4, 5): (200, 15),
    }
    ok = True
    for (m, n), expected in counts.items():
        fast = enumerate_bands(m, n)
        slow = oracle(m, n)
        ok = ok and {t.values for t in fast.entries} == {t.values for t in slow.entries}
        ok = ok and (fast.labeled, fast.iso) == (slow.labeled, slow.iso) == expected
    report(capsys, 8, "enumeration-matches-brute-force", ok)


def test_09_round_trip(capsys, catalog_n3, f1, f2):
    ok = True
    for m in (1, 2, 3, 4):
        for t in catalog_n3[m]:
            ok = ok and compose(decompose(t, verify=False), verify=False).values == t.values
    for t in (f1, f2):
        ok = ok and compose(decompose(t)).values == t.values
    report(capsys, 9, "round-trip", ok)


def test_10_law_suite(capsys, catalog_n3):
    ok = True
    for m in (1, 2, 3, 4):
        for t in catalog_n3[m]:
            rows = lambda_table(t, verify=False).rows
            tuples = list(itertools.product(range(m), repeat=3))
            # translations are endomorphisms
            ok = ok and all(
                rows[x][t.eval(args)] == t.eval(tuple(rows[x][a] for a in args))
                for x in range(m)
                for args in tuples
            )
            # translation by a product is the composite of the translations
            ok = ok and all(
                rows[t.eval(args)]
                == tuple(rows[args[0]][rows[args[1]][rows[args[2]][v]]] for v in range(m))
                for args in tuples
            )
            # the associated band is right normal
            ok = ok and check_right_normal(associated_band(t, verify=False)) is None
            # row equality is a congruence
            p = sigma_partition(t, verify=False)
            cls = p.class_of
            images = {}
            ok = ok and all(
                images.setdefault(tuple(cls[a] for a in args), cls[t.eval(args)])
                == cls[t.eval(args)]
                for args in tuples
            )
            # the associated band of the quotient is the quotient band
            tq, bq, _ = quotient(t, p)
            ok = ok and associated_band(tq, verify=False).values == bq.values
    report(capsys, 10, "law-suite", ok)


def test_11_hom_characterization(capsys):
    specs = [GroupSpec(1, ()), GroupSpec(2, (2,)), GroupSpec(4, (2, 2))]
    ok = True
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
            ok = ok and brute == nary_homs(g1, g2, 3)
    # orders 3 and 4-cyclic admit no ternary band structure at all
    try:
        make_group(GroupSpec(3, (3,)), 3)
        ok = False
    except InputError:
        pass
    report(capsys, 11, "hom-characterization", ok)


def test_12_degenerate_arity(capsys, catalog_n2):
    ok = True
    for m in (1, 2, 3, 4):
        for t in catalog_n2[m]:
            ok = ok and associated_band(t, verify=False).values == t.values
            if m >= 2:
                ok = ok and classify(t, verify=False) is Classification.SEMILATTICE_EXTENSION
            system = decompose(t, verify=False)
            ok = ok and all(len(c) == 1 for c in system.partition.classes)
            decided = decide_reducible(system, verify=False)
            ok = ok and isinstance(decided, Reduction) and decided.table.values == t.values
            ok = ok and compose(system, verify=False).values == t.values
    report(capsys, 12, "degenerate-arity", ok)
