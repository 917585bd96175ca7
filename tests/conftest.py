import functools
import itertools
import random

import pytest

from narybands import (
    NaryBandError,
    OpTable,
    brute_force_bands,
    enumerate_bands,
    table_from_function,
)
from narybands.optable import _orbit_values, multiset_index, symmetric_table

# The two 4-element ternary bands used as golden data throughout, stored by
# sorted argument multiset.  Both share the diagonal and the classes {0},{1},
# {2,3}; they differ on the mixed cells that decide reducibility.
F1_MULTISET = {
    (0, 0, 0): 0, (0, 0, 1): 2, (0, 0, 2): 2, (0, 0, 3): 3,
    (0, 1, 1): 3, (0, 1, 2): 3, (0, 1, 3): 2,
    (0, 2, 2): 3, (0, 2, 3): 2, (0, 3, 3): 3,
    (1, 1, 1): 1, (1, 1, 2): 2, (1, 1, 3): 3,
    (1, 2, 2): 2, (1, 2, 3): 3, (1, 3, 3): 2,
    (2, 2, 2): 2, (2, 2, 3): 3, (2, 3, 3): 2,
    (3, 3, 3): 3,
}
F2_MULTISET = {
    (0, 0, 0): 0, (0, 0, 1): 3, (0, 0, 2): 2, (0, 0, 3): 3,
    (0, 1, 1): 3, (0, 1, 2): 2, (0, 1, 3): 3,
    (0, 2, 2): 3, (0, 2, 3): 2, (0, 3, 3): 3,
    (1, 1, 1): 1, (1, 1, 2): 2, (1, 1, 3): 3,
    (1, 2, 2): 3, (1, 2, 3): 2, (1, 3, 3): 3,
    (2, 2, 2): 2, (2, 2, 3): 3, (2, 3, 3): 2,
    (3, 3, 3): 3,
}


# two non-bands whose systems, read off them and left unchecked, passed for
# bands: the first one's system is valid but composes to another table; the
# second one's composes back to it, but its maps are not coherent
NON_BAND_DOCS = {
    "non-band-arity-4": {
        "arity": 4,
        "elements": ["0", "1"],
        "values": [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1],
    },
    "non-band-five-ternary": {
        "arity": 3,
        "elements": ["0", "1", "2", "3", "4"],
        "values": [
            0, 2, 2, 3, 0, 2, 2, 2, 3, 3, 2, 2, 2, 3, 3, 3, 3, 3, 2, 2, 0, 3, 3, 2, 0,
            2, 2, 2, 3, 3, 2, 1, 2, 3, 3, 2, 2, 2, 3, 3, 3, 3, 3, 2, 2, 3, 3, 3, 2, 2,
            2, 2, 2, 3, 3, 2, 2, 2, 3, 3, 2, 2, 2, 3, 3, 3, 3, 3, 2, 2, 3, 3, 3, 2, 2,
            3, 3, 3, 2, 2, 3, 3, 3, 2, 2, 3, 3, 3, 2, 2, 2, 2, 2, 3, 3, 2, 2, 2, 3, 3,
            0, 3, 3, 2, 0, 3, 3, 3, 2, 2, 3, 3, 3, 2, 2, 2, 2, 2, 3, 3, 0, 2, 2, 3, 4,
        ],
    },
}


def from_multiset(multiset, arity=3, size=4):
    return table_from_function(arity, size, lambda *a: multiset[tuple(sorted(a))])


def relabel_cells(t, perm):
    """Reference relabeling, cell by cell and sharing no code with the
    library's scan: the relabeled table maps (perm[a1], ..., perm[an]) to
    perm[t(a1, ..., an)]."""
    m = t.size
    values = [0] * len(t.values)
    for args in itertools.product(range(m), repeat=t.arity):
        code = 0
        new_code = 0
        for a in args:
            code = code * m + a
            new_code = new_code * m + perm[a]
        values[new_code] = perm[t.values[code]]
    return OpTable(t.arity, m, tuple(values))


@pytest.fixture(scope="session")
def f1():
    return from_multiset(F1_MULTISET)


@pytest.fixture(scope="session")
def f2():
    return from_multiset(F2_MULTISET)


@pytest.fixture(scope="session")
def xor3():
    return table_from_function(3, 2, lambda x, y, z: x ^ y ^ z)


@pytest.fixture(scope="session")
def min3():
    return table_from_function(3, 3, lambda x, y, z: min(x, y, z))


@pytest.fixture(scope="session")
def maj2():
    return table_from_function(3, 2, lambda x, y, z: 1 if x + y + z >= 2 else 0)


@pytest.fixture(scope="session")
def catalog_n3():
    """All symmetric ternary bands on up to 4 elements, keyed by size."""
    return {m: enumerate_bands(m, 3).entries for m in (1, 2, 3, 4)}


@pytest.fixture(scope="session")
def catalog_n2():
    return {m: brute_force_bands(m, 2).entries for m in (1, 2, 3, 4)}


@pytest.fixture(scope="session")
def oracle():
    """brute_force_bands, run once per (size, arity) in a session."""
    return functools.cache(brute_force_bands)


@pytest.fixture(scope="session")
def catalog_tables(catalog_n2, catalog_n3):
    """Every band of the (m <= 4, n = 2 and 3), (3, 4) and (4, 5) catalogs."""
    tables = [t for catalog in (catalog_n2, catalog_n3) for ts in catalog.values() for t in ts]
    return tables + list(enumerate_bands(3, 4).entries) + list(enumerate_bands(4, 5).entries)


def perturbed(tables, seed):
    """Each table with one cell moved to another value, chosen by a seeded
    generator; a one-element table, which has no other value, as it is."""
    rng = random.Random(seed)
    out = []
    for t in tables:
        values = list(t.values)
        if t.size > 1:
            i = rng.randrange(len(values))
            values[i] = rng.choice([v for v in range(t.size) if v != values[i]])
        out.append(OpTable(t.arity, t.size, tuple(values)))
    return out


def perturbed_multisets(tables, seed, count):
    """Each symmetric table with count of its argument multisets that hold
    two or more elements moved to other values, chosen by a seeded
    generator; the results stay symmetric and idempotent."""
    rng = random.Random(seed)
    out = []
    for t in tables:
        row = _orbit_values(t).tolist()
        multisets = multiset_index(t.size, t.arity).multisets
        mixed = [i for i, c in enumerate(multisets) if c[0] != c[-1]]
        for i in rng.sample(mixed, count):
            row[i] = rng.choice([v for v in range(t.size) if v != row[i]])
        out.append(symmetric_table(t.arity, t.size, row))
    return out


def random_tables(seed, count):
    """count tables of uniform random values, m <= 4 and 2 <= n <= 4."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, n = rng.randint(1, 4), rng.randint(2, 4)
        out.append(OpTable(n, m, tuple(rng.randrange(m) for _ in range(m**n))))
    return out


def outcome(f, *args, **kwargs):
    """f's result, or the type and message of the NaryBandError it raises."""
    try:
        return f(*args, **kwargs)
    except NaryBandError as exc:
        return type(exc), str(exc)
