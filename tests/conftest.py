import functools

import pytest

from narybands import brute_force_bands, enumerate_bands, table_from_function

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


def from_multiset(multiset, arity=3, size=4):
    return table_from_function(arity, size, lambda *a: multiset[tuple(sorted(a))])


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
