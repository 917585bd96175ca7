"""Expected answers for the benchmark, computed without narybands.

Tables are numpy arrays of shape (m,) * n, indexed by argument tuples, so
C-order flattening is the package's flat value order (first argument most
significant).  Nothing here imports the package under test: the benchmark
checks the program against these scans and against how each input was
built, never against the program's own code.
"""

import hashlib
import itertools
import json

import numpy as np

# Copies of tests/fixtures/reducible4.json and irreducible4.json (ternary,
# four elements, classes {0}, {1}, {2, 3}).
REDUCIBLE4 = (
    0, 3, 2, 3, 3, 3, 2, 3, 2, 2, 3, 2, 3, 3, 2, 3, 3, 3, 2, 3, 3, 1, 2, 3,
    2, 2, 3, 2, 3, 3, 2, 3, 2, 2, 3, 2, 2, 2, 3, 2, 3, 3, 2, 3, 2, 2, 3, 2,
    3, 3, 2, 3, 3, 3, 2, 3, 2, 2, 3, 2, 3, 3, 2, 3,
)
IRREDUCIBLE4 = (
    0, 2, 2, 3, 2, 3, 3, 2, 2, 3, 3, 2, 3, 2, 2, 3, 2, 3, 3, 2, 3, 1, 2, 3,
    3, 2, 2, 3, 2, 3, 3, 2, 2, 3, 3, 2, 3, 2, 2, 3, 3, 2, 2, 3, 2, 3, 3, 2,
    3, 2, 2, 3, 2, 3, 3, 2, 2, 3, 3, 2, 3, 2, 2, 3,
)


def _grids(m: int, n: int):
    """n broadcastable index arrays covering (m,) * n."""
    return np.ix_(*([np.arange(m)] * n))


def chain_min(c: int, n: int) -> np.ndarray:
    """n-ary min on the chain 0 < 1 < ... < c-1."""
    return np.minimum.reduce(np.broadcast_arrays(*_grids(c, n)))


def bitwise_and4(n: int) -> np.ndarray:
    """n-ary bitwise AND on {0, 1, 2, 3}."""
    return np.bitwise_and.reduce(np.broadcast_arrays(*_grids(4, n)))


def sum_mod(d: int, n: int) -> np.ndarray:
    """n-ary sum mod d; idempotent exactly when d divides n - 1."""
    if (n - 1) % d:
        raise ValueError(f"sum mod {d} is not idempotent at arity {n}")
    return sum(np.broadcast_arrays(*_grids(d, n))) % d


def fixture(values) -> np.ndarray:
    return np.array(values, dtype=np.int64).reshape((4, 4, 4))


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct product; element (x, y) is encoded as x * |b| + y."""
    n, m2 = b.ndim, b.shape[0]
    size = a.shape[0] * m2
    left = np.arange(size) // m2
    right = np.arange(size) % m2
    return a[np.ix_(*([left] * n))] * m2 + b[np.ix_(*([right] * n))]


def relabel(t: np.ndarray, perm) -> np.ndarray:
    """Conjugate t by perm: the result sends perm(args) to perm(t(args))."""
    perm = np.asarray(perm)
    inv = np.argsort(perm)
    return perm[t[np.ix_(*([inv] * t.ndim))]]


def is_symmetric(t: np.ndarray) -> bool:
    return all(np.array_equal(t, np.swapaxes(t, i, i + 1)) for i in range(t.ndim - 1))


def is_idempotent(t: np.ndarray) -> bool:
    m = t.shape[0]
    diag = t[(np.arange(m),) * t.ndim]
    return bool(np.array_equal(diag, np.arange(m)))


def _nested(t: np.ndarray, start: int, first: int) -> np.ndarray:
    """t(x[:start], t(x[start:start+n]), x[start+n:]) over the (2n-1)-tuples
    with x[0] == first, in lexicographic order."""
    m, n = t.shape[0], t.ndim
    width = 2 * n - 1
    axes = [np.arange(m).reshape((1,) * k + (m,) + (1,) * (width - 1 - k)) for k in range(width)]
    axes[0] = np.full((1,) * width, first)
    inner = t[first : first + 1] if start == 0 else t
    inner = inner.reshape((1,) * start + inner.shape + (1,) * (width - start - n))
    return t[tuple(axes[:start] + [inner] + axes[start + n :])]


def associativity_witness(t: np.ndarray):
    """First (args, position) where adjacent nestings disagree, or None.

    Order: rightmost nesting pair first, argument tuples lexicographically
    within a pair; position is 1-based like the package's witness.  The scan
    goes one leading argument at a time, so it stops early on a near-band.
    """
    m, n = t.shape[0], t.ndim
    for start in range(n - 2, -1, -1):
        for first in range(m):
            bad = np.flatnonzero(_nested(t, start, first) != _nested(t, start + 1, first))
            if bad.size:
                rest = np.unravel_index(int(bad[0]), (m,) * (2 * n - 2))
                return (first, *(int(a) for a in rest)), start + 1
    return None


def sigma_classes(t: np.ndarray) -> list[list[int]]:
    """Elements grouped by equal rows of B(x, y) = t(x, ..., x, y), listed
    by least member: the least semilattice congruence of a band."""
    m, n = t.shape[0], t.ndim
    x = np.arange(m)[:, None]
    y = np.arange(m)[None, :]
    rows = t[(x,) * (n - 1) + (y,)]
    by_row: dict[bytes, list[int]] = {}
    for e in range(m):
        by_row.setdefault(rows[e].tobytes(), []).append(e)
    return sorted(by_row.values(), key=lambda c: c[0])


def classification(classes, m: int) -> str:
    if m == 1 or len(classes) == 1:
        return "group-extension"
    if len(classes) == m:
        return "semilattice-extension"
    return "general"


def canonical_values(t: np.ndarray) -> tuple[int, ...]:
    """Lexicographically least value tuple over all relabelings."""
    m = t.shape[0]
    return min(tuple(relabel(t, p).ravel().tolist()) for p in itertools.permutations(range(m)))


def digest(obj) -> str:
    """Short fingerprint of a JSON-ready answer; the worker applies the same
    function to the program's output."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()[:16]
