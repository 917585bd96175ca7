"""Dense tables of finite n-ary operations and their basic laws.

An operation on {0, ..., m-1} with arity n is stored as a flat tuple of
m**n values in lexicographic argument order, first argument most
significant.  Everything downstream (bands, quotients, reductions) is
built out of these tables.
"""

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConsistencyError, DomainError, InputError, ResourceError

EXTEND_CELL_BUDGET = 2**28
CANONICAL_SIZE_LIMIT = 8
# chunked scans hold at most this many entries at a time: (permutation,
# cell, argument) entries for relabelings, argument tuples for associativity
_CHUNK_CELLS = 2**20


@lru_cache(maxsize=None)
def _strides(size: int, count: int) -> tuple[int, ...]:
    return tuple(size ** (count - 1 - k) for k in range(count))


@dataclass(frozen=True)
class TupleCodec:
    """Bijection between argument tuples and flat table indices."""

    size: int
    arity: int

    def encode(self, args: Sequence[int]) -> int:
        if len(args) != self.arity:
            raise InputError(f"expected {self.arity} arguments, got {len(args)}")
        code = 0
        for a in args:
            if not isinstance(a, int) or not 0 <= a < self.size:
                raise InputError(f"argument {a!r} outside 0..{self.size - 1}")
            code = code * self.size + a
        return code

    def decode(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size**self.arity:
            raise InputError(f"index {index!r} outside table of size {self.size}^{self.arity}")
        out = []
        for stride in _strides(self.size, self.arity):
            out.append(index // stride % self.size)
        return tuple(out)

    def tuples(self) -> Iterator[tuple[int, ...]]:
        """All argument tuples in flat-index (lexicographic) order."""
        return itertools.product(range(self.size), repeat=self.arity)


@dataclass(frozen=True)
class OpTable:
    """A total n-ary operation on {0, ..., size-1}."""

    arity: int
    size: int
    values: tuple[int, ...] = field(repr=False)

    def __post_init__(self):
        if not isinstance(self.arity, int) or self.arity < 2:
            raise InputError(f"arity must be an integer >= 2, got {self.arity!r}")
        if not isinstance(self.size, int) or self.size < 1:
            raise InputError(f"size must be an integer >= 1, got {self.size!r}")
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if _passes(self.size, self.arity, len(vals)) or len(vals) != self.size**self.arity:
            raise InputError(
                f"values has length {len(vals)}, expected {self.size}**{self.arity}"
            )
        # one pass over the types and one over the range; only a table that
        # fails them is walked to name its first bad value
        if not set(map(type, vals)) <= {int, bool} or min(vals) < 0 or max(vals) >= self.size:
            for v in vals:
                if not isinstance(v, int) or not 0 <= v < self.size:
                    raise InputError(f"table value {v!r} outside 0..{self.size - 1}")

    @property
    def codec(self) -> TupleCodec:
        return TupleCodec(self.size, self.arity)

    def eval(self, args: Sequence[int]) -> int:
        return self.values[self.codec.encode(args)]


def table_from_function(arity: int, size: int, fn) -> OpTable:
    """Materialize fn over all argument tuples in lexicographic order."""
    values = tuple(fn(*args) for args in itertools.product(range(size), repeat=arity))
    return OpTable(arity, size, values)


class AssociativityWitness(NamedTuple):
    """Arguments where two adjacent nestings disagree.

    position is 1-based: nesting the inner application at argument offset
    `position` and at `position + 1` give different results.
    """

    args: tuple[int, ...]
    position: int


class SymmetryWitness(NamedTuple):
    """Two argument tuples, equal as multisets, with different values."""

    args: tuple[int, ...]
    swapped: tuple[int, ...]


def _assoc_scan(t: OpTable, starts: Sequence[int]) -> AssociativityWitness | None:
    """Compare adjacent nestings over all (2n-1)-tuples, a chunk at a time.

    Each chunk fixes the leading arguments and takes every suffix, so the
    chunks, and the tuples within one, come in lexicographic order.  The
    first mismatch of each start is kept; a start only matters until an
    earlier one (in starts order) has a mismatch, so the scan ends once
    the first pending start has one.
    """
    m, n = t.size, t.arity
    width = 2 * n - 1
    tail = 0
    while tail < width and m ** (tail + 1) <= _CHUNK_CELLS:
        tail += 1
    suffixes = _digits(m, tail)
    flat = np.asarray(t.values, dtype=np.intp)

    def code(args):
        # Horner from an intp zero: uint8 digits never meet a Python int
        out = np.intp(0)
        for a in args:
            out = out * m + a
        return out

    pending = list(starts)
    witness = None
    for head in itertools.product(range(m), repeat=width - tail):
        args = [*head, *suffixes]
        nested: dict[int, "np.ndarray"] = {}
        for i, s in enumerate(pending):
            for k in (s, s + 1):
                if k not in nested:
                    inner = flat[code(args[k : k + n])]
                    nested[k] = flat[code([*args[:k], inner, *args[k + n :]])]
            mismatch = np.atleast_1d(nested[s] != nested[s + 1])
            if mismatch.any():
                row = int(np.argmax(mismatch))
                witness = AssociativityWitness(head + tuple(suffixes[:, row].tolist()), s + 1)
                pending = pending[:i]
                break
        if not pending:
            break
    return witness


def check_associative(t: OpTable) -> AssociativityWitness | None:
    """Return None if t associates, else the first counterexample found.

    The scan compares adjacent nestings over all (2n-1)-argument tuples,
    rightmost nesting pair first (matching the right-nested extension
    recursion), tuples in lexicographic order within each pair.
    """
    n = t.arity  # a binary table has one pair, so its symmetry is not read
    symmetric = n == 2 or _orbit_values(t) is not None  # then one pair suffices
    return _assoc_scan(t, [n - 2] if symmetric else range(n - 2, -1, -1))


def _read_only(*arrays) -> None:
    # cached arrays are shared by every caller
    for a in arrays:
        a.flags.writeable = False


def _digits(size: int, arity: int) -> "np.ndarray":
    """digits[k, j]: argument k of the j-th argument tuple in flat order,
    built one argument row at a time (np.indices would need arity + 1
    axes, and numpy allows 64)."""
    digits = np.empty((arity, size**arity), dtype=np.min_scalar_type(size))
    for row, stride in zip(digits, _strides(size, arity)):
        row.reshape(-1, size, stride)[...] = np.arange(size)[:, None]
    return digits


def _passes(size: int, arity: int, limit: int) -> bool:
    """size**arity > limit, without the power when it is huge: for size >=
    2 an arity of limit's bit length or more passes it."""
    return (size > 1 and arity >= limit.bit_length()) or size**arity > limit


@lru_cache(maxsize=64)
def _multiset_args(size: int, arity: int) -> "np.ndarray":
    """The sorted argument tuple of each multiset, in the flat order of the
    sorted tuples (combinations_with_replacement's), each the first cell of
    its multiset: symmetric tables compare like their multiset values.
    ResourceError if they hold more than _CHUNK_CELLS arguments: one
    relabeling chunk holds at least one permutation's."""
    count = math.comb(size + arity - 1, arity)
    if count * arity > _CHUNK_CELLS:
        raise ResourceError(
            f"the {count} argument multisets of arity {arity} hold over {_CHUNK_CELLS} arguments"
        )
    rows = itertools.combinations_with_replacement(range(size), arity)
    args = np.array(list(rows), dtype=np.intp)
    _read_only(args)
    return args


@lru_cache(maxsize=64)
def _multiset_counts(size: int, arity: int) -> "np.ndarray":
    """counts[v, j]: how many arguments of multiset j (_multiset_args) are v."""
    args = _multiset_args(size, arity)
    counts = np.stack([(args == v).sum(axis=1) for v in range(size)])
    _read_only(counts)
    return counts


def _rank(at_most, size: int, arity: int) -> "np.ndarray":
    """The multiset number of each argument multiset: the sorted tuples
    before its own, a.  Those first below a at argument k hold there a w
    with a_(k-1) <= w < a_k, so k = at_most[w] (how many of a's arguments
    are at most w, w < size - 1), then any of C(size-w+arity-k-2,
    arity-k-1) sorted tails from w up (Knuth, TAOCP 4A, 7.2.1.3)."""
    rank = np.zeros(1, dtype=np.intp)  # one element: one multiset
    for w, k in enumerate(at_most):
        tails = [math.comb(size - w + arity - j - 2, arity - j - 1) for j in range(arity)]
        rank = rank + np.array([*tails, 0], dtype=np.intp)[k]
    return rank


def _require_index(size: int, arity: int) -> None:
    """ResourceError if size**arity argument tuples pass the largest np.intp
    index; builds nothing."""
    if _passes(size, arity, np.iinfo(np.intp).max):
        raise ResourceError(f"an index of {size}**{arity} argument tuples passes the array limit")


@lru_cache(maxsize=64)
def _orbit_of(size: int, arity: int) -> "np.ndarray":
    """orbit_of[j]: the multiset number of the j-th argument tuple in flat
    order, for code that gathers or scatters a dense table."""
    _require_index(size, arity)

    def at_most(w):  # per argument tuple, its arguments at most w, one at a time
        count = np.zeros(1, dtype=np.min_scalar_type(arity))
        for _ in range(arity):
            count = np.add.outer(np.arange(size) <= w, count).ravel()
        return count

    orbit_of = _rank(map(at_most, range(size - 1)), size, arity)
    _read_only(orbit_of)
    return orbit_of


def symmetric_table(arity: int, size: int, orbit_values) -> OpTable:
    """The symmetric table taking orbit_values[i] on multiset i."""
    return OpTable(arity, size, tuple(np.asarray(orbit_values)[_orbit_of(size, arity)].tolist()))


def _orbit_values(t: OpTable) -> "np.ndarray | None":
    """t's values on its argument multisets, or None if t is not symmetric."""
    orbit_of = _orbit_of(t.size, t.arity)
    values = np.asarray(t.values, dtype=np.intp)
    orbit = np.empty(orbit_of[-1] + 1, dtype=np.intp)
    orbit[orbit_of] = values
    return orbit if np.array_equal(orbit[orbit_of], values) else None


def check_symmetric(t: OpTable) -> SymmetryWitness | None:
    """Return None if t is invariant under argument permutations.

    Symmetry is one comparison of every cell against the first cell of its
    argument multiset.  Only a table that fails it is scanned for the
    witness: adjacent transpositions generate all permutations, so only
    they are checked, transposition positions left to right, tuples
    lexicographically within each position.
    """
    if _orbit_values(t) is not None:
        return None
    m, n = t.size, t.arity
    values = t.values
    for pos in range(n - 1):
        for args in itertools.product(range(m), repeat=n):
            if args[pos] == args[pos + 1]:
                continue
            swapped = args[:pos] + (args[pos + 1], args[pos]) + args[pos + 2 :]
            code = 0
            swapped_code = 0
            for a, b in zip(args, swapped):
                code = code * m + a
                swapped_code = swapped_code * m + b
            if values[code] != values[swapped_code]:
                return SymmetryWitness(args, swapped)
    raise ConsistencyError("no adjacent transposition witnesses the asymmetry")


def check_idempotent(t: OpTable) -> int | None:
    """Return None if t(x, ..., x) = x for every x, else the least bad x."""
    diag = sum(_strides(t.size, t.arity))
    for x in range(t.size):
        if t.values[x * diag] != x:
            return x
    return None


def _band_laws(t: OpTable):
    """The band laws in report order, each as (name, witness), the witness
    None where the law holds: associative, symmetric, idempotent."""
    return (
        ("associative", check_associative(t)),
        ("symmetric", check_symmetric(t)),
        ("idempotent", check_idempotent(t)),
    )


def band_violation(t: OpTable):
    """First failing band law as (name, witness), or None if t is a band."""
    return next((law for law in _band_laws(t) if law[1] is not None), None)


def require_band(t: OpTable) -> None:
    """Raise DomainError naming the first violated band law."""
    found = band_violation(t)
    if found is not None:
        law, witness = found
        raise DomainError(f"operation is not {law}: witness {witness}", axiom=law, witness=witness)


def extend(t: OpTable, times: int) -> OpTable:
    """Iterated extension: fold `times` nested applications into one table.

    The result has arity times*(n-1) + 1 and agrees with right-nesting t
    into itself; times=1 returns t unchanged.  Extension preserves
    associativity, symmetry, and idempotency.  ResourceError before
    anything is allocated if the result has over EXTEND_CELL_BUDGET cells.
    """
    if not isinstance(times, int) or times < 1:
        raise InputError(f"extension count must be a positive integer, got {times!r}")
    m, n = t.size, t.arity
    out_arity = times * (n - 1) + 1
    if m == 1:
        return OpTable(out_arity, 1, t.values)
    if _passes(m, out_arity, EXTEND_CELL_BUDGET):
        raise ResourceError(
            f"extension table would need {m}**{out_arity} cells (budget {EXTEND_CELL_BUDGET})"
        )
    inner = np.asarray(t.values, dtype=np.intp)
    current = inner
    for _ in range(times - 1):
        # grown[P * m**n + Q] = current[P * m + inner[Q]]
        current = current.reshape(-1, m)[:, inner].ravel()
    return OpTable(out_arity, m, tuple(current.tolist()))


def neutral_elements(t: OpTable) -> frozenset[int]:
    """Elements e with t(e, ..., e, x, e, ..., e) = x for x in every slot."""
    strides = np.asarray(_strides(t.size, t.arity), dtype=np.intp)[:, None]
    values = np.asarray(t.values, dtype=np.intp)
    xs = np.arange(t.size)
    # row k, column x: the cell of (e, ..., e, x, e, ..., e), x at slot k
    rest = strides.sum() - strides
    return frozenset(e for e in range(t.size) if (values[e * rest + xs * strides] == xs).all())


def relabel(t: OpTable, perm: Sequence[int]) -> OpTable:
    """Conjugate t by a permutation of the carrier."""
    m = t.size
    if sorted(perm) != list(range(m)):
        raise InputError(f"relabeling {perm!r} is not a permutation of 0..{m - 1}")
    perm = np.asarray(perm, dtype=np.intp)
    source = _relabel_source(np.argsort(perm)[None], m, t.arity, m**t.arity)[0]
    return OpTable(t.arity, m, tuple(perm[np.asarray(t.values, dtype=np.intp)[source]].tolist()))


def _relabel_source(inverse: "np.ndarray", size: int, arity: int, cells: int) -> "np.ndarray":
    """source[p, j]: the cell whose value relabeling by the permutation
    with inverse inverse[p] moves to cell j.  There is one cell per
    argument multiset, or per argument tuple if there are size**arity.
    The source of multiset j, j moved by the inverse, is ranked from
    counts, building nothing dense: it has as many arguments at most w as
    j has among perm[0..w], perm the permutation itself."""
    inverse = np.asarray(inverse, dtype=np.intp)
    if cells != size**arity:
        counts, perms = _multiset_counts(size, arity), np.argsort(inverse, axis=1)
        at_most = itertools.accumulate(counts[perms[:, u]] for u in range(size - 1))
        return _rank(at_most, size, arity)
    code = 0
    for row, stride in zip(_digits(size, arity), _strides(size, arity)):
        code = code + inverse[:, row] * stride
    return code


@lru_cache(maxsize=2)
def _permutations(size: int) -> tuple["np.ndarray", "np.ndarray"]:
    """All carrier permutations in itertools order, and their inverses."""
    perms = np.array(list(itertools.permutations(range(size))), dtype=np.min_scalar_type(size))
    inverse = np.argsort(perms, axis=1).astype(perms.dtype)
    _read_only(perms, inverse)
    return perms, inverse


@lru_cache(maxsize=4)
def _relabeling_chunk(size: int, arity: int, cells: int, lo: int, count: int):
    perms, inverse = _permutations(size)
    source = _relabel_source(inverse[lo : lo + count], size, arity, cells)
    _read_only(source)
    return perms[lo : lo + count], source


def _relabeled_orbits(row: "np.ndarray", size: int, arity: int):
    """Every relabeling of a table, given its values on the cells of one
    index: its orbit vector (values on the argument multisets) if it is
    symmetric, every value otherwise.  The row's length tells which.

    Yields the relabeled rows in chunks of bounded size, permutations in
    itertools order: relabeling by perms[p] gives cell j the value
    perms[p][v] for v the old value on cell source[p, j] (_relabel_source).
    """
    cells = len(row)
    count = max(1, _CHUNK_CELLS // (cells * arity))
    for lo in range(0, math.factorial(size), count):
        perms, source = _relabeling_chunk(size, arity, cells, lo, count)
        yield np.take_along_axis(perms, row[source], axis=1)


def _byte_strings(rows: "np.ndarray") -> list[bytes]:
    # each uint8 row as its bytes, which order like the rows; a void view
    # keeps trailing zero bytes
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    return rows.view(f"V{rows.shape[1]}").ravel().tolist()


def canonical_form(t: OpTable) -> OpTable:
    """Least relabeling of t: the values-lexicographic minimum over all
    carrier permutations.  Two tables are isomorphic iff their canonical
    forms are equal.

    A symmetric table is relabeled on its argument multisets only, whose
    values order its relabelings as the full tables (_multiset_args); any
    other table is relabeled on every argument tuple (_canonical_orbits).
    """
    return OpTable(t.arity, t.size, _canonical_forms([t])[0])


def _canonical_orbits(
    rows: "np.ndarray", size: int, arity: int, every: bool = False
) -> dict[bytes, set[bytes]]:
    """The isomorphism classes met among rows, each row one table's values
    on the cells of one index (_relabeled_orbits).  Each class is keyed by
    its least relabeling, as uint8 bytes, which order like the tables, and
    holds its rows, or with every all of its distinct relabelings.

    The first row of a class is relabeled chunk by chunk, keeping the
    least relabeling so far and the class's rows (or relabelings) found
    among the chunk, so one chunk at a time is held.
    """
    if size > CANONICAL_SIZE_LIMIT:
        raise ResourceError(
            f"canonical form scans {size}! relabelings (limit {CANONICAL_SIZE_LIMIT}!)"
        )
    rows = np.asarray(rows, dtype=np.uint8)
    keys = _byte_strings(rows)
    left = set(keys)
    classes: dict[bytes, set[bytes]] = {}
    for row, key in zip(rows, keys):
        if key not in left:
            continue
        least = None
        members: set[bytes] = set()
        for relabeled in _relabeled_orbits(row, size, arity):
            found = _byte_strings(relabeled)
            least = min(found) if least is None else min(least, min(found))
            members.update(found if every else left.intersection(found))
        left -= members
        classes[least] = members
    return classes


def _canonical_forms(tables: Sequence[OpTable]) -> list[tuple[int, ...]]:
    """canonical_form(t).values for each table.  The tables of one size,
    arity and index (argument multisets if symmetric, else every argument
    tuple) are scanned together by _canonical_orbits."""
    groups: dict[tuple[int, int, int], dict[int, "np.ndarray"]] = {}
    for i, t in enumerate(tables):
        row = _orbit_values(t)
        if row is None:
            row = np.asarray(t.values, dtype=np.intp)
        groups.setdefault((t.size, t.arity, len(row)), {})[i] = row
    out: list = [None] * len(tables)
    for (m, n, cells), rows in groups.items():
        block = np.array(list(rows.values()), dtype=np.uint8)
        values = {}
        for c, members in _canonical_orbits(block, m, n).items():
            row = np.frombuffer(c, dtype=np.uint8)
            form = tuple(row.tolist()) if cells == m**n else symmetric_table(n, m, row).values
            values.update(dict.fromkeys(members, form))
        for i, key in zip(rows, _byte_strings(block)):
            out[i] = values[key]
    return out


def default_labels(size: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(size))


def table_to_doc(t: OpTable, labels: Sequence[str] | None = None) -> dict:
    """JSON-ready document: {"arity", "elements", "values"}."""
    if labels is None:
        labels = default_labels(t.size)
    labels = tuple(labels)
    if len(labels) != t.size:
        raise InputError(f"{len(labels)} labels for {t.size} elements")
    return {"arity": t.arity, "elements": list(labels), "values": list(t.values)}


def table_from_doc(doc) -> tuple[OpTable, tuple[str, ...]]:
    """Parse a table document; returns the table and its element labels."""
    if not isinstance(doc, dict):
        raise InputError("table document must be a JSON object")
    missing = {"arity", "elements", "values"} - doc.keys()
    if missing:
        raise InputError(f"table document missing keys: {sorted(missing)}")
    arity = doc["arity"]
    elements = doc["elements"]
    values = doc["values"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise InputError("elements must be a list of strings")
    if len(set(elements)) != len(elements):
        raise InputError("element labels must be distinct")
    if not isinstance(values, list):
        raise InputError("values must be a list")
    if not isinstance(arity, int) or isinstance(arity, bool):
        raise InputError("arity must be an integer")
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise InputError(f"table value {v!r} is not an integer")
    return OpTable(arity, len(elements), tuple(values)), tuple(elements)


def table_to_json(t: OpTable, labels: Sequence[str] | None = None) -> str:
    return json.dumps(table_to_doc(t, labels), separators=(", ", ": "))


def _orbit_rows_to_json(rows: Sequence[bytes], size: int, arity: int) -> str:
    """table_to_json of the symmetric table of each orbit row (uint8 values
    on the argument multisets), one per line, without building the tables:
    each row is gathered onto the argument tuples and laid into the value
    digits of table_to_json's line for the all-zero table.  Every value is
    one digit, since callers hold size <= CANONICAL_SIZE_LIMIT < 10."""
    assert size <= CANONICAL_SIZE_LIMIT < 10, "table values must be single digits"
    orbit_of = _orbit_of(size, arity)
    cells = size**arity
    zero = table_to_json(OpTable(arity, size, (0,) * cells))
    template = np.frombuffer(f"{zero}\n".encode(), dtype=np.uint8)
    # "values" is the document's last key, so its digits are the last zeros
    slots = np.flatnonzero(template == ord("0"))[-cells:]
    orbits = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), -1)
    text = np.tile(template, (len(rows), 1))
    text[:, slots] = orbits[:, orbit_of] + ord("0")
    return text.tobytes().decode()[:-1]


def table_from_json(text: str) -> tuple[OpTable, tuple[str, ...]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    return table_from_doc(doc)
