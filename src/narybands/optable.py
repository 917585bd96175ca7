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
        # for size >= 2, an arity of len(vals).bit_length() or more makes
        # size**arity exceed len(vals); compare first, as the power is huge
        overshoots = self.size > 1 and self.arity >= len(vals).bit_length()
        if overshoots or len(vals) != self.size**self.arity:
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


def check_associative(t: OpTable, use_symmetry: bool | None = None) -> AssociativityWitness | None:
    """Return None if t associates, else the first counterexample found.

    The scan compares adjacent nestings over all (2n-1)-argument tuples,
    rightmost nesting pair first (matching the right-nested extension
    recursion), tuples in lexicographic order within each pair.

    For symmetric tables one nesting comparison suffices; use_symmetry=True
    skips the rest (sound only if the table is symmetric), False forces the
    full scan, and None checks symmetry first and decides.
    """
    if use_symmetry is None:
        use_symmetry = check_symmetric(t) is None
    if use_symmetry:
        starts: list[int] = [t.arity - 2]
    else:
        starts = list(range(t.arity - 2, -1, -1))
    return _assoc_scan(t, starts)


class MultisetIndex(NamedTuple):
    """The argument multisets of an n-ary table on m elements.

    A symmetric table is fixed by its values on the multisets, one per
    orbit of argument tuples under permutation.  Multisets are numbered in
    combinations_with_replacement order, which is the flat order of their
    sorted tuples, and each multiset's sorted tuple is the first of its
    cells in flat order.  So two symmetric tables compare like their
    vectors of values on the multisets.
    """

    multisets: tuple[tuple[int, ...], ...]
    orbit_of: "np.ndarray"  # flat index -> multiset id
    rep_codes: "np.ndarray"  # multiset id -> flat index of its sorted tuple


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


def _index_cells(size: int, arity: int) -> int:
    """size**arity, or ResourceError past the largest np.intp index (for
    size >= 2 an arity of its bit length or more passes it, as in OpTable)."""
    limit = np.iinfo(np.intp).max
    if size > 1 and (arity >= limit.bit_length() or size**arity > limit):
        raise ResourceError(f"an index of {size}**{arity} argument tuples passes the array limit")
    return size**arity


@lru_cache(maxsize=64)
def multiset_index(size: int, arity: int) -> MultisetIndex:
    """The MultisetIndex of tables of this size and arity, built on first use."""
    cells = _index_cells(size, arity)
    multisets = tuple(itertools.combinations_with_replacement(range(size), arity))
    strides = np.asarray(_strides(size, arity), dtype=np.intp)
    rep_codes = np.asarray(multisets, dtype=np.intp) @ strides
    rank = np.zeros(cells, dtype=np.intp)
    rank[rep_codes] = np.arange(len(multisets))
    digits = _digits(size, arity)
    digits.sort(axis=0)
    orbit_of = rank[strides @ digits]
    _read_only(orbit_of, rep_codes)
    return MultisetIndex(multisets, orbit_of, rep_codes)


def symmetric_table(arity: int, size: int, orbit_values) -> OpTable:
    """The symmetric table taking orbit_values[i] on multiset i."""
    index = multiset_index(size, arity)
    return OpTable(arity, size, tuple(np.asarray(orbit_values)[index.orbit_of].tolist()))


def _orbit_values(t: OpTable) -> "np.ndarray | None":
    """t's values on its argument multisets, or None if t is not symmetric."""
    index = multiset_index(t.size, t.arity)
    values = np.asarray(t.values, dtype=np.intp)
    orbit = values[index.rep_codes]
    if not np.array_equal(orbit[index.orbit_of], values):
        return None
    return orbit


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
    sym = check_symmetric(t)
    assoc = check_associative(t, use_symmetry=sym is None)
    return (("associative", assoc), ("symmetric", sym), ("idempotent", check_idempotent(t)))


def band_violation(t: OpTable):
    """First failing band law as (name, witness), or None if t is a band."""
    return next((law for law in _band_laws(t) if law[1] is not None), None)


def require_band(t: OpTable) -> None:
    """Raise DomainError naming the first violated band law."""
    found = band_violation(t)
    if found is not None:
        law, witness = found
        raise DomainError(f"operation is not {law}: witness {witness}", axiom=law, witness=witness)


def extend(t: OpTable, times: int, max_cells: int = EXTEND_CELL_BUDGET) -> OpTable:
    """Iterated extension: fold `times` nested applications into one table.

    The result has arity times*(n-1) + 1 and agrees with right-nesting t
    into itself; times=1 returns t unchanged.  Extension preserves
    associativity, symmetry, and idempotency.
    """
    if not isinstance(times, int) or times < 1:
        raise InputError(f"extension count must be a positive integer, got {times!r}")
    m, n = t.size, t.arity
    out_arity = times * (n - 1) + 1
    if m == 1:
        return OpTable(out_arity, 1, t.values)
    if out_arity >= max_cells.bit_length() or m**out_arity > max_cells:
        raise ResourceError(
            f"extension table would need {m}**{out_arity} cells (budget {max_cells})"
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


@lru_cache(maxsize=64)
def _multiset_args(size: int, arity: int) -> "np.ndarray":
    """The sorted argument tuple of each multiset, one row per multiset."""
    args = np.asarray(multiset_index(size, arity).multisets, dtype=np.intp)
    args.flags.writeable = False
    return args


def _relabel_source(inverse: "np.ndarray", size: int, arity: int, cells: int) -> "np.ndarray":
    """source[p, j]: the cell whose value relabeling by the permutation
    with inverse inverse[p] moves to cell j.  There is one cell per
    argument multiset, or per argument tuple if there are size**arity."""
    dense = cells == size**arity
    if dense:
        args = _digits(size, arity).T
    else:
        args = _multiset_args(size, arity)
    inverse = np.asarray(inverse, dtype=np.intp)
    code = 0
    for k, stride in enumerate(_strides(size, arity)):
        code = code + inverse[:, args[:, k]] * stride
    return code if dense else multiset_index(size, arity).orbit_of[code]


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
    values order its relabelings as the full tables (MultisetIndex); any
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
    index = multiset_index(size, arity)
    cells = size**arity
    zero = table_to_json(OpTable(arity, size, (0,) * cells))
    template = np.frombuffer(f"{zero}\n".encode(), dtype=np.uint8)
    # "values" is the document's last key, so its digits are the last zeros
    slots = np.flatnonzero(template == ord("0"))[-cells:]
    orbits = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), len(index.multisets))
    text = np.tile(template, (len(rows), 1))
    text[:, slots] = orbits[:, index.orbit_of] + ord("0")
    return text.tobytes().decode()[:-1]


def table_from_json(text: str) -> tuple[OpTable, tuple[str, ...]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    return table_from_doc(doc)
