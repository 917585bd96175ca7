"""Associated binary band, translation maps, least semilattice congruence.

For a symmetric n-ary band F the binary operation B(x, y) = F(x, ..., x, y)
is a right normal band whose rows are the translation maps.  Grouping
elements by equal rows is the least semilattice congruence; its quotient
is a meet semilattice and the whole decomposition theory hangs off it.
"""

import enum
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConsistencyError, InputError
from .optable import (
    OpTable,
    _read_only,
    _strides,
    check_associative,
    check_idempotent,
    require_band,
)


class Classification(enum.Enum):
    SEMILATTICE_EXTENSION = "semilattice-extension"
    GROUP_EXTENSION = "group-extension"
    GENERAL = "general"


@dataclass(frozen=True)
class LambdaTable:
    """Translation maps of a band: row x sends y to B(x, y)."""

    size: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.size or any(len(r) != self.size for r in rows):
            raise InputError(f"need {self.size} rows of length {self.size}")
        for x, row in enumerate(rows):
            if row[x] != x:
                raise ConsistencyError(f"row {x} does not fix {x}; source is not idempotent")
            for y in range(self.size):
                if row[row[y]] != row[y]:
                    raise ConsistencyError(f"row {x} is not idempotent as a map")


@dataclass(frozen=True)
class SigmaPartition:
    """Partition of the carrier into congruence classes.

    classes are sorted internally and listed by least member; class_of maps
    each element to the index of its class.
    """

    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        class_of = tuple(self.class_of)
        classes = tuple(tuple(c) for c in self.classes)
        object.__setattr__(self, "class_of", class_of)
        object.__setattr__(self, "classes", classes)
        seen: list[int] = []
        for i, members in enumerate(classes):
            if not members or list(members) != sorted(members):
                raise InputError(f"class {i} must be nonempty and sorted")
            seen.extend(members)
        if sorted(seen) != list(range(len(class_of))):
            raise InputError("classes do not partition the carrier")
        if [c[0] for c in classes] != sorted(c[0] for c in classes):
            raise InputError("classes must be ordered by least member")
        for i, members in enumerate(classes):
            for x in members:
                if class_of[x] != i:
                    raise InputError(f"class_of[{x}] disagrees with classes")

    @property
    def size(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class QuotientSemilattice:
    """Meet semilattice structure on the congruence classes, held as two
    read-only k x k arrays, _meet and _leq[a, b], "b <= a" (meet(a, b) = b),
    and _top_down, the classes by how many lie above them, then by index."""

    meet: OpTable

    def __post_init__(self):
        if self.meet.arity != 2:
            raise InputError("meet table must be binary")
        k = self.size
        meet = np.array(self.meet.values, dtype=np.intp).reshape(k, k)
        leq = meet == np.arange(k)
        _read_only(meet, leq)
        top_down = tuple(np.argsort(leq.sum(axis=0), kind="stable").tolist())
        for name, value in {"_meet": meet, "_leq": leq, "_top_down": top_down}.items():
            object.__setattr__(self, name, value)
        if (meet != meet.T).any():
            raise ConsistencyError("meet table is not commutative")
        if not leq.diagonal().all():
            raise ConsistencyError("meet table is not idempotent")
        # so associative iff meet(a, b) is the greatest lower bound (Davey &
        # Priestley, Thm 2.10): it is below a and b, and as many classes are
        # below it as below both, which for b <= a makes <= transitive
        below = leq.astype(np.float32)  # its counts are exact
        lower = leq[np.arange(k)[:, None], meet].all()  # meet(a, b) <= a, so <= b
        if not (lower and (below @ below.T == below.sum(axis=1)[meet]).all()):
            raise ConsistencyError("meet table is not associative")

    @property
    def size(self) -> int:
        return self.meet.size

    def meet_of(self, a: int, b: int) -> int:
        return int(self._meet[a, b])

    def leq(self, sub: int, sup: int) -> bool:
        return bool(self._leq[sup, sub])

    @cached_property
    def uppers(self) -> tuple[tuple[int, ...], ...]:
        """The classes strictly above each class, ascending."""
        strict = self._leq & ~np.eye(self.size, dtype=bool)
        return tuple(tuple(np.flatnonzero(column).tolist()) for column in strict.T)

    def comparable_pairs(self) -> list[tuple[int, int]]:
        """All (upper, lower) pairs with lower <= upper, including equal."""
        return list(zip(*(axis.tolist() for axis in self._leq.nonzero())))

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (upper, lower) with lower < upper and nothing in between."""
        steps = (self._leq & ~np.eye(self.size, dtype=bool)).astype(np.float32)
        # a step from a down to b with no two-step path between them
        return list(zip(*(axis.tolist() for axis in (steps > steps @ steps).nonzero())))


def _band_rows(t: OpTable) -> tuple[tuple[int, ...], ...]:
    """The rows of B(x, y) = t(x, ..., x, y): row x is the m cells from (x, ..., x, 0)."""
    m, step = t.size, sum(_strides(t.size, t.arity)[:-1])
    return tuple(t.values[x * step : x * step + m] for x in range(m))


def associated_band(t: OpTable, verify: bool = True) -> OpTable:
    """Binary table B(x, y) = t(x, ..., x, y)."""
    if verify:
        require_band(t)
    return OpTable(2, t.size, tuple(itertools.chain.from_iterable(_band_rows(t))))


def lambda_table(t: OpTable, verify: bool = True) -> LambdaTable:
    """Translation maps of t, one row per element."""
    if verify:
        require_band(t)
    return LambdaTable(t.size, _band_rows(t))


def check_right_normal(band: OpTable):
    """None if `band` is an idempotent, associative, right normal binary
    operation; otherwise (law, witness) for the first failing law."""
    if band.arity != 2:
        raise InputError("right normality is a binary law")
    m = band.size
    values = band.values
    idem = check_idempotent(band)
    if idem is not None:
        return ("idempotent", idem)
    assoc = check_associative(band)
    if assoc is not None:
        return ("associative", assoc)
    for x, y, z in itertools.product(range(m), repeat=3):
        if values[values[x * m + y] * m + z] != values[values[y * m + x] * m + z]:
            return ("right-normal", (x, y, z))
    return None


def band_sigma_related(band: OpTable, x: int, y: int) -> bool:
    """Least-semilattice-congruence test valid in any band."""
    m = band.size
    v = band.values
    return v[v[x * m + y] * m + x] == x and v[v[y * m + x] * m + y] == y


def right_normal_sigma_related(band: OpTable, x: int, y: int) -> bool:
    """Simplified congruence test, valid when the band is right normal."""
    m = band.size
    v = band.values
    return v[y * m + x] == x and v[x * m + y] == y


def sigma_partition(t: OpTable, verify: bool = True) -> SigmaPartition:
    """Group elements by equal translation rows; least congruence whose
    quotient is a semilattice."""
    return _rows_sigma(lambda_table(t, verify=verify))


def _rows_sigma(lam: LambdaTable) -> SigmaPartition:
    by_row: dict[tuple[int, ...], list[int]] = {}
    for x in range(lam.size):
        by_row.setdefault(lam.rows[x], []).append(x)
    classes = tuple(sorted((tuple(c) for c in by_row.values()), key=lambda c: c[0]))
    class_of = [0] * lam.size
    for i, members in enumerate(classes):
        for x in members:
            class_of[x] = i
    return SigmaPartition(tuple(class_of), classes)


def quotient(t: OpTable, partition: SigmaPartition):
    """Class-level tables (t_quotient, band_quotient, semilattice).

    Each table is read in one gather: a tuple of classes takes the class of
    the cell of their least members, and every cell must fall in the class
    its classes take; else `partition` is not a congruence for t, and the
    first representative-dependent tuple of classes raises ConsistencyError.
    """
    if len(partition.class_of) != t.size:
        raise InputError("partition size does not match table size")
    k, class_of = partition.size, np.asarray(partition.class_of)
    least = np.array([c[0] for c in partition.classes])

    def classwise(table: OpTable) -> OpTable:
        # classes[i]: the number of cell i's tuple of classes; firsts[j]: the
        # cell of the least members of the j-th tuple of classes
        classes, firsts = class_of, least
        for _ in range(table.arity - 1):
            classes = np.add.outer(classes * k, class_of).ravel()
            firsts = np.add.outer(firsts * table.size, least).ravel()
        got = class_of[np.asarray(table.values)]
        out = got[firsts]
        wrong = classes[out[classes] != got]
        if len(wrong):
            cls_args = tuple(map(int, np.unravel_index(wrong.min(), (k,) * table.arity)))
            raise ConsistencyError(f"cell {cls_args} depends on representatives; not a congruence")
        return OpTable(table.arity, k, tuple(out.tolist()))

    t_quotient = classwise(t)
    band_quotient = classwise(associated_band(t, verify=False))
    return t_quotient, band_quotient, QuotientSemilattice(band_quotient)


def classify(t: OpTable, verify: bool = True) -> Classification:
    """Distinguish semilattice extensions (every sigma class a single
    element) from group extensions (one class) from the general case.

    A one-element table is reported as a group extension.
    """
    return _classification(sigma_partition(t, verify=verify).size, t.size)


def _classification(classes: int, size: int) -> Classification:
    """The classification of a band of size elements in that many classes."""
    if classes == 1:
        return Classification.GROUP_EXTENSION
    return Classification.SEMILATTICE_EXTENSION if classes == size else Classification.GENERAL
