"""Reducibility of a symmetric n-ary band to a binary semigroup.

A band is reducible exactly when its classes admit a coherent choice of
neutral elements: one e per class, mapped onto each other by the
connecting homomorphisms.  Choices are only free at maximal classes;
everything below is forced, so the search is a small DFS with forward
checking.  The independent oracle is a forcing search over binary tables.
"""

from dataclasses import dataclass

from .errors import InputError, ResourceError, Violation
from .optable import OpTable, check_associative, check_symmetric, extend, table_to_doc
from .structure import StrongSystem, _compose_system, _powers, require_valid_system

REDUCTION_CANDIDATE_BUDGET = 2**21


@dataclass(frozen=True)
class NeutralSelection:
    """One chosen element per class, indexed by class."""

    by_class: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "by_class", tuple(self.by_class))

    def element_for(self, class_index: int) -> int:
        return self.by_class[class_index]


@dataclass(frozen=True)
class Reduction:
    """A coherent neutral selection and the binary semigroup it induces."""

    selection: NeutralSelection
    table: OpTable

    reducible = True


@dataclass(frozen=True)
class Irreducible:
    """Witness that no coherent selection exists: the lowest class whose
    admissible set emptied, the distinct images forced into it, and the
    (class, chosen element) pairs that forced them."""

    witness_class: int
    conflicting_images: tuple[int, ...]
    sources: tuple[tuple[int, int], ...]

    reducible = False


def build_reduction(system: StrongSystem, selection: NeutralSelection) -> OpTable:
    """Binary table G(x, y): meet the two classes, map both arguments down,
    multiply in the class group re-based at the selected neutral e, where
    x . y = x * y * e^(n-2).  That is the system composed at arity 2
    through the re-based class tables.

    The selection must be coherent (element of each class, preserved by
    every connecting map); violations raise InputError.
    """
    k = system.quotient.size
    chosen = selection.by_class
    if len(chosen) != k:
        raise InputError(f"selection names {len(chosen)} classes, system has {k}")
    for c in range(k):
        if chosen[c] not in system.partition.classes[c]:
            raise InputError(f"selected element {chosen[c]} is not in class {c}")
    sent = system._image[list(chosen)]  # sent[a, b]: the image of chosen[a] in class b
    for a, b in zip(*(system.quotient._leq & (sent != chosen)).nonzero()):
        if a != b:  # the first strict pair in comparable_pairs order
            raise InputError(
                f"selection is not coherent: map ({a}, {b}) sends {chosen[a]} "
                f"to {sent[a, b]}, not {chosen[b]}"
            )
    # x . y walks p -> p * e from p = x * y: each cell starts at (x * y, e)
    layout, cayleys = system._layout, system._cayleys
    cell_class, e = layout.table_class, layout.slot[list(chosen)] - layout.start
    start = layout.offset[cell_class] + cayleys * layout.sizes[cell_class] + e[cell_class]
    return _compose_system(system, 2, _powers(cayleys, layout, start, system.arity - 2))


def decide_reducible(system: StrongSystem, verify: bool = True):
    """Search for a coherent neutral selection; Reduction on success,
    Irreducible with the forced-image conflict otherwise.

    Maximal classes are tried in class order with elements ascending, so
    the reported selection is deterministic; lower classes are forced to
    the intersection of the images of what is already chosen.
    """
    if verify:
        require_valid_system(system)
    k, image, classes = system.quotient.size, system.image, system.partition.classes
    uppers, order = system.quotient.uppers, system.quotient._top_down
    selection: list[int | None] = [None] * k
    failures: dict[int, tuple[set[int], set[tuple[int, int]]]] = {}
    # depth first on an explicit stack: stack[i] holds the untried choices
    # at class order[i], given the classes above it; order[0] is maximal
    stack = [iter(classes[order[0]])]
    while stack:
        e = next(stack[-1], None)
        if e is None:
            stack.pop()
            continue
        selection[order[len(stack) - 1]] = e
        if len(stack) == k:
            chosen = NeutralSelection(tuple(selection))
            return Reduction(chosen, build_reduction(system, chosen))
        c = order[len(stack)]  # every member if maximal, else the one image forced
        images = {image[selection[d] * k + c] for d in uppers[c]}
        if len(images) > 1:
            bucket = failures.setdefault(c, (set(), set()))
            bucket[0].update(images)
            bucket[1].update((d, selection[d]) for d in uppers[c])
            images = set()
        stack.append(iter(images if uppers[c] else classes[c]))
    witness = min(failures)
    images, sources = failures[witness]
    return Irreducible(witness, tuple(sorted(images)), tuple(sorted(sources)))


def verify_reduction(t: OpTable, reduction: OpTable) -> list[Violation]:
    """All the ways reduction fails to reduce t: the extension must equal t
    cell for cell, and the binary table must be associative, symmetric,
    and surjective.  Empty report means it is a reduction."""
    if reduction.arity != 2:
        raise InputError("a reduction must be a binary table")
    if reduction.size != t.size:
        raise InputError(
            f"size mismatch: table has {t.size} elements, candidate has {reduction.size}"
        )
    out = []
    sym = check_symmetric(reduction)
    if sym is not None:
        out.append(Violation("symmetric", f"not symmetric: {sym.args} vs {sym.swapped}"))
    assoc = check_associative(reduction)
    if assoc is not None:
        out.append(Violation("associative", f"not associative at {assoc.args}"))
    if set(reduction.values) != set(range(t.size)):
        out.append(Violation("surjective", "binary table is not surjective"))
    if extend(reduction, t.arity - 1).values != t.values:
        out.append(Violation("extension", "extension does not reproduce the table"))
    return out


def brute_force_reductions(t: OpTable, symmetric_only: bool = True) -> list[OpTable]:
    """Every associative binary table G whose (arity-1)-fold extension is t,
    sorted by values; symmetric G only unless symmetric_only is False (any
    reduction of a symmetric band is symmetric).  Backtracking over G's
    cells, forcing to a fixpoint: once v = G(s1, G(s2, ...)) is known for an
    (arity-1)-suffix s, the row G(., v) must equal t(., s).  Each value tried
    at a free cell is a node; ResourceError past REDUCTION_CANDIDATE_BUDGET
    nodes, or up front when one forcing pass (m^(arity-1) suffixes) is
    larger.  Shares no code with the structure theory."""
    m, n, budget = t.size, t.arity, REDUCTION_CANDIDATE_BUDGET
    width = m ** (n - 1)
    if width > budget:
        raise ResourceError(
            f"one forcing pass over {m}**{n - 1} = {width} suffixes exceeds the budget {budget}"
        )
    values, cells = t.values, m * m
    twin = [(i % m) * m + i // m if symmetric_only else i for i in range(cells)]

    def force(g: list, pending: list) -> list | None:
        # fill g with every cell the known suffix values imply; the suffixes
        # whose value is still unknown, or None on a clash
        while True:
            rest, changed = [], False
            for code in pending:
                high, u = divmod(code, m)
                for _ in range(n - 2):
                    high, a = divmod(high, m)
                    u = g[a * m + u]
                    if u is None:
                        rest.append(code)
                        break
                else:
                    for i, v in zip(range(u, cells, m), values[code::width]):
                        if g[i] is None:
                            g[i] = g[twin[i]] = v
                            changed = True
                        elif g[i] != v:
                            return None
            if not changed:
                return rest
            pending = rest

    out = []
    stack = [([None] * cells, list(range(width)))]
    nodes = 0
    while stack:
        g, pending = stack.pop()
        pending = force(g, pending)
        if pending is None:
            continue
        cell = next((i for i in range(cells) if g[i] is None), None)
        if cell is None:
            out.append(OpTable(2, m, tuple(g)))
            continue
        for v in range(m):
            nodes += 1
            if nodes > budget:
                raise ResourceError(f"reduction search passed the budget of {budget} nodes")
            h = g.copy()
            h[cell] = h[twin[cell]] = v
            stack.append((h, pending))
    return sorted((g for g in out if check_associative(g) is None), key=lambda g: g.values)


def reduction_result_to_doc(result, labels=None) -> dict:
    """JSON-ready document for either outcome of decide_reducible."""
    if isinstance(result, Reduction):
        return {
            "reducible": True,
            "selection": {
                str(c): e for c, e in enumerate(result.selection.by_class)
            },
            "table": table_to_doc(result.table, labels),
        }
    if isinstance(result, Irreducible):
        return {
            "reducible": False,
            "witness": {
                "class": result.witness_class,
                "images": list(result.conflicting_images),
                "sources": [list(pair) for pair in result.sources],
            },
        }
    raise InputError(f"not a reduction result: {result!r}")
