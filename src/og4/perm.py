"""Finite permutation groups by exhaustive enumeration.

Everything here works at "desk scale": structural questions are answered
from a group's element table (int32 image rows, sorted lexicographically)
or from the element indices of that table.  Point stabilisers and element
orders are read from the table: a tuple's stabiliser is the rows that fix
it, and an element's powers are gathers of its row.  Orbits of points are
the components of a generating set's rows.

A group is built from generators by a stabiliser chain
(``_kernels.close_under_products``) on its ascending base: b1 is the least
point the group moves, and each next base point is the least point moved by
the pointwise stabiliser of the ones before.  Two distinct elements first
differ at a base point, so sorting by the few base columns is sorting
lexicographically, and the chain gathers its rows in that order directly.
The table is gathered on demand, the first time something reads it; until
then the chain answers the order, transitivity and the stabiliser of the
first base point, which is all that certifying and analysing a pair needs.
A table over the byte budget ``_kernels.TABLE_BYTES`` is refused
(``TableBudgetExceeded``) before it is allocated.  A caller that has proved
an upper bound on the order passes it to ``enumerate_group``: the chain is
then closed when the product of its orbit sizes reaches the bound, with no
Schreier check; if it does not reach it within ``_kernels.RANDOM_ELEMENTS``
random elements, the same builder checks the levels they made.
The byte-keyed breadth-first closure and full-width lexsort the chain
replaced, and the table reads it answers instead, are kept in
``tests/oracles.py`` and compared with it.

Each group has one element index, ``PermGroup.index``: the images of the
ascending base of every row, folded into keys that come out sorted
(``BaseKeys``).  Membership tests, products, cosets, automorphisms and
generating sets all go through it.

A subgroup found inside a group (a stabilizer, a normal subgroup, a kernel)
is held as a boolean mask over the parent's element indices.  Its table, the
slice of the parent's sorted table at the mask, is gathered only when read;
a normal subgroup reads its orbits from the parent's (``_orbit_labels``).
Its canonical generating set is derived only when something reads
``generators``.  Closures, conjugacy classes and normality tests work on
element indices: multiplying or conjugating every element by a generator is
a gather of the base columns and one batch lookup, multiplying by any other
element composes the generators' maps along its word in a search tree
(``_word_map``), and a subgroup being built is a boolean mask.  The
normal-subgroup lattice works on conjugacy classes: a normal subgroup is the
set of classes it is the union of, closed under the class products
(``_class_lattice``).

They run in the group's small faithful action when it has one (``action``,
a group whose generators are paired one for one with the group's; see
``_lattice``), and in the group itself otherwise.  The small action's table
is put in the group's element order once, so masks, element indices and
every "(order, element indices)" tie-break are those of the group's own
table, which is never gathered for them.  A block action's kernel reads
each element's images of the blocks' representatives along the element
search (``_images``, ``_point_images``), not from the table: the Schreier
tree of the identity under the generators' right multiplications, a
stabiliser-chain level with no jumps (``_search_tree``).  The same tree,
with every edge of the Cayley graph checked (``_edges_hold``), proves that
a pairing of generators extends to a homomorphism: the small action's
(``_paired_images``, which ``paired_order_bound`` uses to bound a group's
order before it is enumerated) and an automorphism's.

Points are 0-based internally; the cycle-notation parser/printer is 1-based.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import _kernels
from ._kernels import InvariantViolation, OG4Error, TableBudgetExceeded

DEFAULT_CAP = 1_000_000
DEFAULT_NORMAL_SUBGROUP_LIMIT = 10_000


class DegreeMismatch(OG4Error):
    pass


class EnumerationCapExceeded(OG4Error):
    def __init__(self, cap: int):
        super().__init__(f"group enumeration exceeded the element cap of {cap}")
        self.cap = cap


class ParseError(OG4Error):
    pass


# ---------------------------------------------------------------------------
# permutations


class Permutation:
    """A bijection on {0..n-1}, stored as an image row."""

    __slots__ = ("images",)

    def __init__(self, images):
        arr = np.asarray(images, dtype=np.int32)
        if arr.ndim != 1 or arr.size < 1:
            raise OG4Error("a permutation needs at least one point")
        hit = np.zeros(arr.size, dtype=bool)
        try:
            hit[arr.view(np.uint32)] = True  # as uint32, a negative point is past the degree
        except IndexError:  # a point past the degree: fewer than arr.size points are hit
            pass
        if np.count_nonzero(hit) < arr.size:
            raise OG4Error(f"not a bijection on 0..{arr.size - 1}: {arr.tolist()}")
        arr.setflags(write=False)
        object.__setattr__(self, "images", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return self.images.size

    def apply(self, x: int) -> int:
        return int(self.images[x])

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.images)
        inv[self.images] = np.arange(self.degree, dtype=np.int32)
        return Permutation(inv)

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.images, np.arange(self.degree)))

    def order(self) -> int:
        return int(_element_orders(self.images[None, :])[0])

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.images, other.images)

    def __hash__(self) -> int:
        return hash(self.images.tobytes())

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"


def identity(degree: int) -> Permutation:
    return Permutation(np.arange(degree, dtype=np.int32))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p then q: x -> (x^p)^q."""
    if p.degree != q.degree:
        raise DegreeMismatch(f"degrees differ: {p.degree} vs {q.degree}")
    return Permutation(q.images[p.images])


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


def conjugate(p: Permutation, by: Permutation) -> Permutation:
    """p^by = by^-1 * p * by."""
    return compose(compose(by.inverse(), p), by)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, degree: Optional[int] = None) -> Permutation:
    """Parse 1-based cycle notation, e.g. "(1 2 3)(4 5)" or "(1,2,3)".

    Fixed points may be omitted; "()" is the identity.  If ``degree`` is not
    given it is inferred from the largest point mentioned.

    The text is split into cycles and points by string methods, and the
    checks are array operations; each reports the fault that a scan cycle by
    cycle meets first: a bad point or a point repeated inside a cycle, then
    a point past the degree, then a point in two cycles.
    """
    if not text.strip():
        raise ParseError("empty permutation text")
    if _CYCLE_RE.sub("", text).strip():
        raise ParseError(f"malformed cycle notation: {text!r}")
    cycles = _CYCLE_RE.findall(text.replace(",", " "))
    tokens = " ".join(cycles).split()
    sizes = np.fromiter(map(len, map(str.split, cycles)), np.int64, len(cycles))
    cycle = np.repeat(np.arange(len(cycles)), sizes)  # each point's cycle
    decimal = np.fromiter(map(str.isdecimal, tokens), bool, len(tokens))
    digits = tokens if decimal.all() else np.where(decimal, tokens, "0").tolist()
    try:
        try:
            values = np.fromiter(map(int, digits), np.int64, len(digits))
        except OverflowError:  # a point past 2^63, compared as a Python int
            values = np.array(list(map(int, digits)), dtype=object)
    except ValueError:  # a point past int's 4300-digit string limit
        raise ParseError(f"point with too many digits in {text!r}") from None
    bad = np.flatnonzero(~decimal | (values < 1))
    by_cycle = np.argsort(values, kind="stable")
    by_cycle = by_cycle[np.argsort(cycle[by_cycle], kind="stable")]  # by (cycle, value)
    v, c = values[by_cycle], cycle[by_cycle]
    repeats = c[1:][(v[1:] == v[:-1]) & (c[1:] == c[:-1])]  # cycles repeating a point
    if bad.size and not (repeats.size and repeats[0] < cycle[bad[0]]):
        raise ParseError(f"bad point {tokens[bad[0]]!r} in {text!r}")
    if repeats.size:
        raise ParseError(f"repeated point inside a cycle: {text!r}")
    maxpt = int(values.max()) if values.size else 0
    if degree is None:
        degree = max(maxpt, 1)
    elif maxpt > degree:
        raise ParseError(f"point {maxpt} exceeds degree {degree}")
    _kernels.check_table_bytes(1, degree)
    images = np.arange(degree, dtype=np.int32)
    moved = (sizes > 1)[cycle]
    points, cycle = values[moved] - 1, cycle[moved]
    if points.size:
        order = np.argsort(points, kind="stable")
        again = np.zeros(points.size, dtype=bool)  # a point met before, in scan order
        again[order[1:]] = points[order[1:]] == points[order[:-1]]
        if again.any():
            raise ParseError(f"point {points[np.argmax(again)] + 1} appears in two cycles: {text!r}")
        last = np.flatnonzero(np.append(cycle[1:] != cycle[:-1], True))
        succ = np.arange(1, points.size + 1)
        succ[last] = np.append(0, last[:-1] + 1)  # the last point of a cycle maps to its first
        images[points] = points[succ]
    return Permutation(images)


def format_cycles(p: Permutation) -> str:
    """Inverse of parse_permutation: 1-based cycles, fixed points omitted."""
    return cycle_strings(p.images[None, :])[0]


def cycle_strings(rows: np.ndarray) -> list[str]:
    """``format_cycles`` of each image row of a block, read as Python lists:
    each cycle is written from its least point."""
    names = [str(v + 1) for v in range(rows.shape[1])]
    out = []
    for row in rows.tolist():
        seen = bytearray(len(row))
        parts = []
        for start, nxt in enumerate(row):
            if nxt == start or seen[start]:
                continue
            cyc = [names[start]]
            while nxt != start:
                seen[nxt] = 1
                cyc.append(names[nxt])
                nxt = row[nxt]
            parts.append("(" + " ".join(cyc) + ")")
        out.append("".join(parts) or "()")
    return out


# ---------------------------------------------------------------------------
# groups


class PermGroup:
    """A permutation group, given by its element table, by a verified
    stabiliser chain that gathers the table on demand, or as a mask over a
    parent group's element indices.

    ``table`` holds every element as an image row, sorted lexicographically
    (equivalently, by the columns of the ascending base); that ordering is
    the canonical element indexing used for all tie-breaks.  A group made
    with a ``chain`` gathers the table the first time it is read and then
    drops the chain; until then ``order``, ``base``, single rows and
    ``point_stabilizer`` of the first base point come from the chain.  A
    group made with a ``parent`` and a ``mask`` gathers the parent's rows at
    the mask when its table is read; with ``normal`` it is a normal subgroup
    of the parent, whose orbits are read from the parent's.  With
    ``generators=None`` a greedy generating
    set is derived from the table on first read.  ``index`` (a
    ``BaseKeys``) is the group's one element index, built on first use.

    ``action``, if set, is the group in a faithful action on few points, a
    group whose generators are paired one for one with ``generators``.  The
    lattice machinery runs in it (``_lattice``).
    """

    def __init__(
        self,
        degree: int,
        generators: Optional[Sequence[Permutation]],
        table: Optional[np.ndarray] = None,
        chain: Optional[_kernels.StabiliserChain] = None,
        parent: Optional["PermGroup"] = None,
        mask: Optional[np.ndarray] = None,
        normal: bool = False,
    ):
        self.degree = degree
        self._generators = None if generators is None else tuple(generators)
        self._chain = chain
        self._parent, self._mask, self._normal = parent, mask, normal
        self._table: Optional[np.ndarray] = None
        if table is not None:
            self._table = _read_only(table)
            self.order = table.shape[0]
        else:
            self.order = chain.order if chain is not None else int(np.count_nonzero(mask))
        self.action: Optional[PermGroup] = None
        self._lattice: Optional[PermGroup] = None
        self._index: Optional[BaseKeys] = None
        self._conjugation: Optional[list[np.ndarray]] = None
        self._classes: Optional[list[np.ndarray]] = None
        self._class_lattice: Optional[tuple] = None
        self._tree: Optional[_kernels._Level] = None
        self._left: Optional[list[np.ndarray]] = None
        self._columns: dict[int, np.ndarray] = {}

    @property
    def generators(self) -> tuple[Permutation, ...]:
        """Given generators, or the greedy set: each element in table order
        that the ones before it do not generate."""
        if self._generators is None:
            _, kept = _generate_in_parent(self, range(self.order))
            self._generators = tuple(self.element(i) for i in kept) or (identity(self.degree),)
        return self._generators

    @property
    def table(self) -> np.ndarray:
        if self._table is None:
            if self._chain is not None:
                self._table = _read_only(self._chain.table())
                self._chain = None  # frees the chain's trees, keys and level table
            elif self._mask.all():
                self._table = self._parent.table
            else:
                self._table = _read_only(self._parent.table[self._mask])
        return self._table

    @property
    def base(self) -> list[int]:
        """The ascending base (``_kernels.ascending_base``)."""
        return self._chain.base if self._chain is not None else self.index.base

    # -- element access ----------------------------------------------------

    @property
    def index(self) -> "BaseKeys":
        if self._index is None:
            self._index = BaseKeys(self.table)
        return self._index

    def row(self, i: int) -> np.ndarray:
        """Element i's image row; a group held as its chain gathers it alone."""
        if self._table is None and self._chain is not None:
            return self._chain.row(i)
        return self.table[i]

    def element(self, i: int) -> Permutation:
        return Permutation(self.row(i))

    def elements(self) -> list[Permutation]:
        return [self.element(i) for i in range(self.order)]

    def index_of(self, p: Permutation) -> int:
        idx = self.index.indices_of(p.images[None, :])
        if idx is None:
            raise OG4Error("element not in group")
        return int(idx[0])

    def __contains__(self, p: Permutation) -> bool:
        return bool(self.index.members(p.images[None, :])[0])

    @property
    def identity_index(self) -> int:
        # the identity is the lexicographically least permutation
        return 0

    def gen_rows(self) -> np.ndarray:
        return np.asarray([g.images for g in self.generators], dtype=np.int32)

    def same_elements(self, other: "PermGroup") -> bool:
        if self._parent is not None and self._parent is other._parent:
            return np.array_equal(self._mask, other._mask)
        return self.order == other.order and np.array_equal(self.table, other.table)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def _read_only(table: np.ndarray) -> np.ndarray:
    table = np.ascontiguousarray(table, dtype=np.int32)
    table.setflags(write=False)
    return table


class BaseKeys(_kernels.SortedKeys):
    """Batch element lookup in a sorted table by images of its base.

    An element is fixed by its images of a base.  With the ascending base
    (``_kernels.ascending_base``, read off a few rows of the sorted table)
    the table is sorted by those images, so the folded keys of its rows
    come out ascending and an element's index is the position of its key.

    ``lookup`` is exact only for rows known to lie in the group (products
    and conjugates of members); ``find``, ``members`` and ``indices_of``
    also check the full rows.
    """

    def __init__(self, table: np.ndarray):
        self.table = table
        self.base = _kernels.ascending_base(table)
        self.images = table[:, self.base]  # (order, len(base))
        super().__init__(self.images, table.shape[1])

    def lookup(self, base_images: np.ndarray) -> np.ndarray:
        """Element indices of rows with the given (m, len(base)) base images."""
        return self.positions(base_images)

    def find(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(indices, found): each row's base images are looked up once, and
        the element found is compared with the row in full, in blocks of
        about 2^16 entries; ``found`` says where they are equal.  Rows of
        another degree are no members."""
        idx = np.zeros(rows.shape[0], dtype=np.intp)
        found = np.zeros(rows.shape[0], dtype=bool)
        if rows.shape[1] != self.degree:
            return idx, found
        step = max(1, (1 << 16) // rows.shape[1])
        for lo in range(0, rows.shape[0], step):
            block = rows[lo:lo + step]
            idx[lo:lo + step] = self.lookup(block[:, self.base])
            found[lo:lo + step] = (self.table[idx[lo:lo + step]] == block).all(axis=1)
        return idx, found

    def members(self, rows: np.ndarray) -> np.ndarray:
        """Whether each row is an element."""
        return self.find(rows)[1]

    def indices_of(self, rows: np.ndarray) -> Optional[np.ndarray]:
        """Element indices of arbitrary rows, or None if one is not a member.
        Rows in table order (a sorted subgroup table) get sorted indices."""
        idx, found = self.find(rows)
        return idx if found.all() else None


class _ReorderedKeys(BaseKeys):
    """Sorted ``BaseKeys`` whose rows are then put in another order: row i
    is sorted row ``order[i]``, and lookups give positions in the new order.
    The base and folded keys are the sorted index's own."""

    def __init__(self, keys: BaseKeys, order: np.ndarray):
        self.degree, self.ranks, self.keys = keys.degree, keys.ranks, keys.keys
        self.base = keys.base
        self.rank = np.empty_like(order)
        self.rank[order] = np.arange(order.size)
        self.table = _read_only(keys.table[order])
        self.images = self.table[:, self.base]

    def lookup(self, base_images: np.ndarray) -> np.ndarray:
        return self.rank[super().lookup(base_images)]


def enumerate_group(generators: Sequence[Permutation], cap: int = DEFAULT_CAP,
                    order: Optional[int] = None) -> PermGroup:
    """The group the generators generate, held as its stabiliser chain until
    its table is read; raises if the chain's orbits show more than ``cap``
    elements, before any of its transversal is gathered.

    ``order`` is an upper bound on the group's order that the caller has
    proved.  The chain is then closed once the product of its orbit sizes
    reaches it, with no Schreier check; if ``_kernels.RANDOM_ELEMENTS``
    random elements do not reach it, the levels they made are checked, and
    a bound over ``cap`` is not used.  A product above it raises
    ``InvariantViolation``."""
    gens = list(generators)
    if not gens:
        raise OG4Error("generator list must be nonempty")
    degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatch("generators have mixed degrees")
    chain = _kernels.close_under_products(np.asarray([g.images for g in gens]), cap, order)
    if chain is None:
        raise EnumerationCapExceeded(cap)
    return PermGroup(degree, gens, chain=chain)


def _subgroup(parent: PermGroup, mask: np.ndarray, normal: bool = False) -> PermGroup:
    """The subgroup at a boolean mask over ``parent``'s element indices.  Its
    table, when read, is the sorted selection of the parent's sorted table,
    and the whole group shares the parent's (read-only) table.  ``normal``
    states that it is normal in ``parent``; its orbits are then read from
    the parent's (``_normal_orbit_labels``)."""
    return PermGroup(parent.degree, None, parent=parent, mask=mask, normal=normal)


# ---------------------------------------------------------------------------
# partitions and orbits


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint nonempty blocks covering {0..n-1}, sorted by least element."""

    blocks: tuple[tuple[int, ...], ...]
    point_block: np.ndarray  # point -> block index

    @staticmethod
    def from_labels(labels: np.ndarray) -> "BlockPartition":
        """The blocks of equal labels (``_kernels.label_partition``)."""
        return BlockPartition(*_kernels.label_partition(labels))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> list[int]:
        return [len(b) for b in self.blocks]


def _orbit_labels(group: PermGroup) -> np.ndarray:
    """Each point's least orbit point: from the parent's orbits for a normal
    subgroup held as a mask (``_normal_orbit_labels``), from the generators'
    rows otherwise."""
    if group._normal:
        return _normal_orbit_labels(group._parent, group._mask)
    return _kernels.point_orbit_labels(group.gen_rows())


def _normal_orbit_labels(parent: PermGroup, mask: np.ndarray) -> np.ndarray:
    """Each point's least orbit point under the normal subgroup N of
    ``parent`` at ``mask``.

    The N-orbits form a block system of G = ``parent``: the image of an
    N-orbit under g is an N-orbit, (p^N)^g = (p^g)^N.  So in each G-orbit,
    with least point p, the N-orbit of p is read from every element's image
    of p (``_point_images``) at N's mask, and every other N-orbit of that
    G-orbit is found as an image of one already found under G's generators,
    round by round.  No generating set of N is needed."""
    rows = parent.gen_rows()
    out = np.where((rows == np.arange(parent.degree)).all(axis=0), np.arange(parent.degree), -1)
    while (out < 0).any():
        p = int(np.argmax(out < 0))  # the least point of a G-orbit not yet labelled
        n_orbit = np.zeros(parent.degree, dtype=bool)
        n_orbit[_point_images(parent, [p])[mask, 0]] = True
        _kernels.label_blocks(rows, np.flatnonzero(n_orbit), out)
    return out


def orbits(group: PermGroup) -> BlockPartition:
    """The group's orbits on points (``_orbit_labels``)."""
    return BlockPartition.from_labels(_orbit_labels(group))


@dataclass(frozen=True)
class TransitivityProfile:
    transitive: bool
    semiregular: bool
    regular: bool
    orbit_count: int


def transitivity_profile(group: PermGroup) -> TransitivityProfile:
    """Orbits and regularity, from the group's orbits (``_orbit_labels``).
    The group is semiregular when every point stabiliser is trivial, that
    is when every orbit has |G| points (orbit-stabiliser)."""
    labels = _orbit_labels(group)
    sizes = np.bincount(labels, minlength=group.degree)
    sizes = sizes[labels == np.arange(group.degree)]  # at the least point of each orbit
    transitive = sizes.size == 1
    semiregular = bool((sizes == group.order).all())
    return TransitivityProfile(
        transitive=transitive,
        semiregular=semiregular,
        regular=transitive and semiregular,
        orbit_count=sizes.size,
    )


def _element_orders(table: np.ndarray) -> np.ndarray:
    """Order of each row of a group table: every row not yet the identity
    is raised to its next power by one gather, ``p^(k+1) = p[p^k]``."""
    orders = np.zeros(table.shape[0], dtype=np.int64)
    rows, power, k = np.arange(table.shape[0]), table, 1
    while rows.size:
        done = (power == np.arange(table.shape[1])).all(axis=1)
        orders[rows[done]] = k
        rows, power, k = rows[~done], power[~done], k + 1
        power = np.take_along_axis(table[rows], power, axis=1)
    return orders


def _is_abelian(group: PermGroup) -> bool:
    """Whether the generators commute: ``rows[:, rows][i, j]`` applies
    generator j, then i."""
    rows = group.gen_rows()
    products = rows[:, rows]
    return bool((products == products.transpose(1, 0, 2)).all())


def point_stabilizer(group: PermGroup, x: int) -> PermGroup:
    """The rows fixing x.  For the first base point of a group held as a
    chain, that is the verified table below the chain's top level, already
    sorted."""
    if not 0 <= x < group.degree:
        raise OG4Error(f"point {x} out of range for degree {group.degree}")
    chain = group._chain
    if chain is not None and chain.base[:1] == [x]:
        return PermGroup(group.degree, None, chain.first_stabiliser())
    return _subgroup(group, group.table[:, x] == x)


# ---------------------------------------------------------------------------
# normal-subgroup machinery, in the index space of the parent's table


def right_mult_map(group: PermGroup, s: int) -> np.ndarray:
    """x -> x * s over the whole table, as element indices."""
    keys = group.index
    return keys.lookup(group.table[s][keys.images])


def left_mult_map(group: PermGroup, s: int) -> np.ndarray:
    """x -> s * x over the whole table, as element indices."""
    keys = group.index
    return keys.lookup(group.table[:, group.table[s][keys.base]])


def _right_mult_map(group: PermGroup, s: int) -> np.ndarray:
    """``right_mult_map``.  A group that asks only for its generators' maps
    looks them up and builds no search tree; any other map is composed along
    s's word (``_word_map``).  Nothing is cached."""
    gens = group._generators
    if group._tree is None and (
            gens is None or any(np.array_equal(group.row(s), g.images) for g in gens)):
        return right_mult_map(group, s)
    return _word_map(group, s)


def _word_map(group: PermGroup, s: int, points: Optional[np.ndarray] = None,
              left: bool = False) -> np.ndarray:
    """x -> x * s, or x -> s * x if ``left``, at the points (every element
    by default), with no lookup.  For s = g_j1 ... g_jd, its word in the
    search tree, that is the generators' right maps composed from g_j1 on,
    or their left maps (looked up on first use, ``_left``) from g_jd on."""
    tree = _search_tree(group)
    if left and group._left is None:
        group._left = [left_mult_map(group, group.index_of(g)) for g in group.generators]
    word = tree._path(tree.where[s])
    maps, word = (group._left, word[::-1]) if left else (tree.gens, word)
    m = points
    for j in word:
        m = maps[j] if m is None else maps[j][m]
    return np.arange(group.order) if m is None else m


def _conjugation_maps(group: PermGroup) -> list[np.ndarray]:
    """x -> g^-1 x g over the whole table, one index map per generator g."""
    if group._conjugation is None:
        keys = group.index
        group._conjugation = [
            keys.lookup(g.images[group.table[:, g.inverse().images[keys.base]]])
            for g in group.generators
        ]
    return group._conjugation


def _lattice(group: PermGroup) -> PermGroup:
    """The group whose element indices the lattice masks run over: the group
    itself, or for a group with an ``action``, that action's table with its
    rows in the group's element order (``_faithful_table``)."""
    if group._lattice is None:
        group._lattice = group if group.action is None else _faithful_table(group)
    return group._lattice


def _faithful_table(group: PermGroup) -> PermGroup:
    """The group's small action S, as a group whose element i is the group's
    element i.

    Generator j of S is paired with generator j of the group.  ``_images``
    gives every element of S the images of the group's ascending base under
    the product of the paired generators along its search path.  Every edge
    x -> x * s_j of S's Cayley graph is then checked: the images at x * s_j
    must be row j applied after those at x.  An element of the group is
    fixed by its base images, so the pairing extends to a homomorphism from
    S onto the group (Holt, Eick and O'Brien, *Handbook of Computational
    Group Theory*, ch. 4, on action homomorphisms).  With |S| = |G| it is an
    isomorphism, and sorting S by those base images puts it in the order of
    the group's table, which is sorted by them.  Anything else raises
    ``InvariantViolation``."""
    small = group.action
    if len(small.generators) != len(group.generators):
        raise InvariantViolation("the small action does not pair its generators with the group's")
    if small.order != group.order:
        raise InvariantViolation(
            f"the small action has order {small.order}, the group {group.order}")
    images = _paired_images(small, group.gen_rows(), group.base)
    if images is None:
        raise InvariantViolation("the paired generators do not define a homomorphism")
    order = np.lexsort(images.T[::-1])
    keys = _ReorderedKeys(small.index, order)
    lattice = PermGroup(small.degree, small.generators, keys.table)
    lattice._index = keys
    # S's search and its base images, in the new order
    lattice._tree = _search_tree(small).renumbered(order, keys.rank)
    lattice._columns = dict(zip(group.base, images[order].T))
    return lattice


def _paired_images(small: PermGroup, rows: np.ndarray,
                   points: Sequence[int]) -> Optional[np.ndarray]:
    """``_images`` of the points, generator j of ``small`` paired with
    ``rows[j]``, once every edge x -> x * s_j of S's Cayley graph is checked
    (``_edges_hold``); None if one fails.

    If every edge holds, a word w in the generators carries the images at x
    to those at x * w, inverses included; so a relator of S fixes the images
    of the points under every element (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, ch. 4, on action homomorphisms)."""
    tree = _search_tree(small)
    images = _images(tree, rows, points)
    return images if _edges_hold(images, tree.gens, rows) else None


def _edges_hold(images: np.ndarray, maps: Iterable[np.ndarray],
                rows: Iterable[np.ndarray]) -> bool:
    """Whether every edge x -> x * s_j of a Cayley graph, ``maps[j]``,
    carries the images at x to ``rows[j]`` applied after them.  ``maps``
    and ``rows`` may be iterators, read in step."""
    return all(np.array_equal(images[m], row[images]) for m, row in zip(maps, rows))


def paired_order_bound(small: PermGroup, gens: Sequence[Permutation]) -> Optional[int]:
    """|S| if pairing S's generators one for one with ``gens`` (of one
    degree) proves that they generate a group X of at most |S| elements;
    None if it does not.

    The proof is ``_paired_images`` of point 0 and one more fact: those
    images cover every point.  Then every relator of S fixes every point,
    so the pairing extends to a homomorphism from S onto X, and |X| <= |S|.
    It costs |S| * k comparisons for k generators and never reads a row of X
    beyond its generators."""
    if len(small.generators) != len(gens):
        return None
    rows = np.asarray([g.images for g in gens])
    images = _paired_images(small, rows, [0])
    if images is None or not np.bincount(images[:, 0], minlength=rows.shape[1]).all():
        return None
    return small.order


def _search_tree(group: PermGroup) -> _kernels._Level:
    """The group's element search, built on first use and cached: the
    Schreier tree (``_kernels._Level``) of the identity under the
    generators' right maps x -> x * g_j, which are intp, since a gather by
    an int32 index array converts it first."""
    if group._tree is None:
        tree = _kernels._Level(group.identity_index, _right_maps(group, group.generators))
        if tree.orbit.size < group.order:  # a word would be missing, and its map would be wrong
            raise InvariantViolation("the generators do not generate the group")
        group._tree = tree
    return group._tree


def _right_maps(group: PermGroup, elements: Sequence[Permutation]) -> np.ndarray:
    """(len(elements), order): row j is x -> x * elements[j], looked up."""
    return np.array([right_mult_map(group, group.index_of(e)) for e in elements],
                    dtype=np.intp).reshape(len(elements), group.order)


def _images(tree: _kernels._Level, rows: np.ndarray, points: Sequence[int]) -> np.ndarray:
    """(order, len(points)): row x holds the images of the points under the
    product of ``rows`` along the path to element x in the element search
    ``tree`` (its ``columns``, with edge j read as ``rows[j]``).  Where the
    pairing extends to a homomorphism, that is the image of x, whatever
    the path."""
    paired = copy.copy(tree)
    paired.tree = rows
    return paired.columns(np.asarray(points))[tree.where]


def _point_images(group: PermGroup, points: Sequence[int]) -> np.ndarray:
    """(order, len(points)): every element's images of the points, in the
    lattice's element order (``_images`` with the group's generators); each
    point's column is cached on the lattice group, so the quotients of one
    lattice search once per point."""
    lattice = _lattice(group)
    columns = lattice._columns
    new = [int(p) for p in points if int(p) not in columns]
    if new:
        columns.update(zip(new, _images(_search_tree(lattice), group.gen_rows(), new).T))
    return np.stack([columns[int(p)] for p in points], axis=1)


def _grow(group: PermGroup, mask: np.ndarray, gens: list[int], seeds: Iterable[int]) -> None:
    """Extend the subgroup at ``mask`` by the seeds, in place.

    ``mask`` must be N<gens> for a normal subgroup N of ``group`` (the
    trivial one to begin with), which is a subgroup; it stays so.  A seed
    already in the mask is skipped.  Any other is appended to ``gens``; the
    old members times the seed form the first new coset, and each new
    frontier is multiplied on the right by every generator until nothing
    new turns up.  A kept generator's map is composed from the group's
    generators' maps along its word (``_right_mult_map``), not looked up,
    and held only while the mask grows.
    """
    maps = [_right_mult_map(group, g) for g in gens]
    for s in seeds:
        s = int(s)
        if mask[s]:
            continue
        gens.append(s)
        maps.append(_right_mult_map(group, s))
        new = np.zeros_like(mask)
        new[maps[-1][np.flatnonzero(mask)]] = True
        while new.any():
            mask |= new
            frontier = np.flatnonzero(new)
            new[:] = False
            for m in maps:
                new[m[frontier]] = True
            new &= ~mask


def _generate_in_parent(
    parent: PermGroup, seed_indices: Iterable[int]
) -> tuple[np.ndarray, list[int]]:
    """Subgroup generated by the given parent elements, as a mask over the
    parent's table, and the seeds that were kept as its generators."""
    mask, gens = np.arange(parent.order) == parent.identity_index, []
    _grow(parent, mask, gens, seed_indices)
    return mask, gens


def normal_closure(group: PermGroup, seeds: Iterable[Permutation]) -> PermGroup:
    """Least normal subgroup of ``group`` containing the seeds."""
    seed_idx = sorted({group.index_of(s) for s in seeds})
    return _subgroup(group, _normal_closure_mask(_lattice(group), seed_idx)[0], normal=True)


def _normal_closure_mask(group: PermGroup, seed_idx: Iterable[int]) -> tuple[np.ndarray, list[int]]:
    """Grow <seeds> by the conjugates of each kept generator until they all
    lie inside: then every generator's conjugates do, so it is normal.
    Returns the mask and the kept seeds, which generate it."""
    mask, gens = _generate_in_parent(group, seed_idx)
    conj = _conjugation_maps(group)
    checked = 0
    while checked < len(gens):
        new = np.asarray(gens[checked:])
        checked = len(gens)
        _grow(group, mask, gens, np.concatenate([c[new] for c in conj]))
    return mask, gens


def conjugacy_classes(group: PermGroup) -> list[np.ndarray]:
    """Classes as sorted index arrays, ordered by least element index.

    The classes are the connected components of the generators' conjugation
    maps, each labelled by its least index (``_kernels.component_labels``).
    """
    lattice = _lattice(group)
    if lattice._classes is None:
        labels = _kernels.component_labels(_conjugation_maps(lattice), lattice.order)
        by_label = np.argsort(labels, kind="stable")
        cuts = np.flatnonzero(np.diff(labels[by_label])) + 1
        lattice._classes = np.split(by_label, cuts)
    return lattice._classes


def _class_lattice(lattice: PermGroup) -> tuple[np.ndarray, list, np.ndarray]:
    """(each element's class, class products, atoms), classes numbered as
    ``conjugacy_classes`` lists them; a class set is a bool vector over them,
    and the atoms are a row each.

    Each class of C_i * C_j meets C_j * r_i for any r_i in C_i: c * y with
    c = r_i^g is conjugate to r_i * y', y' = y^(g^-1), and that to y' * r_i
    (Hulpke, "Computing normal subgroups", ISSAC 1998).  So one right map
    x -> x * r_i (``_word_map``), read once and dropped, gives the pairs
    (j, l) of class i's products (``_kernels.close_class_sets``): C_j * r_i
    meets C_l.  Each pair is kept once (a k x k bool buffer), and the buffer
    and the pairs kept are checked against ``_kernels.TABLE_BYTES`` before
    they are allocated or stored.
    The atoms are the normal closures of the classes (``_kernels.class_atoms``)."""
    if lattice._class_lattice is None:
        classes = conjugacy_classes(lattice)
        k = len(classes)
        _kernels.check_bytes(k * k, f"a class-product buffer of {k} x {k} classes")
        cls_of = np.empty(lattice.order, dtype=np.intp)
        cls_of[np.concatenate(classes)] = np.repeat(np.arange(k), [c.size for c in classes])
        seen = np.zeros(k * k, dtype=bool)
        products = [(cls_of[:0], cls_of[:0])]  # the identity's class adds nothing
        stored = 0
        for cls in classes[1:]:
            seen[cls_of * k + cls_of[_word_map(lattice, int(cls[0]))]] = True
            stored += int(np.count_nonzero(seen))
            # the pairs are two intp arrays
            _kernels.check_bytes(16 * stored, f"a store of {stored} class-product pairs")
            pairs = np.flatnonzero(seen)
            seen[pairs] = False
            products.append(np.divmod(pairs, k))
        lattice._class_lattice = (cls_of, products, _kernels.class_atoms(products))
    return lattice._class_lattice


def all_normal_subgroups(group: PermGroup) -> list[PermGroup]:
    """Every normal subgroup, ordered by (order, element index tuple).

    Normal subgroups are unions of conjugacy classes, each held as the set
    of its classes.  Each is the join of the atoms (``_class_lattice``) of
    the classes it contains, so the lattice is the closure of the atoms
    under joins (``_kernels.class_joins``), where a join's order is known
    before it is formed: |NA| = |N||A| / |N ∩ A|.
    """
    cls_of, products, atoms = _class_lattice(_lattice(group))
    joins = _kernels.class_joins(products, np.bincount(cls_of), atoms,
                                 DEFAULT_NORMAL_SUBGROUP_LIMIT)
    return _subgroups_by_order(group, cls_of, joins)


def minimal_normal_subgroups(group: PermGroup) -> list[PermGroup]:
    """Minimal nontrivial normal subgroups: the atoms (``_class_lattice``)
    holding no other atom's classes, since every minimal normal subgroup is
    the normal closure of any of its nonidentity elements.
    """
    cls_of, _, atoms = _class_lattice(_lattice(group))
    minimal = [(atoms <= atom).all(axis=1).sum() == 1 for atom in atoms]  # holding only itself
    return _subgroups_by_order(group, cls_of, atoms[minimal])


def _subgroups_by_order(group: PermGroup, cls_of: np.ndarray,
                        class_sets: Iterable[np.ndarray]) -> list[PermGroup]:
    """The normal subgroups at the class sets, ordered by (order, element
    indices); ``cls_of`` is each element's class."""
    masks = sorted((n_set[cls_of] for n_set in class_sets),
                   key=lambda m: (int(np.count_nonzero(m)), np.flatnonzero(m).tolist()))
    return [_subgroup(group, mask, normal=True) for mask in masks]


def is_normal_in(sub: PermGroup, group: PermGroup) -> bool:
    """Whether every element of ``sub`` lies in ``group`` and conjugating
    them by ``group``'s generators stays inside ``sub``.  A subgroup held as
    a mask over ``group`` is tested by its mask; any other is looked up row
    by row in ``group``'s table."""
    if sub.degree != group.degree:
        return False
    if sub._parent is group:
        member = sub._mask
    else:
        idx = group.index.indices_of(sub.table)
        if idx is None:
            return False
        member = np.zeros(group.order, dtype=bool)
        member[idx] = True
    idx = np.flatnonzero(member)
    return all(member[c[idx]].all() for c in _conjugation_maps(_lattice(group)))


def quasiprimitivity_type(group: PermGroup) -> str:
    """One of "quasiprimitive", "biquasiprimitive", "neither".

    Determined from the minimal normal subgroups: orbit counts of larger
    normal subgroups only ever decrease, so it suffices to look at minimal
    ones.
    """
    return _quasiprimitivity(group, minimal_normal_subgroups(group))


def _quasiprimitivity(group: PermGroup, minimal: Sequence[PermGroup]) -> str:
    """``quasiprimitivity_type`` from the group's minimal normal subgroups."""
    if not transitivity_profile(group).transitive:
        raise OG4Error("quasiprimitivity is defined for transitive groups only")
    counts = [orbits(m).n_blocks for m in minimal]
    if all(c == 1 for c in counts):
        return "quasiprimitive"
    if all(c <= 2 for c in counts):
        return "biquasiprimitive"
    return "neither"


def is_nonabelian_simple(group: PermGroup) -> bool:
    """Exhaustive check: nontrivial, nonabelian, no proper nontrivial normals."""
    if group.order == 1 or _is_abelian(group):
        return False
    return bool(_class_lattice(_lattice(group))[2].all())


# ---------------------------------------------------------------------------
# induced actions


def induced_block_action(
    group: PermGroup, partition: BlockPartition
) -> tuple[PermGroup, PermGroup]:
    """(image on block indices, kernel of that action).  Each element's
    action on the blocks is read from its images of the blocks' least
    points (``_point_images``)."""
    pb = partition.point_block
    if pb.size != group.degree:
        raise OG4Error("partition does not cover the group's points")
    reps = np.asarray([b[0] for b in partition.blocks], dtype=np.int64)
    # invariant: each generator maps every point into the block that its
    # block's representative goes to
    rows = group.gen_rows()
    if not (pb[rows] == pb[rows[:, reps]][:, pb]).all():
        raise OG4Error("partition is not invariant under the group")
    induced = pb[_point_images(group, reps)]  # (order, n_blocks)
    gen_images = [Permutation(pb[g.images[reps]]) for g in group.generators]
    image = PermGroup(partition.n_blocks, list(dict.fromkeys(gen_images)),
                      _kernels.sort_group_rows(induced))
    kernel_mask = (induced == np.arange(partition.n_blocks)).all(axis=1)
    return image, _subgroup(group, kernel_mask)


# ---------------------------------------------------------------------------
# automorphisms given as element-table bijections


class GroupAutomorphism:
    """An automorphism of an enumerated group, as an index bijection."""

    def __init__(self, group: PermGroup, index_map: np.ndarray, check: bool = True):
        index_map = np.asarray(index_map, dtype=np.int64)
        if check:
            _check_automorphism(group, index_map)
        index_map.setflags(write=False)
        self.group = group
        self.index_map = index_map

    @staticmethod
    def from_conjugation(group: PermGroup, c: Permutation) -> "GroupAutomorphism":
        """Conjugation inside a stated supergroup: must normalize ``group``."""
        if c.degree != group.degree:
            raise DegreeMismatch("conjugating permutation has a different degree")
        index_map = group.index.indices_of(c.images[group.table[:, c.inverse().images]])
        if index_map is None:
            raise OG4Error("conjugating permutation does not normalize the group")
        return GroupAutomorphism(group, index_map, check=False)

    @staticmethod
    def from_generator_images(
        group: PermGroup, gens: Sequence[Permutation], images: Sequence[Permutation]
    ) -> Optional["GroupAutomorphism"]:
        """Extend gens -> images to an automorphism, or None if impossible.
        Lists of different lengths are refused.

        f(x) is the product of the images along x's path in the search over
        the gens, and f is a homomorphism iff every edge holds.
        """
        if len(gens) != len(images):
            raise OG4Error(f"{len(gens)} generators but {len(images)} generator images")
        by_g, by_h = _right_maps(group, gens), _right_maps(group, images)
        tree = _kernels._Level(group.identity_index, by_g)
        if tree.orbit.size < group.order:
            return None
        fmap = _images(tree, by_h, [group.identity_index])[:, 0]
        if not (_edges_hold(fmap, by_g, by_h) and np.bincount(fmap, minlength=group.order).all()):
            return None
        return GroupAutomorphism(group, fmap, check=False)

    def apply(self, p: Permutation) -> Permutation:
        return self.group.element(int(self.index_map[self.group.index_of(p)]))

    def apply_index(self, i: int) -> int:
        return int(self.index_map[i])

    def is_involution(self) -> bool:
        sq = self.index_map[self.index_map]
        return bool((sq == np.arange(self.group.order)).all())

    def is_identity(self) -> bool:
        return bool((self.index_map == np.arange(self.group.order)).all())

    def as_point_permutation(self) -> Permutation:
        """The bijection of element indices, as a Permutation of the table."""
        return Permutation(self.index_map.astype(np.int32))


def _check_automorphism(group: PermGroup, index_map: np.ndarray) -> None:
    if not np.array_equal(np.sort(index_map), np.arange(group.order)):
        raise OG4Error("index map is not a bijection on the element table")
    # f(x*g) = f(x)*f(g) for all x and generating g implies the full
    # homomorphism property by induction on word length.
    gidx = [group.index_of(g) for g in group.generators]
    if not _edges_hold(index_map, (right_mult_map(group, i) for i in gidx),
                       (right_mult_map(group, int(index_map[i])) for i in gidx)):
        raise OG4Error("index map is not a homomorphism")
