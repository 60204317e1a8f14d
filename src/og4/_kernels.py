"""Hot array kernels: group closure by a stabiliser chain, base-image keys,
orbit partitions and block systems, connected components of index maps,
closures of sets of conjugacy classes, and arc orbits.

All kernels work on ``int32`` image rows: a permutation of degree ``n`` is a
row ``r`` with ``r[x]`` the image of ``x``, and the product "apply ``p`` then
``q``" is the gather ``q[p]``.

Element tables are sorted lexicographically, and that order is read from a
few columns.  Take b1 = the least point the group moves, and b(i+1) = the
least point moved by the pointwise stabiliser of b1..bi: the *ascending
base*.  If rows g != h first differ at column p, the element "apply h,
then g^-1" (the row ``g_inv[h]``) fixes every point below p and moves p.
With bi the last base point below p, it lies in the stabiliser of b1..bi,
whose least moved point b(i+1) is then at most p, and is not below p: so p
is a base point.  Sorting by the base columns therefore gives the
lexicographic order, and in a sorted table the base is read off a few rows
(``ascending_base``).

``close_under_products`` is the one chain builder.  A caller that has proved
an upper bound on the group's order passes it as ``order``: random elements
are then sifted down the levels until the product of the orbit sizes reaches
the bound, which proves the chain complete, and the levels are gathered with
no Schreier check.  If ``RANDOM_ELEMENTS`` elements do not reach it, the
Schreier check verifies the levels they built, with no restart; a product
past the bound raises ``InvariantViolation``.

Memory is bounded before it is allocated.  A stabiliser chain keeps only
its Schreier trees and level tables; it reads a level's transversal rows in
column blocks of about ``_BLOCK`` entries, never whole.  So an element table
(order x degree) is the only large array a chain allocates, and each one,
level tables included, is checked against ``TABLE_BYTES`` first.
"""

from __future__ import annotations

import copy
import itertools
import math
import random
import zlib
from typing import Optional

import numpy as np

BACKEND = "python"

_KEY_LIMIT = 1 << 62
_BLOCK = 1 << 18  # entries per block of gathered columns or rows
TABLE_BYTES = 1 << 30  # the most one gathered element table may take
RANDOM_ELEMENTS = 64  # random elements sifted under an order bound before the check
_CONFIRMATIONS = 8  # further elements it sifts once its bound is met


class OG4Error(Exception):
    """Base class for library errors."""


class InvariantViolation(OG4Error):
    """An internal structural invariant failed; must never happen on valid
    certified input."""


class TableBudgetExceeded(OG4Error):
    """``what`` would take ``nbytes`` bytes, more than ``TABLE_BYTES``; both
    in bytes if either is below 1 MB, else in whole MB."""

    def __init__(self, what: str, nbytes: int):
        if min(nbytes, TABLE_BYTES) < 2**20:
            need, budget = f"{nbytes} bytes", f"{TABLE_BYTES} bytes"
        else:  # integers: a degree past 10^308 has no float
            need, budget = f"{(nbytes + 2**19) // 2**20} MB", f"{TABLE_BYTES // 2**20} MB"
        super().__init__(f"{what} needs {need}, over the budget of {budget}")
        self.nbytes = nbytes


def check_bytes(nbytes: int, what: str) -> None:
    """Refuse an allocation of ``nbytes`` bytes, named by ``what``, before it
    is made, if it would take more than ``TABLE_BYTES``."""
    if nbytes > TABLE_BYTES:
        raise TableBudgetExceeded(what, nbytes)


def check_table_bytes(rows: int, degree: int) -> None:
    """Refuse an int32 table of ``rows`` rows at ``degree`` before it is
    allocated, if it would take more than ``TABLE_BYTES``."""
    check_bytes(rows * degree * 4, f"an element table of {rows} rows at degree {degree}")


def run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal rows (or values) in a
    sorted array: an adjacent dedupe, with no ``np.unique``."""
    keep = np.ones(values.shape[0], dtype=bool)
    diff = values[1:] != values[:-1]
    keep[1:] = diff.any(axis=1) if diff.ndim > 1 else diff
    return keep


def ascending_base(table: np.ndarray) -> list[int]:
    """The ascending base of the group at a lexicographically sorted table.

    The rows moving b1 are the greatest, since they fix every point below b1
    and map b1 above itself; so b1 is the first point moved by the last row.
    The stabiliser of b1 is the prefix of rows fixing it, and column b1 is
    ascending there, so one ``searchsorted`` finds its end; and so on down.
    """
    ident = np.arange(table.shape[1])
    base: list[int] = []
    end = table.shape[0]
    while end > 1:
        b = int(np.argmax(table[end - 1] != ident))
        base.append(b)
        end = int(np.searchsorted(table[:end, b], b, side="right"))
    return base


def sort_group_rows(rows: np.ndarray) -> np.ndarray:
    """A group's element rows, in any order and possibly repeated, as its
    sorted table of distinct rows.

    The ascending base is found by scanning the rows of each stabiliser for
    their least moved point; the rows are then sorted by the base columns
    alone, and two rows of a group with equal base images are equal.
    """
    ident = np.arange(rows.shape[1])
    base: list[int] = []
    stab = rows
    while True:
        moved = np.flatnonzero((stab != ident).any(axis=0))
        if not moved.size:
            break
        base.append(int(moved[0]))
        stab = stab[stab[:, base[-1]] == base[-1]]
    if not base:
        return rows[:1].copy()
    table = rows[np.lexsort(rows[:, base[::-1]].T)]
    return table[run_starts(table[:, base])]


class SortedKeys:
    """Positions of rows in a list sorted by their base images.

    ``images`` is an (m, k) array of points below ``degree``, sorted
    lexicographically.  Each row is folded into one int64 key,
    ``key * degree + image`` column by column; before a fold could pass
    2^62, the keys so far are re-ranked to their positions among the distinct
    keys.  Both steps keep the order, so the keys come out ascending and a
    lookup is one ``searchsorted``.
    """

    def __init__(self, images: np.ndarray, degree: int):
        self.degree = degree
        # ranks[j]: the distinct keys before column j is folded in, or None
        # where folding needs no re-ranking
        self.ranks: list[Optional[np.ndarray]] = []
        key = np.zeros(images.shape[0], dtype=np.int64)
        bound = 1
        for j in range(images.shape[1]):
            ranks = None
            if bound > _KEY_LIMIT // degree:
                ranks = key[run_starts(key)]
                key = np.searchsorted(ranks, key)
                bound = ranks.size
            self.ranks.append(ranks)
            key = key * degree + images[:, j]
            bound *= degree
        self.keys = key

    def fold(self, base_images: np.ndarray) -> np.ndarray:
        key = np.zeros(base_images.shape[0], dtype=np.int64)
        for j, ranks in enumerate(self.ranks):
            if ranks is not None:
                key = np.searchsorted(ranks, key)
            key = key * self.degree + base_images[:, j]
        return key

    def positions(self, base_images: np.ndarray) -> np.ndarray:
        """Position of the row with each of the given (m, k) base images;
        some valid position for images that no row has."""
        pos = np.searchsorted(self.keys, self.fold(base_images))
        return np.minimum(pos, self.keys.size - 1)


# ---------------------------------------------------------------------------
# stabiliser chains (Schreier-Sims)


class _Level:
    """One level of a stabiliser chain: a base point, generators of the
    level's group, and a Schreier tree of the point's orbit.  A group's
    element search is one too (``perm._search_tree``): the identity's
    orbit under the right multiplications by the generators, with no jumps.

    The orbit is found by breadth-first search over points.  Each new point
    gets its tree parent (``parent``) and the generator of the tree edge
    (``via``, a row of ``tree``), and ``segments`` lists the runs of points
    one generator found in one search layer.  Transversal row y maps the
    base point to ``orbit[y]``: it is its parent's row followed by
    ``tree[via[y]]``.  No row is kept; ``columns`` gathers every row on a
    few points, and ``row`` one whole row by walking up the tree.

    ``tree`` is ``gens`` followed by any jumps, which ``shallow`` adds to a
    chain's levels: while the tree is deeper than twice the bit length of
    the orbit size, the rows of the points at depth d, d/2, d/4, ... on the
    path to the deepest point join ``tree`` and the search is redone, so a
    long cycle's tree is shallow (Seress, *Permutation Group Algorithms*,
    ch. 4, on shallow Schreier trees).  The Schreier check still multiplies
    by ``gens`` alone.

    The search stops once the orbit has more than ``limit`` points, with no
    jumps made; such a level is incomplete, and ``_levels`` drops it.
    """

    def __init__(self, point: int, gens: np.ndarray, key=None, limit: float = math.inf):
        self.point = point
        self.gens = gens
        self.key = key
        self.tree = gens
        self._search(limit)

    def shallow(self, limit: float) -> "_Level":
        """The level, with jumps added while its tree is deep."""
        while self.depth > 2 * self.orbit.size.bit_length() and self.orbit.size <= limit:
            self.tree = np.vstack([self.tree, self._jumps(self.orbit.size - 1)])
            self._search(limit)
        return self

    def _search(self, limit: float) -> None:
        """Build the tree and its ``depth``, int32 arrays, by breadth-first
        search until the orbit is complete or has more than ``limit`` points."""
        tree, n = self.tree, self.tree.shape[1]
        where = np.full(n, -1, dtype=np.int32)  # point -> orbit index
        orbit, parent, via = (np.empty(n, dtype=np.int32) for _ in range(3))
        where[self.point], orbit[0], parent[0], via[0] = 0, self.point, -1, -1
        segments = []  # (lo, hi, generator)
        lo, size, depth = 0, 1, 0
        while lo < size <= limit:
            frontier, lo = orbit[lo:size], size
            for s in range(tree.shape[0]):
                image = tree[s][frontier]
                fresh = where[image] < 0
                pts = image[fresh]
                if pts.size:
                    hi = size + pts.size
                    where[pts] = np.arange(size, hi)
                    orbit[size:hi], parent[size:hi], via[size:hi] = pts, where[frontier[fresh]], s
                    segments.append((size, hi, s))
                    size = hi
            depth += size > lo
        if size < n:  # hold no room past the orbit
            orbit, parent, via = orbit[:size].copy(), parent[:size].copy(), via[:size].copy()
        self.where, self.segments, self.depth = where, segments, depth
        self.orbit, self.parent, self.via = orbit, parent, via

    def renumbered(self, order: np.ndarray, rank: np.ndarray) -> "_Level":
        """The same tree with point ``order[i]`` named i; ``rank`` is the
        inverse of ``order``.  Only ``orbit``, ``where`` and the rows of
        ``tree`` change: parents, ``via`` and segments are orbit indices."""
        new = copy.copy(self)
        new.point = int(rank[self.point])
        new.tree = new.gens = np.empty_like(self.tree)  # an element search has no jumps
        for m, out in zip(self.tree, new.tree):
            np.take(rank, m[order], out=out)
        new.orbit = np.take(rank, self.orbit, out=np.empty_like(self.orbit))
        new.where = self.where[order]
        return new

    def columns(self, points: np.ndarray, cols: Optional[np.ndarray] = None,
                rows: Optional[int] = None) -> np.ndarray:
        """The transversal rows on the given points, (orbit size, len(points)),
        one search segment at a time; into ``cols`` if given.  With ``rows``,
        only the segments that start below it are written."""
        if cols is None:
            cols = np.empty((self.orbit.size, points.size), dtype=np.int32)
        cols[0] = points
        tree, parent = self.tree, self.parent
        for lo, hi, s in self.segments:
            if rows is not None and lo >= rows:
                break
            np.take(tree[s], cols[parent[lo:hi]], out=cols[lo:hi])
        return cols

    def _path(self, y: int) -> list[int]:
        """The generators on the tree path to orbit point y, from the root."""
        path = []
        while y > 0:
            path.append(self.via[y])
            y = self.parent[y]
        return path[::-1]

    def row(self, y: int) -> np.ndarray:
        """Transversal row y, from the generators on its tree path."""
        row = np.arange(self.tree.shape[1], dtype=np.int32)
        for s in self._path(y):
            row = self.tree[s][row]
        return row

    def _jumps(self, y: int) -> np.ndarray:
        """The transversal rows of the points on the tree path to y at depth
        d (y's own), d/2, d/4, ... down to 2."""
        path = self._path(y)
        keep = {len(path) >> k for k in range(len(path).bit_length() - 1)}
        row, rows = np.arange(self.tree.shape[1], dtype=np.int32), []
        for depth, s in enumerate(path, 1):
            row = self.tree[s][row]
            if depth in keep:
                rows.append(row)
        return np.array(rows)


class _Candidate:
    """The product T * U of a verified level group T below a level and that
    level's transversal U, in sorted order, without gathering its rows.

    Element (y, t) is the row t followed by transversal row y.  Its image of
    the level's base point is ``orbit[y]``, and of a deeper base point b it
    is ``U[y][T[t][b]]``; the candidate is sorted by these images, which read
    U only on the points T maps the deeper base points to.  ``deeper`` are
    the levels below, whose first level generates T.

    When U fits one block (orbit size * degree <= ``_BLOCK``) it is gathered
    whole, once, as ``u``, and read by the sort, the check and the table;
    ``StabiliserChain`` drops it from its top candidate.  Otherwise ``u`` is
    None and only blocks of U's columns are ever gathered.
    """

    def __init__(self, level: _Level, below: np.ndarray, deeper: list[_Level]):
        self.level, self.below, self.deeper = level, below, deeper
        self.base = [level.point] + [lv.point for lv in deeper]
        n_t, n = below.shape
        deeper_images = below[:, self.base[1:]]
        whole = level.orbit.size * n <= _BLOCK
        if whole:
            points = col = np.arange(n)
        else:
            seen = np.zeros(n, dtype=bool)
            seen[self.base] = True
            seen[deeper_images] = True
            points = np.flatnonzero(seen)
            col = np.empty(n, dtype=np.int64)
            col[points] = np.arange(points.size)
        u = level.columns(points)
        self.u = u if whole else None
        self.u_base = u[:, col[self.base]]  # U on the base points
        images = np.empty((level.orbit.size, n_t, len(self.base)), dtype=np.int32)
        images[:, :, 0] = level.orbit[:, None]
        images[:, :, 1:] = u[:, col[deeper_images]]
        images = images.reshape(-1, len(self.base))
        order = np.lexsort(images.T[::-1])
        self.ys, self.ts = np.divmod(order, n_t)
        self.keys = SortedKeys(images[order], n)

    def _blocks(self) -> list[np.ndarray]:
        """The points in blocks of about ``_BLOCK / |orbit|``, each a union of
        orbits of T, so every row of T maps a block's points into it."""
        n = self.below.shape[1]
        width = max(1, _BLOCK // self.level.orbit.size)
        labels = component_labels(self.deeper[0].gens, n) if self.deeper else np.arange(n)
        points = np.argsort(labels, kind="stable")
        starts = np.where(run_starts(labels[points]), np.arange(n), 0)
        block = np.maximum.accumulate(starts) // width  # by where its orbit starts
        cuts = np.append(np.flatnonzero(run_starts(block)), n)
        return [points[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]

    def first_failure(self) -> Optional[np.ndarray]:
        """The first product of a transversal row and a level generator,
        other than a tree edge, that is not a member; None if every one is.

        Each product s[U[x]] is looked up by its base images and matches
        element (y, t) there.  The two are compared on one block P of points
        at a time, as s[U[x][P]] against U[y][T[t][P]], in the order of the
        products; a later block checks only the products before the first
        failure found, and gathers only the rows of U they read (rows come in
        search order, so those are a prefix).  Every block's arrays are
        written into buffers made once.  When U is whole and the products
        fit one block too, they are compared in one go.
        """
        lv, below = self.level, self.below
        gens = lv.gens
        n_s, (n_t, n), n_u = gens.shape[0], below.shape, lv.orbit.size
        nontree = np.ones((n_s, n_u), dtype=bool)
        edge = lv.via < n_s
        edge[0] = False
        nontree[lv.via[edge], lv.parent[edge]] = False
        ss, xs = np.nonzero(nontree)
        pos = self.keys.positions(gens[ss[:, None], self.u_base[xs]])
        ys, ts = self.ys[pos], self.ts[pos]
        s_at = (ss * n)[:, None]  # generator s starts at s * n in ``gens``
        if self.u is not None and ss.size * n <= _BLOCK:  # U and the products in one block
            products = np.take(gens, self.u[xs] + s_at)
            members = np.take(self.u, below[ts] + (ys * n)[:, None])
            bad = np.flatnonzero((products != members).any(axis=1))
            return products[bad[0]] if bad.size else None
        reach = np.maximum.accumulate(np.maximum(xs, ys)) + 1  # rows products up to j read
        blocks = self._blocks()
        width = max(b.size for b in blocks)
        step = max(1, min(_BLOCK // width, ss.size))  # products compared at once
        u_buf = np.empty(n_u * width, dtype=np.int32)
        at_buf = np.empty(step * width, dtype=np.int64)
        products, members = np.empty((2, step * width), dtype=np.int32)
        col = np.empty(n, dtype=np.int32)
        first, size = ss.size, min(64, step)  # a failing candidate tends to fail early
        for points in blocks:
            if not first:
                break
            p = points.size
            u = lv.columns(points, u_buf[:n_u * p].reshape(n_u, p), reach[first - 1])
            col[points] = np.arange(p)
            t_cols = col[np.take(below, points, axis=1)]  # T[t][P] as columns of u
            y_at = (ys * p)[:, None]
            c = 0
            while c < first:
                m = min(size, first - c)
                j = slice(c, c + m)
                at = at_buf[:m * p].reshape(m, p)
                a, b = products[:m * p].reshape(m, p), members[:m * p].reshape(m, p)
                np.add(np.take(u, xs[j], axis=0, out=a), s_at[j], out=at)
                np.take(gens, at, out=a, mode="clip")
                np.add(np.take(t_cols, ts[j], axis=0, out=b), y_at[j], out=at)
                np.take(u, at, out=b, mode="clip")
                if not np.array_equal(a, b):
                    first = c + int(np.argmax((a != b).any(axis=1)))
                c, size = c + m, min(2 * size, step)
        if first == ss.size:
            return None
        return gens[ss[first]][lv.row(xs[first])]

    def table(self) -> np.ndarray:
        """The candidate's rows in sorted order.  Row (y, t) is U[y][T[t]],
        read from U when it fits one block; otherwise each row is written by
        the search, as ``tree[via[y]]`` applied to row (parent(y), t)."""
        lv, below = self.level, self.below
        n_t, n = below.shape
        check_table_bytes(self.ys.size, n)
        out = np.empty((self.ys.size, n), dtype=np.int32)
        step = max(1, _BLOCK // n)
        if lv.orbit.size * n <= _BLOCK:
            u = self.u if self.u is not None else lv.columns(np.arange(n))
            for lo in range(0, out.shape[0], step):
                index = self.ys[lo:lo + step, None] * n + below[self.ts[lo:lo + step]]
                np.take(u, index, out=out[lo:lo + step])
            return out
        at = np.empty(self.ys.size, dtype=np.int64)  # (y, t) -> sorted position
        at[self.ys * n_t + self.ts] = np.arange(self.ys.size)
        at = at.reshape(-1, n_t)
        out[at[0]] = below
        parent_rows, rows = np.empty((2, step, n), dtype=np.int32)
        for lo, hi, s in lv.segments:
            dest, src = at[lo:hi].ravel(), at[lv.parent[lo:hi]].ravel()
            for a in range(0, dest.size, step):
                m = min(step, dest.size - a)
                np.take(out, src[a:a + m], axis=0, out=parent_rows[:m])
                np.take(lv.tree[s], parent_rows[:m], out=rows[:m], mode="clip")
                out[dest[a:a + m]] = rows[:m]
        return out


def _sift(h: np.ndarray, levels: list[_Level]) -> np.ndarray:
    """Divide ``h`` by transversal rows down the levels while its image of
    each base point lies in that level's orbit; the residue."""
    for lv in levels:
        y = lv.where[h[lv.point]]
        if y < 0:
            break
        u = lv.row(y)
        inv = np.empty_like(u)
        inv[u] = np.arange(u.size, dtype=u.dtype)
        h = inv[h]
    return h


def _levels(strong: np.ndarray, n_given: int, old: list[_Level],
            cap: float = math.inf) -> Optional[list[_Level]]:
    """The levels of the ascending base of the strong generators: each base
    point is the least point moved by the generators fixing the ones before
    it.  The top level's tree uses only the given generators, which generate
    the same group.  An old level with the same point and generators is
    kept, with its tree.

    Level i's orbit lies in the orbit of its point under the stabiliser of
    the points before it, so the product of the orbit sizes, level by level,
    never exceeds the group's order.  None once that product passes
    ``cap``: each search stops as soon as it does, before the levels below
    are built."""
    first = np.argmax(strong != np.arange(strong.shape[1]), axis=1)
    active = np.arange(strong.shape[0])
    levels: list[_Level] = []
    product = 1
    while active.size:
        b = int(first[active].min())
        gens = active[active < n_given] if not levels else active
        key = (b, tuple(gens.tolist()))
        j = len(levels)
        limit = cap // product
        level = (old[j] if j < len(old) and old[j].key == key
                 else _Level(b, strong[gens], key, limit).shallow(limit))
        product *= level.orbit.size
        if product > cap:
            return None
        levels.append(level)
        active = active[strong[active, b] == b]
    return levels


class StabiliserChain:
    """A verified stabiliser chain of the group generated by some rows, on
    its ascending base, in the manner of Sims (Seress, *Permutation Group
    Algorithms*, ch. 4; Holt, Eick and O'Brien, *Handbook of Computational
    Group Theory*, ch. 4).

    Levels are verified from the bottom up, with no check once an order
    bound has proved them complete (``_random_levels``).  Level i's
    candidate group is T(i) = T(i+1) * U(i): the verified group below
    followed by the transversal.  By Schreier's lemma it is the level's
    group exactly when every product u_x * s of a transversal row and a
    level generator lies in it; a tree edge u_x * s = u_y always does.
    Each product is looked up by its base images and compared with its
    match on every point, one column block at a time
    (``_Candidate.first_failure``).  A product outside is divided down the
    chain (``_sift``), and its residue becomes a new strong generator; the
    base is recomputed from the strong generators, and the levels it
    changed are verified again.  The top level checks only the given
    generators: once T(1) * s lies in T(1) for each of them, T(1) is closed
    under them and is the whole group.

    ``orbits`` are the basic orbits, in breadth-first order, and ``order``
    (also ``len``) is the product of their sizes.  ``table()`` gathers the
    top candidate's rows, already in sorted order, and ``first_stabiliser()``
    is the verified table below the top level.  The chain holds the levels'
    trees and the table below the top, and no transversal rows.
    """

    def __init__(self, levels: list[_Level], top: Optional[_Candidate], degree: int):
        if top is not None:
            top.u = None
        self.top = top
        self.degree = degree
        self.base = [lv.point for lv in levels]
        self.orbits = [lv.orbit for lv in levels]
        self.order = math.prod(o.size for o in self.orbits)

    def __len__(self) -> int:
        return self.order

    def table(self) -> np.ndarray:
        if self.top is None:
            return np.arange(self.degree, dtype=np.int32)[None, :]
        return self.top.table()

    def row(self, i: int) -> np.ndarray:
        """Row i of ``table()``, gathered alone: transversal row y of the top
        level applied after row t of the table below it."""
        if self.top is None:
            return np.arange(self.degree, dtype=np.int32)
        top = self.top
        return top.level.row(top.ys[i])[top.below[top.ts[i]]]

    def first_stabiliser(self) -> np.ndarray:
        """The sorted table of the stabiliser of ``base[0]``, for a chain
        with at least one level."""
        return self.top.below


def _random_elements(gen_rows: np.ndarray):
    """Endless random elements of the group the rows generate, by product
    replacement with an accumulator (Celler, Leedham-Green, Murray, Niemeyer
    and O'Brien, *Comm. Algebra* 23, 1995): ten slots (or one per row, if
    more) start as the rows, and each step replaces one slot by its product
    with another and multiplies the accumulator by it.  The rows' bytes seed
    the random choices, so the same rows give the same elements in every
    run."""
    rng = random.Random(zlib.crc32(gen_rows.tobytes()))
    slots = [gen_rows[i % len(gen_rows)] for i in range(max(10, len(gen_rows)))]
    acc = np.arange(gen_rows.shape[1], dtype=np.int32)
    for step in itertools.count():
        i, j = rng.sample(range(len(slots)), 2)
        first, then = (slots[i], slots[j]) if rng.random() < 0.5 else (slots[j], slots[i])
        slots[i] = np.take(then, first)
        acc = np.take(slots[i], acc)
        if step >= 20:  # the first steps only scramble the slots
            yield acc


def _random_levels(strong: np.ndarray, n_given: int, levels: Optional[list[_Level]],
                   order: int) -> tuple[np.ndarray, list[_Level], bool]:
    """Sift random elements of the group G the strong generators generate
    down the levels (``_sift``); each residue that is not the identity
    becomes a strong generator.  (strong, levels, proved): proved once the
    product of the orbit sizes equals ``order``, a proved upper bound on
    |G|, and ``_CONFIRMATIONS`` more elements sift to the identity; not
    proved if ``RANDOM_ELEMENTS`` elements leave it below.

    Level i's group is generated by the strong generators fixing the base
    points before it, and level i + 1's lies in its stabiliser of the
    level's point, so the product of the orbit sizes is at most |G|
    (Seress, *Permutation Group Algorithms*, ch. 4).  Once it equals
    ``order`` every one of those inequalities is an equality: |G| is
    ``order`` and each level's group is the full stabiliser, so no Schreier
    check is needed.  Randomness decides only how soon the product reaches
    ``order``, never the chain.

    A product above ``order`` (``levels`` None) refutes the bound and
    raises ``InvariantViolation``.  A bound below |G| can also be met
    early; under a true bound the chain is then complete and every element
    sifts to the identity, so a residue among the confirmations refutes
    the bound too and raises.
    """
    ident = np.arange(strong.shape[1], dtype=np.int32)
    confirmed = 0
    for drawn, element in enumerate(_random_elements(strong)):
        if levels is None:
            raise InvariantViolation(
                f"a group proved to have at most {order} elements has more")
        product = math.prod(lv.orbit.size for lv in levels)
        if confirmed == _CONFIRMATIONS or (product < order and drawn == RANDOM_ELEMENTS):
            return strong, levels, confirmed == _CONFIRMATIONS
        residue = _sift(element, levels)
        if not (residue != ident).any():
            confirmed += product == order
        elif product == order:
            raise InvariantViolation(
                f"a group proved to have at most {order} elements has an element "
                f"outside its chain of {order}")
        else:
            strong = np.vstack([strong, residue])
            levels = _levels(strong, n_given, levels, order)


def close_under_products(gen_rows: np.ndarray, cap: int,
                         order: Optional[int] = None) -> Optional[StabiliserChain]:
    """The group the rows generate, as its verified stabiliser chain, or
    ``None`` once the orbit sizes show it has more than ``cap`` elements
    (checked while each orbit is searched, ``_levels``).  ``table()``
    gathers its elements as an ``(m, n)`` int32 array of distinct rows in
    lexicographic order, the identity first.  Raises ``TableBudgetExceeded``
    before gathering a level table over ``TABLE_BYTES``.

    ``order``, a proved upper bound on the group's order, is tried first if
    it is at most ``cap`` (``_random_levels``).  The levels are then
    verified from the bottom up (``StabiliserChain``), with no Schreier
    check if the bound proved them complete."""
    gen_rows = np.asarray(gen_rows, dtype=np.int32)
    ident = np.arange(gen_rows.shape[1], dtype=np.int32)
    strong = gen_rows[(gen_rows != ident).any(axis=1)]
    n_given = strong.shape[0]
    bounded = order is not None and order <= cap and n_given > 0
    levels = _levels(strong, n_given, [], order if bounded else cap)
    proved = False
    if bounded:
        strong, levels, proved = _random_levels(strong, n_given, levels, order)
    elif levels is None:
        return None
    below = {len(levels): ident[None, :]}  # verified level groups, sorted
    i, top = len(levels) - 1, None
    while i >= 0:
        cand = _Candidate(levels[i], below[i + 1], levels[i + 1:])
        failed = None if proved else cand.first_failure()
        if failed is None:
            if i:
                below[i] = cand.table()
            else:
                top = cand
            i -= 1
            continue
        strong = np.vstack([strong, _sift(failed, levels[i:])])
        new = _levels(strong, n_given, levels, cap)
        if new is None:
            return None
        i = max(j for j in range(len(new)) if j >= len(levels) or new[j] is not levels[j])
        levels = new
        below = {j: t for j, t in below.items() if i < j < len(levels)}
        below[len(levels)] = ident[None, :]
    return StabiliserChain(levels, top, gen_rows.shape[1])


def point_orbit_labels(gen_rows: np.ndarray) -> np.ndarray:
    """Label each point by the least point of its orbit under the group the
    rows generate: the components of the rows as maps on the points."""
    return component_labels(gen_rows, gen_rows.shape[1])


def component_labels(maps, size: int) -> np.ndarray:
    """Label each of ``range(size)`` by the least member of its connected
    component under the index permutations ``maps``.

    Labels are pulled back along every map and then shortcut
    (``labels[labels]``) until nothing changes.  At that point no label
    exceeds the one it is pulled from, so labels are constant along each
    cycle of each map, hence on each component.
    """
    labels = np.arange(size)
    while True:
        new = labels
        for m in maps:
            new = np.minimum(new, new[m])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def label_partition(labels: np.ndarray) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """(blocks, each point's block) for the blocks of equal labels, each
    block ascending and the blocks ordered by their least points.  A stable
    sort by label lists each block's points in ascending order, so its first
    point is its least; the blocks are then ranked by those least points.
    Both sorts are stable sorts of intp, as ``conjugacy_classes``'s is: a
    sort of another kind or width maps numpy's code for it into memory."""
    by_label = np.argsort(labels.astype(np.intp), kind="stable")
    starts = run_starts(labels[by_label])
    order = np.argsort(by_label[starts], kind="stable")  # the blocks by least point
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    point_block = np.empty(labels.size, dtype=np.int32)
    point_block[by_label] = rank[np.cumsum(starts) - 1]
    point_block.setflags(write=False)
    points, cuts = by_label.tolist(), np.append(np.flatnonzero(starts), labels.size).tolist()
    runs = [tuple(points[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    return tuple(runs[i] for i in order.tolist()), point_block


def label_blocks(gen_rows: np.ndarray, block: np.ndarray, labels: np.ndarray) -> None:
    """Label each image of ``block`` under the group the rows generate by
    its least point, in ``labels``, which must be -1 at every such image.
    The block must be a block of the group's action, so two images are
    equal or disjoint.  Each round maps the blocks the last one found by
    every row and keeps one row of each block not yet labelled."""
    frontier, last = block[None, :], np.empty(labels.size, dtype=np.intp)
    labels[block] = block.min()
    while frontier.size:
        images = gen_rows[:, frontier].reshape(-1, block.size)
        images = images[labels[images[:, 0]] < 0]
        least = images.min(axis=1)
        labels[images] = least[:, None]
        last[least] = np.arange(least.size)  # the last row of each block
        keep = np.zeros(least.size, dtype=bool)
        keep[last[least]] = True
        frontier = images[keep]


def close_class_sets(products: list, closed: np.ndarray, added: np.ndarray) -> np.ndarray:
    """The least set of conjugacy classes closed under products that holds
    ``closed``, a class set already so closed, and the classes ``added``, as
    a bool vector over the classes.  ``products[i]`` is a pair (src, dst) of
    arrays: the product of class src[e] and class i meets class dst[e].  A
    finite union of classes closed under products is a normal subgroup.
    Each round multiplies the classes the last one added by every class
    held; C_i * C_j = C_j * C_i, and earlier pairs were multiplied before."""
    held = closed | added
    while added.any():
        pairs = [products[c] for c in np.flatnonzero(added).tolist()]
        added = np.zeros_like(held)
        added[np.concatenate([dst[held[src]] for src, dst in pairs])] = True
        added &= ~held
        held |= added
    return held


def class_atoms(products: list) -> np.ndarray:
    """The closure (``close_class_sets``) of each nontrivial class, class 0
    being the identity's, deduplicated, in class order: one row each."""
    k = len(products)
    trivial, atoms = np.arange(k) == 0, {}
    for c in range(1, k):
        atom = close_class_sets(products, trivial, np.arange(k) == c)
        atoms.setdefault(atom.tobytes(), atom)
    return np.array(list(atoms.values()), dtype=bool).reshape(-1, k)


def class_joins(products: list, sizes: np.ndarray, atoms: np.ndarray, limit: int) -> np.ndarray:
    """Every join of the atoms (``class_atoms``) and the trivial class set,
    one row each, in the order found; ``sizes`` are the classes' sizes.
    Raises past ``limit`` rows.

    Joins are taken from the trivial set up, of each set found with each
    atom A.  |N ∩ A| is the size of the classes N and A share, so
    |NA| = |N||A| / |N ∩ A| is exact: a set already known (found, or an
    atom) that holds both and has that size is their join, and only any
    other join is closed from their classes (``close_class_sets``)."""
    known = [np.arange(sizes.size) == 0, *atoms]  # the trivial set, the atoms, joins closed
    by_order: dict[int, list[int]] = {}  # the rows of known by their sets' sizes
    for row, n_set in enumerate(known):
        by_order.setdefault(int(sizes[n_set].sum()), []).append(row)
    atom_orders = np.where(atoms, sizes, 0).sum(axis=1)
    found, seen = [0], {0}  # the rows of known found to be joins, in the order found
    for row in found:  # found grows as new joins turn up
        sub = known[row]
        orders = int(sizes[sub].sum()) * atom_orders // np.where(atoms & sub, sizes, 0).sum(axis=1)
        for i in np.flatnonzero((atoms > sub).any(axis=1)).tolist():  # atoms not inside sub
            held, order = sub | atoms[i], int(orders[i])
            join = next((r for r in by_order.get(order, ()) if (known[r] >= held).all()), None)
            if join is None:
                known.append(close_class_sets(products, sub, held & ~sub))
                if int(sizes[known[-1]].sum()) != order:
                    raise InvariantViolation("a join's order is not |N||A| / |N ∩ A|")
                join = len(known) - 1
                by_order.setdefault(order, []).append(join)
            if join not in seen:
                if len(found) >= limit:
                    raise OG4Error(
                        f"normal-subgroup lattice exceeds the limit of {limit} candidates")
                seen.add(join)
                found.append(join)
    return np.array([known[row] for row in found])


def arc_orbit_labels(gen_rows, arcs_enc, n):
    """Orbit labels 0, 1, ... of arcs, in order of each orbit's first arc.

    Arcs are encoded as ``x * n + y`` (int64) and passed sorted ascending.
    Each generator maps the arcs by one ``searchsorted`` of the encoded
    images; if some image is not an arc, the action does not preserve the
    arc set and an empty array is returned.
    """
    maps = []
    for g in gen_rows:
        image = g[arcs_enc // n] * np.int64(n) + g[arcs_enc % n]
        pos = np.minimum(np.searchsorted(arcs_enc, image), arcs_enc.size - 1)
        if not np.array_equal(arcs_enc[pos], image):
            return np.zeros(0, dtype=np.int32)
        maps.append(pos)
    labels = component_labels(maps, arcs_enc.size)
    first = labels == np.arange(arcs_enc.size)
    return (np.cumsum(first) - 1)[labels].astype(np.int32)
