"""Hot array kernels: group closure by a stabiliser chain, base-image keys,
orbit partitions, connected components of index maps, and arc orbits.

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
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

BACKEND = "python"

_KEY_LIMIT = 1 << 62
_BLOCK = 1 << 18  # entries per block of gathered rows


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
    level's group, and the Schreier tree of the point's orbit under them.

    The orbit is found by breadth-first search over points.  Its transversal
    rows (``rows``: row y maps the base point to ``orbit[y]``) are gathered
    on first use, one search layer at a time: each new point's row is its
    tree parent's row followed by the generator of the tree edge.
    """

    def __init__(self, point: int, gens: np.ndarray, key):
        self.point = point
        self.gens = gens
        self.key = key
        self.where = np.full(gens.shape[1], -1, dtype=np.int64)  # point -> orbit index
        self.where[point] = 0
        orbit, parent, via = [np.array([point])], [np.array([-1])], [np.array([-1])]
        self.segments: list[tuple[int, int, int]] = []  # (lo, hi, generator)
        size, frontier = 1, np.array([point])
        while frontier.size:
            found = []
            for s in range(gens.shape[0]):
                image = gens[s][frontier]
                fresh = self.where[image] < 0
                pts = image[fresh]
                if pts.size:
                    self.where[pts] = np.arange(size, size + pts.size)
                    self.segments.append((size, size + pts.size, s))
                    orbit.append(pts)
                    parent.append(self.where[frontier[fresh]])
                    via.append(np.full(pts.size, s))
                    found.append(pts)
                    size += pts.size
            frontier = np.concatenate(found) if found else frontier[:0]
        self.orbit = np.concatenate(orbit)
        self.parent = np.concatenate(parent)
        self.via = np.concatenate(via)
        self._rows: Optional[np.ndarray] = None

    def rows(self) -> np.ndarray:
        if self._rows is None:
            rows = np.empty((self.orbit.size, self.gens.shape[1]), dtype=np.int32)
            rows[0] = np.arange(self.gens.shape[1])
            for lo, hi, s in self.segments:
                np.take(self.gens[s], rows[self.parent[lo:hi]], out=rows[lo:hi])
            self._rows = rows
        return self._rows


class _Candidate:
    """The product T * U of a verified level group T below a level and that
    level's transversal U, in sorted order, without gathering its rows.

    Element (y, t) is the row t followed by transversal row y.  Its image of
    the level's base point is ``orbit[y]``, and of a deeper base point b it
    is ``U[y][T[t][b]]``; the candidate is sorted by these images.
    """

    def __init__(self, level: _Level, below: np.ndarray, deeper: list[int]):
        self.level, self.below = level, below
        u = level.rows()
        n_t = below.shape[0]
        images = np.empty((level.orbit.size, n_t, 1 + len(deeper)), dtype=np.int32)
        images[:, :, 0] = level.orbit[:, None]
        images[:, :, 1:] = u[:, below[:, deeper]]
        images = images.reshape(-1, 1 + len(deeper))
        order = np.lexsort(images.T[::-1])
        self.ys, self.ts = np.divmod(order, n_t)
        self.keys = SortedKeys(images[order], u.shape[1])
        self.base = [level.point] + deeper

    def rows_at(self, pos, out=None) -> np.ndarray:
        """The candidate's rows at the given sorted positions."""
        u = self.level.rows()
        return np.take(u, self.ys[pos, None] * u.shape[1] + self.below[self.ts[pos]], out=out)

    def first_failure(self) -> Optional[np.ndarray]:
        """The first product of a transversal row and a level generator,
        other than a tree edge, that is not a member; None if every one is."""
        lv = self.level
        u, gens = lv.rows(), lv.gens
        nontree = np.ones((gens.shape[0], lv.orbit.size), dtype=bool)
        nontree[lv.via[1:], lv.parent[1:]] = False
        ss, xs = np.nonzero(nontree)
        pos = self.keys.positions(gens[ss[:, None], u[:, self.base][xs]])
        step = max(1, _BLOCK // u.shape[1])
        cuts = np.searchsorted(ss, np.arange(gens.shape[0] + 1))
        for s in range(gens.shape[0]):
            for lo in range(cuts[s], cuts[s + 1], step):
                hi = min(lo + step, cuts[s + 1])
                products = np.take(gens[s], u[xs[lo:hi]])
                bad = np.flatnonzero((products != self.rows_at(pos[lo:hi])).any(axis=1))
                if bad.size:
                    return products[bad[0]]
        return None

    def table(self) -> np.ndarray:
        n = self.below.shape[1]
        out = np.empty((self.ys.size, n), dtype=np.int32)
        step = max(1, _BLOCK // n)
        for lo in range(0, out.shape[0], step):
            hi = min(lo + step, out.shape[0])
            self.rows_at(slice(lo, hi), out=out[lo:hi])
        return out


def _sift(h: np.ndarray, levels: list[_Level]) -> np.ndarray:
    """Divide ``h`` by transversal rows down the levels while its image of
    each base point lies in that level's orbit; the residue."""
    for lv in levels:
        y = lv.where[h[lv.point]]
        if y < 0:
            break
        u = lv.rows()[y]
        inv = np.empty_like(u)
        inv[u] = np.arange(u.size, dtype=u.dtype)
        h = inv[h]
    return h


def _levels(strong: np.ndarray, n_given: int, old: list[_Level]) -> list[_Level]:
    """The levels of the ascending base of the strong generators: each base
    point is the least point moved by the generators fixing the ones before
    it.  The top level's tree uses only the given generators, which generate
    the same group.  An old level with the same point and generators is
    kept, with its gathered rows."""
    first = np.argmax(strong != np.arange(strong.shape[1]), axis=1)
    active = np.arange(strong.shape[0])
    levels: list[_Level] = []
    while active.size:
        b = int(first[active].min())
        gens = active[active < n_given] if not levels else active
        key = (b, tuple(gens.tolist()))
        j = len(levels)
        levels.append(old[j] if j < len(old) and old[j].key == key
                      else _Level(b, strong[gens], key))
        active = active[strong[active, b] == b]
    return levels


class StabiliserChain:
    """A verified stabiliser chain of the group generated by some rows, on
    its ascending base, in the manner of Sims (Seress, *Permutation Group
    Algorithms*, ch. 4; Holt, Eick and O'Brien, *Handbook of Computational
    Group Theory*, ch. 4).

    Levels are verified from the bottom up.  Level i's candidate group is
    T(i) = T(i+1) * U(i): the verified group below followed by the
    transversal.  By Schreier's lemma it is the level's group exactly when
    every product u_x * s of a transversal row and a level generator lies in
    it; a tree edge u_x * s = u_y always does.  Each product is looked up by
    its base images and compared in full.  A product outside is divided down
    the chain (``_sift``), and its residue becomes a new strong generator;
    the base is recomputed from the strong generators, and the levels it
    changed are verified again.  The top level checks only the given
    generators: once T(1) * s lies in T(1) for each of them, T(1) is closed
    under them and is the whole group.

    ``orbits`` are the basic orbits, in breadth-first order, and ``order``
    (also ``len``) is the product of their sizes.  ``table()`` gathers the
    top candidate's rows, already in sorted order, and ``first_stabiliser()``
    is the verified table below the top level.
    """

    def __init__(self, levels: list[_Level], top: Optional[_Candidate], degree: int):
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

    def first_stabiliser(self) -> np.ndarray:
        """The sorted table of the stabiliser of ``base[0]``, for a chain
        with at least one level."""
        return self.top.below


def stabiliser_chain(gen_rows: np.ndarray, cap: int) -> Optional[StabiliserChain]:
    """The verified chain of the group the rows generate, or None once the
    orbit sizes show it has more than ``cap`` elements; that is checked
    before any level's transversal rows are gathered."""
    gen_rows = np.asarray(gen_rows, dtype=np.int32)
    ident = np.arange(gen_rows.shape[1], dtype=np.int32)
    strong = gen_rows[(gen_rows != ident).any(axis=1)]
    n_given = strong.shape[0]
    levels = _levels(strong, n_given, [])
    below = {len(levels): ident[None, :]}  # verified level groups, sorted
    i, top = len(levels) - 1, None
    while i >= 0:
        if math.prod(lv.orbit.size for lv in levels) > cap:
            return None
        cand = _Candidate(levels[i], below[i + 1], [lv.point for lv in levels[i + 1:]])
        failed = cand.first_failure()
        if failed is None:
            if i:
                below[i] = cand.table()
            else:
                top = cand
            i -= 1
            continue
        strong = np.vstack([strong, _sift(failed, levels[i:])])
        new = _levels(strong, n_given, levels)
        i = max(j for j in range(len(new)) if j >= len(levels) or new[j] is not levels[j])
        levels = new
        below = {j: t for j, t in below.items() if i < j < len(levels)}
        below[len(levels)] = ident[None, :]
    return StabiliserChain(levels, top, gen_rows.shape[1])


def close_under_products(gen_rows: np.ndarray, cap: int) -> Optional[StabiliserChain]:
    """The group the rows generate, as its verified stabiliser chain, or
    ``None`` if it has more than ``cap`` elements.  ``table()`` gathers its
    elements as an ``(m, n)`` int32 array of distinct rows in lexicographic
    order, the identity first."""
    return stabiliser_chain(gen_rows, cap)


def point_orbit_labels(table: np.ndarray) -> np.ndarray:
    """Label each point by the least point of its orbit.

    ``table`` is the complete element table of the group, so column ``x``
    lists the orbit of ``x``.
    """
    return table.min(axis=0)


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
