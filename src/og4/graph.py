"""Oriented graphs, orbital graphs, and OG(m) certification.

A graph is its vertex count and one read-only (m, 2) array of arcs sorted
by (tail, head); connectivity and the least out-neighbours read that array.

Orbits of pairs are read from the acting group's table: the orbit of (x, y)
is the distinct pairs in columns x and y.  Orbits of arcs are the connected
components of the generators' maps on the sorted arc codes ``x * n + y``
(``_kernels.arc_orbit_labels``), and invariance and antisymmetry compare
those codes, so certification reads no table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import _kernels
from .perm import OG4Error, PermGroup, transitivity_profile


class ConstructionRefuted(OG4Error):
    """A construction hypothesis or certification clause failed.

    ``clause`` is a machine tag naming the violated condition.
    """

    def __init__(self, clause: str, detail: str = ""):
        super().__init__(f"refuted [{clause}]" + (f": {detail}" if detail else ""))
        self.clause = clause
        self.detail = detail


class OrientedGraph:
    """Vertices 0..n-1 with an antisymmetry-free set of ordered arcs.

    Arcs are stored sorted lexicographically; no loops, no duplicates.
    The arc set is *not* required to be disjoint from its reverse (the
    arc-transitive quotients keep both directions).
    """

    def __init__(self, n_vertices: int, arcs):
        if n_vertices < 1:
            raise OG4Error("graph needs at least one vertex")
        arcs = arcs if isinstance(arcs, np.ndarray) else list(arcs)
        try:
            arr = np.array(arcs)
            if arr.dtype.kind in "fO":  # which Python ints past int64 make
                np.array(arcs, dtype=np.int64)
        except OverflowError:
            raise OG4Error("arc endpoint out of range") from None
        except (TypeError, ValueError):  # ragged entries, or not numbers
            raise OG4Error("arcs must be integer pairs") from None
        if arr.size == 0:
            arr = np.zeros((0, 2), dtype=np.int64)
        elif arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
            raise OG4Error("arcs must be integer pairs")
        arr = arr.astype(np.int64, copy=False)  # uint64 past int64 turns negative
        span = int(arr.max()) + 1 if arr.size else 1  # codes x * span + y sort as the arcs
        if arr.size and (arr.min() < 0 or span > n_vertices):
            raise OG4Error("arc endpoint out of range")
        if (arr[:, 0] == arr[:, 1]).any():
            raise OG4Error("diagonal arc (x, x) is not allowed")
        if span * span > np.iinfo(np.int64).max:
            raise OG4Error("arc endpoints too large for int64 arc codes")
        codes = arr[:, 0] * span + arr[:, 1]
        if (codes[1:] <= codes[:-1]).any():  # not already sorted and distinct
            codes.sort()
            if not _kernels.run_starts(codes).all():
                raise OG4Error("duplicate arcs")
            arr = np.column_stack(divmod(codes, span))
        arr.setflags(write=False)
        self.n_vertices = n_vertices
        self.arcs = arr

    @property
    def n_arcs(self) -> int:
        return self.arcs.shape[0]

    def encoded_arcs(self) -> np.ndarray:
        return self.arcs[:, 0] * np.int64(self.n_vertices) + self.arcs[:, 1]

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.arcs[:, 0], minlength=self.n_vertices)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.arcs[:, 1], minlength=self.n_vertices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrientedGraph)
            and self.n_vertices == other.n_vertices
            and np.array_equal(self.arcs, other.arcs)
        )

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.n_vertices}, arcs={self.n_arcs})"


def reverse_arcs(graph: OrientedGraph) -> OrientedGraph:
    return OrientedGraph(graph.n_vertices, graph.arcs[:, ::-1])


def orbital_graph(
    group: PermGroup, seed: Optional[tuple[int, int]] = None
) -> OrientedGraph:
    """Graph whose arc set is the group orbit of the seed pair.

    With no seed, the lexicographically least non-diagonal pair whose orbital
    is not self-paired is used, making the construction deterministic.
    """
    if not transitivity_profile(group).transitive:
        raise OG4Error("orbital graphs are built for transitive groups")
    if seed is None:
        seed = _canonical_seed(group)
    x, y = seed
    n = group.degree
    if not (0 <= x < n and 0 <= y < n):
        raise OG4Error(f"seed point out of range for degree {n}")
    if x == y:
        raise OG4Error("diagonal seed pair")
    codes = _pair_orbit(group, x, y)
    return OrientedGraph(n, np.stack([codes // n, codes % n], axis=1))


def _distinct_codes(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Sorted distinct int64 codes ``x * n + y`` of the pairs (x[i], y[i])."""
    codes = np.sort(x * np.int64(n) + y)
    return codes[_kernels.run_starts(codes)]


def _run_lengths(codes: np.ndarray) -> np.ndarray:
    """How often each distinct code occurs, in ascending order of code."""
    starts = np.flatnonzero(_kernels.run_starts(np.sort(codes)))
    return np.diff(np.append(starts, codes.size))  # not diff(append=): 128 KB more RSS


def _pair_orbit(group: PermGroup, x: int, y: int) -> np.ndarray:
    """The orbit of (x, y) as sorted codes: the pairs (g(x), g(y)) over
    every row g of the table."""
    return _distinct_codes(group.table[:, x], group.table[:, y], group.degree)


def _canonical_seed(group: PermGroup) -> tuple[int, int]:
    """The least pair whose orbital is not self-paired, for a transitive
    group.  Every orbital meets the pairs (0, y), and the orbital of (0, y)
    is self-paired iff some g has g(0) = y and g(y) = 0; if every (0, y)
    is, so is every orbital.  The rows with g(g(0)) = 0 give those y."""
    first = group.table[:, 0]
    paired = first[group.table[np.arange(group.order), first] == 0]  # 0 among them
    free = np.flatnonzero(np.bincount(paired, minlength=group.degree) == 0)
    if free.size == 0:
        raise OG4Error("every orbital of this group is self-paired")
    return (0, int(free[0]))


def _orientation(graph: OrientedGraph, group: PermGroup) -> str:
    """How the group and the arc set meet, by comparing sorted arc codes:
    "not_invariant" if some generator moves the arc set, else "oriented" if
    no arc's reverse is an arc, "symmetric" if every arc's reverse is, and
    "mixed" otherwise."""
    n = graph.n_vertices
    x, y = graph.arcs[:, 0], graph.arcs[:, 1]
    enc = graph.encoded_arcs()
    if any(not np.array_equal(np.sort(g[x] * np.int64(n) + g[y]), enc)
           for g in group.gen_rows()):
        return "not_invariant"
    shared = np.intersect1d(enc, y * n + x, assume_unique=True).size
    return "oriented" if shared == 0 else "symmetric" if shared == enc.size else "mixed"


def orientation_status(graph: OrientedGraph, group: PermGroup) -> str:
    """"g_oriented", "arc_transitive", or "not_invariant"."""
    if group.degree != graph.n_vertices:
        raise OG4Error("group degree does not match the vertex count")
    status = _orientation(graph, group)
    if status == "oriented":
        return "g_oriented"
    if status == "symmetric" and arc_orbit_count(graph, group) == 1:
        return "arc_transitive"
    return "not_invariant"


@dataclass(frozen=True)
class Connectivity:
    connected: bool
    strongly_connected: bool


def _roots(graph: OrientedGraph) -> np.ndarray:
    """Each vertex's root, the least vertex of its undirected component, by
    hook-and-jump (Shiloach and Vishkin, J. Algorithms 3, 1982): each round
    hooks every root onto the least root it meets along an arc, then jumps
    every vertex to its root's root until nothing moves; a round that hooks
    no root ends the search.  Rounds: at most the least vertex's eccentricity
    plus one, as its tree takes in every tree next to it each round."""
    root = np.arange(graph.n_vertices)
    x, y = graph.arcs[:, 0], graph.arcs[:, 1]
    while True:
        rx, ry = root[x], root[y]
        hooked = root.copy()
        np.minimum.at(hooked, np.maximum(rx, ry), np.minimum(rx, ry))
        if np.array_equal(hooked, root):
            return root
        root = hooked
        while not np.array_equal(jumped := root[root], root):
            root = jumped


def _reached(graph: OrientedGraph, forward: bool) -> int:
    """How many vertices a frontier search from vertex 0 reaches along the
    arcs, or against them: each round gathers the frontier's runs of heads
    with the arcs sorted by tail."""
    tails, heads = graph.arcs.T if forward else graph.arcs.T[::-1]
    order = np.argsort(tails, kind="stable")
    heads, starts = heads[order], np.searchsorted(tails[order], np.arange(graph.n_vertices + 1))
    seen = np.arange(graph.n_vertices) == 0
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        first, sizes = starts[frontier], starts[frontier + 1] - starts[frontier]
        ends = np.cumsum(sizes)
        step = heads[np.arange(ends[-1]) + np.repeat(first - ends + sizes, sizes)]
        step = np.sort(step[~seen[step]])
        frontier = step[_kernels.run_starts(step)]  # each vertex enters once
        seen[frontier] = True
    return int(np.count_nonzero(seen))


def is_connected(graph: OrientedGraph) -> bool:
    """Whether the underlying undirected graph is connected: whether every
    vertex has vertex 0's root, which is 0."""
    return not _roots(graph).any()


def connectivity(graph: OrientedGraph) -> Connectivity:
    """Weak and strong connectivity; the strong test searches forward and
    backward from vertex 0 as well."""
    n = graph.n_vertices
    connected = is_connected(graph)
    strong = connected and _reached(graph, True) == n and _reached(graph, False) == n
    return Connectivity(connected=connected, strongly_connected=strong)


def arc_orbit_count(graph: OrientedGraph, group: PermGroup) -> int:
    """Orbits of the group on arcs plus reversed arcs."""
    n = graph.n_vertices
    x, y = graph.arcs[:, 0], graph.arcs[:, 1]
    enc = _distinct_codes(np.concatenate([x, y]), np.concatenate([y, x]), n)
    labels = _kernels.arc_orbit_labels(group.gen_rows(), enc, n)
    if labels.size == 0 and enc.size:
        raise OG4Error("group does not preserve the arc set union its reverse")
    return int(labels.max()) + 1 if labels.size else 0


# ---------------------------------------------------------------------------
# OG(m) certification


@dataclass(frozen=True)
class Certificate:
    vertex_transitive: bool
    edge_transitive: bool
    orientation_preserved: bool
    connected: bool
    valency: int
    stabilizer_order: int


@dataclass(frozen=True)
class VerifyOutcome:
    ok: bool
    certificate: Optional[Certificate]
    failed_clause: Optional[str] = None
    detail: str = ""


class LazyLabels(Sequence[str]):
    """Vertex labels, formatted when they are read by ``fmt``, which maps a
    list of vertices to their labels.  A single read formats one label;
    iterating formats them all in one call, as the commands that print a
    pair do."""

    def __init__(self, n: int, fmt: Callable[[list[int]], list[str]]):
        self._n, self._fmt = n, fmt

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, v: int) -> str:
        return self._fmt([range(self._n)[v]])[0]

    def __iter__(self) -> Iterator[str]:
        return iter(self._fmt(list(range(self._n))))


@dataclass(frozen=True)
class OGPair:
    graph: OrientedGraph
    group: PermGroup
    certificate: Certificate
    labels: Sequence[str]

    @property
    def valency(self) -> int:
        return self.certificate.valency


def verify_og(graph: OrientedGraph, group: PermGroup, m: int) -> VerifyOutcome:
    """Certify membership of (graph, group) in OG(m), or name the first
    failed clause."""
    if m < 2 or m % 2 != 0:
        return VerifyOutcome(False, None, "og:valency_even", f"m={m} must be even, >= 2")
    if group.degree != graph.n_vertices:
        return VerifyOutcome(False, None, "og:degree_match", "group degree != vertex count")
    if graph.n_vertices < 2:
        return VerifyOutcome(False, None, "og:nontrivial", "need at least two vertices")

    status = _orientation(graph, group)
    if status == "not_invariant":
        return VerifyOutcome(False, None, "og:orientation_invariant",
                             "orientation not G-invariant")
    if status != "oriented":
        return VerifyOutcome(False, None, "og:antisymmetric",
                             "some arc appears in both directions")

    if not transitivity_profile(group).transitive:
        return VerifyOutcome(False, None, "og:vertex_transitive", "group not vertex-transitive")

    if graph.n_arcs == 0:
        return VerifyOutcome(False, None, "og:connected", "no arcs")
    # the arc set is invariant, so every generator maps it onto itself
    if _kernels.arc_orbit_labels(group.gen_rows(), graph.encoded_arcs(), graph.n_vertices).any():
        return VerifyOutcome(False, None, "og:edge_transitive", "group not transitive on arcs")

    if not is_connected(graph):
        return VerifyOutcome(False, None, "og:connected", "underlying graph disconnected")

    outd, ind = graph.out_degrees(), graph.in_degrees()
    if not ((outd == m // 2).all() and (ind == m // 2).all()):
        return VerifyOutcome(False, None, "og:valency",
                             f"out/in valency not constant {m // 2}")

    stab = group.order // graph.n_vertices
    cert = Certificate(
        vertex_transitive=True,
        edge_transitive=True,
        orientation_preserved=True,
        connected=True,
        valency=m,
        stabilizer_order=stab,
    )
    return VerifyOutcome(True, cert)


def certify_og(
    graph: OrientedGraph,
    group: PermGroup,
    m: int,
    labels: Optional[Sequence[str]] = None,
) -> OGPair:
    """verify_og, raising ConstructionRefuted on failure."""
    outcome = verify_og(graph, group, m)
    if not outcome.ok:
        raise ConstructionRefuted(outcome.failed_clause or "og:unknown", outcome.detail)
    if labels is None:
        labels = [str(v) for v in range(graph.n_vertices)]
    if len(labels) != graph.n_vertices:
        raise OG4Error("label count does not match the vertex count")
    if not isinstance(labels, LazyLabels):
        labels = tuple(labels)
    return OGPair(graph, group, outcome.certificate, labels)


def reverify(pair: OGPair) -> VerifyOutcome:
    return verify_og(pair.graph, pair.group, pair.certificate.valency)


# ---------------------------------------------------------------------------
# DOT export


def export_dot(graph: OrientedGraph, labels: Optional[Sequence[str]] = None) -> str:
    """Deterministic DOT rendering: one directed edge per arc.  A label's
    backslashes and double quotes are escaped."""
    labels = [str(v) for v in range(graph.n_vertices)] if labels is None else [
        s.replace("\\", "\\\\").replace('"', '\\"') for s in labels]
    lines = ["digraph oriented_graph {"]
    lines += [f'  v{v} [label="{labels[v]}"];' for v in range(graph.n_vertices)]
    lines += [f"  v{x} -> v{y};" for x, y in graph.arcs.tolist()]
    lines.append("}")
    return "\n".join(lines) + "\n"
