"""Structural invariants of certified OG(4) pairs: alternating cycles and
attachment, s-arc transitivity and regularity, and stabilizer structure.

The orbit of an s-arc has |G| / |G_walk| members, with G_walk the rows of
the first vertex's stabiliser that fix the rest of the walk.  The
stabilizer's element orders and lower central series are gathers and index
arithmetic in its own table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import OGPair
from .perm import PermGroup, _element_orders, _is_abelian, _normal_closure_mask, point_stabilizer
from .quotient import InvariantViolation

DEFAULT_SARC_CAP = 10_000_000


# ---------------------------------------------------------------------------
# alternating cycles


@dataclass(frozen=True)
class AlternatingStructure:
    cycles: tuple[tuple[int, ...], ...]
    common_length: int
    attachment_number: Optional[int]
    attachment_kind: str  # loose | tight | intermediate | two_cycles_degenerate


def _canonical_cycle(seq: list[int]) -> tuple[int, ...]:
    """Lexicographically least rotation of the cyclic sequence or its
    reversal, starting at the least vertex."""
    best = None
    for cand in (seq, seq[::-1]):
        m = min(cand)
        for i, v in enumerate(cand):
            if v != m:
                continue
            rot = tuple(cand[i:] + cand[:i])
            if best is None or rot < best:
                best = rot
    assert best is not None
    return best


def alternating_structure(pair: OGPair) -> AlternatingStructure:
    """Trace the alternating cycles (consecutive edges oppositely oriented),
    verify they partition the edges with a common even length, and classify
    the attachment."""
    graph = pair.graph
    outs = graph.out_neighbors()
    ins = graph.in_neighbors()
    if any(len(o) != 2 or len(i) != 2 for o, i in zip(outs, ins)):
        raise InvariantViolation("alternating structure needs in- and out-valency 2")

    arc_cycle: dict[tuple[int, int], int] = {}
    cycles: list[tuple[int, ...]] = []
    lengths: set[int] = set()
    for a in map(tuple, graph.arcs.tolist()):
        if a in arc_cycle:
            continue
        cid = len(cycles)
        # states alternate: forward along an arc, then backward along the
        # other in-arc of the head, then forward along the other out-arc of
        # the new vertex, and so on.
        verts: list[int] = [a[0]]
        edges: list[tuple[int, int]] = []
        arc, forward = a, True
        while True:
            edges.append(arc)
            if arc in arc_cycle and arc_cycle[arc] != cid:
                raise InvariantViolation("alternating cycles do not partition the edges")
            arc_cycle[arc] = cid
            if forward:
                v = arc[1]
                nxt_tail = next(w for w in ins[v] if (w, v) != arc)
                arc, forward = (nxt_tail, v), False
                verts.append(v)
            else:
                v = arc[0]
                nxt_head = next(w for w in outs[v] if (v, w) != arc)
                arc, forward = (v, nxt_head), True
                verts.append(v)
            if arc == a and forward:
                break
        if len(set(edges)) != len(edges):
            raise InvariantViolation("alternating cycle repeats an edge")
        lengths.add(len(edges))
        # the trace closes on the start vertex; drop the repeat before
        # canonicalizing so the tuple lists each position exactly once
        assert verts[-1] == verts[0]
        cycles.append(_canonical_cycle(verts[:-1]))

    if len(arc_cycle) != graph.n_arcs:
        raise InvariantViolation("alternating cycles do not cover the edges")
    if len(lengths) != 1:
        raise InvariantViolation(f"alternating cycle lengths differ: {sorted(lengths)}")
    common = lengths.pop()
    if common % 2 != 0:
        raise InvariantViolation(f"alternating cycle length {common} is odd")

    cycles_sorted = tuple(sorted(cycles))
    if len(cycles_sorted) <= 2:
        return AlternatingStructure(cycles_sorted, common, None, "two_cycles_degenerate")

    # each vertex meets exactly two distinct cycles (or one cycle twice), so
    # intersection sizes come from counting shared vertices per cycle pair
    vertex_cycles: list[set[int]] = [set() for _ in range(graph.n_vertices)]
    for (x, y), cid in arc_cycle.items():
        vertex_cycles[x].add(cid)
        vertex_cycles[y].add(cid)
    counts: dict[tuple[int, int], int] = {}
    for cs in vertex_cycles:
        for i in cs:
            for j in cs:
                if i < j:
                    counts[(i, j)] = counts.get((i, j), 0) + 1
    sizes = set(counts.values())
    if len(sizes) != 1:
        raise InvariantViolation(f"attachment sizes differ: {sorted(sizes)}")
    attachment = sizes.pop()
    half = common // 2
    if attachment > half:
        raise InvariantViolation(
            f"attachment number {attachment} exceeds half-length {half}"
        )
    if attachment == half:
        kind = "tight"
    elif attachment == 1:
        kind = "loose"
    else:
        kind = "intermediate"
    return AlternatingStructure(cycles_sorted, common, attachment, kind)


def attachment_sets(structure: AlternatingStructure) -> list[tuple[int, ...]]:
    """Nonempty pairwise intersections of distinct alternating-cycle vertex
    sets, as sorted vertex tuples."""
    vsets = [set(c) for c in structure.cycles]
    out = []
    for i in range(len(vsets)):
        for j in range(i + 1, len(vsets)):
            meet = vsets[i] & vsets[j]
            if meet:
                out.append(tuple(sorted(meet)))
    return sorted(out)


# ---------------------------------------------------------------------------
# s-arcs


@dataclass(frozen=True)
class SArcReport:
    max_s: int
    counts: tuple[int, ...]  # s-arc counts for s = 0 .. max_s + 1
    regular_on_max: bool
    lower_bound: bool  # cap reached before transitivity failed


def s_arc_report(pair: OGPair, max_sarcs: int = DEFAULT_SARC_CAP) -> SArcReport:
    """Largest s with the group transitive on s-arcs, with counts and a
    regularity flag for the action on the max_s-arcs."""
    graph, group = pair.graph, pair.group
    n = graph.n_vertices
    outs = graph.out_neighbors()
    counts = [n]
    walk = [0]  # the least s-arc: each step goes to the least out-neighbour
    s = 0
    lower_bound = False
    while True:
        nxt = n * 2 ** (s + 1)  # directed (s+1)-step walks
        if nxt > max_sarcs:
            lower_bound = True
            break
        walk.append(min(outs[walk[-1]]))
        counts.append(nxt)
        if _walk_orbit_size(group, walk) != nxt:
            break
        s += 1
    max_s = s
    regular = (not lower_bound) and group.order == counts[max_s]
    return SArcReport(max_s, tuple(counts), regular, lower_bound)


def _walk_orbit_size(group: PermGroup, walk: list[int]) -> int:
    """Size of the orbit of a vertex tuple: |G| over the order of its
    pointwise stabiliser (orbit-stabiliser), the rows of the first entry's
    stabiliser that fix the others."""
    fixers = (point_stabilizer(group, walk[0]).table[:, walk] == walk).all(axis=1)
    return group.order // int(np.count_nonzero(fixers))


# ---------------------------------------------------------------------------
# stabilizers


@dataclass(frozen=True)
class StabilizerReport:
    order: int
    is_2group: bool
    elementary_abelian: bool
    nilpotency_class: int


def _commutator_subgroup(
    group: PermGroup, left: list[int], right: list[int]
) -> tuple[np.ndarray, list[int]]:
    """[<left>, <right>] for element indices with <right> the whole group,
    as a mask and its kept generators: the normal closure of the commutators
    of the given elements, since [<X>, <Y>] is the normal closure in <X, Y>
    of the [x, y] (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory)."""
    t = group.table
    inv = {i: np.argsort(t[i]) for i in {*left, *right}}
    # apply a^-1, then g^-1, a and g
    comm = np.stack([t[g][t[a][inv[g][inv[a]]]] for a in left for g in right])
    keys = group.index
    return _normal_closure_mask(group, keys.lookup(comm[:, keys.base]))


def nilpotency_class(group: PermGroup) -> int:
    """Length of the lower central series G = γ1 > γ2 > ... > 1, with
    γ(i+1) = [γi, G] read in G's table; raises as soon as a term fails to
    shrink, i.e. the group is not nilpotent."""
    gens = sorted({group.index_of(g) for g in group.generators})
    layer, order = gens, group.order
    c = 0
    while order > 1:
        mask, layer = _commutator_subgroup(group, layer, gens)
        prev, order = order, int(np.count_nonzero(mask))
        c += 1
        if order == prev:
            raise InvariantViolation("lower central series does not terminate")
    return c


def stabilizer_report(pair: OGPair) -> StabilizerReport:
    stab = point_stabilizer(pair.group, 0)
    order = stab.order
    is_2group = order & (order - 1) == 0
    elem_ab = _is_elementary_abelian(stab)
    return StabilizerReport(order, is_2group, elem_ab, nilpotency_class(stab))


def _is_elementary_abelian(group: PermGroup) -> bool:
    if group.order == 1:
        return True
    p = next(d for d in range(2, group.order + 1) if group.order % d == 0)
    orders = _element_orders(group.table)
    return bool(((orders == 1) | (orders == p)).all()) and _is_abelian(group)
