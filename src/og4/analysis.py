"""Structural invariants of certified OG(4) pairs: alternating cycles and
attachment, s-arc transitivity and regularity, and stabilizer structure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import OGPair
from .perm import PermGroup, Permutation, compose, enumerate_group, point_stabilizer
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


def _count_s_arcs(n: int, s: int, cap: int) -> Optional[int]:
    """Number of directed s-step walks; None once it exceeds the cap."""
    total = n * (2 ** s)
    return None if total > cap else total


def s_arc_report(pair: OGPair, max_sarcs: int = DEFAULT_SARC_CAP) -> SArcReport:
    """Largest s with the group transitive on s-arcs, with counts and a
    regularity flag for the action on the max_s-arcs."""
    graph, group = pair.graph, pair.group
    n = graph.n_vertices
    outs = graph.out_neighbors()
    gen_rows = [g.images for g in group.generators]

    def least_s_arc(s: int) -> tuple[int, ...]:
        walk = [0]
        for _ in range(s):
            walk.append(min(outs[walk[-1]]))
        return tuple(walk)

    def orbit_size(seed: tuple[int, ...], cap: int) -> int:
        seen = {seed}
        stack = [seed]
        while stack:
            t = stack.pop()
            for row in gen_rows:
                img = tuple(int(row[v]) for v in t)
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
            if len(seen) > cap:
                break
        return len(seen)

    counts = [n]
    s = 0
    lower_bound = False
    while True:
        nxt = _count_s_arcs(n, s + 1, max_sarcs)
        if nxt is None:
            lower_bound = True
            break
        if orbit_size(least_s_arc(s + 1), nxt) != nxt:
            counts.append(nxt)
            break
        counts.append(nxt)
        s += 1
    max_s = s
    regular = (not lower_bound) and group.order == counts[max_s]
    return SArcReport(max_s, tuple(counts), regular, lower_bound)


# ---------------------------------------------------------------------------
# stabilizers


@dataclass(frozen=True)
class StabilizerReport:
    order: int
    is_2group: bool
    elementary_abelian: bool
    nilpotency_class: int


def _commutator_subgroup(
    group: PermGroup, left: list[Permutation], right: list[Permutation]
) -> PermGroup:
    comms = []
    for g in left:
        ginv = g.inverse()
        for x in right:
            comms.append(compose(compose(ginv, x.inverse()), compose(g, x)))
    return enumerate_group(comms, group.order + 1)


def nilpotency_class(group: PermGroup) -> int:
    """Length of the lower central series; raises as soon as a term fails
    to shrink, i.e. the group is not nilpotent."""
    elems = group.elements()
    layer = group
    c = 0
    while layer.order > 1:
        prev, layer = layer.order, _commutator_subgroup(group, elems, layer.elements())
        c += 1
        if layer.order == prev:
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
    elems = group.elements()
    if any(x.order() not in (1, p) for x in elems):
        return False
    return all(compose(x, y) == compose(y, x) for x in group.generators for y in group.generators)
