"""Structural invariants of certified OG(4) pairs: alternating cycles and
attachment, s-arc transitivity and regularity, and stabilizer structure.

Alternating cycles (Marušič, J. Combin. Theory Ser. B 73, 1998) are the
orbits of two involutions of the sorted arcs, swapping an arc with the
other out-arc of its tail and with the other in-arc of its head; lengths
and attachment numbers are run lengths of sorted orbit labels.

The orbit of an s-arc has |G| / |G_walk| members, with G_walk the rows of
the first vertex's stabiliser that fix the rest of the walk.  The
stabilizer's element orders and lower central series are gathers and index
arithmetic in its own table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .graph import OGPair, _run_lengths
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


def alternating_structure(pair: OGPair) -> AlternatingStructure:
    """The alternating cycles (consecutive edges oppositely oriented), their
    common even length, and the attachment.

    With in- and out-valency 2 the arcs, sorted by tail, hold v's out-arcs
    at 2v and 2v + 1.  Swapping an arc with the other out-arc of its tail
    (sigma) and with the other in-arc of its head (tau) are fixed-point-free
    involutions, and a cycle's trace alternates them, so the alternating
    cycles are the orbits of <sigma, tau> (``_kernels.component_labels``).
    No reflection of that dihedral group fixes an arc, so the trace meets
    every arc of the orbit once and a cycle's length is its orbit's size.
    """
    graph = pair.graph
    if (graph.out_degrees() != 2).any() or (graph.in_degrees() != 2).any():
        raise InvariantViolation("alternating structure needs in- and out-valency 2")
    m = graph.n_arcs
    sigma = np.arange(m) ^ 1
    by_head = np.argsort(graph.arcs[:, 1], kind="stable")  # w's in-arcs at 2w, 2w + 1
    tau = np.empty(m, dtype=np.int64)
    tau[by_head] = by_head[sigma]
    labels = _kernels.component_labels([sigma, tau], m)

    lengths = sorted(set(_run_lengths(labels).tolist()))
    if len(lengths) != 1:
        raise InvariantViolation(f"alternating cycle lengths differ: {lengths}")
    common = lengths[0]
    if common % 2 != 0:
        raise InvariantViolation(f"alternating cycle length {common} is odd")

    starts = np.flatnonzero(labels == np.arange(m))  # each cycle's least arc
    cycles = _canonical_cycles(graph.arcs, sigma[tau], starts, common)
    if len(cycles) <= 2:
        return AlternatingStructure(cycles, common, None, "two_cycles_degenerate")

    # a vertex meets the cycle of its out-arcs and the cycle of its in-arcs;
    # two cycles share as many vertices as meet just the two of them
    out_c, in_c = labels[::2], labels[by_head[::2]]
    two = out_c != in_c
    pairs = np.minimum(out_c, in_c)[two] * m + np.maximum(out_c, in_c)[two]
    sizes = sorted(set(_run_lengths(pairs).tolist()))
    if len(sizes) != 1:
        raise InvariantViolation(f"attachment sizes differ: {sizes}")
    attachment = sizes[0]
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
    return AlternatingStructure(cycles, common, attachment, kind)


def _canonical_cycles(arcs: np.ndarray, step: np.ndarray, starts: np.ndarray,
                      length: int) -> tuple[tuple[int, ...], ...]:
    """The vertex sequences of the cycles of the given length through the
    arcs ``starts``, each as its lexicographically least rotation or
    reversed rotation, sorted.

    From an arc a a cycle reads a's tail and head, then step[a]'s, and so
    on: ``length // 2`` steps, each taken by every cycle at once.  The least
    rotation starts at the cycle's least vertex, which it passes at most
    twice (once as a tail, once as a head).
    """
    forward = [starts]
    for _ in range(length // 2 - 1):
        forward.append(step[forward[-1]])
    seq = arcs[np.stack(forward, axis=1)].reshape(starts.size, length)
    cs, ps = np.nonzero(seq == seq.min(axis=1, keepdims=True))
    turn = np.arange(length)
    rows = np.concatenate([seq[cs[:, None], (ps[:, None] + turn) % length],
                           seq[cs[:, None], (ps[:, None] - turn) % length]])
    owner = np.concatenate([cs, cs])
    by_owner = np.lexsort(np.vstack([rows.T[::-1], owner]))
    best = rows[by_owner][_kernels.run_starts(owner[by_owner])]
    return tuple(map(tuple, best[np.lexsort(best.T[::-1])].tolist()))


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
    counts = [n]
    walk = [0]  # the least s-arc: each step takes the least arc from its tail
    s = 0
    lower_bound = False
    while True:
        nxt = n * 2 ** (s + 1)  # directed (s+1)-step walks
        if nxt > max_sarcs:
            lower_bound = True
            break
        walk.append(int(graph.arcs[np.searchsorted(graph.arcs[:, 0], walk[-1]), 1]))
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
