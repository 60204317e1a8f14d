"""Normal quotients of certified OG(m) pairs and their classification.

A quotient collapses the orbits of a normal subgroup N to single vertices.
For a certified pair the outcome is always one of: the one-vertex graph, an
oriented multicover, or an arc-transitive multicover; for m = 4 this refines
to the five-way split Cover / K1 / K2 / oriented cycle / unoriented cycle.

The quotient's arcs are the distinct block codes ``bx * nb + by`` of the
arcs (x, y); the multicover degree is the run length of the sorted codes
``x * nb + by``, checked against that of ``y * nb + bx``; and the quotient
edges are two-way when the reversed codes are arcs too.

The outcome depends on N only through its orbits, a block system of G, so
``classify_all_quotients`` classifies each block system once and gives its
outcome to every normal subgroup with those orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import InvariantViolation
from .graph import (
    ConstructionRefuted,
    OGPair,
    OrientedGraph,
    _distinct_codes,
    _run_lengths,
    certify_og,
    is_connected,
)
from .perm import (
    BlockPartition,
    OG4Error,
    PermGroup,
    _element_orders,
    _point_images,
    _quasiprimitivity,
    all_normal_subgroups,
    induced_block_action,
    is_normal_in,
    minimal_normal_subgroups,
    orbits,
)


@dataclass(frozen=True)
class QuotientOutcome:
    kind: str  # K1 | Cover | OGMulticover | ArcTransitiveMulticover |
    #            K2 | OrientedCycle | UnorientedCycle
    quotient_graph: Optional[OrientedGraph]
    induced_group: PermGroup
    kernel: PermGroup
    partition: BlockPartition
    multicover_degree: Optional[int]  # ell, with k * ell = m
    quotient_valency: Optional[int]  # k
    cycle_length: Optional[int] = None  # r, for the cycle kinds
    quotient_pair: Optional[OGPair] = None  # certified, Cover case only


def _check_normal(pair: OGPair, n_sub: PermGroup) -> None:
    if n_sub.degree != pair.group.degree:
        raise OG4Error("subgroup degree does not match the pair")
    if not is_normal_in(n_sub, pair.group):
        raise OG4Error("subgroup is not normal in the acting group")


def normal_quotient(pair: OGPair, n_sub: PermGroup) -> QuotientOutcome:
    """Collapse N-orbits; classify as K1 / oriented / arc-transitive
    multicover and compute the multicover degree."""
    _check_normal(pair, n_sub)
    m = pair.valency
    part = orbits(n_sub)
    image, kernel = induced_block_action(pair.group, part)

    nb = part.n_blocks
    if nb == 1:
        return QuotientOutcome("K1", None, image, kernel, part, None, None)

    x, y = pair.graph.arcs[:, 0], pair.graph.arcs[:, 1]
    bx, by = part.point_block[x], part.point_block[y]
    if (bx == by).any():
        raise InvariantViolation("arc inside a single N-orbit of an intransitive N")
    # arcs from each vertex into each block, and into each vertex from each
    ells = _run_lengths(x * nb + by)
    ell_dir = int(ells[0])
    if (ells != ell_dir).any():
        raise InvariantViolation("multicover degree varies across vertices/orbits")
    if (_run_lengths(y * nb + bx) != ell_dir).any():
        raise InvariantViolation("multicover degree differs between edge sides")

    qcodes = _distinct_codes(bx, by, nb)
    two_way = np.intersect1d(qcodes, qcodes % nb * nb + qcodes // nb, assume_unique=True).size
    if two_way:
        if two_way != qcodes.size:
            raise InvariantViolation("quotient edges mixed one-way and two-way")
        ell = 2 * ell_dir
        kind = "ArcTransitiveMulticover"
    else:
        ell = ell_dir
        kind = "OGMulticover"
    if m % ell != 0:
        raise InvariantViolation("multicover degree does not divide the valency")
    k = m // ell
    qgraph = OrientedGraph(nb, np.stack([qcodes // nb, qcodes % nb], axis=1))
    if not is_connected(qgraph):
        raise InvariantViolation("quotient of a connected pair is disconnected")
    return QuotientOutcome(kind, qgraph, image, kernel, part, ell, k)


def _is_cyclic_of_order(group: PermGroup, r: int) -> bool:
    return group.order == r and bool((_element_orders(group.table) == r).any())


def _is_dihedral_of_order(group: PermGroup, two_r: int) -> bool:
    r = two_r // 2
    if group.order != two_r or two_r % 2 != 0 or r < 3:
        return False
    orders = _element_orders(group.table)
    rotations = np.flatnonzero(orders == r)
    if not rotations.size:
        return False
    rot = group.table[rotations[0]]
    # t inverts rot iff t(rot(x)) = rot^-1(t(x)) for every x; such t (r >= 3)
    # commutes with no power of rot, so it lies outside the rotations
    inverts = (group.table[:, rot] == np.argsort(rot)[group.table]).all(axis=1)
    return bool((inverts & (orders == 2)).any())


def classify_og4_quotient(pair: OGPair, n_sub: PermGroup) -> QuotientOutcome:
    """Refine a quotient of an OG(4) pair to one of the five cases:
    K1, Cover, K2, OrientedCycle, UnorientedCycle."""
    if pair.valency != 4:
        raise OG4Error("classification applies to OG(4) pairs")
    if n_sub.order <= 1:
        raise OG4Error("classification applies to nontrivial normal subgroups")
    out = normal_quotient(pair, n_sub)
    if out.kind == "K1":
        return out

    part, image, kernel = out.partition, out.induced_group, out.kernel
    if out.kind == "OGMulticover" and out.quotient_valency == 4:
        # G-normal cover: kernel = N, N semiregular, quotient again in OG(4)
        if not kernel.same_elements(n_sub):
            raise InvariantViolation("cover kernel differs from N")
        if any(size != n_sub.order for size in part.block_sizes()):  # semiregular: |N| per orbit
            raise InvariantViolation("cover with non-semiregular N")
        if image.order * kernel.order != pair.group.order:
            raise InvariantViolation("cover image/kernel order arithmetic failed")
        qlabels = [pair.labels[b[0]] for b in part.blocks]
        try:
            qpair = certify_og(out.quotient_graph, image, 4, qlabels)
        except ConstructionRefuted as exc:
            raise InvariantViolation(f"cover quotient failed certification: {exc}") from exc
        return QuotientOutcome(
            "Cover", out.quotient_graph, image, kernel, part,
            out.multicover_degree, out.quotient_valency, quotient_pair=qpair,
        )

    if out.kind == "OGMulticover" and out.quotient_valency == 2:
        r = part.n_blocks
        if r < 3 or not _is_cyclic_of_order(image, r):
            raise InvariantViolation("oriented 2-valent quotient is not a cyclic r-cycle")
        if not (out.quotient_graph.out_degrees() == 1).all():
            raise InvariantViolation("oriented cycle quotient has wrong out-valency")
        return QuotientOutcome(
            "OrientedCycle", out.quotient_graph, image, kernel, part,
            out.multicover_degree, out.quotient_valency, cycle_length=r,
        )

    if out.kind == "ArcTransitiveMulticover" and out.quotient_valency == 1:
        if part.n_blocks != 2 or image.order != 2:
            raise InvariantViolation("valency-1 quotient is not K2 with a Z2 action")
        return QuotientOutcome(
            "K2", out.quotient_graph, image, kernel, part,
            out.multicover_degree, out.quotient_valency,
        )

    if out.kind == "ArcTransitiveMulticover" and out.quotient_valency == 2:
        r = part.n_blocks
        if r < 3 or not _is_dihedral_of_order(image, 2 * r):
            raise InvariantViolation("unoriented 2-valent quotient is not a dihedral r-cycle")
        return QuotientOutcome(
            "UnorientedCycle", out.quotient_graph, image, kernel, part,
            out.multicover_degree, out.quotient_valency, cycle_length=r,
        )

    raise InvariantViolation(f"impossible quotient shape: {out.kind} k={out.quotient_valency}")


# ---------------------------------------------------------------------------
# basic type and basic chains


def classify_all_quotients(pair: OGPair) -> list[tuple[PermGroup, QuotientOutcome]]:
    """Classified quotient for every nontrivial normal subgroup of the
    acting group (the full group included).

    The outcome depends on N only through its orbits, a block system of the
    vertex-transitive G: they are the G-images of the N-orbit of vertex 0,
    which is N's mask read on vertex 0's column (``_point_images``).  So
    only the first N on each block system is classified, and each later one
    shares its outcome once it is checked normal.  A cover's kernel is N,
    so no second N has a cover's orbits."""
    column = _point_images(pair.group, [0])[:, 0]
    if np.bincount(column, minlength=pair.group.degree).min() == 0:
        raise InvariantViolation("the pair's group is not vertex-transitive")
    by_orbit: dict[bytes, QuotientOutcome] = {}
    results = []
    for n_sub in all_normal_subgroups(pair.group):
        if n_sub.order == 1:
            continue
        orbit = np.zeros(pair.group.degree, dtype=bool)
        orbit[column[n_sub._mask]] = True
        key = orbit.tobytes()
        out = by_orbit.get(key)
        if out is None:
            out = by_orbit[key] = classify_og4_quotient(pair, n_sub)
        else:
            _check_normal(pair, n_sub)
            if out.kind == "Cover":
                raise InvariantViolation("two normal subgroups have a cover's orbits")
        results.append((n_sub, out))
    return results


def basic_type(pair: OGPair) -> str:
    """Quasiprimitive | Biquasiprimitive | Cycle | NonBasic.

    Decided from the minimal normal subgroups alone.  Each nontrivial normal
    N contains a minimal normal M whose orbits refine N's.  If N gives a
    Cover, M <= N is semiregular and x's out-neighbours lie in distinct
    M-blocks, so M gives a Cover.  If N gives a Cycle (r >= 3 blocks), M
    gives a Cover or a Cycle; if N gives K2, M is intransitive and gives a
    Cover, a Cycle or K2.  If every minimal normal is transitive, so is
    every normal.  So the precedence Cover > Cycle > K2 > Quasiprimitive
    over the minimal normals agrees with that over the whole lattice.
    """
    return _basic_type(pair, [])


def _basic_type(pair: OGPair, classified: list[tuple[PermGroup, QuotientOutcome]]) -> str:
    """``basic_type``, reading a minimal normal subgroup's quotient from
    ``classified`` (as ``classify_all_quotients`` gives it) where it is
    listed there, and classifying it otherwise."""
    minimal = minimal_normal_subgroups(pair.group)
    kinds = set()
    for m in minimal:
        out = next((o for n, o in classified if n.same_elements(m)), None)
        kinds.add((out or classify_og4_quotient(pair, m)).kind)
    result = _basic_type_from_kinds(kinds)
    # cross-check against the group-theoretic characterization
    qp = _quasiprimitivity(pair.group, minimal)
    if result == "Quasiprimitive" and qp != "quasiprimitive":
        raise InvariantViolation("basic type and quasiprimitivity test disagree")
    if result == "Biquasiprimitive" and qp != "biquasiprimitive":
        raise InvariantViolation("basic type and biquasiprimitivity test disagree")
    return result


def _basic_type_from_kinds(kinds: set[str]) -> str:
    if "Cover" in kinds:
        return "NonBasic"
    if kinds & {"OrientedCycle", "UnorientedCycle"}:
        return "Cycle"
    if "K2" in kinds:
        return "Biquasiprimitive"
    return "Quasiprimitive"


def basic_chain(pair: OGPair) -> tuple[list[tuple[PermGroup, OGPair]], OGPair,
                                       list[tuple[PermGroup, QuotientOutcome]]]:
    """Reduce the pair to a basic quotient in one step: the chain is
    [(N, Gamma_N)] for the first largest cover kernel N in the order of
    ``classify_all_quotients``, or empty for basic input.

    Gamma_N is basic.  Its group is G on the N-orbits, which is G/N since a
    cover's kernel is N, so its normal subgroups are the M/N with
    N <= M normal in G, and (Gamma_N)_{M/N} = Gamma_M, the M/N-orbits on
    N-blocks being the M-orbits.  A vertex's out-neighbours lie in distinct
    N-blocks, so Gamma_M is a valency-4 oriented quotient of Gamma_N exactly
    when it is one of Gamma: M/N is a cover kernel of Gamma_N iff M is one
    of Gamma.  A cover of Gamma_N would give a cover kernel M larger than N.
    The same argument shows that Gamma_N, for any cover kernel N, is basic
    iff no cover kernel strictly contains N (``basic_quotients``).

    Returns the chain, the terminal pair, and the terminal's
    ``classify_all_quotients``, which ``_basic_type`` can read.
    """
    classified = classify_all_quotients(pair)
    covers = [(n_sub, out) for n_sub, out in classified if out.kind == "Cover"]
    if not covers:
        return [], pair, classified
    n_sub, out = max(covers, key=lambda item: item[0].order)  # first of the largest
    terminal = out.quotient_pair
    terminal_classified = classify_all_quotients(terminal)
    if any(o.kind == "Cover" for _, o in terminal_classified):
        raise InvariantViolation("quotient by a largest cover kernel has a cover")
    return [(n_sub, terminal)], terminal, terminal_classified


def basic_quotients(pair: OGPair) -> list[tuple[PermGroup, OGPair]]:
    """All (N, quotient) with the quotient a *basic* OG(4) cover of the pair:
    the cover kernels that no other cover kernel strictly contains (the
    argument is in ``basic_chain``), in the order of
    ``classify_all_quotients``.  For basic input this is empty.
    """
    covers = [(n_sub, out) for n_sub, out in classify_all_quotients(pair) if out.kind == "Cover"]
    return [(n, out.quotient_pair) for n, out in covers
            if not any(m.order > n.order and (m._mask >= n._mask).all() for m, _ in covers)]
