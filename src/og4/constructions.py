"""Builders for certified OG(4) pairs: Cayley graphs, coset graphs, and the
named example families.

Every builder either returns a certified OGPair or raises
ConstructionRefuted with a machine-readable clause tag naming the violated
hypothesis.  The group product used throughout is "left factor first":
``x * y`` acts as ``x`` then ``y``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernels import check_table_bytes, component_labels
from .graph import (ConstructionRefuted, LazyLabels, OGPair, OrientedGraph, _distinct_codes,
                    certify_og)
from .perm import (
    DEFAULT_CAP,
    GroupAutomorphism,
    OG4Error,
    PermGroup,
    Permutation,
    _core,
    _element_orders,
    _generate_in_parent,
    _right_mult_map,
    _subgroup,
    _word_map,
    compose,
    conjugate,
    cycle_strings,
    enumerate_group,
    format_cycles,
    identity,
    is_nonabelian_simple,
)


# ---------------------------------------------------------------------------
# standard groups


def cyclic_group(n: int) -> PermGroup:
    return enumerate_group([Permutation(np.roll(np.arange(n), -1))])


def symmetric_group(n: int, cap: int = DEFAULT_CAP) -> PermGroup:
    if n < 2:
        return enumerate_group([identity(max(n, 1))])
    cycle = Permutation(np.roll(np.arange(n), -1))
    swap = parse_cycle_pair(0, 1, n)
    return enumerate_group([swap, cycle], cap, math.factorial(n))


def alternating_group(n: int, cap: int = DEFAULT_CAP) -> PermGroup:
    if n < 3:
        return enumerate_group([identity(max(n, 1))])
    three = np.arange(n)
    three[[0, 1, 2]] = [1, 2, 0]
    if n % 2 == 1:
        big = np.roll(np.arange(n), -1)
    else:
        big = np.arange(n)
        big[1:] = np.roll(np.arange(1, n), -1)
    return enumerate_group([Permutation(three), Permutation(big)], cap)


def parse_cycle_pair(i: int, j: int, degree: int) -> Permutation:
    images = np.arange(degree)
    images[[i, j]] = [j, i]
    return Permutation(images)


def embed_pair(x: Permutation, y: Permutation) -> Permutation:
    """(x, y) acting on the disjoint union of the two point sets."""
    return Permutation(np.concatenate([x.images, y.images + x.degree]))


def block_swap(degree_half: int) -> Permutation:
    d = degree_half
    return Permutation(np.concatenate([np.arange(d) + d, np.arange(d)]))


def pgl2(p: int, cap: int = DEFAULT_CAP) -> PermGroup:
    """PGL(2, p) acting on the projective line {0..p-1, infinity=p}."""
    inf = p
    prim = next(g for g in range(2, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)

    def frac(fn):
        images = np.empty(p + 1, dtype=np.int32)
        for x in range(p + 1):
            images[x] = fn(x)
        return Permutation(images)

    shift = frac(lambda x: inf if x == inf else (x + 1) % p)
    mult = frac(lambda x: inf if x == inf else (prim * x) % p)
    invert = frac(lambda x: inf if x == 0 else (0 if x == inf else pow(x, p - 2, p)))
    return enumerate_group([shift, mult, invert], cap)


def conjugation_inventory(supergroup: PermGroup) -> np.ndarray:
    """All conjugations inside a stated supergroup, as the rows of the
    conjugating permutations: the supergroup's read-only table."""
    return supergroup.table


def _conjugates(rows: np.ndarray, x: Permutation) -> np.ndarray:
    """x^c = c^-1 * x * c for each conjugator row c, a row each: x^c sends
    c(j) to c(x(j))."""
    out = np.empty_like(rows)
    out[np.arange(rows.shape[0])[:, None], rows] = rows[:, x.images]
    return out


def _conjugating_rows(t_grp: PermGroup, inventory: np.ndarray,
                      pairs: Sequence[tuple[Permutation, Permutation]]) -> np.ndarray:
    """Mask of the inventory rows c that normalise T and conjugate x to y
    for each (x, y) in ``pairs``.  c normalises the finite group T exactly
    when it conjugates each of T's generators into T; a row of another
    degree normalises nothing."""
    found = np.zeros(inventory.shape[0], dtype=bool)
    if inventory.shape[1] != t_grp.degree:
        return found
    found[:] = True
    for g in t_grp.generators:
        found &= t_grp.index.members(_conjugates(inventory, g))
    for x, y in pairs:
        found &= (_conjugates(inventory, x) == y.images).all(axis=1)
    return found


# ---------------------------------------------------------------------------
# Cayley graphs


@dataclass(frozen=True)
class CayleySpec:
    group: PermGroup  # the abstract group N, fully enumerated
    a: Permutation
    b: Permutation
    h: GroupAutomorphism  # involutory automorphism of N swapping a and b


def build_cayley(spec: CayleySpec, cap: int = DEFAULT_CAP) -> OGPair:
    """Cayley graph on the elements of N with half-set {a, b}, oriented
    x -> y iff y * x^-1 in {a, b}, acted on by N (right multiplication)
    extended by the swapping automorphism h."""
    n_grp, a, b, h = spec.group, spec.a, spec.b, spec.h
    if a not in n_grp or b not in n_grp:
        raise ConstructionRefuted("cayley:elements_in_group")
    ai, bi = n_grp.index_of(a), n_grp.index_of(b)
    by_a, by_b = (_word_map(n_grp, i, left=True) for i in (ai, bi))  # x -> a*x, b*x
    ident = n_grp.identity_index
    if ai == bi:
        raise ConstructionRefuted("cayley:halfset_size", "a = b")
    if by_a[ai] == ident:
        raise ConstructionRefuted("cayley:a_sq_ne_1", "a is an involution")
    if by_b[bi] == ident:
        raise ConstructionRefuted("cayley:b_sq_ne_1", "b is an involution")
    if by_a[bi] == ident:
        raise ConstructionRefuted("cayley:ab_ne_1", "b = a^-1")
    if len({ai, bi, n_grp.index_of(a.inverse()), n_grp.index_of(b.inverse())}) != 4:
        raise ConstructionRefuted("cayley:halfset_disjoint", "S0 meets its inverse set")
    span = _span_order(n_grp, [a, b], "cayley:generates")
    if span != n_grp.order:
        raise ConstructionRefuted("cayley:generates", f"<a, b> has order {span} < {n_grp.order}")
    if h.group is not n_grp and not h.group.same_elements(n_grp):
        raise ConstructionRefuted("cayley:h_on_group", "h is not an automorphism of N")
    if not h.is_involution() or h.is_identity():
        raise ConstructionRefuted("cayley:h_involution")
    if h.apply_index(ai) != bi or h.apply_index(bi) != ai:
        raise ConstructionRefuted("cayley:h_swaps", "h does not interchange a and b")

    tails = np.arange(n_grp.order)
    graph = OrientedGraph(n_grp.order, np.stack([np.concatenate([tails, tails]),
                                                 np.concatenate([by_a, by_b])], axis=1))
    gens = _right_regular_generators(n_grp)
    gens.append(h.as_point_permutation())
    # h is an automorphism of N, so it normalises the right multiplications:
    # the vertex group is rho(N) extended by <h>, of order at most 2|N|
    vertex_group = enumerate_group(gens, cap, 2 * n_grp.order)
    labels = LazyLabels(n_grp.order, lambda idx: cycle_strings(n_grp.table[idx]))
    return certify_og(graph, vertex_group, 4, labels)


def lexicographic_cycle(r: int, cap: int = DEFAULT_CAP) -> OGPair:
    """2r vertices (i, j), arcs (i, j) -> (i+1, j'), acted on by the wreath
    product of Z2 by Zr (order r * 2^r)."""
    if r < 3:
        raise ConstructionRefuted("lex_cycle:r_ge_3", f"r = {r}")
    n = 2 * r
    check_table_bytes(1, n)
    tau = np.roll(np.arange(n), -2)  # (i, j) -> (i+1, j): vertex 2i + j
    flip0 = np.arange(n)
    flip0[[0, 1]] = [1, 0]
    # the pairs {2i, 2i+1} are blocks, permuted as an r-cycle by a group
    # whose kernel fixes each pair setwise: the order is at most r * 2^r
    group = enumerate_group([Permutation(tau), Permutation(flip0)], cap, r * 2 ** r)
    tails = np.repeat(np.arange(n), 2)  # each (i, j) to (i+1, 0) and (i+1, 1)
    arcs = np.stack([tails, tau[tails] - tails % 2 + np.tile([0, 1], n)], axis=1)
    labels = [f"({i},{j})" for i in range(r) for j in range(2)]
    return certify_og(OrientedGraph(n, arcs), group, 4, labels)


def simple_cayley(
    t_grp: PermGroup, a: Permutation, sigma: Permutation, cap: int = DEFAULT_CAP
) -> OGPair:
    """Cayley pair on a nonabelian simple group with half-set {a, a^sigma},
    sigma a permutation that normalises it."""
    if not is_nonabelian_simple(t_grp):
        raise ConstructionRefuted("simple_cayley:nonabelian_simple")
    try:
        aut = GroupAutomorphism.from_conjugation(t_grp, sigma)
    except OG4Error:
        raise ConstructionRefuted("simple_cayley:sigma_normalizes",
                                  "sigma does not induce an automorphism") from None
    if not aut.is_involution() or aut.is_identity():
        raise ConstructionRefuted("simple_cayley:sigma_involution")
    if a not in t_grp:
        raise ConstructionRefuted("simple_cayley:a_in_group")
    b = aut.apply(a)
    span = _span_order(t_grp, [a, b], "simple_cayley:generates")
    if span != t_grp.order:
        raise ConstructionRefuted("simple_cayley:generates", f"<a, a^sigma> has order {span}")
    return build_cayley(CayleySpec(t_grp, a, b, aut), cap)


def tw_cayley(
    t_grp: PermGroup,
    a: Permutation,
    b: Permutation,
    inventory: np.ndarray,
    cap: int = DEFAULT_CAP,
) -> OGPair:
    """Cayley pair on T x T with half-set {(a,b), (b,a)} and the coordinate
    swap; requires that no inventory row normalising T interchanges a and b.

    ``inventory`` is the caller's inventory of Aut(T) as conjugator rows
    (``conjugation_inventory``; e.g. Sym(n) for T = Alt(n), n != 6).
    """
    if not is_nonabelian_simple(t_grp):
        raise ConstructionRefuted("tw:nonabelian_simple")
    span = _span_order(t_grp, [a, b], "tw:generates")
    if span != t_grp.order:
        raise ConstructionRefuted("tw:generates", f"<a, b> has order {span}")
    if _conjugating_rows(t_grp, inventory, [(a, b), (b, a)]).any():
        raise ConstructionRefuted(
            "tw:no_swapping_automorphism",
            "an automorphism interchanging a and b exists",
        )
    s0 = embed_pair(a, b)
    s1 = embed_pair(b, a)
    iota = block_swap(t_grp.degree)
    # N = <s0, s1> lies in T x T, and the involution iota swaps s0 and s1 by
    # conjugation, so it normalises N: |N<iota>| <= 2|N| <= 2|T|^2.  N keeps
    # each half of the points and N iota swaps them, so N is the elements
    # that send point 0 into the first half
    n_iota = enumerate_group([s0, s1, iota], cap, 2 * t_grp.order ** 2)
    n_grp = PermGroup(n_iota.degree, [s0, s1], parent=n_iota,
                      mask=n_iota.table[:, 0] < t_grp.degree)
    if n_grp.order != t_grp.order ** 2:
        # cannot happen once generation + no-swap hold; kept as an honest check
        raise ConstructionRefuted("tw:halfset_spans_product",
                                  f"<S0> has order {n_grp.order}, expected {t_grp.order ** 2}")
    h = GroupAutomorphism.from_conjugation(n_grp, iota)
    pair = build_cayley(CayleySpec(n_grp, s0, s1, h), cap)
    right = [g.images for g in _right_regular_generators(n_grp)]
    if not _regular(right, _left_regular_maps(n_grp)):
        raise ConstructionRefuted("tw:n_regular", "N is not regular on vertices")
    # the vertex group is N<iota> acting on the right cosets of <iota>: N by
    # right multiplication and iota by h, conjugation; <iota> is core-free
    # since h is not the identity
    pair.group.action = n_iota
    return pair


def _span(group: PermGroup, members: Sequence[Permutation], clause: str) -> np.ndarray:
    """Mask of the subgroup the members generate, grown in the group's
    table; refutes with ``clause`` if one of them is not in the group."""
    idx = None
    if all(m.degree == group.degree for m in members):
        idx = group.index.indices_of(np.stack([m.images for m in members]))
    if idx is None:
        outside = next(m for m in members if m not in group)
        raise ConstructionRefuted(clause, f"{format_cycles(outside)} is not in the group")
    return _generate_in_parent(group, idx)[0]


def _span_order(group: PermGroup, members: Sequence[Permutation], clause: str) -> int:
    return int(_span(group, members, clause).sum())


def _right_regular_generators(n_grp: PermGroup) -> list[Permutation]:
    """N's generators as right multiplications of its element indices."""
    return [Permutation(_right_mult_map(n_grp, n_grp.index_of(g))) for g in n_grp.generators]


def _left_regular_maps(n_grp: PermGroup) -> list[np.ndarray]:
    """N's generators as left multiplications of its element indices."""
    return [_word_map(n_grp, n_grp.index_of(g), left=True) for g in n_grp.generators]


def _regular(gens: Sequence[np.ndarray], centralising: Sequence[np.ndarray]) -> bool:
    """Whether the group of index maps ``gens`` is regular, shown by a
    transitive group ``centralising`` that commutes with it: a transitive
    group with a transitive centraliser is regular (Dixon and Mortimer,
    *Permutation Groups*, Thm 4.2A).  False if either is intransitive or
    some pair of maps does not commute."""
    size = gens[0].size

    def transitive(maps):
        return not component_labels(maps, size).any()

    return (transitive(gens) and transitive(centralising)
            and all(np.array_equal(g[c], c[g]) for g in gens for c in centralising))


# ---------------------------------------------------------------------------
# coset graphs


@dataclass(frozen=True)
class CosetSpec:
    group: PermGroup
    subgroup: PermGroup
    s: Permutation


@dataclass(frozen=True)
class CosetSpace:
    group: PermGroup
    subgroup: PermGroup
    coset_id: np.ndarray  # element index -> coset index
    reps: np.ndarray  # coset index -> least element index

    @property
    def n_cosets(self) -> int:
        return self.reps.size

    def vertex_perm(self, p: Permutation) -> Permutation:
        """Right multiplication by p, a member of the group, as a permutation
        of the cosets."""
        return Permutation(self.coset_id[_word_map(self.group, self.group.index_of(p), self.reps)])

    def labels(self) -> LazyLabels:
        """"H" followed by each coset's representative, "H" alone for H."""
        def fmt(cosets: list[int]) -> list[str]:
            strings = cycle_strings(self.group.table[self.reps[cosets]])
            return ["H" + s if s != "()" else "H" for s in strings]
        return LazyLabels(self.n_cosets, fmt)


def coset_space(group: PermGroup, subgroup: PermGroup) -> CosetSpace:
    """Right cosets Hx with canonical (least-element) representatives.

    Each element's representative is the least index over its H-translates
    h * x; cosets are numbered in the order of their representatives.  The
    left multiplications by H's members are composed from the group's left
    generator maps along each member's word (``perm._word_map``), one map
    of the group at a time.
    """
    h_idx = group.index.indices_of(subgroup.table)
    if h_idx is None:
        raise OG4Error("subgroup elements not all inside the group")
    return _coset_space(group, subgroup, h_idx)


def _coset_space(group: PermGroup, subgroup: PermGroup, h_idx: np.ndarray) -> CosetSpace:
    """``coset_space``, given H's element indices."""
    least = np.arange(group.order)
    for h in h_idx:
        np.minimum(least, _word_map(group, h, left=True), out=least)
    reps = np.flatnonzero(least == np.arange(group.order))
    return CosetSpace(group, subgroup, np.searchsorted(reps, least), reps)


def _double_coset_mask(group: PermGroup, h_idx: np.ndarray, si: int) -> np.ndarray:
    """HsH as a mask over the group's table: each h * (s * h'), the left
    multiplications read only at the |H| points they are applied to."""
    member = np.zeros(group.order, dtype=bool)
    s_h = _word_map(group, si, h_idx, left=True)
    for h in h_idx:
        member[_word_map(group, h, s_h, left=True)] = True
    return member


def double_coset_graph(
    spec: CosetSpec, cap: int = DEFAULT_CAP
) -> tuple[OrientedGraph, PermGroup, CosetSpace]:
    """Raw coset graph: arcs Hx -> Hy iff y * x^-1 in HsH, plus the vertex
    action of the full group.  No OG conditions are enforced here."""
    group = spec.group
    space = coset_space(group, spec.subgroup)
    h_idx = np.flatnonzero(space.coset_id == 0)  # H, the identity's coset
    return _coset_graph(space, _double_coset_mask(group, h_idx, group.index_of(spec.s)), cap)


def _coset_graph(space: CosetSpace, dcs: np.ndarray,
                 cap: int) -> tuple[OrientedGraph, PermGroup, CosetSpace]:
    """``double_coset_graph``, given the coset space and HsH's mask."""
    group, n = space.group, space.n_cosets
    heads = np.concatenate([space.coset_id[_word_map(group, d, space.reps, left=True)]
                            for d in np.flatnonzero(dcs)])
    group._left = None  # only the coset graph reads the left maps
    codes = _distinct_codes(np.tile(np.arange(n), heads.size // n), heads, n)
    graph = OrientedGraph(n, np.stack([codes // n, codes % n], axis=1))
    # the coset action is a homomorphic image of the group
    vertex_group = enumerate_group(
        [space.vertex_perm(g) for g in group.generators], cap, group.order
    )
    return graph, vertex_group, space


def build_coset_graph(spec: CosetSpec, cap: int = DEFAULT_CAP) -> OGPair:
    """Certified OG(4) coset graph; each membership clause is checked and
    reported individually."""
    group, subgroup, s = spec.group, spec.subgroup, spec.s
    if subgroup.order >= group.order:
        raise ConstructionRefuted("coset:proper_subgroup")
    h_idx = group.index.indices_of(subgroup.table)
    if h_idx is None:
        outside = next(g for g in subgroup.generators if g not in group)
        raise ConstructionRefuted("coset:subgroup_in_group",
                                  f"{format_cycles(outside)} is not in the group")
    if s not in group:
        raise ConstructionRefuted("coset:s_in_group")

    in_h = np.zeros(group.order, dtype=bool)
    in_h[h_idx] = True
    core = int(_core(group, in_h).sum())
    if core != 1:
        raise ConstructionRefuted("coset:core_free", f"core has order {core}")

    si, s_inv = group.index_of(s), group.index_of(s.inverse())
    dcs = _double_coset_mask(group, h_idx, si)
    if dcs[s_inv]:
        raise ConstructionRefuted("coset:s_inv_not_in_HsH",
                                  "s^-1 lies in HsH (arc-transitive, not oriented)")

    h_conj = _word_map(group, s_inv, _word_map(group, si, h_idx), left=True)  # s^-1 h s
    meet = int(in_h[h_conj].sum())
    if h_idx.size != 2 * meet:
        raise ConstructionRefuted(
            "coset:index_two",
            f"|H : H meet H^s| = {h_idx.size // max(meet, 1)}, need 2",
        )

    span = _span_order(group, list(subgroup.generators) + [s], "coset:generates")
    if span != group.order:
        raise ConstructionRefuted("coset:generates", f"<H, s> has order {span} < {group.order}")

    graph, vertex_group, space = _coset_graph(_coset_space(group, subgroup, h_idx), dcs, cap)
    if vertex_group.order != group.order:
        raise ConstructionRefuted(
            "coset:faithful",
            f"the coset action has order {vertex_group.order}, |G| = {group.order}")
    vertex_group.action = group  # faithful: G itself, on its own points
    return certify_og(graph, vertex_group, 4, space.labels())


def coset_simple(
    g_grp: PermGroup, h: Permutation, g: Permutation, cap: int = DEFAULT_CAP
) -> OGPair:
    """Coset pair on a nonabelian simple group over an order-2 subgroup."""
    if not is_nonabelian_simple(g_grp):
        raise ConstructionRefuted("coset_simple:nonabelian_simple")
    if h.is_identity() or not compose(h, h).is_identity():
        raise ConstructionRefuted("coset_simple:h_involution")
    gh = conjugate(g, h)
    if gh == g:
        raise ConstructionRefuted("coset_simple:gh_ne_g")
    span = _span_order(g_grp, [g, gh], "coset_simple:generates")
    if span != g_grp.order:
        raise ConstructionRefuted("coset_simple:generates", f"<g, g^h> has order {span}")
    subgroup = _subgroup(g_grp, _span(g_grp, [h], "coset:subgroup_in_group"))
    return build_coset_graph(CosetSpec(g_grp, subgroup, g), cap)


def sym_bigstab(n: int, cap: int = DEFAULT_CAP) -> OGPair:
    """Coset pair on Sym(n), n odd >= 5, over the elementary abelian group
    generated by the (i, i+m) transpositions, m = (n-1)/2."""
    if n < 5 or n % 2 == 0:
        raise ConstructionRefuted("sym_bigstab:n_odd_ge_5", f"n = {n}")
    check_table_bytes(1, n)
    group = symmetric_group(n, cap)
    m = (n - 1) // 2
    gens = [parse_cycle_pair(i, i + m, n) for i in range(m)]
    subgroup = _subgroup(group, _span(group, gens, "coset:subgroup_in_group"))
    s = Permutation(np.roll(np.arange(n), -1))
    return build_coset_graph(CosetSpec(group, subgroup, s), cap)


def pa_construction(
    t_grp: PermGroup,
    a: Permutation,
    b: Permutation,
    inventory: np.ndarray,
    cap: int = DEFAULT_CAP,
) -> OGPair:
    """Coset pair on (T x T) extended by the coordinate swap, over the
    Klein subgroup generated by (a, a) and the swap, with s = (b, b*a).

    ``inventory`` is the caller's inventory of Aut(T) as conjugator rows
    (``conjugation_inventory``); the hypothesis checked is b^c != b*a for
    every inventory row c that normalises T and centralises a.
    """
    if not is_nonabelian_simple(t_grp):
        raise ConstructionRefuted("pa:nonabelian_simple")
    if a.is_identity() or not compose(a, a).is_identity():
        raise ConstructionRefuted("pa:a_involution")
    span = _span_order(t_grp, [a, b], "pa:generates")
    if span != t_grp.order:
        raise ConstructionRefuted("pa:generates", f"<a, b> has order {span}")
    ba = compose(b, a)
    if _conjugating_rows(t_grp, inventory, [(a, a), (b, ba)]).any():
        raise ConstructionRefuted(
            "pa:b_not_conjugate_to_ba",
            "some automorphism centralizing a maps b to b*a",
        )
    d = t_grp.degree
    iota = block_swap(d)
    g_gens = [embed_pair(t, identity(d)) for t in t_grp.generators] + [iota]
    # <T x 1, iota> lies in (T x T) x| <iota>, of order 2|T|^2
    group = enumerate_group(g_gens, cap, 2 * t_grp.order ** 2)
    klein = _span(group, [embed_pair(a, a), iota], "coset:subgroup_in_group")
    subgroup = _subgroup(group, klein)
    if subgroup.order != 4 or (_element_orders(subgroup.table) > 2).any():
        raise ConstructionRefuted("pa:klein_subgroup", "H is not Z2 x Z2")
    s = embed_pair(b, ba)
    return build_coset_graph(CosetSpec(group, subgroup, s), cap)
