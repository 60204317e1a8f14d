"""Builders for certified OG(4) pairs: Cayley graphs, coset graphs, and the
named example families.

Every builder either returns a certified OGPair or raises
ConstructionRefuted with a machine-readable clause tag naming the violated
hypothesis.  The group product used throughout is "left factor first":
``x * y`` acts as ``x`` then ``y``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .graph import ConstructionRefuted, OGPair, OrientedGraph, certify_og
from .perm import (
    DEFAULT_CAP,
    GroupAutomorphism,
    OG4Error,
    PermGroup,
    Permutation,
    compose,
    conjugate,
    enumerate_group,
    format_cycles,
    identity,
    is_nonabelian_simple,
    transitivity_profile,
)

AutLike = Union[GroupAutomorphism, Permutation]


# ---------------------------------------------------------------------------
# standard groups


def cyclic_group(n: int) -> PermGroup:
    return enumerate_group([Permutation(np.roll(np.arange(n), -1))])


def symmetric_group(n: int, cap: int = DEFAULT_CAP) -> PermGroup:
    if n < 2:
        return enumerate_group([identity(max(n, 1))])
    cycle = Permutation(np.roll(np.arange(n), -1))
    swap = parse_cycle_pair(0, 1, n)
    return enumerate_group([swap, cycle], cap)


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


def conjugation_inventory(supergroup: PermGroup) -> list[Permutation]:
    """All conjugations inside a stated supergroup, as the conjugating
    permutations themselves."""
    return supergroup.elements()


# ---------------------------------------------------------------------------
# index arithmetic on an enumerated group


class _IndexOps:
    def __init__(self, group: PermGroup):
        self.group = group
        self.idx = group.index

    def of(self, p: Permutation) -> int:
        return self.group.index_of(p)

    def mul(self, i: int, j: int) -> int:
        # i then j
        return self.idx[self.group.table[j][self.group.table[i]].tobytes()]

    def inv(self, i: int) -> int:
        row = self.group.table[i]
        out = np.empty_like(row)
        out[row] = np.arange(row.size, dtype=row.dtype)
        return self.idx[out.tobytes()]

    def right_mult_perm(self, j: int) -> Permutation:
        """The permutation of element indices i -> i * j."""
        rows = self.group.table[j][self.group.table]  # (order, degree)
        images = np.fromiter(
            (self.idx[rows[i].tobytes()] for i in range(self.group.order)),
            dtype=np.int32,
            count=self.group.order,
        )
        return Permutation(images)


# ---------------------------------------------------------------------------
# Cayley graphs


@dataclass(frozen=True)
class CayleySpec:
    group: PermGroup  # the abstract group N, fully enumerated
    a: Permutation
    b: Permutation
    h: GroupAutomorphism  # involutory automorphism of N swapping a and b


def find_swapping_automorphism(
    group: PermGroup, a: Permutation, b: Permutation, candidates: Sequence[AutLike]
) -> Optional[GroupAutomorphism]:
    """First automorphism among the candidates that swaps a and b."""
    for cand in candidates:
        aut = _as_automorphism(group, cand)
        if aut is None:
            continue
        if aut.apply(a) == b and aut.apply(b) == a:
            return aut
    return None


def _as_automorphism(group: PermGroup, cand: AutLike) -> Optional[GroupAutomorphism]:
    if isinstance(cand, GroupAutomorphism):
        return cand
    try:
        return GroupAutomorphism.from_conjugation(group, cand)
    except OG4Error:
        return None


def build_cayley(spec: CayleySpec, cap: int = DEFAULT_CAP) -> OGPair:
    """Cayley graph on the elements of N with half-set {a, b}, oriented
    x -> y iff y * x^-1 in {a, b}, acted on by N (right multiplication)
    extended by the swapping automorphism h."""
    n_grp, a, b, h = spec.group, spec.a, spec.b, spec.h
    ops = _IndexOps(n_grp)
    if a not in n_grp or b not in n_grp:
        raise ConstructionRefuted("cayley:elements_in_group")
    ai, bi = ops.of(a), ops.of(b)
    ident = n_grp.identity_index
    if ai == bi:
        raise ConstructionRefuted("cayley:halfset_size", "a = b")
    if ops.mul(ai, ai) == ident:
        raise ConstructionRefuted("cayley:a_sq_ne_1", "a is an involution")
    if ops.mul(bi, bi) == ident:
        raise ConstructionRefuted("cayley:b_sq_ne_1", "b is an involution")
    if ops.mul(ai, bi) == ident:
        raise ConstructionRefuted("cayley:ab_ne_1", "b = a^-1")
    if len({ai, bi, ops.inv(ai), ops.inv(bi)}) != 4:
        raise ConstructionRefuted("cayley:halfset_disjoint", "S0 meets its inverse set")
    span = enumerate_group([a, b], cap)
    if span.order != n_grp.order:
        raise ConstructionRefuted(
            "cayley:generates", f"<a, b> has order {span.order} < {n_grp.order}"
        )
    if h.group is not n_grp and not h.group.same_elements(n_grp):
        raise ConstructionRefuted("cayley:h_on_group", "h is not an automorphism of N")
    if not h.is_involution() or h.is_identity():
        raise ConstructionRefuted("cayley:h_involution")
    if h.apply_index(ai) != bi or h.apply_index(bi) != ai:
        raise ConstructionRefuted("cayley:h_swaps", "h does not interchange a and b")

    arcs = []
    for x in range(n_grp.order):
        arcs.append((x, ops.mul(ai, x)))
        arcs.append((x, ops.mul(bi, x)))
    graph = OrientedGraph(n_grp.order, arcs)
    gens = [ops.right_mult_perm(ops.of(g)) for g in n_grp.generators]
    gens.append(h.as_point_permutation())
    vertex_group = enumerate_group(gens, cap)
    labels = [format_cycles(n_grp.element(i)) for i in range(n_grp.order)]
    return certify_og(graph, vertex_group, 4, labels)


def lexicographic_cycle(r: int, cap: int = DEFAULT_CAP) -> OGPair:
    """2r vertices (i, j), arcs (i, j) -> (i+1, j'), acted on by the wreath
    product of Z2 by Zr (order r * 2^r)."""
    if r < 3:
        raise ConstructionRefuted("lex_cycle:r_ge_3", f"r = {r}")
    n = 2 * r
    tau = np.empty(n, dtype=np.int32)
    flip0 = np.arange(n, dtype=np.int32)
    for i in range(r):
        for j in range(2):
            tau[2 * i + j] = 2 * ((i + 1) % r) + j
    flip0[[0, 1]] = [1, 0]
    group = enumerate_group([Permutation(tau), Permutation(flip0)], cap)
    arcs = [
        (2 * i + j, 2 * ((i + 1) % r) + jp)
        for i in range(r)
        for j in range(2)
        for jp in range(2)
    ]
    labels = [f"({i},{j})" for i in range(r) for j in range(2)]
    return certify_og(OrientedGraph(n, arcs), group, 4, labels)


def simple_cayley(
    t_grp: PermGroup, a: Permutation, sigma: AutLike, cap: int = DEFAULT_CAP
) -> OGPair:
    """Cayley pair on a nonabelian simple group with half-set {a, a^sigma}."""
    if not is_nonabelian_simple(t_grp):
        raise ConstructionRefuted("simple_cayley:nonabelian_simple")
    aut = _as_automorphism(t_grp, sigma)
    if aut is None:
        raise ConstructionRefuted("simple_cayley:sigma_normalizes",
                                  "sigma does not induce an automorphism")
    if not aut.is_involution() or aut.is_identity():
        raise ConstructionRefuted("simple_cayley:sigma_involution")
    b = aut.apply(a)
    span = enumerate_group([a, b], cap)
    if span.order != t_grp.order:
        raise ConstructionRefuted("simple_cayley:generates",
                                  f"<a, a^sigma> has order {span.order}")
    return build_cayley(CayleySpec(t_grp, a, b, aut), cap)


def tw_cayley(
    t_grp: PermGroup,
    a: Permutation,
    b: Permutation,
    aut_list: Sequence[AutLike],
    cap: int = DEFAULT_CAP,
) -> OGPair:
    """Cayley pair on T x T with half-set {(a,b), (b,a)} and the coordinate
    swap; requires that no supplied automorphism of T interchanges a and b.

    ``aut_list`` is the caller's inventory of Aut(T) (e.g. all conjugations
    inside Sym(n) for T = Alt(n), n != 6).
    """
    if not is_nonabelian_simple(t_grp):
        raise ConstructionRefuted("tw:nonabelian_simple")
    span = enumerate_group([a, b], cap)
    if span.order != t_grp.order:
        raise ConstructionRefuted("tw:generates", f"<a, b> has order {span.order}")
    swapper = find_swapping_automorphism(t_grp, a, b, aut_list)
    if swapper is not None:
        raise ConstructionRefuted(
            "tw:no_swapping_automorphism",
            "an automorphism interchanging a and b exists",
        )
    s0 = embed_pair(a, b)
    s1 = embed_pair(b, a)
    n_grp = enumerate_group([s0, s1], cap)
    if n_grp.order != t_grp.order ** 2:
        # cannot happen once generation + no-swap hold; kept as an honest check
        raise ConstructionRefuted("tw:halfset_spans_product",
                                  f"<S0> has order {n_grp.order}, expected {t_grp.order ** 2}")
    h = GroupAutomorphism.from_conjugation(n_grp, block_swap(t_grp.degree))
    pair = build_cayley(CayleySpec(n_grp, s0, s1, h), cap)
    n_vertex_action = _right_regular_image(n_grp, pair.group)
    if not transitivity_profile(n_vertex_action).regular:
        raise ConstructionRefuted("tw:n_regular", "N is not regular on vertices")
    return pair


def _right_regular_image(n_grp: PermGroup, vertex_group: PermGroup) -> PermGroup:
    """Image of N inside the Cayley vertex action (right multiplications)."""
    ops = _IndexOps(n_grp)
    gens = [ops.right_mult_perm(ops.of(g)) for g in n_grp.generators]
    return enumerate_group(gens, vertex_group.order + 1)


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
        """Right multiplication by p as a permutation of the cosets."""
        rows = p.images[self.group.table[self.reps]]
        idx = self.group.index
        images = np.fromiter(
            (self.coset_id[idx[rows[c].tobytes()]] for c in range(self.n_cosets)),
            dtype=np.int32,
            count=self.n_cosets,
        )
        return Permutation(images)

    def labels(self) -> list[str]:
        return [
            "H" + (format_cycles(self.group.element(int(r))) if
                   int(r) != self.group.identity_index else "")
            for r in self.reps
        ]


def coset_space(group: PermGroup, subgroup: PermGroup) -> CosetSpace:
    """Right cosets Hx with canonical (least-element) representatives."""
    if not group.contains_all(subgroup):
        raise OG4Error("subgroup elements not all inside the group")
    ops = _IndexOps(group)
    h_idx = [int(i) for i in subgroup.element_indices_in(group)]
    coset_id = np.full(group.order, -1, dtype=np.int64)
    reps = []
    for i in range(group.order):
        if coset_id[i] >= 0:
            continue
        cid = len(reps)
        reps.append(i)
        for h in h_idx:
            coset_id[ops.mul(h, i)] = cid
    return CosetSpace(group, subgroup, coset_id, np.asarray(reps, dtype=np.int64))


def _core_indices(group: PermGroup, h_idx: set[int]) -> set[int]:
    """Largest normal subgroup of the group inside H, by iterated pruning."""
    ops = _IndexOps(group)
    gen_idx = [ops.of(g) for g in group.generators]
    gen_inv = [ops.inv(i) for i in gen_idx]
    core = set(h_idx)
    while True:
        keep = {
            x for x in core
            if all(ops.mul(ops.mul(gi_inv, x), gi) in core
                   for gi, gi_inv in zip(gen_idx, gen_inv))
        }
        if keep == core:
            return core
        core = keep


def double_coset_graph(
    spec: CosetSpec, cap: int = DEFAULT_CAP
) -> tuple[OrientedGraph, PermGroup, CosetSpace]:
    """Raw coset graph: arcs Hx -> Hy iff y * x^-1 in HsH, plus the vertex
    action of the full group.  No OG conditions are enforced here."""
    group, subgroup, s = spec.group, spec.subgroup, spec.s
    ops = _IndexOps(group)
    space = coset_space(group, subgroup)
    h_idx = [int(i) for i in subgroup.element_indices_in(group)]
    si = ops.of(s)
    dcs = sorted({ops.mul(ops.mul(h1, si), h2) for h1 in h_idx for h2 in h_idx})
    arcs = set()
    for c in range(space.n_cosets):
        x = int(space.reps[c])
        for d in dcs:
            arcs.add((c, int(space.coset_id[ops.mul(d, x)])))
    graph = OrientedGraph(space.n_cosets, sorted(arcs))
    vertex_group = enumerate_group(
        [space.vertex_perm(g) for g in group.generators], cap
    )
    return graph, vertex_group, space


def build_coset_graph(spec: CosetSpec, cap: int = DEFAULT_CAP) -> OGPair:
    """Certified OG(4) coset graph; each membership clause is checked and
    reported individually."""
    group, subgroup, s = spec.group, spec.subgroup, spec.s
    if subgroup.order >= group.order:
        raise ConstructionRefuted("coset:proper_subgroup")
    if s not in group:
        raise ConstructionRefuted("coset:s_in_group")
    ops = _IndexOps(group)
    h_idx = {int(i) for i in subgroup.element_indices_in(group)}
    ident = group.identity_index

    core = _core_indices(group, h_idx)
    if core != {ident}:
        raise ConstructionRefuted("coset:core_free", f"core has order {len(core)}")

    si = ops.of(s)
    dcs = {ops.mul(ops.mul(h1, si), h2) for h1 in h_idx for h2 in h_idx}
    if ops.inv(si) in dcs:
        raise ConstructionRefuted("coset:s_inv_not_in_HsH",
                                  "s^-1 lies in HsH (arc-transitive, not oriented)")

    s_inv = ops.inv(si)
    h_conj = {ops.mul(ops.mul(s_inv, h), si) for h in h_idx}
    meet = h_idx & h_conj
    if len(h_idx) != 2 * len(meet):
        raise ConstructionRefuted(
            "coset:index_two",
            f"|H : H meet H^s| = {len(h_idx) // max(len(meet), 1)}, need 2",
        )

    span = enumerate_group(list(subgroup.generators) + [s], cap)
    if span.order != group.order:
        raise ConstructionRefuted("coset:generates",
                                  f"<H, s> has order {span.order} < {group.order}")

    graph, vertex_group, space = double_coset_graph(spec, cap)
    if vertex_group.order != group.order:
        raise ConstructionRefuted("coset:faithful",
                                  "coset action is not faithful despite core-freeness")
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
    span = enumerate_group([g, gh], cap)
    if span.order != g_grp.order:
        raise ConstructionRefuted("coset_simple:generates",
                                  f"<g, g^h> has order {span.order}")
    subgroup = enumerate_group([h], cap)
    return build_coset_graph(CosetSpec(g_grp, subgroup, g), cap)


def sym_bigstab(n: int, cap: int = DEFAULT_CAP) -> OGPair:
    """Coset pair on Sym(n), n odd >= 5, over the elementary abelian group
    generated by the (i, i+m) transpositions, m = (n-1)/2."""
    if n < 5 or n % 2 == 0:
        raise ConstructionRefuted("sym_bigstab:n_odd_ge_5", f"n = {n}")
    group = symmetric_group(n, cap)
    m = (n - 1) // 2
    gens = [parse_cycle_pair(i, i + m, n) for i in range(m)]
    subgroup = enumerate_group(gens, cap)
    s = Permutation(np.roll(np.arange(n), -1))
    return build_coset_graph(CosetSpec(group, subgroup, s), cap)


def pa_construction(
    t_grp: PermGroup,
    a: Permutation,
    b: Permutation,
    centralizer_witness: Sequence[AutLike],
    cap: int = DEFAULT_CAP,
) -> OGPair:
    """Coset pair on (T x T) extended by the coordinate swap, over the
    Klein subgroup generated by (a, a) and the swap, with s = (b, b*a).

    ``centralizer_witness`` is the caller's inventory of Aut(T); the
    hypothesis checked is b^c != b*a for every inventory member centralizing
    a.
    """
    if not is_nonabelian_simple(t_grp):
        raise ConstructionRefuted("pa:nonabelian_simple")
    if a.is_identity() or not compose(a, a).is_identity():
        raise ConstructionRefuted("pa:a_involution")
    span = enumerate_group([a, b], cap)
    if span.order != t_grp.order:
        raise ConstructionRefuted("pa:generates", f"<a, b> has order {span.order}")
    ba = compose(b, a)
    for cand in centralizer_witness:
        aut = _as_automorphism(t_grp, cand)
        if aut is None or aut.apply(a) != a:
            continue
        if aut.apply(b) == ba:
            raise ConstructionRefuted(
                "pa:b_not_conjugate_to_ba",
                "some automorphism centralizing a maps b to b*a",
            )
    d = t_grp.degree
    iota = block_swap(d)
    g_gens = [embed_pair(t, identity(d)) for t in t_grp.generators] + [iota]
    group = enumerate_group(g_gens, cap)
    subgroup = enumerate_group([embed_pair(a, a), iota], cap)
    if subgroup.order != 4 or any(
        not compose(p, p).is_identity() for p in subgroup.elements()
    ):
        raise ConstructionRefuted("pa:klein_subgroup", "H is not Z2 x Z2")
    s = embed_pair(b, ba)
    return build_coset_graph(CosetSpec(group, subgroup, s), cap)
