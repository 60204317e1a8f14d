"""Top-level acceptance suite.

Each criterion gets one test (criterion 2 gets two: its basic-type clause is
recorded as an expected failure, see the comment there).  Every criterion
prints a single ``ACCEPTANCE n: PASS|FAIL`` line in the terminal summary via
the conftest hook; all checks are exact, and runtime bounds are asserted.
"""

import itertools
import time

import numpy as np
import pytest

import og4
from og4 import ConstructionRefuted, parse_permutation as P
from og4.constructions import (
    CayleySpec,
    CosetSpec,
    build_cayley,
    double_coset_graph,
    pgl2,
)
from og4.graph import arc_orbit_count, certify_og, connectivity, orbital_graph
from og4.perm import BlockPartition, GroupAutomorphism, Permutation, induced_block_action
from og4.quotient import basic_type, classify_all_quotients, classify_og4_quotient

from conftest import record_acceptance

import oracles


def _check(failures, ok, message):
    if not ok:
        failures.append(message)
    return ok


def _finish(criterion, failures):
    record_acceptance(criterion, not failures)
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


# ---------------------------------------------------------------------------


def test_criterion_1_lexicographic_family():
    failures = []
    t0 = time.perf_counter()
    for r in range(3, 9):
        pair = og4.lexicographic_cycle(r)
        _check(failures, pair.graph.n_vertices == 2 * r, f"r={r}: vertex count")
        _check(failures, pair.group.order == r * 2 ** r, f"r={r}: |G|")
        _check(failures, pair.certificate.stabilizer_order == 2 ** (r - 1),
               f"r={r}: |G_x|")
        stab = og4.point_stabilizer(pair.group, 0)
        _check(failures,
               all(p.order() in (1, 2) for p in stab.elements())
               and all((p * q) == (q * p)
                       for p in stab.generators for q in stab.generators),
               f"r={r}: stabilizer is not elementary abelian 2")
        _check(failures, basic_type(pair) == "Cycle", f"r={r}: basic type")
        # quotient by the base group (kernel of the action on column pairs)
        part = BlockPartition.from_labels(np.arange(2 * r) // 2)
        _, base = induced_block_action(pair.group, part)
        _check(failures, base.order == 2 ** r, f"r={r}: base order")
        out = classify_og4_quotient(pair, base)
        _check(failures, out.kind == "OrientedCycle" and out.cycle_length == r,
               f"r={r}: base quotient is not an oriented {r}-cycle")
        _check(failures, out.induced_group.order == r,
               f"r={r}: induced group order")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 5.0, f"runtime {elapsed:.2f}s >= 5s")
    _finish(1, failures)


# ---------------------------------------------------------------------------
# criterion 2: the named instance certifies with the stated sizes, but its
# acting group contains a central fixed-point-free involution whose quotient
# is a genuine 30-vertex cover, so the pair is NonBasic rather than
# Quasiprimitive.  The attainable clauses are asserted here; the basic-type
# clause is a strict expected failure below, and the criterion is recorded
# honestly as FAIL.


@pytest.fixture(scope="module")
def criterion2_pair():
    t0 = time.perf_counter()
    pair = og4.simple_cayley(og4.alternating_group(5), P("(1 2 3)", 5),
                             P("(1 4)(2 5)", 5))
    return pair, time.perf_counter() - t0


def test_criterion_2_simple_cayley_instance(criterion2_pair):
    pair, elapsed = criterion2_pair
    failures = []
    _check(failures, pair.graph.n_vertices == 60, "vertex count")
    _check(failures, pair.group.order == 120, "|G|")
    _check(failures, og4.reverify(pair).ok, "certificate")
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s")
    bt = basic_type(pair)
    record_acceptance(2, not failures and bt == "Quasiprimitive")
    assert not failures, "; ".join(failures)


@pytest.mark.xfail(
    strict=True,
    reason="the twisting involution is realized by conjugation inside Alt(5), "
    "so the acting group is Alt(5) x Z2 with a central semiregular involution "
    "whose quotient is a nondegenerate cover; the pair is NonBasic, and no "
    "run of this construction on this instance can be quasiprimitive",
)
def test_criterion_2_basic_type_clause(criterion2_pair):
    pair, _ = criterion2_pair
    assert basic_type(pair) == "Quasiprimitive"


def test_criterion_2_nonbasic_is_genuine(criterion2_pair):
    # independent witness for the expected failure above: the order-2 normal subgroup
    # is semiregular and central, and its quotient is a certified cover
    pair, _ = criterion2_pair
    kinds = {n.order: out for n, out in classify_all_quotients(pair)}
    assert kinds[2].kind == "Cover"
    assert kinds[2].quotient_pair.graph.n_vertices == 30
    z = next(p for p in kinds[2].kernel.elements() if not p.is_identity())
    assert all((z * g) == (g * z) for g in pair.group.generators)


# ---------------------------------------------------------------------------


def test_criterion_3_twisted_cayley():
    failures = []
    t0 = time.perf_counter()
    alt5 = og4.alternating_group(5)
    sym5 = og4.symmetric_group(5)
    pair = og4.tw_cayley(alt5, P("(1 2 3)", 5), P("(1 2 3 4 5)", 5),
                         og4.conjugation_inventory(sym5))
    _check(failures, pair.graph.n_vertices == 3600, "vertex count")
    mins = og4.minimal_normal_subgroups(pair.group)
    _check(failures, len(mins) == 1, "unique minimal normal subgroup")
    _check(failures, mins[0].order == 3600, "minimal normal order |T|^2")
    prof = og4.transitivity_profile(mins[0])
    _check(failures, prof.regular, "N = T x T regular")
    _check(failures, basic_type(pair) == "Quasiprimitive", "basic type")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 60.0, f"runtime {elapsed:.2f}s >= 60s")
    _finish(3, failures)


def test_criterion_3_swapping_check_is_live(sym5):
    # the no-swapping-automorphism clause really scans all 120 conjugations:
    # a pair that is swapped by one of them is refuted on exactly that clause
    alt5 = og4.alternating_group(5)
    inventory = og4.conjugation_inventory(sym5)
    assert len(inventory) == 120
    with pytest.raises(ConstructionRefuted) as exc:
        og4.tw_cayley(alt5, P("(1 2 3)", 5), P("(3 4 5)", 5), inventory)
    assert exc.value.clause == "tw:no_swapping_automorphism"


# ---------------------------------------------------------------------------


def test_criterion_4_big_stabilizer_family():
    failures = []
    t0 = time.perf_counter()
    expected = {5: (30, 4), 7: (630, 8)}
    for n, (verts, stab) in expected.items():
        pair = og4.sym_bigstab(n)
        _check(failures, pair.graph.n_vertices == verts, f"n={n}: vertex count")
        _check(failures, pair.certificate.stabilizer_order == stab,
               f"n={n}: stabilizer order")
        _check(failures, stab == 2 ** ((n - 1) // 2), f"n={n}: 2^((n-1)/2)")
        _check(failures, basic_type(pair) == "Quasiprimitive", f"n={n}: basic type")
        # the four defining clauses, each verified directly
        m = (n - 1) // 2
        sym = og4.symmetric_group(n)
        h_gens = [P(f"({i + 1} {i + m + 1})", n) for i in range(m)]
        h_sub = og4.enumerate_group(h_gens)
        s = P("(" + " ".join(str(i + 1) for i in range(n)) + ")", n)
        _check(failures,
               og4.enumerate_group(h_gens + [s]).order == sym.order,
               f"n={n}: clause <H,s> = G")
        hsh = {
            (a * s * b).images.tobytes()
            for a in h_sub.elements() for b in h_sub.elements()
        }
        _check(failures, s.inverse().images.tobytes() not in hsh,
               f"n={n}: clause s^-1 not in HsH")
        h_and_conj = [p for p in h_sub.elements()
                      if og4.conjugate(p, s.inverse()).images.tobytes()
                      in {q.images.tobytes() for q in h_sub.elements()}]
        _check(failures, len(h_and_conj) * 2 == h_sub.order,
               f"n={n}: clause |H : H meet H^s| = 2")
        _check(failures, _core_is_trivial(sym, h_sub),
               f"n={n}: clause H core-free")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 30.0, f"runtime {elapsed:.2f}s >= 30s")
    _finish(4, failures)


def _core_is_trivial(group, subgroup) -> bool:
    sub_bytes = {p.images.tobytes() for p in subgroup.elements()}
    for p in subgroup.elements():
        if p.is_identity():
            continue
        if all(og4.conjugate(p, g).images.tobytes() in sub_bytes
               for g in group.generators):
            return False
    return True


# ---------------------------------------------------------------------------


def test_criterion_5_product_action():
    failures = []
    t0 = time.perf_counter()
    alt5 = og4.alternating_group(5)
    sym5 = og4.symmetric_group(5)
    pair = og4.pa_construction(alt5, P("(1 2)(3 4)", 5), P("(1 5 4 3 2)", 5),
                               og4.conjugation_inventory(sym5))
    _check(failures, pair.graph.n_vertices == 1800, "vertex count")
    stab = og4.point_stabilizer(pair.group, 0)
    _check(failures, stab.order == 4, "|H| = 4")
    _check(failures,
           all(p.order() in (1, 2) for p in stab.elements()),
           "H is Klein four")
    # |H meet H^g| = 2 for g carrying the base vertex along an arc
    w = oracles.neighbors(pair.graph)[0][0][0]
    g = next(p for p in pair.group.elements() if p.apply(0) == w)
    stab_w = og4.point_stabilizer(pair.group, w)
    sw = {p.images.tobytes() for p in stab_w.elements()}
    inter = [p for p in stab.elements() if p.images.tobytes() in sw]
    _check(failures, len(inter) == 2, "|H meet H^g| = 2")
    mins = og4.minimal_normal_subgroups(pair.group)
    _check(failures, len(mins) == 1 and mins[0].order == 3600,
           "unique minimal normal T x T")
    prof = og4.transitivity_profile(mins[0])
    _check(failures, prof.transitive and not prof.regular,
           "minimal normal subgroup transitive but not regular")
    _check(failures, basic_type(pair) == "Quasiprimitive", "basic type")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 120.0, f"runtime {elapsed:.2f}s >= 120s")
    _finish(5, failures)


# ---------------------------------------------------------------------------


def test_criterion_6_projective_21_vertex():
    failures = []
    t0 = time.perf_counter()
    group = pgl2(7)
    _check(failures, group.order == 336 and group.degree == 8, "PGL(2,7) on 8 points")
    els = list(group.elements())
    h8 = next(p for p in els if p.order() == 8)
    t = next(p for p in els
             if p.order() == 2 and (p.inverse() * h8 * p) == h8.inverse())
    dihedral = og4.enumerate_group([h8, t])
    _check(failures, dihedral.order == 16, "dihedral subgroup of order 16")
    hset = {p.images.tobytes() for p in dihedral.elements()}

    found = None
    for s in els:
        if s.images.tobytes() in hset:
            continue
        try:
            graph, vertex_group, space = double_coset_graph(
                CosetSpec(group, dihedral, s))
        except og4.OG4Error:
            continue
        arcs = set(map(tuple, graph.arcs.tolist()))
        if graph.n_vertices != 21 or not connectivity(graph).connected:
            continue
        if arcs != {(y, x) for x, y in arcs}:
            continue  # need the arc-transitive (self-paired) graph
        if {sum(1 for a in arcs if a[0] == v) for v in range(21)} != {4}:
            continue
        found = (graph, vertex_group, space)
        break
    if not _check(failures, found is not None,
                  "no coset graph on 21 vertices is 4-valent arc-transitive"):
        _finish(6, failures)
        return
    graph, vertex_group, space = found
    _check(failures, vertex_group.order == 336, "faithful vertex action of order 336")

    frobenius = og4.point_stabilizer(group, 7)
    _check(failures, frobenius.order == 42, "Frobenius subgroup of order 42")
    fv = og4.enumerate_group([space.vertex_perm(p) for p in frobenius.generators])
    _check(failures, fv.order == 42, "Frobenius subgroup acts faithfully")
    _check(failures, arc_orbit_count(graph, fv) == 2, "two arc orbits")

    # the Frobenius orbit of the least arc is one orientation class
    gen_rows = fv.gen_rows()
    start = min(map(tuple, graph.arcs.tolist()))
    seen = {start}
    stack = [start]
    while stack:
        a, b = stack.pop()
        for g in gen_rows:
            nxt = (int(g[a]), int(g[b]))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    delta = sorted(seen)
    delta_star = sorted((y, x) for x, y in delta)
    _check(failures, len(delta) == 42, "orientation class has 42 arcs")
    _check(failures, set(delta).isdisjoint(delta_star), "orientation classes disjoint")
    _check(failures,
           sorted(delta + delta_star) == sorted(map(tuple, graph.arcs.tolist())),
           "orientation classes cover the arcs")
    try:
        og_pair = certify_og(og4.OrientedGraph(21, delta), fv, 4)
        _check(failures, og_pair.certificate.stabilizer_order == 2,
               "OG(4) certificate with stabilizer Z2")
    except ConstructionRefuted as exc:
        _check(failures, False, f"orientation class failed OG(4): {exc}")

    delta_set = set(delta)
    delta_star_set = set(delta_star)
    swappers = [
        g for g in vertex_group.elements()
        if {(int(g.images[x]), int(g.images[y])) for x, y in delta_set}
        == delta_star_set
    ]
    _check(failures, not swappers,
           "an element of the full group interchanges the orientation classes")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 60.0, f"runtime {elapsed:.2f}s >= 60s")
    _finish(6, failures)


# ---------------------------------------------------------------------------


VALID_KINDS = {"K1", "Cover", "K2", "OrientedCycle", "UnorientedCycle"}


def test_criterion_7_quotient_trichotomy(all_pairs):
    failures = []
    for name, pair in all_pairs:
        for n_sub, out in classify_all_quotients(pair):
            if n_sub.order == pair.group.order:
                continue  # the full group is always K1
            tag = f"{name}, |N|={n_sub.order}"
            _check(failures, out.kind in VALID_KINDS, f"{tag}: kind {out.kind}")
            if out.kind == "Cover":
                _check(failures, out.multicover_degree == 1, f"{tag}: ell != 1")
                _check(failures, out.kernel.same_elements(n_sub),
                       f"{tag}: kernel != N")
                _check(failures, og4.transitivity_profile(n_sub).semiregular,
                       f"{tag}: N not semiregular")
                _check(failures, out.quotient_pair is not None
                       and out.quotient_pair.certificate.valency == 4,
                       f"{tag}: cover quotient not certified in OG(4)")
            elif out.kind == "OrientedCycle":
                _check(failures,
                       out.induced_group.order == out.cycle_length
                       and (out.quotient_graph.out_degrees() == 1).all(),
                       f"{tag}: oriented cycle structure")
            elif out.kind == "UnorientedCycle":
                _check(failures,
                       out.induced_group.order == 2 * out.cycle_length,
                       f"{tag}: dihedral induced group")
            elif out.kind == "K2":
                _check(failures,
                       out.partition.n_blocks == 2 and out.induced_group.order == 2,
                       f"{tag}: K2 structure")
    _finish(7, failures)


# ---------------------------------------------------------------------------


def _invariant_factor_types(max_order):
    out = []

    def rec(prefix, prod):
        start = prefix[-1] if prefix else 2
        for d in range(start, max_order + 1):
            if prefix and d % prefix[-1] != 0:
                continue
            if prod * d > max_order:
                break
            out.append(prefix + [d])
            rec(prefix + [d], prod * d)

    rec([], 1)
    return out


def _regular_abelian(factors):
    elems = list(itertools.product(*[range(d) for d in factors]))
    idx = {e: i for i, e in enumerate(elems)}
    gens = []
    for k, d in enumerate(factors):
        images = np.empty(len(elems), dtype=np.int32)
        for e, i in idx.items():
            f = list(e)
            f[k] = (f[k] + 1) % d
            images[i] = idx[tuple(f)]
        gens.append(Permutation(images))
    return og4.enumerate_group(gens)


def test_criterion_8_abelian_exclusion():
    failures = []
    t0 = time.perf_counter()
    built = 0
    for factors in _invariant_factor_types(16):
        n_group = _regular_abelian(factors)
        els = list(n_group.elements())
        for a, b in itertools.product(els, els):
            h = GroupAutomorphism.from_generator_images(n_group, [a, b], [b, a])
            if h is None:
                continue
            try:
                pair = build_cayley(CayleySpec(n_group, a, b, h))
            except ConstructionRefuted:
                continue
            built += 1
            reg = oracles.right_regular_image(n_group, pair.group)
            mins = og4.minimal_normal_subgroups(pair.group)
            _check(failures,
                   not any(m.same_elements(reg) for m in mins),
                   f"{factors}, a={og4.format_cycles(a)}, b={og4.format_cycles(b)}: "
                   "abelian N is a minimal normal subgroup")
    _check(failures, built >= 100, f"only {built} instances met the preconditions")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 120.0, f"runtime {elapsed:.2f}s >= 120s")
    _finish(8, failures)


# ---------------------------------------------------------------------------


def _block_group(m, k):
    n = m * k
    shift = Permutation(np.array([(v + m) % n for v in range(n)], dtype=np.int32))
    inner = Permutation(
        np.array([(v + 1) % m if v < m else v for v in range(n)], dtype=np.int32))
    return og4.enumerate_group([shift, inner])


def test_criterion_9_connectivity_equivalence(all_pairs):
    failures = []
    for name, pair in all_pairs:
        c = connectivity(pair.graph)
        _check(failures, c.connected == c.strongly_connected, name)

    groups = []
    for d in range(3, 13):
        groups.append(og4.cyclic_group(d))
        rot = Permutation(np.array([(v + 1) % d for v in range(d)], dtype=np.int32))
        refl = Permutation(np.array([(d - v) % d for v in range(d)], dtype=np.int32))
        groups.append(og4.enumerate_group([rot, refl]))
    for m, k in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (5, 2),
                 (2, 6), (6, 2), (3, 4), (4, 3), (3, 3)]:
        groups.append(_block_group(m, k))
    groups += [pgl2(5), pgl2(7), pgl2(11)]

    rng = np.random.default_rng(7)
    checked = 0
    for group in groups:
        n = group.degree
        seeds = {(int(x), int(y))
                 for x, y in rng.integers(0, n, size=(6, 2)) if x != y}
        for seed in seeds:
            graph = orbital_graph(group, seed)
            c = connectivity(graph)
            _check(failures, c.connected == c.strongly_connected,
                   f"degree {n}, seed {seed}")
            checked += 1
    _check(failures, checked >= 100, f"only {checked} randomized orbital graphs")
    _finish(9, failures)


# ---------------------------------------------------------------------------


def test_criterion_10_s_arc_regularity(all_pairs):
    failures = []
    for name, pair in all_pairs:
        if pair.group.order > 10_000:
            continue
        rep = og4.s_arc_report(pair)
        _check(failures, rep.regular_on_max, f"{name}: not regular on max s-arcs")
        _check(failures, pair.group.order == rep.counts[rep.max_s],
               f"{name}: |G| != number of {rep.max_s}-arcs")
    _finish(10, failures)


def test_criterion_10_covers_every_pair(all_pairs):
    # the |G| <= 10^4 restriction excludes nothing in this corpus
    assert all(pair.group.order <= 10_000 for _, pair in all_pairs)


# ---------------------------------------------------------------------------


def test_criterion_11_analysis_suite(all_pairs):
    failures = []
    for name, pair in all_pairs:
        st = og4.alternating_structure(pair)
        edges = {frozenset(a) for a in pair.graph.arcs.tolist()}
        covered = set()
        for verts in st.cycles:
            for i in range(len(verts)):
                covered.add(frozenset((verts[i], verts[(i + 1) % len(verts)])))
        _check(failures, covered == edges,
               f"{name}: cycles do not partition the edges")
        _check(failures,
               all(len(v) == st.common_length for v in st.cycles),
               f"{name}: cycle lengths differ")
        _check(failures, st.common_length % 2 == 0,
               f"{name}: odd alternating cycle length")
        rep = og4.stabilizer_report(pair)
        _check(failures, rep.is_2group, f"{name}: stabilizer not a 2-group")
        _check(failures, rep.nilpotency_class <= 2,
               f"{name}: nilpotency class {rep.nilpotency_class}")
        if st.attachment_number is not None and st.attachment_number >= 3:
            _check(failures, rep.order == 2,
                   f"{name}: attachment {st.attachment_number} with |G_x| = {rep.order}")
    _finish(11, failures)
