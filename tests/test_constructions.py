import sys
from pathlib import Path

import numpy as np
import pytest

import og4
import og4.cli
from og4 import ConstructionRefuted, compose, parse_permutation as P
from og4.constructions import (
    CayleySpec,
    CosetSpec,
    block_swap,
    _conjugating_rows,
    build_cayley,
    build_coset_graph,
    double_coset_graph,
)
from og4.perm import GroupAutomorphism

import oracles
from test_scale import PGL27, SPECS, assert_n_is_one_column

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


class TestLexCycle:
    def test_r3_shape(self, lex_pairs):
        pair = lex_pairs[3]
        assert pair.graph.n_vertices == 6
        assert pair.group.order == 24
        assert pair.certificate.stabilizer_order == 4

    def test_r3_octahedron(self, lex_pairs):
        # 4-regular on 6 vertices, each vertex non-adjacent to exactly one other
        g = lex_pairs[3].graph
        edges = oracles.undirected_edges(g)
        for v in range(6):
            non = [w for w in range(6) if w != v and (min(v, w), max(v, w)) not in edges]
            assert len(non) == 1

    def test_rejects_small_r(self):
        with pytest.raises(ConstructionRefuted) as exc:
            og4.lexicographic_cycle(2)
        assert exc.value.clause == "lex_cycle:r_ge_3"


class TestBuildCayley:
    def test_identity_out_neighbors(self, sc_pair, alt5):
        # the two out-neighbors of the identity vertex are exactly a and b
        ident_vertex = alt5.identity_index
        outs = oracles.neighbors(sc_pair.graph)[0][ident_vertex]
        names = {sc_pair.labels[v] for v in outs}
        assert names == {"(1 2 3)", "(3 4 5)"}

    def test_n_regular_and_stabilizer_swaps(self, sc_pair, alt5):
        rn = oracles.right_regular_image(alt5, sc_pair.group)
        assert og4.transitivity_profile(rn).regular
        stab = og4.point_stabilizer(sc_pair.group, alt5.identity_index)
        assert stab.order == 2
        h = next(p for p in stab.elements() if not p.is_identity())
        outs = oracles.neighbors(sc_pair.graph)[0][alt5.identity_index]
        assert {h.apply(outs[0]), h.apply(outs[1])} == set(outs)

    def test_involution_a_refuted(self):
        z6 = og4.cyclic_group(6)
        a = z6.element(3)  # order 2
        b = z6.element(1)
        h = GroupAutomorphism.from_generator_images(z6, [b], [b])
        with pytest.raises(ConstructionRefuted) as exc:
            build_cayley(CayleySpec(z6, a, b, h))
        assert exc.value.clause == "cayley:a_sq_ne_1"

    def test_b_inverse_of_a_refuted(self):
        z5 = og4.cyclic_group(5)
        a = z5.element(1)
        b = z5.element(4)
        h = GroupAutomorphism.from_generator_images(z5, [a], [a.inverse()])
        with pytest.raises(ConstructionRefuted) as exc:
            build_cayley(CayleySpec(z5, a, b, h))
        assert exc.value.clause == "cayley:ab_ne_1"

    def test_z5_no_swapping_automorphism(self, sym5):
        # no automorphism of Z5 interchanges shift^1 and shift^2: the 20 rows
        # of Sym(5) that normalise Z5 induce all of Aut(Z5), and none swaps
        z5 = og4.cyclic_group(5)
        a, b = z5.element(1), z5.element(2)
        inventory = og4.conjugation_inventory(sym5)
        assert _conjugating_rows(z5, inventory, []).sum() == 20
        assert not _conjugating_rows(z5, inventory, [(a, b), (b, a)]).any()

    def test_generation_refuted(self):
        s4 = og4.symmetric_group(4)
        a, b = P("(1 2 3)", 4), P("(2 3 4)", 4)  # generate only Alt(4)
        h = GroupAutomorphism.from_conjugation(s4, P("(1 4)(2 3)", 4))
        with pytest.raises(ConstructionRefuted) as exc:
            build_cayley(CayleySpec(s4, a, b, h))
        assert exc.value.clause == "cayley:generates"


class TestSimpleCayley:
    def test_instance(self, sc_pair):
        assert sc_pair.graph.n_vertices == 60
        assert sc_pair.group.order == 120

    def test_rejects_nonsimple(self):
        s4 = og4.symmetric_group(4)
        with pytest.raises(ConstructionRefuted) as exc:
            og4.simple_cayley(s4, P("(1 2 3)", 4), P("(1 2)", 4))
        assert exc.value.clause == "simple_cayley:nonabelian_simple"

    def test_rejects_non_involution_sigma(self, alt5):
        with pytest.raises(ConstructionRefuted) as exc:
            og4.simple_cayley(alt5, P("(1 2 3)", 5), P("(1 2 3 4 5)", 5))
        assert exc.value.clause == "simple_cayley:sigma_involution"

    def test_rejects_a_outside_group(self, alt5):
        with pytest.raises(ConstructionRefuted) as exc:
            og4.simple_cayley(alt5, P("(1 2)", 5), P("(1 4)(2 5)", 5))
        assert exc.value.clause == "simple_cayley:a_in_group"

    def test_rejects_involution_a(self, alt5):
        # a of order 2 fails inside build_cayley's half-set conditions
        with pytest.raises(ConstructionRefuted):
            og4.simple_cayley(alt5, P("(1 2)(3 4)", 5), P("(1 4)(2 5)", 5))

    def test_rejects_sigma_inverting_a(self, alt5):
        # sigma maps a to a^-1: the half-set generates a cyclic group
        a = P("(1 2 3)", 5)
        sigma = P("(2 3)(4 5)", 5)
        assert og4.conjugate(a, sigma) == a.inverse()
        with pytest.raises(ConstructionRefuted) as exc:
            og4.simple_cayley(alt5, a, sigma)
        assert exc.value.clause in ("cayley:ab_ne_1", "simple_cayley:generates")


class TestTwCayley:
    def test_instance(self, tw_pair):
        assert tw_pair.graph.n_vertices == 3600
        assert tw_pair.group.order == 7200

    def test_unique_minimal_normal_regular(self, tw_pair):
        mins = og4.minimal_normal_subgroups(tw_pair.group)
        assert len(mins) == 1 and mins[0].order == 3600
        assert og4.transitivity_profile(mins[0]).regular

    def test_swapping_pair_refuted(self, alt5, sym5):
        # (1 4)(2 5) interchanges (1 2 3) and (3 4 5) by conjugation
        a, b = P("(1 2 3)", 5), P("(3 4 5)", 5)
        with pytest.raises(ConstructionRefuted) as exc:
            og4.tw_cayley(alt5, a, b, og4.conjugation_inventory(sym5))
        assert exc.value.clause == "tw:no_swapping_automorphism"

    def test_inverse_pair_refuted(self, alt5, sym5):
        a = P("(1 2 3 4 5)", 5)
        with pytest.raises(ConstructionRefuted):
            og4.tw_cayley(alt5, a, a.inverse(), og4.conjugation_inventory(sym5))

    def test_projections_and_no_diagonal(self, alt5, tw_pair):
        # connectivity witness: <S0> projects onto T in both coordinates and
        # is not contained in any diagonal subgroup (its order is |T|^2)
        n = og4.enumerate_group(
            [og4.embed_pair(P("(1 2 3)", 5), P("(1 2 3 4 5)", 5)),
             og4.embed_pair(P("(1 2 3 4 5)", 5), P("(1 2 3)", 5))]
        )
        assert n.order == alt5.order ** 2

    def test_n_is_one_column(self, tw_pair):
        a, b = P("(1 2 3)", 5), P("(1 2 3 4 5)", 5)
        assert_n_is_one_column(tw_pair, a, b, 5)


class TestInventory:
    """The array test of an inventory's conjugator rows
    (``_conjugating_rows``) agrees with the per-candidate oracle, which
    builds each row's conjugation map: on the rows that normalise T, on the
    rows swapping a and b (tw) and on the rows centralising a and sending b
    to b*a (pa)."""

    @staticmethod
    def check(t_grp, inventory, a, b):
        """The three masks agree with the oracle's; returns the verdicts."""
        masks = []
        for pairs in ([], [(a, b), (b, a)], [(a, a), (b, compose(b, a))]):
            got = _conjugating_rows(t_grp, inventory, pairs)
            assert np.array_equal(got, oracles.conjugating_rows(t_grp, inventory, pairs)), pairs
            masks.append(got)
        return [m.any() for m in masks[1:]]

    def test_corpus_specs(self, alt5, sym5):
        inventory = og4.conjugation_inventory(sym5)
        assert self.check(alt5, inventory, P("(1 2 3)", 5), P("(1 2 3 4 5)", 5)) \
            == [False, False]
        assert self.check(alt5, inventory, P("(1 2)(3 4)", 5), P("(1 5 4 3 2)", 5)) \
            == [False, False]

    def test_alt5_pairs(self, alt5, sym5):
        rng = np.random.default_rng(18)
        inventory = og4.conjugation_inventory(sym5)
        verdicts = {(tw, pa) for tw, pa in (
            self.check(alt5, inventory, alt5.element(i), alt5.element(j))
            for i, j in rng.integers(alt5.order, size=(40, 2)))}
        assert {tw for tw, _ in verdicts} == {False, True}
        assert {pa for _, pa in verdicts} == {False, True}

    def test_psl27_members(self):
        psl27 = og4.enumerate_group([P(g, 8) for g in SPECS["tw"]["generators"]])
        inventory = og4.conjugation_inventory(og4.enumerate_group([P(g, 8) for g in PGL27]))
        assert _conjugating_rows(psl27, inventory, []).all()
        for family in ("tw", "pa"):
            a, b = P(SPECS[family]["a"], 8), P(SPECS[family]["b"], 8)
            tw, pa = self.check(psl27, inventory, a, b)
            assert not (tw if family == "tw" else pa)

    def test_alt4_on_five_points(self, sym5):
        alt4 = og4.enumerate_group([P("(1 2 3)", 5), P("(2 3 4)", 5)])
        inventory = og4.conjugation_inventory(sym5)
        assert _conjugating_rows(alt4, inventory, []).sum() == 24
        self.check(alt4, inventory, P("(1 2 3)", 5), P("(1 2)(3 4)", 5))

    def test_other_degree(self, alt5):
        inventory = og4.conjugation_inventory(og4.symmetric_group(6))
        assert not _conjugating_rows(alt5, inventory, []).any()
        assert self.check(alt5, inventory, P("(1 2 3)", 5), P("(3 4 5)", 5)) == [False, False]

    @pytest.mark.parametrize("family", ["tw_cayley", "pa"])
    def test_calls_under_construct(self, monkeypatch, family):
        """``construct`` of tw builds one conjugation map (its iota) and of
        pa none, and the inventory reads the supergroup's table whole, with
        no chain row walk per member."""
        calls = {"from_conjugation": 0, "row": 0, "row_in_inventory": 0}
        from_conjugation = og4.perm.GroupAutomorphism.from_conjugation
        row = og4._kernels.StabiliserChain.row
        inventory = og4.constructions.conjugation_inventory

        def counted_conjugation(group, c):
            calls["from_conjugation"] += 1
            return from_conjugation(group, c)

        def counted_row(self, i):
            calls["row"] += 1
            return row(self, i)

        def counted_inventory(supergroup):
            before = calls["row"]
            out = inventory(supergroup)
            calls["row_in_inventory"] += calls["row"] - before
            return out

        monkeypatch.setattr(og4.perm.GroupAutomorphism, "from_conjugation",
                            staticmethod(counted_conjugation))
        monkeypatch.setattr(og4._kernels.StabiliserChain, "row", counted_row)
        monkeypatch.setattr(og4.constructions, "conjugation_inventory", counted_inventory)
        og4.cli.build_from_document(workloads.spec(family, [1, 2, 3, 4, 5]))
        assert calls["from_conjugation"] == (1 if family == "tw_cayley" else 0)
        assert calls["row_in_inventory"] == 0


class TestCosetGraph:
    def test_s_in_h_refuted(self):
        s5 = og4.symmetric_group(5)
        h = og4.enumerate_group([P("(1 2)", 5)])
        with pytest.raises(ConstructionRefuted) as exc:
            build_coset_graph(CosetSpec(s5, h, P("(1 2)", 5)))
        assert exc.value.clause in ("coset:core_free", "coset:generates",
                                    "coset:s_inv_not_in_HsH")

    def test_core_free_refuted(self):
        s4 = og4.symmetric_group(4)
        v4 = og4.enumerate_group([P("(1 2)(3 4)"), P("(1 3)(2 4)")])
        with pytest.raises(ConstructionRefuted) as exc:
            build_coset_graph(CosetSpec(s4, v4, P("(1 2 3)", 4)))
        assert exc.value.clause == "coset:core_free"

    def test_arc_transitive_s_refuted(self, alt5):
        # an involution s makes s^-1 = s a member of HsH
        h = og4.enumerate_group([P("(1 4)(2 5)", 5)])
        with pytest.raises(ConstructionRefuted) as exc:
            build_coset_graph(CosetSpec(alt5, h, P("(1 2)(3 4)", 5)))
        assert exc.value.clause in ("coset:s_inv_not_in_HsH", "coset:generates",
                                    "coset:index_two")

    def test_subgroup_outside_group_refuted(self, alt5):
        h = og4.enumerate_group([P("(1 2)", 5)])
        with pytest.raises(ConstructionRefuted) as exc:
            build_coset_graph(CosetSpec(alt5, h, P("(1 2 3)", 5)))
        assert exc.value.clause == "coset:subgroup_in_group"
        assert exc.value.detail == "(1 2) is not in the group"
        with pytest.raises(og4.OG4Error, match="not all inside"):
            og4.coset_space(alt5, h)

    def test_double_coset_graph_shape(self, alt5):
        h = og4.enumerate_group([P("(1 4)(2 5)", 5)])
        graph, vg, space = double_coset_graph(CosetSpec(alt5, h, P("(1 2 3)", 5)))
        assert graph.n_vertices == 30
        assert vg.order == 60


class TestCosetOracles:
    """Cosets, cores, vertex actions and coset-graph arcs agree with the
    byte-keyed oracles."""

    def test_cosets_and_cores(self, narrow_groups):
        """Over the stabiliser of point 0 of every group, and over the normal
        subgroups of those of order at most 2048."""
        for name, group in narrow_groups:
            ops = oracles.IndexOps(group)
            subs = [og4.point_stabilizer(group, 0)]
            if group.order <= 2048:
                subs += og4.all_normal_subgroups(group)
            for sub in subs:
                space = og4.coset_space(group, sub)
                coset_id, reps = oracles.coset_space(group, sub, ops)
                assert np.array_equal(space.coset_id, coset_id), name
                assert np.array_equal(space.reps, reps), name
                h_idx = group.index.indices_of(sub.table)
                in_h = np.zeros(group.order, dtype=bool)
                in_h[h_idx] = True
                core = set(np.flatnonzero(og4.perm._core(group, in_h)).tolist())
                assert core == oracles.core_indices(group, h_idx.tolist(), ops), name
                for g in group.generators:
                    want = [coset_id[ops.mul(int(r), ops.of(g))] for r in reps]
                    assert space.vertex_perm(g).images.tolist() == want, name

    def test_coset_graph_arcs(self, alt5, construction_groups):
        groups = dict(construction_groups)
        specs = [CosetSpec(alt5, og4.enumerate_group([P("(1 4)(2 5)", 5)]), P("(1 2 3)", 5))]
        for n in (5, 7):
            m = (n - 1) // 2
            h = og4.enumerate_group([og4.constructions.parse_cycle_pair(i, i + m, n)
                                     for i in range(m)])
            s = og4.Permutation(np.roll(np.arange(n), -1))
            specs.append(CosetSpec(groups[f"Sym({n})"], h, s))
        a, b = P("(1 2)(3 4)", 5), P("(1 5 4 3 2)", 5)
        klein = og4.enumerate_group([og4.embed_pair(a, a), block_swap(5)])
        specs.append(CosetSpec(groups["pa G"], klein, og4.embed_pair(b, compose(b, a))))
        for spec in specs:
            graph, _, _ = double_coset_graph(spec)
            want = oracles.double_coset_arcs(spec.group, spec.subgroup, spec.s)
            assert [tuple(arc) for arc in graph.arcs.tolist()] == want


class TestCosetSimple:
    def test_instance(self, cs_pair):
        assert cs_pair.graph.n_vertices == 30
        assert cs_pair.group.order == 60
        assert cs_pair.certificate.stabilizer_order == 2

    def test_gh_eq_g_refuted(self, alt5):
        h = P("(1 4)(2 5)", 5)
        with pytest.raises(ConstructionRefuted) as exc:
            og4.coset_simple(alt5, h, h)
        assert exc.value.clause in ("coset_simple:gh_ne_g", "coset_simple:generates")

    def test_generation_witness(self, alt5):
        g = P("(1 2 3)", 5)
        h = P("(1 4)(2 5)", 5)
        span = og4.enumerate_group([g, og4.conjugate(g, h)])
        assert span.order == 60


class TestSymBigstab:
    @pytest.mark.parametrize("n,vertices,stab", [(5, 30, 4), (7, 630, 8)])
    def test_instances(self, n, vertices, stab, sym5_pair, sym7_pair):
        pair = {5: sym5_pair, 7: sym7_pair}[n]
        assert pair.graph.n_vertices == vertices
        assert pair.certificate.stabilizer_order == stab

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_parity_rejected(self, n):
        with pytest.raises(ConstructionRefuted) as exc:
            og4.sym_bigstab(n)
        assert exc.value.clause == "sym_bigstab:n_odd_ge_5"

    def test_h_core_free_witness(self):
        # H contains odd permutations and misses Alt(n)
        h = og4.enumerate_group([P("(1 3)", 5), P("(2 4)", 5)])
        odd = any(_parity(p) == 1 for p in h.elements())
        assert odd and h.order == 4


def _parity(p):
    seen = [False] * p.degree
    par = 0
    for s in range(p.degree):
        if seen[s]:
            continue
        length = 0
        v = s
        while not seen[v]:
            seen[v] = True
            v = p.apply(v)
            length += 1
        par ^= (length - 1) & 1
    return par


class TestPa:
    def test_instance(self, pa_pair):
        assert pa_pair.graph.n_vertices == 1800
        assert pa_pair.certificate.stabilizer_order == 4

    def test_h_klein(self, pa_pair):
        stab = og4.point_stabilizer(pa_pair.group, 0)
        assert stab.order == 4
        assert all(compose(p, p).is_identity() for p in stab.elements())

    def test_minimal_normal_not_regular(self, pa_pair):
        mins = og4.minimal_normal_subgroups(pa_pair.group)
        assert len(mins) == 1 and mins[0].order == 3600
        prof = og4.transitivity_profile(mins[0])
        assert prof.transitive and not prof.regular

    def test_non_involution_a_refuted(self, alt5, sym5):
        with pytest.raises(ConstructionRefuted) as exc:
            og4.pa_construction(alt5, P("(1 2 3)", 5), P("(1 5 4 3 2)", 5),
                                og4.conjugation_inventory(sym5))
        assert exc.value.clause == "pa:a_involution"


class TestTwNormalizedForm:
    def test_coordinate_swap_round_trip(self, alt5, sym5, tw_pair):
        # the construction's twisting element is already the plain coordinate
        # swap, so conjugating by (sigma, 1) with sigma = 1 is the identity
        # bijection and the pair equals its own normalized form
        swap = block_swap(5)
        a, b = P("(1 2 3)", 5), P("(1 2 3 4 5)", 5)
        s0 = og4.embed_pair(a, b)
        assert og4.conjugate(s0, swap) == og4.embed_pair(b, a)
        assert og4.reverify(tw_pair).ok


class TestHeldMaps:
    """After ``build_from_document``, a coset pair's groups hold no
    multiplication map beyond their search trees' generator maps and their
    conjugation maps.  The maps that ``_span`` composed for one-off
    membership checks (<(a, a), iota>, <H, s>, <g, g^h>) were kept in a
    cache on the group for the pair's whole life: 5 maps on pa's small
    action and 6 on coset_simple's."""

    @staticmethod
    def held_maps(group):
        """The bijections of the element indices, alone or as the rows of a
        2-D array, that the group and its search tree hold in their
        attributes, lists, tuples and dicts."""
        values = list(vars(group).values())
        if group._tree is not None:
            values += list(vars(group._tree).values())
        flat = [w for v in values for w in (
            v.values() if isinstance(v, dict) else v if isinstance(v, (list, tuple)) else [v])]
        return [a for a in flat if isinstance(a, np.ndarray) and a.ndim in (1, 2)
                and a.shape[-1] == group.order and a.dtype == np.intp
                and all(np.bincount(m, minlength=group.order).all()
                        for m in a.reshape(-1, group.order))]

    @pytest.mark.parametrize("family", ["pa", "coset_simple", "sym_bigstab(7)"])
    def test_only_generator_maps(self, family):
        pair = og4.cli.build_from_document(workloads.spec(family, [1, 2, 3, 4, 5]))
        for group in (pair.group, pair.group.action):
            tree = group._tree
            allowed = [] if tree is None else [tree.tree, tree.gens]
            allowed += (group._left or []) + (group._conjugation or [])
            held = self.held_maps(group)
            assert {id(m) for m in held} <= {id(m) for m in allowed}, (family, len(held))
