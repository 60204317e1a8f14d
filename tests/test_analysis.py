import numpy as np
import pytest

import og4
from og4 import InvariantViolation, OGPair, OrientedGraph
from og4.analysis import (
    alternating_structure,
    attachment_sets,
    nilpotency_class,
    s_arc_report,
    stabilizer_report,
)
from og4.analysis import _is_elementary_abelian, _walk_orbit_size

import oracles


def _circulant(n):
    """Cay(Z_n, {+1, +2})."""
    return OrientedGraph(n, [(x, (x + d) % n) for x in range(n) for d in (1, 2)])


def _graph_pair(graph):
    """The graph with the trivial group and an unchecked certificate:
    alternating cycles read the graph alone."""
    n = graph.n_vertices
    cert = og4.Certificate(vertex_transitive=False, edge_transitive=False,
                           orientation_preserved=True, connected=True,
                           valency=4, stabilizer_order=1)
    return OGPair(graph=graph, group=og4.enumerate_group([og4.identity(n)]),
                  certificate=cert, labels=tuple(str(v + 1) for v in range(n)))


class TestAlternatingStructure:
    def test_lex3(self, lex_pairs):
        st = alternating_structure(lex_pairs[3])
        assert len(st.cycles) == 3
        assert st.common_length == 4
        assert st.attachment_number == 2
        assert st.attachment_kind == "tight"

    @pytest.mark.parametrize("r", [4, 5, 6, 7, 8])
    def test_lex_family(self, r, lex_pairs):
        st = alternating_structure(lex_pairs[r])
        assert len(st.cycles) == r
        assert st.common_length == 4
        assert st.attachment_kind == "tight"

    def test_cycles_partition_edges(self, sym5_pair):
        st = alternating_structure(sym5_pair)
        edges = {frozenset(a) for a in sym5_pair.graph.arcs.tolist()}
        seen = set()
        for verts in st.cycles:
            for i in range(len(verts)):
                e = frozenset((verts[i], verts[(i + 1) % len(verts)]))
                assert e not in seen
                seen.add(e)
        assert seen == edges

    def test_sym_bigstab5_intermediate(self, sym5_pair):
        st = alternating_structure(sym5_pair)
        assert st.common_length == 6
        assert st.attachment_number == 2
        assert st.attachment_kind == "intermediate"

    def test_coset_simple_values(self, cs_pair):
        st = alternating_structure(cs_pair)
        assert st.attachment_kind == "intermediate"
        assert 1 < st.attachment_number < st.common_length // 2

    def test_two_cycles_degenerate(self):
        # Cay(Z5, {+1, +2}): the alternating trace closes up in at most two
        # cycles, so no attachment number is defined
        st = alternating_structure(_graph_pair(_circulant(5)))
        assert len(st.cycles) <= 2
        assert st.attachment_kind == "two_cycles_degenerate"
        assert st.attachment_number is None

    def test_matches_walk_oracle(self, pairs_and_covers):
        """The orbits of the two arc involutions give the cycles, length,
        attachment number and kind of the arc-by-arc walk."""
        graphs = [(name, pair.graph) for name, pair in pairs_and_covers]
        graphs += [(f"Cay(Z{n}, {{1, 2}})", _circulant(n)) for n in (5, 7, 40)]
        for name, graph in graphs:
            st = alternating_structure(_graph_pair(graph))
            got = (st.cycles, st.common_length, st.attachment_number, st.attachment_kind)
            assert got == oracles.alternating_walk(graph), name

    def test_out_valency_three_refused(self):
        graph = OrientedGraph(7, _circulant(7).arcs.tolist() + [(0, 3)])
        with pytest.raises(InvariantViolation, match="valency 2"):
            alternating_structure(_graph_pair(graph))

    def test_unequal_lengths_refused(self, lex_pairs, sym5_pair):
        """lex_cycle(3) beside sym_bigstab(5): cycles of lengths 4 and 6."""
        lex, sym = lex_pairs[3].graph, sym5_pair.graph
        n = lex.n_vertices
        union = OrientedGraph(n + sym.n_vertices, np.concatenate([lex.arcs, sym.arcs + n]))
        for find in (lambda g: alternating_structure(_graph_pair(g)), oracles.alternating_walk):
            with pytest.raises(InvariantViolation, match=r"lengths differ: \[4, 6\]"):
                find(union)

    def test_attachment_sets_block_system(self, lex_pairs):
        pair = lex_pairs[4]
        sets = attachment_sets(alternating_structure(pair))
        # attachment sets partition the vertex set into equal-size blocks
        all_v = sorted(v for s in sets for v in s)
        assert all_v == list(range(pair.graph.n_vertices))
        sizes = {len(s) for s in sets}
        assert len(sizes) == 1

    def test_canonical_cycles_deterministic(self, sc_pair):
        a = alternating_structure(sc_pair)
        b = alternating_structure(sc_pair)
        assert a.cycles == b.cycles
        assert a.cycles == tuple(sorted(a.cycles))


class TestSArcs:
    def test_lex3_doubling(self, lex_pairs):
        rep = s_arc_report(lex_pairs[3])
        assert rep.max_s == 2
        assert rep.counts == (6, 12, 24, 48)
        assert rep.regular_on_max

    def test_coset_simple_one_arc(self, cs_pair):
        rep = s_arc_report(cs_pair)
        assert rep.max_s == 1
        assert rep.counts == (30, 60, 120)
        assert rep.regular_on_max

    def test_sym5(self, sym5_pair):
        rep = s_arc_report(sym5_pair)
        assert rep.max_s == 2
        assert rep.counts == (30, 60, 120, 240)
        assert rep.regular_on_max

    def test_counts_double(self, all_pairs):
        for name, pair in all_pairs:
            rep = s_arc_report(pair)
            n = pair.graph.n_vertices
            for s, c in enumerate(rep.counts):
                assert c == n * 2 ** s, name
            assert rep.max_s >= 1, name


class TestStabilizers:
    def test_sym5(self, sym5_pair):
        rep = stabilizer_report(sym5_pair)
        assert rep.order == 4
        assert rep.is_2group
        assert rep.elementary_abelian
        assert rep.nilpotency_class == 1

    def test_sym7(self, sym7_pair):
        rep = stabilizer_report(sym7_pair)
        assert rep.order == 8
        assert rep.is_2group
        assert rep.elementary_abelian
        assert rep.nilpotency_class == 1

    def test_lex4(self, lex_pairs):
        rep = stabilizer_report(lex_pairs[4])
        assert rep.order == 8
        assert rep.is_2group

    def test_pa(self, pa_pair):
        rep = stabilizer_report(pa_pair)
        assert rep.order == 4
        assert rep.elementary_abelian

    def test_all_2groups(self, all_pairs):
        for name, pair in all_pairs:
            rep = stabilizer_report(pair)
            assert rep.is_2group, name
            assert rep.order == pair.certificate.stabilizer_order, name

    def test_nilpotency_class_oracle(self):
        d8 = og4.enumerate_group(
            [og4.parse_permutation("(1 2 3 4)", 4),
             og4.parse_permutation("(1 3)", 4)]
        )
        assert nilpotency_class(d8) == 2
        v4 = og4.enumerate_group(
            [og4.parse_permutation("(1 2)(3 4)", 4),
             og4.parse_permutation("(1 3)(2 4)", 4)]
        )
        assert nilpotency_class(v4) == 1

    def test_nilpotency_class_stops_when_series_stalls(self, monkeypatch):
        calls = []
        real = og4.analysis._commutator_subgroup

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(og4.analysis, "_commutator_subgroup", counting)
        with pytest.raises(InvariantViolation):
            nilpotency_class(og4.alternating_group(5))
        assert len(calls) <= 2


def dihedral(r):
    """The dihedral group of order 2r on r points."""
    rotation = og4.parse_permutation(f"({' '.join(map(str, range(1, r + 1)))})")
    return og4.enumerate_group([rotation, og4.Permutation([(-i) % r for i in range(r)])])


class TestTableReadsMatchSearches:
    """Orbit sizes, lower central series and the elementary-abelian test
    read from the table agree with the searches in oracles.py."""

    def test_walk_orbit_sizes(self, all_pairs):
        for name, pair in all_pairs:
            outs = oracles.neighbors(pair.graph)[0]
            rep = s_arc_report(pair)
            stab = og4.point_stabilizer(pair.group, 0)
            walk = [0]
            for s in range(1, rep.max_s + 2):
                walk.append(min(outs[walk[-1]]))
                cap = rep.counts[s]
                for group in (pair.group, stab):
                    want = oracles.walk_orbit_size(group, walk, cap)
                    assert _walk_orbit_size(group, walk) == want, (name, s)

    def test_stabilizers(self, all_pairs):
        for name, pair in all_pairs:
            stab = og4.point_stabilizer(pair.group, 0)
            assert nilpotency_class(stab) == oracles.nilpotency_class(stab), name
            assert _is_elementary_abelian(stab) == oracles.is_elementary_abelian(stab), name

    def test_elementary_abelian_acting_groups(self, narrow_groups):
        for name, group in narrow_groups:
            assert _is_elementary_abelian(group) == oracles.is_elementary_abelian(group), name

    def test_nilpotency_classes(self):
        q8 = og4.enumerate_group([og4.parse_permutation("(1 2 3 4)(5 6 7 8)"),
                                  og4.parse_permutation("(1 5 3 7)(2 8 4 6)")])
        for group, c in ((dihedral(4), 2), (q8, 2), (dihedral(8), 3)):
            assert nilpotency_class(group) == oracles.nilpotency_class(group) == c
            assert not _is_elementary_abelian(group)
            assert not oracles.is_elementary_abelian(group)

    def test_not_nilpotent(self):
        for group in (og4.alternating_group(4), og4.symmetric_group(4)):
            for search in (nilpotency_class, oracles.nilpotency_class):
                with pytest.raises(InvariantViolation):
                    search(group)
