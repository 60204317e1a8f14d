import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import og4
import og4.cli
from og4 import (
    ConstructionRefuted,
    OG4Error,
    OrientedGraph,
    arc_orbit_count,
    connectivity,
    enumerate_group,
    export_dot,
    orbital_graph,
    orientation_status,
    parse_permutation,
    reverse_arcs,
    verify_og,
)
from og4.graph import _canonical_seed, _pair_orbit

import oracles


def directed_cycle(n):
    return OrientedGraph(n, [(i, (i + 1) % n) for i in range(n)])


class TestOrientedGraph:
    def test_basic(self):
        g = directed_cycle(4)
        assert g.n_arcs == 4
        assert g.out_degrees().tolist() == [1, 1, 1, 1]
        assert oracles.has_arc(g, 0, 1) and not oracles.has_arc(g, 1, 0)

    def test_rejects_loop(self):
        with pytest.raises(OG4Error):
            OrientedGraph(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(OG4Error):
            OrientedGraph(3, [(0, 3)])

    def test_rejects_duplicate_arc(self):
        with pytest.raises(OG4Error, match="duplicate"):
            OrientedGraph(3, [(0, 1), (0, 1)])

    def test_accepts_a_generator_of_arcs(self):
        g = OrientedGraph(3, ((i, (i + 1) % 3) for i in range(3)))
        assert g.n_arcs == 3

    def test_arcs_sorted(self):
        g = OrientedGraph(3, [(2, 1), (0, 2), (0, 1)])
        assert g.arcs.tolist() == [[0, 1], [0, 2], [2, 1]]

    def test_reverse(self):
        g = directed_cycle(5)
        assert reverse_arcs(reverse_arcs(g)) == g
        assert reverse_arcs(g).arcs.tolist() == sorted([y, x] for x, y in g.arcs.tolist())

    def test_only_the_arc_array(self):
        g = OrientedGraph(4, [(2, 0), (0, 1), (2, 1)])
        assert sorted(vars(g)) == ["arcs", "n_vertices"]
        assert not g.arcs.flags.writeable

    @pytest.mark.parametrize("arcs", [
        [(0, 1, 2)],  # a triple
        [0, 1],  # a flat pair
        [(1.7, 2.2)],  # floats, not truncated
        [(0, 1), (1, 2, 0)],  # ragged
        [(True, False)],
        [("0", "1")],
    ])
    def test_rejects_malformed_arcs(self, arcs):
        with pytest.raises(OG4Error, match="integer pairs"):
            OrientedGraph(3, arcs)

    @pytest.mark.parametrize("arcs", [[(1, 10**30)], [(-2**63 - 1, 2)], [(2**63, 1)]])
    def test_rejects_endpoints_past_int64(self, arcs):
        with pytest.raises(OG4Error, match="out of range"):
            OrientedGraph(3, arcs)

    def test_accepts_empty_and_integer_arrays(self):
        for arcs in ([], np.zeros((0, 2)), np.array([[1, 0]], dtype=np.uint8)):
            g = OrientedGraph(3, arcs)
            assert g.arcs.dtype == np.int64 and g.arcs.shape[1] == 2


def document_outcome(n, arcs):
    """The graph's sorted arcs from a pair document's 1-based entries, or
    the message of the first error."""
    try:
        return OrientedGraph(n, og4.cli._doc_arcs(arcs)).arcs.tolist()
    except OG4Error as exc:
        return str(exc)


ENTRY = st.one_of(
    st.lists(st.integers(-1, 5), min_size=2, max_size=2),
    st.sampled_from([[3, 3], ["1", 2], [1, 2, 3], [True, 1], [1.0, 2], (1, 2), 7, None]),
)


class TestDocumentArcs:
    """Pair-document arcs checked and sorted as one array, against the
    per-entry loop and the tuple-set graph they replaced."""

    def test_corpus(self, all_pairs):
        rng = np.random.default_rng(5)
        for name, pair in all_pairs:
            arcs = (pair.graph.arcs[rng.permutation(pair.graph.n_arcs)] + 1).tolist()
            n = pair.graph.n_vertices
            want = oracles.document_arcs(n, arcs)
            assert want == pair.graph.arcs.tolist(), name
            assert document_outcome(n, arcs) == want, name

    @pytest.mark.parametrize("arcs", [
        [[1, 2], [2, 3], [1, 2]],  # duplicate
        [[1, 2], [2, 2], [3, 1]],  # diagonal
        [[1, 2], [2, 5]],  # out of range
        [[1, 0], [2, 2]],  # a diagonal after an out-of-range entry
        [[1, 2], ["1", 2], [3, 3]],  # a bad entry before a diagonal
        [[1, 2], [3, 3], [1, 2, 3]],  # a diagonal before a bad entry
        [[1, 5], [2, 1], [2, 1]],  # out of range and duplicate
        [[True, 2]],
        [],
    ])
    def test_malformed(self, arcs):
        assert document_outcome(4, arcs) == oracles.document_arcs(4, arcs)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ENTRY, max_size=8))
    def test_drawn(self, arcs):
        assert document_outcome(4, arcs) == oracles.document_arcs(4, arcs)

    @pytest.mark.parametrize("arcs", [[[1, 10**30]], [[-2**63 - 1, 2]], [[2**63, 1]],
                                      [[-2**63, 1]]])
    def test_endpoint_past_int64_out_of_range(self, arcs):
        assert document_outcome(4, arcs + [[1, 2]]) == "arc endpoint out of range"
        assert document_outcome(4, arcs + [[2, 2]]) == "diagonal arc [2, 2]"


class TestOrbital:
    def test_cyclic_orbital_is_directed_cycle(self):
        z5 = og4.cyclic_group(5)
        g = orbital_graph(z5, (0, 1))
        assert g == directed_cycle(5)

    def test_self_paired_orbital_keeps_both_directions(self):
        d5 = enumerate_group(
            [parse_permutation("(1 2 3 4 5)"), parse_permutation("(2 5)(3 4)", 5)]
        )
        g = orbital_graph(d5, (0, 1))
        assert oracles.has_arc(g, 0, 1) and oracles.has_arc(g, 1, 0)

    def test_canonical_seed(self):
        z5 = og4.cyclic_group(5)
        assert orbital_graph(z5) == orbital_graph(z5, (0, 1))

    def test_orientation_status(self):
        z5 = og4.cyclic_group(5)
        g = orbital_graph(z5, (0, 1))
        assert orientation_status(g, z5) == "g_oriented"
        d5 = enumerate_group(
            [parse_permutation("(1 2 3 4 5)"), parse_permutation("(2 5)(3 4)", 5)]
        )
        assert orientation_status(g, d5) == "not_invariant"

    def test_arc_orbit_count(self):
        z5 = og4.cyclic_group(5)
        g = orbital_graph(z5, (0, 1))
        assert arc_orbit_count(g, z5) == 2  # the orbital and its reverse


def groups_and_stabilizers(all_pairs):
    """(name, group, graph): each corpus pair's acting group and the
    stabiliser of vertex 0, with the pair's graph."""
    for name, pair in all_pairs:
        yield name, pair.group, pair.graph
        yield f"{name} G_0", og4.point_stabilizer(pair.group, 0), pair.graph


class TestTableOrbits:
    """Pair orbits and canonical seeds read from the table agree with the
    generator searches in oracles.py."""

    def test_pair_orbits(self, all_pairs):
        for name, group, graph in groups_and_stabilizers(all_pairs):
            n = group.degree
            seeds = [(0, 1), (0, n - 1), (n - 1, 1), tuple(graph.arcs[0].tolist())]
            for x, y in seeds:
                want = [a * n + b for a, b in oracles.pair_orbit(group, x, y)]
                assert _pair_orbit(group, x, y).tolist() == want, (name, x, y)

    def test_canonical_seed(self, all_pairs):
        for name, group, _ in groups_and_stabilizers(all_pairs):
            assert _canonical_seed(group) == oracles.canonical_seed(group), name

    def test_canonical_seed_all_self_paired(self):
        d5 = enumerate_group(
            [parse_permutation("(1 2 3 4 5)"), parse_permutation("(2 5)(3 4)", 5)]
        )
        for search in (_canonical_seed, oracles.canonical_seed):
            with pytest.raises(OG4Error, match="self-paired"):
                search(d5)

    @pytest.mark.parametrize("seed", [(5, 0), (0, -1), (-1, 0)])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(OG4Error, match="out of range"):
            orbital_graph(og4.cyclic_group(5), seed)

    def test_arc_orbit_count_matches_search(self, all_pairs):
        for name, group, graph in groups_and_stabilizers(all_pairs):
            n = graph.n_vertices
            both = {(x, y) for x, y in graph.arcs.tolist()}
            both |= {(y, x) for x, y in both}
            enc = np.asarray(sorted(x * n + y for x, y in both), dtype=np.int64)
            labels = oracles.arc_orbit_labels(group.gen_rows(), enc, n)
            assert arc_orbit_count(graph, group) == int(labels.max()) + 1, name


class TestConnectivity:
    def test_directed_cycle(self):
        c = connectivity(directed_cycle(6))
        assert c.connected and c.strongly_connected

    def test_disconnected(self):
        g = OrientedGraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        c = connectivity(g)
        assert not c.connected

    def test_weak_but_not_strong(self):
        g = OrientedGraph(3, [(0, 1), (0, 2), (2, 1)])
        c = connectivity(g)
        assert c.connected and not c.strongly_connected

    def test_is_connected_is_weak_connectivity(self, all_pairs):
        graphs = [directed_cycle(6), OrientedGraph(3, [(0, 1), (0, 2), (2, 1)]),
                  OrientedGraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)]), OrientedGraph(1, [])]
        graphs += [pair.graph for _, pair in all_pairs]
        for g in graphs:
            assert og4.is_connected(g) == connectivity(g).connected, g

    def test_certification_searches_once(self, monkeypatch, all_pairs):
        """Certifying and classifying read only weak connectivity: one
        hook-and-jump search per graph, where ``connectivity`` adds a
        forward and a backward frontier search."""
        searches = []

        def counting(name):
            real = getattr(og4.graph, name)

            def search(graph, *args):
                searches.append((name, graph.n_vertices))
                return real(graph, *args)
            monkeypatch.setattr(og4.graph, name, search)

        counting("_roots")
        counting("_reached")
        name, pair = next((n, p) for n, p in all_pairs if n == "simple_cayley")
        assert og4.reverify(pair).ok
        assert searches == [("_roots", 60)], name
        searches.clear()
        outcomes = [o for _, o in og4.classify_all_quotients(pair) if o.kind != "K1"]
        assert len(searches) == len(outcomes) + sum(o.kind == "Cover" for o in outcomes)
        assert {s for s, _ in searches} == {"_roots"}
        searches.clear()
        connectivity(pair.graph)
        assert searches == [("_roots", 60), ("_reached", 60), ("_reached", 60)]

    def test_connectivity_leaves_numpy_ma_unimported(self):
        """The frontier searches dedupe by a sort, not ``np.unique``, which
        imports ``numpy.ma``; run in a fresh interpreter on lex_cycle(8)."""
        script = ("import sys, og4\n"
                  "c = og4.connectivity(og4.lexicographic_cycle(8).graph)\n"
                  "sys.exit(3 * (not c.strongly_connected) or 4 * ('numpy.ma' in sys.modules))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (proc.returncode, proc.stderr)

    def test_weak_search_peak(self, tw_pair):
        """Under tracemalloc, the weak test of tw_cayley's 3,600-vertex
        graph holds a few arc-length arrays (about 0.3 MB), not neighbour
        lists (1.4 MB).  A fresh graph, so that nothing an earlier test
        read is reused."""
        graph = OrientedGraph(tw_pair.graph.n_vertices, tw_pair.graph.arcs)
        tracemalloc.start()
        try:
            assert og4.is_connected(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 700_000, peak


def scrambled_cycles(length, count, seed=0):
    """``count`` directed cycles of ``length`` vertices, numbered by a random
    permutation."""
    perm = np.random.default_rng(seed).permutation(length * count).reshape(count, length)
    return OrientedGraph(length * count, np.concatenate(
        [np.stack([c, np.roll(c, -1)], axis=1) for c in perm]))


def layered(r):
    """lexicographic_cycle(r)'s graph built from its arcs: r layers of two
    vertices, each vertex with an arc to both vertices of the next layer."""
    v = np.arange(2 * r)
    after = 2 * ((v // 2 + 1) % r)
    return OrientedGraph(2 * r, np.concatenate([np.stack([v, after], 1), np.stack([v, after + 1], 1)]))


def least_walk(graph, steps):
    """The least walk ``s_arc_report`` takes from vertex 0, recorded over
    ``steps`` steps with every orbit test passing."""
    walks = []

    def record(group, walk):
        walks.append(list(walk))
        return graph.n_vertices * 2 ** (len(walk) - 1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(og4.analysis, "_walk_orbit_size", record)
        og4.s_arc_report(og4.OGPair(graph, None, None, ()), graph.n_vertices * 2 ** steps)
    return walks[-1] if walks else [0]


def assert_matches_oracles(graph, name, steps=8):
    """Weak and strong connectivity and the least walk against the
    depth-first searches and the neighbour lists in oracles.py; returns the
    searches' (weak, strong)."""
    weak, strong = oracles.connectivity(graph)
    assert og4.is_connected(graph) == weak, name
    assert connectivity(graph) == og4.Connectivity(weak, strong), name
    want = oracles.least_walk(graph, steps)
    assert least_walk(graph, len(want) - 1) == want, name
    return weak, strong


ARC_SETS = st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.sets(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda a: a[0] != a[1]),
    max_size=3 * n)))


class TestArcArrayOracles:
    """Connectivity and the least walk read from the sorted arc array agree
    with the searches over neighbour lists that they replaced."""

    def test_corpus_and_quotients(self, all_pairs, wreath_pairs):
        for name, pair in all_pairs + wreath_pairs:
            graphs = [(name, pair.graph), (f"reversed {name}", reverse_arcs(pair.graph))]
            graphs += [(f"{name} / N of order {n.order}", out.quotient_graph)
                       for n, out in og4.classify_all_quotients(pair)
                       if out.quotient_graph is not None]
            for label, graph in graphs:
                assert_matches_oracles(graph, label)

    def test_long_cycles(self):
        """A scrambled 20,000-cycle, whose 10,000 rounds of frontier search
        hook-and-jump does in a few, and two such cycles."""
        one = scrambled_cycles(20_000, 1)
        assert assert_matches_oracles(one, "one cycle", steps=50) == (True, True)
        two = scrambled_cycles(20_000, 2, seed=1)
        assert assert_matches_oracles(two, "two cycles", steps=50) == (False, False)

    def test_layered(self):
        """The shortest walks from vertex 0 double with each layer; each
        vertex enters a frontier once, so under tracemalloc ``connectivity``
        at r = 20 peaks at some 14 KB (46 MB when a frontier keeps every
        walk), and r = 40 has its answer."""
        assert layered(5) == og4.lexicographic_cycle(5).graph
        connectivity(layered(3))  # numpy's first-call allocations, untraced
        tracemalloc.start()
        try:
            assert connectivity(layered(20)) == og4.Connectivity(True, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000, peak
        for graph in (layered(40), reverse_arcs(layered(40))):
            assert assert_matches_oracles(graph, graph, steps=90) == (True, True)

    @settings(max_examples=300, deadline=None)
    @given(ARC_SETS)
    def test_drawn(self, drawn):
        n, arcs = drawn
        graph = OrientedGraph(n, sorted(arcs))
        assert_matches_oracles(graph, (n, sorted(arcs)))
        assert_matches_oracles(reverse_arcs(graph), "reversed")


class TestVerify:
    def test_lex_cycle_verifies(self, lex_pairs):
        pair = lex_pairs[3]
        outcome = og4.reverify(pair)
        assert outcome.ok
        assert outcome.certificate.valency == 4

    def test_valency_clause(self):
        z5 = og4.cyclic_group(5)
        outcome = verify_og(directed_cycle(5), z5, 4)
        assert not outcome.ok and outcome.failed_clause == "og:valency"

    def test_orientation_clause(self):
        d5 = enumerate_group(
            [parse_permutation("(1 2 3 4 5)"), parse_permutation("(2 5)(3 4)", 5)]
        )
        outcome = verify_og(directed_cycle(5), d5, 4)
        assert not outcome.ok
        assert outcome.failed_clause == "og:orientation_invariant"

    def test_antisymmetric_clause(self):
        d5 = enumerate_group(
            [parse_permutation("(1 2 3 4 5)"), parse_permutation("(2 5)(3 4)", 5)]
        )
        g = orbital_graph(d5, (0, 1))  # both directions present
        outcome = verify_og(g, d5, 4)
        assert not outcome.ok and outcome.failed_clause == "og:antisymmetric"

    def test_certify_raises(self):
        z5 = og4.cyclic_group(5)
        with pytest.raises(ConstructionRefuted) as exc:
            og4.certify_og(directed_cycle(5), z5, 4)
        assert exc.value.clause.startswith("og:")


class TestDot:
    def test_deterministic(self):
        g = directed_cycle(3)
        assert export_dot(g) == export_dot(directed_cycle(3))

    def test_arc_order(self):
        g = directed_cycle(3)
        dot = export_dot(g)
        assert dot.index("v0 -> v1") < dot.index("v1 -> v2") < dot.index("v2 -> v0")

    def test_labels(self, lex_pairs):
        pair = lex_pairs[3]
        dot = export_dot(pair.graph, pair.labels)
        assert 'label="(0,0)"' in dot
        assert dot.count("->") == 12
