"""Element tables from the stabiliser chain
(``_kernels.close_under_products``) agree byte for byte with the
breadth-first closure plus full-width lexsort kept in oracles.py; the
chain's base is the ascending base read back from the table; the element
cap is checked before the table is gathered; a construction builds a chain
only for the groups it does not already hold; a group held as its chain
answers order, transitivity, the stabiliser of vertex 0, walk orbits and
edge transitivity as the table reads in oracles.py do, so construct, verify
and analyze gather no wide table; the Schreier check over column blocks and
the table written by the search agree with the row-based check and gather
in oracles.py; no chain holds more than a few MB while it is built; and a
chain closed by a proved order bound is the checked chain."""

import io
import json
import math
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import og4
import og4.cli
from og4 import EnumerationCapExceeded, Permutation, enumerate_group
from og4 import _kernels
from og4.analysis import _walk_orbit_size, alternating_structure
from og4.constructions import (
    _left_regular_maps,
    _regular,
    _right_regular_generators,
    block_swap,
)

import oracles
from test_reports import workload_reports, workloads


def draw_generators(data):
    """Generators on at most 12 points, each moving at most 5 of them."""
    degree = data.draw(st.integers(1, 12), label="degree")
    points = st.lists(st.integers(0, degree - 1), unique=True, max_size=min(5, degree))
    gens = []
    for support in data.draw(st.lists(points, min_size=1, max_size=4), label="supports"):
        images = np.arange(degree, dtype=np.int32)
        images[support] = data.draw(st.permutations(support))
        gens.append(images)
    return gens


def assert_matches_oracle(gen_rows, cap, name=""):
    gen_rows = np.asarray(gen_rows, dtype=np.int32)
    want = oracles.close_under_products(gen_rows, cap)
    chain = _kernels.close_under_products(gen_rows, cap)
    if want is None:
        assert chain is None, name
        return
    want = oracles.sorted_table(want)
    got = chain.table()
    assert got.dtype == np.int32, name
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert chain.order == len(chain) == got.shape[0], name
    assert chain.base == _kernels.ascending_base(got), name
    assert chain.base == sorted(chain.base), name


@pytest.fixture(scope="session")
def tw_n_groups(alt5):
    """tw_cayley's N = T x T at degree 10, N extended by the coordinate
    swap (order 7200), and N's right-regular image at degree 3600."""
    a, b = og4.parse_permutation("(1 2 3)", 5), og4.parse_permutation("(1 2 3 4 5)", 5)
    s0, s1 = og4.embed_pair(a, b), og4.embed_pair(b, a)
    n_grp = enumerate_group([s0, s1])
    return [
        ("tw N", n_grp),
        ("tw N.2", enumerate_group([s0, s1, block_swap(5)])),
        ("tw N right-regular", enumerate_group(_right_regular_generators(n_grp))),
    ]


class TestMatchesOracle:
    def test_corpus_groups(self, corpus_groups, tw_n_groups):
        """Every corpus pair's group (tw_cayley's and pa's vertex groups at
        degree 3600 and 1800 included), the construction groups (pa's G
        and tw's N.2 of order 7200 at degree 10), and N's right-regular
        image."""
        for name, group in corpus_groups + tw_n_groups:
            assert_matches_oracle(group.gen_rows(), group.order, name)
            if group.degree <= 100:
                assert_matches_oracle(group.gen_rows(), group.order - 1, name)

    def test_lex_cycle_8(self, lex_pairs):
        """Its greedy base [14, 12, ..., 0] is not ascending; the chain's is
        [0, 2, ..., 14]."""
        group = lex_pairs[8].group
        assert_matches_oracle(group.gen_rows(), 10_000)
        chain = _kernels.close_under_products(group.gen_rows(), 10_000)
        assert chain.base == list(range(0, 16, 2))

    @pytest.mark.parametrize("degree", [1, 2, 5])
    def test_trivial_group(self, degree):
        ident = np.arange(degree, dtype=np.int32)[None, :]
        assert_matches_oracle(ident, 1)
        assert_matches_oracle(np.repeat(ident, 3, axis=0), 1)
        assert _kernels.close_under_products(ident, 1).base == []

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_generator_sets(self, data):
        """Generators on at most 12 points, each moving at most 5 of them,
        so the groups are often intransitive; with repeats and the identity
        mixed in.  Past the cap both sides give None."""
        gens = draw_generators(data)
        if data.draw(st.booleans(), label="repeat a generator"):
            gens.append(gens[0])
        if data.draw(st.booleans(), label="add the identity"):
            ident = np.arange(gens[0].size, dtype=np.int32)
            gens.insert(data.draw(st.integers(0, len(gens))), ident)
        assert_matches_oracle(np.asarray(gens), 3000)


def without_a_schreier_generator(level, below):
    """``below`` without the first element t, other than the identity, with
    u_x * s = t * u_y for a transversal row u_x and a level generator s: a
    candidate over the rest must be rejected."""
    u = oracles.transversal_rows(level)
    for g in level.gens:
        for x in range(u.shape[0]):
            product = g[u[x]]
            inv = np.argsort(u[level.where[product[level.point]]])
            t = inv[product]
            if (t != np.arange(t.size)).any():
                keep = (below != t).any(axis=1)
                assert not keep.all()
                return below[keep]
    return None


class TestRowOracle:
    """Every candidate a chain builds gives the verdict, the failing product
    and the sorted table that the row-based check and gather in oracles.py
    give; a candidate whose level table lacks a Schreier generator is
    rejected by both, with the same product."""

    @staticmethod
    def compare(cand, failed):
        """The outcome of ``cand``: rejected, verified, or verified with a
        rejected copy lacking a Schreier generator."""
        want = oracles.first_failure(cand.level, cand.below)
        assert (failed is None) == (want is None)
        if failed is not None:
            assert np.array_equal(failed, want)
            return "rejected"
        assert np.array_equal(cand.table(), oracles.candidate_table(cand.level, cand.below))
        lacking = without_a_schreier_generator(cand.level, cand.below)
        if lacking is None:
            return "verified"
        failed = _kernels._Candidate(cand.level, lacking, cand.deeper).first_failure()
        assert failed is not None
        assert np.array_equal(failed, oracles.first_failure(cand.level, lacking))
        return "verified, partial copy rejected"

    def checked_chain(self, monkeypatch, gen_rows, cap):
        real = _kernels._Candidate.first_failure
        count = Counter()

        def checked(cand):
            failed = real(cand)
            count[self.compare(cand, failed)] += 1
            return failed

        monkeypatch.setattr(_kernels._Candidate, "first_failure", checked)
        try:
            _kernels.close_under_products(np.asarray(gen_rows, dtype=np.int32), cap)
        finally:
            monkeypatch.undo()
        return count

    def test_corpus_chains(self, monkeypatch, corpus_groups, tw_n_groups):
        """Every level candidate of every corpus chain, the degree-3600 and
        1800 vertex groups included (their top levels are checked in 50 and
        13 column blocks)."""
        total = Counter()
        for name, group in corpus_groups + tw_n_groups:
            count = self.checked_chain(monkeypatch, group.gen_rows(), group.order)
            assert count["verified"] + count["verified, partial copy rejected"], name
            total += count
        assert total["rejected"] and total["verified, partial copy rejected"], total

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_generator_sets(self, data):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.checked_chain(monkeypatch, draw_generators(data), 3000)

    def test_difference_in_one_block(self, pa_pair):
        """pa's top level is checked in 13 column blocks.  Swapping the
        images of two points of one block that a row t of T fixes keeps t
        mapping every block into itself and keeps the base images, so each
        product matched to t differs from it on that block alone; the first,
        a middle and the last block each reject, with the oracle's product."""
        chain = _kernels.close_under_products(pa_pair.group.gen_rows(), 7200)
        top = chain.top
        blocks = top._blocks()
        assert len(blocks) == 13
        t = top.below.shape[0] - 1
        for points in (blocks[0], blocks[6], blocks[-1]):
            fixed = points[(top.below[t, points] == points) & ~np.isin(points, chain.base)]
            q1, q2 = fixed[:2]
            below = top.below.copy()
            below[t, [q1, q2]] = q2, q1
            cand = _kernels._Candidate(top.level, below, top.deeper)
            failed = cand.first_failure()
            assert failed is not None
            assert np.array_equal(failed, oracles.first_failure(top.level, below))

    def test_blocks_are_unions_of_orbits(self, tw_pair):
        """tw's top level: 50 blocks of 72 or so points covering every point
        once, each mapped into itself by the stabiliser below."""
        chain = _kernels.close_under_products(tw_pair.group.gen_rows(), 7200)
        blocks = chain.top._blocks()
        assert len(blocks) == 50
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(3600))
        for points in blocks:
            inside = np.zeros(3600, dtype=bool)
            inside[points] = True
            assert inside[chain.top.below[:, points]].all()


class TestSortedRows:
    def test_group_from_shuffled_table(self, corpus_groups):
        rng = np.random.default_rng(3)
        for name, group in corpus_groups:
            if group.degree > 100:
                continue
            shuffled = group.table[rng.permutation(group.order)]
            assert np.array_equal(_kernels.sort_group_rows(shuffled), group.table), name

    def test_repeated_rows_are_dropped(self, sym5):
        rows = np.concatenate([sym5.table[::-1], sym5.table[::3]])
        assert np.array_equal(_kernels.sort_group_rows(rows), sym5.table)


class TestResources:
    """Under tracemalloc: gathering tw_cayley's vertex-group table (7200
    rows of degree 3600, 99 MB) stays within 1.25 tables, building its
    chain or a 6000-cycle's stays below 16 MB, ``classify`` on it stays
    below 64 MB, its alternating cycles are found below 8 MB, and a cap one
    below its order is refused before the table exists.  The cap is
    compared with the product of the orbit sizes while the levels are
    searched, so levels past it are never built."""

    def _peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_table_peak(self, tw_pair):
        gens = list(tw_pair.group.generators)
        table_bytes = tw_pair.group.table.nbytes
        peak = self._peak(lambda: enumerate_group(gens, 7200).table)
        assert peak <= 1.25 * table_bytes, peak / 2**20

    def test_chain_peak(self, tw_pair):
        """The check reads U = 3600 transversal rows of degree 3600 in
        column blocks; the rows whole would take 52 MB."""
        gens = list(tw_pair.group.generators)
        peak = self._peak(lambda: enumerate_group(gens, 7200))
        assert peak < 16 * 2**20, peak / 2**20

    def test_cycle_chain_peak(self):
        """A 6000-cycle's transversal is 6000 rows of degree 6000 (144 MB)."""
        cycle = np.roll(np.arange(6000, dtype=np.int32), 1)[None, :]
        chain = _kernels.close_under_products(cycle, 6000)
        assert chain.order == 6000 and chain.base == [0]
        peak = self._peak(lambda: _kernels.close_under_products(cycle, 6000))
        assert peak < 16 * 2**20, peak / 2**20

    def test_alternating_peak(self, tw_pair):
        """7,200 arcs in 1,200 cycles, labelled as orbits on the arcs; a
        count of the cycle pairs in m^2 slots would take 415 MB."""
        assert len(alternating_structure(tw_pair).cycles) == 1200
        peak = self._peak(lambda: alternating_structure(tw_pair))
        assert peak < 8 * 2**20, peak / 2**20

    def test_construct_below_one_table(self, tw_pair, tmp_path):
        """``construct tw_cayley`` holds the vertex group as its chain and
        never gathers the table or the transversal rows, so it stays below
        a quarter of the 99 MB table (measured 7.8 MB;
        79 MB when the check gathered the transversal rows whole)."""
        doc = tmp_path / "tw.json"
        doc.write_text(json.dumps(TW_DOC))

        def construct():
            with redirect_stdout(io.StringIO()):
                assert og4.cli.main(["construct", str(doc)]) == 0

        assert self._peak(construct) < tw_pair.group.table.nbytes / 4

    def test_classify_peak(self, tmp_path):
        """The lattice runs in N<iota> at degree 10 (7200 rows, 288 KB); the
        vertex table alone would take 99 MB."""
        doc = tmp_path / "tw.json"
        doc.write_text(json.dumps(TW_DOC))

        def classify():
            with redirect_stdout(io.StringIO()):
                assert og4.cli.main(["classify", str(doc)]) == 0

        assert self._peak(classify) < 64 * 2**20

    def test_cap_stops_the_level_search(self, monkeypatch, tmp_path, capsys):
        """Twenty disjoint transpositions generate 2^20 elements, one level
        per transposition; under a cap of 1000 the tenth level passes it, so
        the other ten are never built.  lex_cycle(10^4) has one orbit of
        20,000 points; under a cap of 1000 its search stops past 1000 points,
        before any jump row is made."""
        made, jumps = [], []
        real_init, real_jumps = _kernels._Level.__init__, _kernels._Level._jumps

        def init(level, *args):
            real_init(level, *args)
            made.append(level.orbit.size)

        def jump(level, *args):
            jumps.append(level.point)
            return real_jumps(level, *args)

        monkeypatch.setattr(_kernels._Level, "__init__", init)
        monkeypatch.setattr(_kernels._Level, "_jumps", jump)
        gens = np.tile(np.arange(40, dtype=np.int32), (20, 1))
        for i in range(20):
            gens[i, [2 * i, 2 * i + 1]] = [2 * i + 1, 2 * i]
        assert _kernels.close_under_products(gens, 1000) is None
        assert made == [2] * 10
        made.clear()
        lex = {"family": "lex_cycle", "r": 10_000}
        assert run_cli(tmp_path, "construct", lex, "--max-order", "1000")[0] == 2
        assert "exceeded the element cap of 1000" in capsys.readouterr().err
        assert len(made) == 1 and 1000 < made[0] < 1010 and jumps == []

    def test_cap_refused_before_gathering(self, tw_pair):
        gens = list(tw_pair.group.generators)

        def refused():
            with pytest.raises(EnumerationCapExceeded):
                enumerate_group(gens, 7199)

        assert self._peak(refused) < tw_pair.group.table.nbytes


class TestRegular:
    """Regularity as ``transitivity_profile`` reads it from the chain (the
    transitive groups) or the table, and as ``constructions._regular``
    shows it by a transitive centralising group."""

    @staticmethod
    def regular(gens):
        return og4.transitivity_profile(enumerate_group(gens)).regular

    def test_regular_groups(self, alt5, tw_n_groups):
        assert self.regular(_right_regular_generators(alt5))
        assert og4.transitivity_profile(tw_n_groups[2][1]).regular  # N right-regular
        assert self.regular([Permutation(np.roll(np.arange(7), 1))])
        assert self.regular([og4.identity(1)])

    def test_nonregular_groups(self, alt5):
        p = og4.parse_permutation
        assert not self.regular(list(alt5.generators))  # transitive, order 60 > 5
        assert not self.regular([p("(1 2 3)"), p("(1 2)", 3)])  # Sym(3) on 3 points
        assert not self.regular([p("(1 2)(3 4)")])  # semiregular, not transitive
        assert not self.regular([og4.identity(2)])
        # order 4 on 4 points, but the orbit of point 0 is {0, 1}
        assert not self.regular([p("(1 2)", 4), p("(3 4)", 4)])

    def test_regular_by_centraliser(self, alt5, tw_n_groups):
        def right(group):
            return [g.images for g in _right_regular_generators(group)]

        n_grp = tw_n_groups[0][1]
        assert _regular(right(alt5), _left_regular_maps(alt5))
        assert _regular(right(n_grp), _left_regular_maps(n_grp))
        cycle = np.roll(np.arange(7), 1)
        assert _regular([cycle], [cycle])  # Z7 is its own centraliser

    def test_nonregular_by_centraliser(self, alt5):
        """Alt(5) on 5 points is transitive and not regular: the 5-cycle is
        transitive and fails to commute with (1 2 3), and the identity
        commutes with everything but is not transitive."""
        natural = alt5.gen_rows()
        five_cycle = og4.parse_permutation("(1 2 3 4 5)").images
        assert not _regular(natural, [five_cycle])
        assert not _regular(natural, [np.arange(5)])
        # regular gens with a centraliser that is not transitive
        assert not _regular([five_cycle], [np.arange(5)])
        # intransitive gens with a transitive centraliser
        halves = og4.parse_permutation("(1 2)(3 4)").images
        assert not _regular([halves], [halves])

    def test_tw_refutes_nonregular_n(self, monkeypatch):
        """tw:n_regular refutes when the left multiplications do not show
        N regular: right multiplications in their place are transitive but
        do not commute with N's (N is nonabelian), and identity maps
        commute but are not transitive."""
        alt5 = og4.alternating_group(5)
        sym5 = og4.symmetric_group(5)
        p = og4.parse_permutation
        substitutes = {
            "transitive, not commuting": lambda n: [g.images for g in _right_regular_generators(n)],
            "commuting, not transitive": lambda n: [np.arange(n.order)] * 2,
        }
        for name, substitute in substitutes.items():
            monkeypatch.setattr(og4.constructions, "_left_regular_maps", substitute)
            with pytest.raises(og4.ConstructionRefuted) as exc:
                og4.tw_cayley(alt5, p("(1 2 3)", 5), p("(1 2 3 4 5)", 5),
                              og4.conjugation_inventory(sym5))
            assert exc.value.clause == "tw:n_regular", name


ALT5 = ["(1 2 3)", "(1 2 3 4 5)"]
SYM5 = ["(1 2)", "(1 2 3 4 5)"]
TW_DOC = {"family": "tw_cayley", "degree": 5, "generators": ALT5, "a": "(1 2 3)",
          "b": "(1 2 3 4 5)", "aut_supergroup_generators": SYM5}
PA_DOC = {"family": "pa", "degree": 5, "generators": ALT5, "a": "(1 2)(3 4)",
          "b": "(1 5 4 3 2)", "centralizer_supergroup_generators": SYM5}


def run_cli(tmp_path, command, doc, *extra):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with redirect_stdout(out):
        status = og4.cli.main([command, str(path), *extra])
    return status, out.getvalue()


class TestChainsPerConstruction:
    @staticmethod
    def chain_degrees(monkeypatch, tmp_path, doc):
        degrees = Counter()
        real = _kernels.close_under_products

        def counting(gen_rows, cap, order=None):
            degrees[gen_rows.shape[1]] += 1
            return real(gen_rows, cap, order)

        monkeypatch.setattr(_kernels, "close_under_products", counting)
        assert run_cli(tmp_path, "construct", doc)[0] == 0
        return degrees

    def test_tw_cayley_builds_one_chain_at_degree_3600(self, monkeypatch, tmp_path):
        """Alt(5) and the Aut supergroup Sym(5) arrive from the document, N
        is new at degree 10 and the vertex group at degree 3600; <a, b> in
        T, <s0, s1> in N and N's regularity are masks in tables already
        held."""
        assert self.chain_degrees(monkeypatch, tmp_path, TW_DOC) == {5: 2, 10: 1, 3600: 1}

    def test_coset_builders_hold_h_as_a_mask(self, monkeypatch, tmp_path):
        """H is a mask in the group already held: <h> in T for coset_simple,
        the transpositions in Sym(7) for sym_bigstab, <(a, a), iota> in G
        for pa.  The chains left are the document's groups, pa's G and the
        vertex group."""
        coset_simple = {"family": "coset_simple", "degree": 5, "generators": ALT5,
                        "h": "(1 4)(2 5)", "g": "(1 2 3)"}
        assert self.chain_degrees(monkeypatch, tmp_path, coset_simple) == {5: 1, 30: 1}
        monkeypatch.undo()
        sym7 = {"family": "sym_bigstab", "n": 7}
        assert self.chain_degrees(monkeypatch, tmp_path, sym7) == {7: 1, 630: 1}
        monkeypatch.undo()
        assert self.chain_degrees(monkeypatch, tmp_path, PA_DOC) == {5: 2, 10: 1, 1800: 1}


class TestChainServed:
    """A group held as its chain gives the order, transitivity, the
    stabiliser of vertex 0, walk-orbit sizes and the edge-transitivity
    verdict that the table reads in oracles.py give, without gathering its
    table."""

    def test_corpus_pairs(self, all_pairs):
        for name, pair in all_pairs:
            held = enumerate_group(pair.group.generators)
            assert held.order == pair.group.table.shape[0], name
            prof = og4.transitivity_profile(held)
            assert prof.transitive == oracles.transitive(pair.group), name
            assert prof.regular == (held.order == held.degree), name
            stab = og4.point_stabilizer(held, 0)
            assert stab.table.tobytes() == oracles.point_stabilizer_table(pair.group, 0).tobytes()
            outs = oracles.neighbors(pair.graph)[0]
            rep = og4.s_arc_report(pair)
            walk = [0]
            for s in range(1, rep.max_s + 2):
                walk.append(min(outs[walk[-1]]))
                want = oracles.walk_orbit_size(pair.group, walk, rep.counts[s])
                assert _walk_orbit_size(held, walk) == want, (name, s)
            outcome = og4.verify_og(pair.graph, held, 4)
            assert outcome.ok == oracles.edge_transitive(pair.graph, pair.group), name
            assert held._table is None, name

    def test_edge_transitivity_refuted(self, sc_pair, alt5):
        """Alt(5) acting on simple_cayley's 60 vertices by right
        multiplication is vertex-transitive and keeps the orientation, but
        has two orbits on the 120 arcs."""
        n_image = enumerate_group(_right_regular_generators(alt5))
        outcome = og4.verify_og(sc_pair.graph, n_image, 4)
        assert outcome.failed_clause == "og:edge_transitive"
        assert outcome.detail == "group not transitive on arcs"
        assert not oracles.edge_transitive(sc_pair.graph, n_image)


class TestNoWideTable:
    """``construct``, ``verify`` and ``analyze`` on tw_cayley and pa gather
    no table at degree 3600 or 1800, and neither do ``classify``,
    ``quotient`` and ``chain``, whose lattice runs in the pair's small
    faithful action; no operation of the benchmark's three workloads
    gathers a table at degree 1800 or more."""

    @staticmethod
    def gathered(monkeypatch):
        degrees = Counter()
        real = _kernels.StabiliserChain.table

        def counting(chain):
            degrees[chain.degree] += 1
            return real(chain)

        monkeypatch.setattr(_kernels.StabiliserChain, "table", counting)
        return degrees

    @pytest.mark.parametrize("doc", [TW_DOC, PA_DOC], ids=["tw_cayley", "pa"])
    def test_build_commands(self, monkeypatch, tmp_path, doc):
        degrees = self.gathered(monkeypatch)
        status, out = run_cli(tmp_path, "construct", doc)
        assert status == 0
        pair_doc = json.loads(out)["pair"]
        assert run_cli(tmp_path, "verify", pair_doc)[0] == 0
        assert run_cli(tmp_path, "analyze", doc)[0] == 0
        assert not degrees.keys() & {3600, 1800}, degrees

    @pytest.mark.parametrize("doc", [TW_DOC, PA_DOC], ids=["tw_cayley", "pa"])
    def test_lattice_commands(self, monkeypatch, tmp_path, doc):
        degrees = self.gathered(monkeypatch)
        for command in ("classify", "quotient", "chain"):
            assert run_cli(tmp_path, command, doc)[0] == 0
        assert not degrees.keys() & {3600, 1800}, degrees

    def test_workload_operations(self, monkeypatch, tmp_path):
        degrees = self.gathered(monkeypatch)
        for workload in workloads.WORKLOADS:
            workload_reports(workload, tmp_path)
        assert degrees and max(degrees) < 1800, degrees

    def test_max_order_refused_before_rows(self, monkeypatch, tmp_path, capsys):
        """One below |G| is refused (exit 2) with nothing of the transversal
        gathered at degree 3600: no column block and no single row."""
        degrees = Counter()
        for name in ("columns", "row"):
            real = getattr(_kernels._Level, name)

            def counting(level, *args, real=real):
                degrees[level.gens.shape[1]] += 1
                return real(level, *args)

            monkeypatch.setattr(_kernels._Level, name, counting)
        assert run_cli(tmp_path, "construct", TW_DOC, "--max-order", "7199")[0] == 2
        assert "exceeded the element cap of 7199" in capsys.readouterr().err
        assert degrees[3600] == 0
        assert run_cli(tmp_path, "construct", TW_DOC)[0] == 0
        assert degrees[3600] > 0


class TestTableBudget:
    """Every table a chain gathers, level tables included, is checked
    against ``_kernels.TABLE_BYTES`` before it is allocated; a refusal is
    one ``error:`` line and exit 2."""

    def test_classify_pa_pair_document_refused(self, monkeypatch, tmp_path, capsys):
        """pa's vertex-group table is 7200 rows of degree 1800 (49 MB).  A
        pair document without 'action_generators' brings no small action,
        so ``classify`` on the pair that ``construct`` emits, with that
        field stripped, runs the lattice in the vertex action, needs the
        table and is refused under a 10 MB budget, with little allocated;
        ``construct`` and ``classify`` of the spec never gather it and
        succeed."""
        pair_doc = json.loads(run_cli(tmp_path, "construct", PA_DOC)[1])["pair"]
        del pair_doc["action_generators"]
        monkeypatch.setattr(_kernels, "TABLE_BYTES", 10 * 2**20)
        tracemalloc.start()
        try:
            status = run_cli(tmp_path, "classify", pair_doc)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 2
        assert peak < 16 * 2**20, peak / 2**20
        err = capsys.readouterr().err
        assert err == ("error: an element table of 7200 rows at degree 1800 needs 49 MB, "
                       "over the budget of 10 MB\n")
        assert run_cli(tmp_path, "construct", PA_DOC)[0] == 0
        assert run_cli(tmp_path, "classify", PA_DOC)[0] == 0

    def test_class_products_refused(self, monkeypatch, tmp_path, capsys):
        """lex_cycle(8)'s element table is 131,072 bytes; under a budget of
        140,000 bytes only the class products that ``classify`` stores pass
        it, and the refusal names them, in bytes: 8869 pairs of 16 bytes."""
        monkeypatch.setattr(_kernels, "TABLE_BYTES", 140_000)
        status, out = run_cli(tmp_path, "classify", {"family": "lex_cycle", "r": 8})
        assert (status, out) == (2, "")
        assert capsys.readouterr().err == ("error: a store of 8869 class-product pairs "
                                           "needs 141904 bytes, over the budget of "
                                           "140000 bytes\n")

    def test_level_tables(self, monkeypatch):
        """Sym(7) on 7 points has level tables of 720, 120, ... rows below
        its top; a budget of 2 KB refuses the first one over it while the
        chain is built."""
        gens = og4.symmetric_group(7).gen_rows()
        monkeypatch.setattr(_kernels, "TABLE_BYTES", 2048)
        with pytest.raises(og4.TableBudgetExceeded) as exc:
            _kernels.close_under_products(gens, 5040)
        assert exc.value.nbytes > 2048
        assert exc.value.nbytes < 5040 * 7 * 4


class TestKnownOrder:
    """A chain closed by a proved order bound (``close_under_products`` with
    ``order``) runs no Schreier check and is the checked chain: the same
    base, order, top orbit, first stabiliser and table, and the same lower
    orbits as sets.  A bound below |G| raises; under a bound above it the
    check verifies the levels the random elements built, with no restart,
    and gives the true order."""

    @pytest.fixture(scope="class")
    def vertex_groups(self, sc_pair, cs_pair, sym5_pair, sym7_pair, tw_pair, pa_pair):
        return [("simple_cayley", sc_pair.group), ("coset_simple", cs_pair.group),
                ("sym_bigstab(5)", sym5_pair.group), ("sym_bigstab(7)", sym7_pair.group),
                ("tw_cayley", tw_pair.group), ("pa", pa_pair.group)]

    def test_matches_checked_chain(self, schreier_checks, vertex_groups):
        for name, group in vertex_groups:
            gens = group.gen_rows()
            schreier_checks.clear()
            known = _kernels.close_under_products(gens, group.order, group.order)
            assert not schreier_checks, name
            checked = _kernels.close_under_products(gens, group.order)
            assert schreier_checks, name
            assert known.base == checked.base and known.order == checked.order, name
            assert known.orbits[0].tobytes() == checked.orbits[0].tobytes(), name
            assert known.first_stabiliser().tobytes() == checked.first_stabiliser().tobytes()
            assert known.table().tobytes() == checked.table().tobytes(), name
            for got, want in zip(known.orbits[1:], checked.orbits[1:]):
                assert set(got.tolist()) == set(want.tolist()), name

    def test_same_generators_same_chain(self, pa_pair):
        gens = pa_pair.group.gen_rows()
        one, two = (_kernels.close_under_products(gens, 7200, 7200) for _ in range(2))
        assert one.base == two.base
        assert all(np.array_equal(a, b) for a, b in zip(one.orbits, two.orbits))
        assert np.array_equal(one.first_stabiliser(), two.first_stabiliser())

    def test_bound_below_the_order_raises(self, vertex_groups):
        for name, group in vertex_groups:
            with pytest.raises(og4.InvariantViolation, match="at most"):
                _kernels.close_under_products(group.gen_rows(), group.order, group.order // 2)

    def test_bound_above_the_order_falls_back(self, schreier_checks, sym5_pair):
        gens = sym5_pair.group.gen_rows()
        assert _kernels.close_under_products(gens, 120, 120).order == 120
        assert not schreier_checks
        assert _kernels.close_under_products(gens, 240, 240).order == 120
        assert schreier_checks.keys() == {gens.shape[1]}
        # a bound over the cap is not used: the cap refuses the group
        assert _kernels.close_under_products(gens, 119, 120) is None

    def test_missed_bound_builds_levels_once(self, monkeypatch, cs_pair, sym5_pair, sym5):
        """Under a bound the random elements cannot meet, the check goes on
        from the levels they built: the base's levels are searched from no
        old levels once, and the table is the unbounded chain's."""
        fresh, real = [], _kernels._levels

        def levels(strong, n_given, old, cap=math.inf):
            fresh.append(not old)
            return real(strong, n_given, old, cap)

        monkeypatch.setattr(_kernels, "_levels", levels)
        for group, bound in ((cs_pair.group, 2 * cs_pair.group.order),
                             (sym5_pair.group, 2 * sym5_pair.group.order), (sym5, 240)):
            gens = group.gen_rows()
            fresh.clear()
            chain = _kernels.close_under_products(gens, bound, bound)
            assert fresh.count(True) == 1, (group, fresh)
            want = _kernels.close_under_products(gens, bound)
            assert chain.order == group.order
            assert chain.table().tobytes() == want.table().tobytes()

    def test_unfaithful_coset_action_refuted(self, monkeypatch, alt5):
        """Alt(5) x Z2 over H = <(1 4)(2 5), z> with z central: H has core
        <z>, so the action on the 30 cosets has order 60, and the bound |G|
        passed to the vertex group's chain is twice that.  With the core
        check hidden, the chain misses the bound and is checked, and
        ``coset:faithful`` refutes, naming both orders."""
        p = og4.parse_permutation
        z = og4.embed_pair(og4.identity(5), p("(1 2)", 2))
        group = enumerate_group([og4.embed_pair(g, og4.identity(2)) for g in alt5.generators] + [z])
        h = og4.embed_pair(p("(1 4)(2 5)", 5), og4.identity(2))
        subgroup = enumerate_group([h, z])
        s = og4.embed_pair(p("(1 2 3)", 5), og4.identity(2))
        spec = og4.CosetSpec(group, subgroup, s)
        with pytest.raises(og4.ConstructionRefuted) as exc:
            og4.build_coset_graph(spec)
        assert exc.value.clause == "coset:core_free"

        def trivial_core(group, h_idx):
            core = np.zeros(group.order, dtype=bool)
            core[group.identity_index] = True
            return core

        monkeypatch.setattr(og4.constructions, "_core_mask", trivial_core)
        with pytest.raises(og4.ConstructionRefuted) as exc:
            og4.build_coset_graph(spec)
        assert exc.value.clause == "coset:faithful"
        assert exc.value.detail == "the coset action has order 60, |G| = 120"

    @pytest.mark.parametrize("doc", [TW_DOC, PA_DOC], ids=["tw_cayley", "pa"])
    def test_no_schreier_check_at_vertex_degree(self, monkeypatch, tmp_path, doc):
        checks, chains = Counter(), Counter()
        real_check, real_close = _kernels._Candidate.first_failure, _kernels.close_under_products

        def check(cand):
            checks[cand.below.shape[1]] += 1
            return real_check(cand)

        def close(gen_rows, cap, order=None):
            chains[gen_rows.shape[1]] += 1
            return real_close(gen_rows, cap, order)

        monkeypatch.setattr(_kernels._Candidate, "first_failure", check)
        monkeypatch.setattr(_kernels, "close_under_products", close)
        for command in ("construct", "analyze"):
            assert run_cli(tmp_path, command, doc)[0] == 0
        assert not checks.keys() & {3600, 1800}, checks
        assert chains.keys() & {3600, 1800}, chains

    def test_invariant_violation_is_one_class(self):
        assert og4.quotient.InvariantViolation is og4.InvariantViolation
        assert og4.InvariantViolation is _kernels.InvariantViolation
