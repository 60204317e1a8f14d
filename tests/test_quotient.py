import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import og4
import og4.cli
from og4 import OG4Error, enumerate_group, parse_permutation, perm, quotient
from og4.perm import BlockPartition, induced_block_action
import oracles
from og4.quotient import (
    QuotientOutcome,
    _basic_type_from_kinds,
    basic_chain,
    basic_quotients,
    basic_type,
    classify_all_quotients,
    classify_og4_quotient,
    normal_quotient,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


class TestNormalQuotient:
    def test_full_group_is_k1(self, lex_pairs):
        pair = lex_pairs[4]
        out = normal_quotient(pair, pair.group)
        assert out.kind == "K1"

    def test_lex_base_is_og_multicover(self, lex_pairs):
        for r, pair in lex_pairs.items():
            labels = np.arange(2 * r) // 2
            part = BlockPartition.from_labels(labels)
            _, base = induced_block_action(pair.group, part)
            assert base.order == 2 ** r
            out = normal_quotient(pair, base)
            assert out.kind == "OGMulticover"
            assert out.quotient_valency == 2 and out.multicover_degree == 2
            assert out.induced_group.order == r

    def test_non_normal_rejected(self, lex_pairs):
        pair = lex_pairs[3]
        flip = og4.point_stabilizer(pair.group, 0)
        with pytest.raises(OG4Error):
            normal_quotient(pair, flip)


    def test_matches_counter_oracle(self, pairs_and_covers):
        """Every field of every nontrivial normal quotient against the
        per-arc set and ``Counter`` count."""
        for name, pair in pairs_and_covers:
            for n_sub in og4.all_normal_subgroups(pair.group)[1:]:
                got, want = normal_quotient(pair, n_sub), oracles.normal_quotient(pair, n_sub)
                for field in dataclasses.fields(QuotientOutcome):
                    a, b = getattr(got, field.name), getattr(want, field.name)
                    if isinstance(a, og4.PermGroup):
                        same = a.same_elements(b)
                    elif isinstance(a, BlockPartition):
                        same = a.blocks == b.blocks
                    else:
                        same = a == b
                    assert same, (name, n_sub.order, field.name)


class TestClassification:
    def test_lex_minimal_normal_is_oriented_cycle(self, lex_pairs):
        for r, pair in lex_pairs.items():
            mins = og4.minimal_normal_subgroups(pair.group)
            out = classify_og4_quotient(pair, mins[0])
            assert out.kind == "OrientedCycle"
            assert out.cycle_length == r
            assert out.induced_group.order == r

    def test_cover_detected_on_simple_cayley(self, sc_pair):
        # the acting group has a central fixed-point-free involution whose
        # quotient is a genuine cover on half as many vertices
        kinds = {
            n.order: out.kind for n, out in classify_all_quotients(sc_pair)
        }
        assert kinds[2] == "Cover"
        assert kinds[60] == "K1"

    def test_cover_invariants(self, sc_pair):
        for n, out in classify_all_quotients(sc_pair):
            if out.kind != "Cover":
                continue
            assert out.multicover_degree == 1
            assert og4.transitivity_profile(n).semiregular
            assert out.kernel.same_elements(n)
            assert out.induced_group.order * n.order == sc_pair.group.order
            assert out.quotient_pair.certificate.valency == 4

    def test_cover_labels_orbits_once(self, monkeypatch, sc_pair, cyclic_square_pairs):
        """A Cover reads N's semiregularity from the orbits ``normal_quotient``
        found: one ``_normal_orbit_labels`` call per quotient, not two."""
        calls = []
        real = perm._normal_orbit_labels
        monkeypatch.setattr(perm, "_normal_orbit_labels",
                            lambda *args: calls.append(args) or real(*args))
        covers = 0
        for pair in [sc_pair] + [p for _, p in cyclic_square_pairs]:
            for n_sub in og4.all_normal_subgroups(pair.group)[1:]:
                calls.clear()
                if classify_og4_quotient(pair, n_sub).kind == "Cover":
                    assert len(calls) == 1, (pair.group.order, n_sub.order, len(calls))
                    covers += 1
        assert covers

    def test_k2_on_bipartite_cycle(self):
        # oriented 4-valent bipartite example: lexicographic cycle with even r
        pair = og4.lexicographic_cycle(4)
        labels = np.arange(8) // 2 % 2  # column parity
        part = BlockPartition.from_labels(labels)
        _, ker = induced_block_action(pair.group, part)
        out = classify_og4_quotient(pair, ker)
        assert out.kind == "K2"


class TestCycleGroups:
    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    def test_dihedral_matches_oracle(self, r):
        rotation = parse_permutation(f"({' '.join(map(str, range(1, r + 1)))})")
        flip = og4.Permutation(np.asarray([(-i) % r for i in range(r)]))
        groups = [
            enumerate_group([rotation, flip]),
            og4.cyclic_group(2 * r),
            enumerate_group([parse_permutation(f"({' '.join(map(str, range(1, r + 1)))})", r + 2),
                             parse_permutation(f"({r + 1} {r + 2})", r + 2)]),
        ]
        got = [quotient._is_dihedral_of_order(g, 2 * r) for g in groups]
        assert got == [oracles.is_dihedral_of_order(g, 2 * r) for g in groups]
        assert got == [True, False, False]

    def test_quaternion_is_not_dihedral(self):
        # an element of order 4 inverts the rotation, but no involution does
        q8 = enumerate_group([parse_permutation("(1 2 3 4)(5 6 7 8)"),
                              parse_permutation("(1 5 3 7)(2 8 4 6)")])
        assert q8.order == 8
        assert not quotient._is_dihedral_of_order(q8, 8)
        assert not oracles.is_dihedral_of_order(q8, 8)

    def test_cyclic_matches_oracle(self, all_pairs, narrow_groups):
        """On every vertex stabiliser, the acting groups of order at most
        1000 and every lex_cycle quotient's induced group, at its own order
        and at order 2."""
        groups = [(name, og4.point_stabilizer(pair.group, 0)) for name, pair in all_pairs]
        groups += [(name, g) for name, g in narrow_groups if g.order <= 1000]
        groups += [(name, out.induced_group) for name, pair in all_pairs[:6]
                   for _, out in classify_all_quotients(pair)]
        for name, group in groups:
            for r in {group.order, 2}:
                want = oracles.is_cyclic_of_order(group, r)
                assert quotient._is_cyclic_of_order(group, r) == want, (name, r)
        assert quotient._is_cyclic_of_order(og4.cyclic_group(7), 7)
        assert not quotient._is_cyclic_of_order(og4.symmetric_group(3), 6)


class TestBasic:
    def test_lex_is_cycle_type(self, lex_pairs):
        for pair in lex_pairs.values():
            assert basic_type(pair) == "Cycle"

    def test_sym_bigstab_quasiprimitive(self, sym5_pair):
        assert basic_type(sym5_pair) == "Quasiprimitive"

    def test_coset_simple_quasiprimitive(self, cs_pair):
        assert basic_type(cs_pair) == "Quasiprimitive"

    def test_simple_cayley_not_basic(self, sc_pair):
        assert basic_type(sc_pair) == "NonBasic"

    def test_chain_empty_for_basic(self, sym5_pair):
        chain, terminal, classified = basic_chain(sym5_pair)
        assert chain == []
        assert terminal is sym5_pair
        assert [n.order for n, _ in classified] == [60, 120]

    def test_chain_reduces_nonbasic(self, sc_pair):
        chain, terminal, _ = basic_chain(sc_pair)
        assert len(chain) == 1
        assert chain[0][0].order == 2
        assert terminal.graph.n_vertices == 30
        assert basic_type(terminal) == "Quasiprimitive"

    def test_lattice_order_is_row_order(self, narrow_groups):
        """basic_chain takes the first largest cover in the order of
        classify_all_quotients, which is (order, element indices); on a
        sorted table that is (order, row tuples), the order it used before."""
        for name, group in narrow_groups:
            if group.order > 2048:
                continue
            subs = og4.all_normal_subgroups(group)
            by_rows = sorted(subs, key=lambda n: (n.order, tuple(map(tuple, n.table.tolist()))))
            assert [id(n) for n in by_rows] == [id(n) for n in subs], name

    def test_basic_quotients_consistent(self, sc_pair):
        bq = basic_quotients(sc_pair)
        assert [(n.order, q.graph.n_vertices) for n, q in bq] == [(2, 30)]

    def test_terminal_has_no_cover(self, sc_pair):
        _, terminal, classified = basic_chain(sc_pair)
        kinds = {out.kind for _, out in classify_all_quotients(terminal)}
        assert "Cover" not in kinds
        assert [(n.order, o.kind) for n, o in classified] == [
            (n.order, o.kind) for n, o in classify_all_quotients(terminal)]

    def test_basic_type_matches_full_lattice_oracle(
        self, monkeypatch, lex_pairs, sc_pair, cs_pair, sym5_pair, sym7_pair
    ):
        # basic_type reads only the minimal normal subgroups; the full
        # lattice, classified quotient by quotient, is the oracle
        pairs = [(f"lex_cycle({r})", p) for r, p in lex_pairs.items()]
        pairs += [
            ("simple_cayley", sc_pair),
            ("coset_simple", cs_pair),
            ("sym_bigstab(5)", sym5_pair),
            ("sym_bigstab(7)", sym7_pair),
            ("simple_cayley chain terminal", basic_chain(sc_pair)[1]),
        ]
        calls = []
        real_lattice = perm.all_normal_subgroups

        def counting(*args, **kwargs):
            calls.append(args)
            return real_lattice(*args, **kwargs)

        seen = set()
        for name, pair in pairs:
            with monkeypatch.context() as m:
                m.setattr(perm, "all_normal_subgroups", counting)
                m.setattr(quotient, "all_normal_subgroups", counting)
                got = basic_type(pair)
            assert calls == [], name
            kinds = {o.kind for _, o in classify_all_quotients(pair)}
            assert got == _basic_type_from_kinds(kinds), name
            seen |= kinds
        assert {"Cover", "OrientedCycle", "K2", "K1"} <= seen


def same_pair(p, q):
    return (np.array_equal(p.graph.arcs, q.graph.arcs)
            and np.array_equal(p.group.table, q.group.table) and p.labels == q.labels)


class TestBasicReduction:
    """``basic_chain`` takes one step, to the quotient by the first largest
    cover kernel, and ``basic_quotients`` keeps the cover kernels that lie
    in no larger one.  The oracles are the greedy loop over covers of
    covers and the basic type of every cover quotient."""

    # n -> (cover kernel orders, chain kernel orders, basic quotient kernel orders)
    CYCLIC_SQUARES = {
        "Z4^2": ([2], [2], [2]),
        "Z6^2": ([2, 3, 3, 4], [4], [3, 3, 4]),
        "Z8^2": ([2, 4, 4, 4, 8, 8, 8], [8], [8, 8, 8]),
        "Z12^2": ([2, 3, 3, 4, 4, 4, 6, 6, 8, 9, 12, 12, 12, 12, 16, 18], [18],
                  [12, 12, 12, 12, 16, 18]),
    }

    def test_matches_oracles(self, all_pairs, wreath_pairs, cyclic_square_pairs):
        for name, pair in all_pairs + wreath_pairs + cyclic_square_pairs:
            chain, terminal, classified = basic_chain(pair)
            want_chain, want_terminal, want_classified = oracles.basic_chain(pair)
            assert len(chain) == len(want_chain) <= 1, name
            for (n, q), (want_n, want_q) in zip(chain, want_chain):
                assert n.same_elements(want_n) and same_pair(q, want_q), name
            assert same_pair(terminal, want_terminal), name
            assert [(n.order, o.kind, o.partition.n_blocks) for n, o in classified] == [
                (n.order, o.kind, o.partition.n_blocks) for n, o in want_classified], name

            got, want = basic_quotients(pair), oracles.basic_quotients(pair)
            assert len(got) == len(want), name
            for (n, q), (want_n, want_q) in zip(got, want):
                assert n.same_elements(want_n) and same_pair(q, want_q), name

    def test_nested_cover_kernels(self, cyclic_square_pairs):
        for name, pair in cyclic_square_pairs:
            covers = [n.order for n, o in classify_all_quotients(pair) if o.kind == "Cover"]
            chain = [n.order for n, _ in basic_chain(pair)[0]]
            basic = [n.order for n, _ in basic_quotients(pair)]
            assert (covers, chain, basic) == self.CYCLIC_SQUARES[name], name

    def test_non_basic_terminal_refused(self, monkeypatch, cyclic_square_pairs):
        """With the order-8 cover kernels of Z8 x Z8 hidden, the largest
        left has order 4, and its quotient has a cover: the check fires."""
        pair = dict(cyclic_square_pairs)["Z8^2"]
        real = quotient.classify_all_quotients

        def hiding(p):
            results = real(p)
            return [(n, o) for n, o in results if p is not pair or n.order != 8]

        monkeypatch.setattr(quotient, "classify_all_quotients", hiding)
        with pytest.raises(og4.InvariantViolation, match="largest cover kernel has a cover"):
            basic_chain(pair)


class TestClassifyOnce:
    """``classify`` and ``chain`` read the basic type's minimal normal
    quotients from the quotients they have classified, so each nontrivial
    normal subgroup of each pair is classified once.  ``classify`` took 26
    calls for 24 on lex_cycle(8); ``chain`` took as many there, and 5 for 4
    on simple_cayley."""

    FAMILIES = ["lex_cycle(8)", "simple_cayley", "tw_cayley", "pa", "sym_bigstab(7)"]

    @staticmethod
    def run(command, family, monkeypatch, tmp_path):
        """The command's report, the orders of the subgroups it classified,
        call by call, and those that ``classify_all_quotients`` listed."""
        doc = tmp_path / "spec.json"
        doc.write_text(json.dumps(workloads.spec(family, [1, 2, 3, 4, 5])))
        calls, listed = [], []
        real, real_all = quotient.classify_og4_quotient, quotient.classify_all_quotients

        def counting(pair, n_sub):
            calls.append(n_sub.order)
            return real(pair, n_sub)

        def listing(pair):
            results = real_all(pair)
            listed.extend(n.order for n, _ in results)
            return results

        monkeypatch.setattr(quotient, "classify_og4_quotient", counting)
        for module in (quotient, og4.cli):
            monkeypatch.setattr(module, "classify_all_quotients", listing)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert og4.cli.main([command, str(doc)]) == 0
        return json.loads(out.getvalue()), calls, listed

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_call_per_normal_subgroup(self, family, monkeypatch, tmp_path):
        report, calls, _ = self.run("classify", family, monkeypatch, tmp_path)
        listed = [q["normal_subgroup_order"] for q in report["quotients"]]
        assert calls == listed

    @pytest.mark.parametrize("family", FAMILIES)
    def test_chain_one_call_per_normal_subgroup(self, family, monkeypatch, tmp_path):
        report, calls, listed = self.run("chain", family, monkeypatch, tmp_path)
        assert calls == listed
        if family == "simple_cayley":  # the pair's 3, then its cover quotient's 1
            assert report["kernel_orders"] == [2] and len(calls) == 4


class TestSmallAction:
    """The lattice of a coset or tw pair runs in the pair's small faithful
    action, and every other pair's in its vertex action; either way it gives
    what the lattice on the vertex table (``oracles.VertexLattice``) gives."""

    SMALL = {"coset_simple": 5, "sym_bigstab(5)": 5, "sym_bigstab(7)": 7,
             "tw_cayley": 10, "pa": 10}

    def test_matches_vertex_table(self, all_pairs):
        """The same classes, normal and minimal normal subgroups (as
        vertex-table index sets, in the same order), orbits, semiregularity,
        block kernels and block images."""
        for name, pair in all_pairs:
            group = pair.group
            lattice = perm._lattice(group)
            assert lattice.degree == self.SMALL.get(name, group.degree), name
            assert (lattice is group) == (name not in self.SMALL), name
            oracle = oracles.VertexLattice(group)
            assert [c.tolist() for c in og4.conjugacy_classes(group)] == oracle.classes(), name
            normals = og4.all_normal_subgroups(group)

            def index_sets(subs):
                return [group.index.indices_of(n.table).tolist() for n in subs]

            assert index_sets(normals) == oracle.normal_subgroups(), name
            assert index_sets(og4.minimal_normal_subgroups(group)) == \
                oracle.minimal_normal_subgroups(), name
            for n_sub in normals:
                part = og4.orbits(n_sub)
                want = BlockPartition.from_labels(oracles.point_orbit_labels(n_sub.table))
                assert part.blocks == want.blocks, (name, n_sub.order)
                assert og4.transitivity_profile(n_sub).semiregular == oracles.semiregular(n_sub)
                image, kernel = induced_block_action(group, part)
                want_kernel, want_image = oracle.block_action(part)
                assert index_sets([kernel]) == [want_kernel], (name, n_sub.order)
                assert image.table.tobytes() == want_image.tobytes(), (name, n_sub.order)

    def test_class_sets_match_mask_lattice(self, pairs_and_covers, all_pairs):
        """The lattice over conjugacy classes gives the normal and minimal
        normal subgroups, in the same order, that the element-by-element
        mask lattice (``oracles.MaskLattice``) gives on every corpus pair and
        every cover quotient, and that the vertex-table lattice gives on the
        covers (``test_matches_vertex_table`` checks the corpus pairs)."""
        for i, (name, pair) in enumerate(pairs_and_covers):
            group = pair.group

            def index_sets(subs):
                return [group.index.indices_of(n.table).tolist() for n in subs]

            normals = index_sets(og4.all_normal_subgroups(group))
            minimal = index_sets(og4.minimal_normal_subgroups(group))
            oracle = oracles.MaskLattice(group)
            assert normals == oracle.normal_subgroups(), name
            assert minimal == oracle.minimal_normal_subgroups(), name
            if i >= len(all_pairs):
                vertex = oracles.VertexLattice(group)
                assert normals == vertex.normal_subgroups(), name
                assert minimal == vertex.minimal_normal_subgroups(), name

    def test_closures_under_classify(self, monkeypatch, tmp_path):
        """``classify`` of lex_cycle(8): the lattice closes each of the 55
        nontrivial classes once for the atoms and at most one join per
        normal subgroup (25 of 26 joins are settled by their order), and
        grows no mask.  The mask lattice grew 56 class closures and 254
        joins element by element."""
        counts = dict.fromkeys(["close", "grow", "normal"], 0)
        real_close, real_grow, real_lattice = og4._kernels.close_class_sets, perm._grow, \
            perm.all_normal_subgroups
        inside = []

        def close(*args):
            counts["close"] += 1
            return real_close(*args)

        def grow(*args):
            counts["grow"] += bool(inside)
            return real_grow(*args)

        def lattice(group):
            inside.append(group)
            try:
                subs = real_lattice(group)
            finally:
                inside.pop()
            counts["normal"] += len(subs)
            return subs

        monkeypatch.setattr(og4._kernels, "close_class_sets", close)
        monkeypatch.setattr(perm, "_grow", grow)
        for module in (perm, quotient):
            monkeypatch.setattr(module, "all_normal_subgroups", lattice)
        doc = tmp_path / "lex8.json"
        doc.write_text(json.dumps({"family": "lex_cycle", "r": 8}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert og4.cli.main(["classify", str(doc)]) == 0
        classes = len(og4.conjugacy_classes(og4.lexicographic_cycle(8).group))
        assert (classes, counts["normal"], counts["grow"]) == (56, 26, 0)
        assert counts["close"] <= classes - 1 + counts["normal"]

    def test_chain_base_is_the_table_base(self, all_pairs):
        """The small table is sorted by the images of the vertex chain's
        base, which is the base read off the vertex table."""
        for name, pair in all_pairs:
            group = pair.group
            held = enumerate_group(group.generators, order=group.order)
            assert held.base == group.index.base, name

    def test_mispaired_action_refused(self, tw_pair, pa_pair):
        """Pairing the first small generator with the last vertex generator
        (and the last with the first) is no homomorphism; the identity in
        place of the swap generates a group of half the order; a generator
        left out leaves the pairing incomplete."""
        for pair in (tw_pair, pa_pair):
            group = pair.group
            first, *middle, last = group.action.generators
            ident = og4.identity(first.degree)
            for action in [(last, *middle, first), (first, *middle, ident), (first, *middle)]:
                mutant = enumerate_group(group.generators, order=group.order)
                mutant.action = enumerate_group(action)
                with pytest.raises(og4.InvariantViolation):
                    og4.all_normal_subgroups(mutant)
