import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import og4
import og4.cli
from og4 import (
    EnumerationCapExceeded,
    GroupAutomorphism,
    ParseError,
    Permutation,
    compose,
    conjugate,
    enumerate_group,
    format_cycles,
    identity,
    parse_permutation,
)
from og4.perm import BlockPartition, induced_block_action


# ---------------------------------------------------------------------------
# slow exhaustive oracles: the byte-keyed, per-element code that the index
# arithmetic in og4.perm replaced


def oracle_generate_in_parent(parent, seed_indices):
    """Re-close the kept seeds from the identity after each new seed."""
    idx = parent.index
    gens = []
    members = {parent.identity_index}
    for s in sorted(set(int(i) for i in seed_indices)):
        if s in members:
            continue
        gens.append(s)
        rows = og4.perm._closure_rows(parent.table[gens], parent.order + 1)
        members = {idx[r.tobytes()] for r in rows}
    return members


def oracle_conjugacy_classes(group):
    """Depth-first search of each class through the generators' conjugates."""
    idx = group.index
    gen_rows = [g.images for g in group.generators]
    gen_invs = [g.inverse().images for g in group.generators]
    labels = np.full(group.order, -1, dtype=np.int64)
    classes = []
    for start in range(group.order):
        if labels[start] >= 0:
            continue
        labels[start] = len(classes)
        stack = [start]
        members = [start]
        while stack:
            row = group.table[stack.pop()]
            for grow, ginv in zip(gen_rows, gen_invs):
                j = idx[grow[row[ginv]].tobytes()]
                if labels[j] < 0:
                    labels[j] = len(classes)
                    stack.append(j)
                    members.append(j)
        classes.append(sorted(members))
    return classes


def oracle_is_normal_in(sub, group):
    """Every row of sub in group, and every conjugate by a generator in sub."""
    if not group.contains_all(sub):
        return False
    rows = {sub.table[i].tobytes() for i in range(sub.order)}
    for g in group.generators:
        ginv = g.inverse().images
        for i in range(sub.order):
            if g.images[sub.table[i][ginv]].tobytes() not in rows:
                return False
    return True


def index_set(mask):
    return set(np.flatnonzero(mask).tolist())


def perm_strategy(degree):
    return st.permutations(list(range(degree))).map(
        lambda images: Permutation(np.asarray(images, dtype=np.int32))
    )


class TestPermutation:
    def test_compose_oracle(self):
        # apply (0 1 2) first, then (0 1): 0 -> 1 -> 0, 1 -> 2 -> 2, 2 -> 0 -> 1
        p = parse_permutation("(1 2 3)", 3)
        q = parse_permutation("(1 2)", 3)
        assert compose(p, q).images.tolist() == [0, 2, 1]

    def test_compose_convention_is_left_first(self):
        p = parse_permutation("(1 2)", 3)
        q = parse_permutation("(2 3)", 3)
        assert compose(p, q).apply(0) == q.apply(p.apply(0))

    @given(perm_strategy(7))
    def test_inverse(self, p):
        assert compose(p, p.inverse()) == identity(7)
        assert compose(p.inverse(), p) == identity(7)

    @given(perm_strategy(6), perm_strategy(6), perm_strategy(6))
    def test_associativity(self, p, q, r):
        assert compose(compose(p, q), r) == compose(p, compose(q, r))

    @given(perm_strategy(6), perm_strategy(6))
    def test_conjugate(self, p, g):
        assert conjugate(p, g) == compose(compose(g.inverse(), p), g)

    def test_order(self):
        assert parse_permutation("(1 2 3)(4 5)", 5).order() == 6
        assert identity(4).order() == 1


class TestParse:
    def test_basic(self):
        p = parse_permutation("(1 2 3)")
        assert p.images.tolist() == [1, 2, 0]

    def test_commas_and_spaces(self):
        assert parse_permutation("(1,2,3)") == parse_permutation("(1 2 3)")

    def test_identity_text(self):
        assert parse_permutation("()", 4) == identity(4)

    def test_degree_extension(self):
        assert parse_permutation("(1 2)", 5).degree == 5

    @pytest.mark.parametrize("bad", ["", "(1 2", "(0 1)", "(1 1)", "(1 2)(2 3)", "x"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_permutation(bad)

    @given(perm_strategy(8))
    def test_round_trip(self, p):
        assert parse_permutation(format_cycles(p), 8) == p

    def test_format_identity(self):
        assert format_cycles(identity(3)) == "()"


class TestEnumeration:
    @pytest.mark.parametrize("n,order", [(3, 6), (4, 24), (5, 120)])
    def test_symmetric_orders(self, n, order):
        assert og4.symmetric_group(n).order == order

    @pytest.mark.parametrize("n,order", [(4, 12), (5, 60), (6, 360)])
    def test_alternating_orders(self, n, order):
        assert og4.alternating_group(n).order == order

    def test_cyclic(self):
        g = og4.cyclic_group(6)
        assert g.order == 6
        assert len(og4.conjugacy_classes(g)) == 6

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_group(og4.symmetric_group(5).generators, cap=100)

    def test_table_sorted_and_indexed(self):
        g = og4.symmetric_group(3)
        rows = [tuple(r) for r in g.table.tolist()]
        assert rows == sorted(rows)
        for i in range(g.order):
            assert g.index_of(g.element(i)) == i

    def test_pgl2_7(self):
        g = og4.pgl2(7)
        assert g.degree == 8 and g.order == 336


class TestStructure:
    def test_conjugacy_class_count_s4(self):
        assert len(og4.conjugacy_classes(og4.symmetric_group(4))) == 5

    def test_normal_subgroups_s4(self):
        orders = sorted(n.order for n in og4.all_normal_subgroups(og4.symmetric_group(4)))
        assert orders == [1, 4, 12, 24]

    def test_normal_subgroups_a5(self):
        orders = sorted(n.order for n in og4.all_normal_subgroups(og4.alternating_group(5)))
        assert orders == [1, 60]

    def test_minimal_normals_s4(self):
        mins = og4.minimal_normal_subgroups(og4.symmetric_group(4))
        assert [m.order for m in mins] == [4]

    def test_normal_closure(self):
        s4 = og4.symmetric_group(4)
        n = og4.normal_closure(s4, [parse_permutation("(1 2)(3 4)", 4)])
        assert n.order == 4
        n2 = og4.normal_closure(s4, [parse_permutation("(1 2 3)", 4)])
        assert n2.order == 12

    def test_is_nonabelian_simple(self):
        assert og4.is_nonabelian_simple(og4.alternating_group(5))
        assert not og4.is_nonabelian_simple(og4.symmetric_group(4))
        assert not og4.is_nonabelian_simple(og4.cyclic_group(7))

    def test_quasiprimitivity(self):
        assert og4.quasiprimitivity_type(og4.alternating_group(5)) == "quasiprimitive"
        # D8 on the square: V4 rotation subgroup has 2 orbits? the reflection-free
        # Klein subgroup of D8 is transitive; the center has 2 orbits
        d8 = enumerate_group(
            [parse_permutation("(1 2 3 4)"), parse_permutation("(2 4)", 4)]
        )
        assert og4.quasiprimitivity_type(d8) == "biquasiprimitive"

    def test_point_stabilizer(self):
        s4 = og4.symmetric_group(4)
        stab = og4.point_stabilizer(s4, 0)
        assert stab.order == 6
        assert all(p.apply(0) == 0 for p in stab.elements())

    def test_transitivity_profile(self):
        prof = og4.transitivity_profile(og4.cyclic_group(5))
        assert prof.transitive and prof.semiregular and prof.regular
        prof2 = og4.transitivity_profile(og4.symmetric_group(4))
        assert prof2.transitive and not prof2.semiregular

    def test_orbits(self):
        g = enumerate_group([parse_permutation("(1 2)", 4)])
        parts = og4.orbits(g)
        assert sorted(parts.block_sizes()) == [1, 1, 2]

    def test_induced_block_action(self):
        g = enumerate_group(
            [parse_permutation("(1 2 3 4)"), parse_permutation("(2 4)", 4)]
        )
        part = BlockPartition.from_labels(np.asarray([0, 1, 0, 1]))
        image, kernel = induced_block_action(g, part)
        assert image.order == 2
        assert kernel.order == 4
        assert image.order * kernel.order == g.order


    def test_normal_subgroup_limit(self, monkeypatch):
        monkeypatch.setattr(og4.perm, "DEFAULT_NORMAL_SUBGROUP_LIMIT", 3)
        with pytest.raises(og4.OG4Error, match="limit of 3"):
            og4.all_normal_subgroups(og4.lexicographic_cycle(4).group)


class TestSubgroupSlices:
    """Subgroups are slices of the parent's table; their generating sets are
    derived only when read."""

    DOCS = {
        "lex_cycle(5)": {"family": "lex_cycle", "r": 5},
        "simple_cayley": {
            "family": "simple_cayley", "degree": 5,
            "generators": ["(1 2 3)", "(1 2 3 4 5)"],
            "a": "(1 2 3)", "sigma": "(1 4)(2 5)",
        },
    }

    @pytest.mark.parametrize("command", ["classify", "chain"])
    @pytest.mark.parametrize("family", sorted(DOCS))
    def test_reports_derive_no_generating_set(self, command, family, tmp_path, capsys,
                                              monkeypatch):
        calls = []
        real = og4.perm._small_generating_set

        def counting(table):
            calls.append(table.shape)
            return real(table)

        monkeypatch.setattr(og4.perm, "_small_generating_set", counting)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(self.DOCS[family]))
        assert og4.cli.main([command, str(path)]) == 0
        capsys.readouterr()
        assert calls == []

    def test_derived_generators_match_wrapped_table(self, sc_pair):
        for n_sub in og4.all_normal_subgroups(sc_pair.group):
            assert n_sub.generators == og4.group_from_table(n_sub.table).generators
            assert enumerate_group(n_sub.generators).same_elements(n_sub)


class TestIndexSpace:
    """Base-image lookup, closures, classes and normality tests on element
    indices agree with the slow oracles above."""

    WIDE = ("tw_cayley", "pa")

    def test_base_lengths(self, lex_pairs, sym7_pair, pa_pair):
        assert len(pa_pair.group.base_keys.base) == 2
        assert len(sym7_pair.group.base_keys.base) == 2
        assert len(lex_pairs[8].group.base_keys.base) == 8

    def test_lookup_of_every_member(self, all_pairs):
        for name, pair in all_pairs:
            group = pair.group
            keys = group.base_keys
            fixed = np.all(group.table[:, keys.base] == keys.base, axis=1)
            assert np.flatnonzero(fixed).tolist() == [group.identity_index], name
            assert np.array_equal(keys.lookup(keys.images), np.arange(group.order)), name

    def test_long_base_keys_are_reranked(self):
        """11 disjoint transpositions on 64 points: an 11-point base, and
        64^11 > 2^62, so the keys are re-ranked before the last fold."""
        group = enumerate_group([parse_permutation(f"({2 * i + 1} {2 * i + 2})", 64)
                                 for i in range(11)])
        keys = group.base_keys
        assert len(keys.base) == 11 and keys.ranks[-1] is not None
        assert np.array_equal(keys.lookup(keys.images), np.arange(group.order))
        rng = random.Random(5)
        for _ in range(5):
            seeds = rng.sample(range(group.order), 3)
            mask, _ = og4.perm._generate_in_parent(group, seeds)
            assert index_set(mask) == oracle_generate_in_parent(group, seeds)

    def test_generate_in_parent(self, all_pairs):
        rng = random.Random(4)
        for name, pair in all_pairs:
            group = pair.group
            for _ in range(2 if name in self.WIDE else 6):
                seeds = rng.sample(range(group.order), rng.randint(1, 3))
                mask, gens = og4.perm._generate_in_parent(group, seeds)
                assert index_set(mask) == oracle_generate_in_parent(group, seeds), name
                assert set(gens) <= set(seeds)

    def test_conjugacy_classes(self, all_pairs):
        for name, pair in all_pairs:
            if name in self.WIDE:
                continue
            got = [c.tolist() for c in og4.conjugacy_classes(pair.group)]
            assert got == oracle_conjugacy_classes(pair.group), name

    def test_is_normal_in_lattice(self, all_pairs):
        for name, pair in all_pairs:
            if name in self.WIDE:
                continue
            group = pair.group
            for n_sub in og4.all_normal_subgroups(group):
                assert og4.is_normal_in(n_sub, group) and oracle_is_normal_in(n_sub, group)
            stab = og4.point_stabilizer(group, 0)
            assert og4.is_normal_in(stab, group) == oracle_is_normal_in(stab, group), name

    @settings(max_examples=60, deadline=None)
    @given(st.lists(perm_strategy(5), min_size=1, max_size=3),
           st.lists(perm_strategy(5), min_size=1, max_size=2))
    def test_random_subgroups_of_sym5(self, gens, more):
        s5 = og4.symmetric_group(5)
        sub = enumerate_group(gens)
        seeds = [s5.index_of(p) for p in gens + more]
        mask, _ = og4.perm._generate_in_parent(s5, seeds)
        assert index_set(mask) == oracle_generate_in_parent(s5, seeds)
        assert og4.is_normal_in(sub, s5) == oracle_is_normal_in(sub, s5)
        assert [c.tolist() for c in og4.conjugacy_classes(sub)] == oracle_conjugacy_classes(sub)
        inner = enumerate_group(gens[:1])
        assert og4.is_normal_in(inner, sub) == oracle_is_normal_in(inner, sub)
        closure = og4.normal_closure(sub, gens[:1])
        assert closure.same_elements(enumerate_group(
            [conjugate(gens[0], p) for p in sub.elements()]))

    def test_outsider_rows_with_member_base_images(self, monkeypatch):
        """A conjugate N^c of a normal subgroup of D12 by a permutation
        outside it, whose rows are not members but whose base images are
        those of a normal set of members: only the full-row check tells
        that N^c is not normal."""
        group = enumerate_group([parse_permutation("(1 2 3 4 5 6)"),
                                 parse_permutation("(2 6)(3 5)", 6)])
        keys = group.base_keys
        conj = og4.perm._conjugation_maps(group)

        def fools_lookup(rows):
            found = keys.lookup(rows[:, keys.base])
            member = np.zeros(group.order, dtype=bool)
            member[found] = True
            return (np.array_equal(keys.images[found], rows[:, keys.base])
                    and all(member[c[found]].all() for c in conj))

        outsiders = (
            og4.group_from_table(np.asarray([conjugate(p, c).images for p in n_sub.elements()]))
            for n_sub in og4.all_normal_subgroups(group)[1:]
            for c in map(Permutation, itertools.permutations(range(6)))
            if c not in group
        )
        outsider = next(o for o in outsiders
                        if not group.contains_all(o) and fools_lookup(o.table))
        assert not oracle_is_normal_in(outsider, group)
        assert not og4.is_normal_in(outsider, group)
        monkeypatch.setattr(og4.perm, "_rows_equal", lambda table, idx, rows: True)
        assert og4.is_normal_in(outsider, group)


class TestAutomorphisms:
    def test_cyclic5_has_four(self):
        auts = og4.all_automorphisms(og4.cyclic_group(5))
        assert len(auts) == 4

    def test_klein_has_six(self):
        v4 = enumerate_group(
            [parse_permutation("(1 2)(3 4)"), parse_permutation("(1 3)(2 4)")]
        )
        assert len(og4.all_automorphisms(v4)) == 6

    def test_from_conjugation(self):
        a5 = og4.alternating_group(5)
        aut = GroupAutomorphism.from_conjugation(a5, parse_permutation("(1 2)", 5))
        assert aut.is_involution()
        a = parse_permutation("(1 2 3)", 5)
        assert aut.apply(a) == conjugate(a, parse_permutation("(1 2)", 5))

    def test_from_generator_images_failure(self):
        # no automorphism of Z5 swaps shift^1 and shift^2
        z5 = og4.cyclic_group(5)
        a = z5.generators[0]
        b = compose(a, a)
        assert GroupAutomorphism.from_generator_images(z5, [a, b], [b, a]) is None

    def test_from_generator_images_success(self):
        z5 = og4.cyclic_group(5)
        a = z5.generators[0]
        inv = GroupAutomorphism.from_generator_images(z5, [a], [a.inverse()])
        assert inv is not None and inv.is_involution()
