import itertools
import json
import random
import re
import tracemalloc

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

import oracles


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

    def test_not_a_bijection(self):
        for images in ([0, 0, 1], [0, 1, 3], [-1, 0, 1], [2, 1, 0, 2]):
            with pytest.raises(og4.OG4Error) as exc:
                Permutation(images)
            assert str(exc.value) == f"not a bijection on 0..{len(images) - 1}: {images}"

    def test_bijection_check_memory(self):
        """An 11 MB row is checked as an array, not as a sorted list of 3
        million Python ints (241 MB traced when it was)."""
        tracemalloc.start()
        try:
            p = parse_permutation("(1 2)", 3_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.images[:3].tolist() == [1, 0, 2]
        assert peak < 3 * p.images.nbytes, peak / 2**20


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

    # Tokens run together, so a text may hold a point of any length.  One of
    # three or more digits is read with a degree, which refuses it before an
    # image row is allocated; without one, points stay below 100.
    TOKEN = st.sampled_from(["1", "2", "3", "12", "0", "007", "x", "\u0663", "\u00b2",
                             "99999999999999999999"])
    TEXT = st.lists(st.sampled_from(["(", ")", " ", ",", "\t"]) | TOKEN, max_size=12).map("".join)

    @settings(max_examples=500)
    @given(TEXT, st.sampled_from([None, 3, 5, 12]))
    def test_matches_loop_oracle(self, text, degree):
        """The same permutation, or the same ParseError message, as the
        per-point loop it replaced."""
        if degree is None and re.search(r"\d{3}", text):
            degree = 12

        def outcome(parse):
            try:
                return parse(text, degree).images.tolist()
            except ParseError as exc:
                return str(exc)

        assert outcome(parse_permutation) == outcome(oracles.parse_permutation)

    @pytest.mark.parametrize("text, message", [
        ("(1 x)(2 2)", "bad point 'x' in '(1 x)(2 2)'"),
        ("(2 2)(1 x)", "repeated point inside a cycle: '(2 2)(1 x)'"),
        ("(1 1 x)", "bad point 'x' in '(1 1 x)'"),
        ("(1)(1 2)(3 2)", "point 2 appears in two cycles: '(1)(1 2)(3 2)'"),
        ("(1 13)(1 2)", "point 13 exceeds degree 12"),
        ("(1 99999999999999999999)", "point 99999999999999999999 exceeds degree 12"),
    ])
    def test_first_fault_reported(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_permutation(text, 12)
        assert str(exc.value) == message

    @given(perm_strategy(8))
    def test_round_trip(self, p):
        assert parse_permutation(format_cycles(p), 8) == p

    def test_format_identity(self):
        assert format_cycles(identity(3)) == "()"

    def test_cycle_strings_match_loop_oracle(self, corpus_groups):
        """Every row of each corpus group's table, or for the wide groups
        an evenly spaced sample of about 50,000 points' worth of rows,
        formats as the apply-at-a-time printer formats it."""
        for name, group in corpus_groups:
            step = max(1, group.order * group.degree // 50_000)
            rows = np.stack([group.row(i) for i in range(0, group.order, step)])
            want = [oracles.format_cycles(Permutation(row)) for row in rows]
            assert og4.cycle_strings(rows) == want, name

    @pytest.mark.parametrize("degree", [10**23, 2**70])
    def test_degree_past_the_table_budget_refused(self, degree):
        """A degree whose one image row would pass the table budget is
        refused before the row is allocated."""
        with pytest.raises(og4.TableBudgetExceeded):
            parse_permutation("(1 2)", degree)
        with pytest.raises(og4.TableBudgetExceeded):
            parse_permutation(f"(1 {degree})")

    def test_point_past_the_int_digit_limit(self):
        text = "(1 " + "7" * 5000 + ")"
        with pytest.raises(ParseError, match="too many digits"):
            parse_permutation(text)


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

    def test_semiregular_from_orbit_representatives(self, corpus_groups):
        """Against "only the identity fixes any point", over the whole table."""
        for name, group in corpus_groups:
            for sub in [group] + og4.all_normal_subgroups(group):
                fixes = (sub.table == np.arange(sub.degree)).any(axis=1)
                want = int(fixes.sum()) <= 1
                assert og4.transitivity_profile(sub).semiregular == want, (name, sub.order)

    def test_element_orders(self, corpus_groups):
        """Against repeated composition: every element of the groups of
        order at most 1000, and 50 rows of each larger one."""
        rng = np.random.default_rng(7)
        for name, group in corpus_groups:
            rows = np.arange(group.order)
            if group.order > 1000:
                rows = rng.choice(rows, 50, replace=False)
            got = og4.perm._element_orders(group.table[rows])
            assert got.tolist() == [oracles.element_order(group.element(int(i))) for i in rows], name

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

    def test_induced_block_action_intransitive(self):
        """<(1 2), (3 4)> on {1}, {2}, {3, 4} has two orbits on the blocks,
        so the kernel is the core of the stabiliser of blocks 0 and 2:
        <(3 4)>, as the oracle reads it from every element and block."""
        g = enumerate_group([parse_permutation("(1 2)", 4), parse_permutation("(3 4)", 4)])
        part = BlockPartition.from_labels(np.asarray([0, 1, 2, 2]))
        image, kernel = induced_block_action(g, part)
        assert [og4.format_cycles(k) for k in kernel.elements()] == ["()", "(3 4)"]
        assert [og4.format_cycles(p) for p in image.elements()] == ["()", "(1 2)"]
        want_kernel, want_image = oracles.VertexLattice(g).block_action(part)
        assert np.flatnonzero(kernel._mask).tolist() == want_kernel
        assert image.table.tobytes() == want_image.tobytes()

    def test_induced_block_action_of_a_cyclic_subgroup(self, lex_pairs, sc_pair):
        """The cyclic subgroup of each generator of a pair's group keeps the
        blocks of every normal subgroup's orbits and is in general
        intransitive on them; its kernel and image equal the oracle's."""
        intransitive = 0
        for pair in [*lex_pairs.values(), sc_pair]:
            for g in pair.group.generators:
                sub = enumerate_group([g])
                oracle = oracles.VertexLattice(sub)
                for n_sub in og4.all_normal_subgroups(pair.group):
                    part = og4.orbits(n_sub)
                    image, kernel = induced_block_action(sub, part)
                    want_kernel, want_image = oracle.block_action(part)
                    assert np.flatnonzero(kernel._mask).tolist() == want_kernel
                    assert image.table.tobytes() == want_image.tobytes()
                    intransitive += not og4.transitivity_profile(image).transitive
        assert intransitive


    def test_normal_subgroup_limit(self, monkeypatch):
        monkeypatch.setattr(og4.perm, "DEFAULT_NORMAL_SUBGROUP_LIMIT", 3)
        with pytest.raises(og4.OG4Error, match="limit of 3"):
            og4.all_normal_subgroups(og4.lexicographic_cycle(4).group)


class TestNormalOrbits:
    """A lattice subgroup N of G reads its orbits from G's: the orbit of the
    least point of each G-orbit from every element's image of it at N's
    mask, and the other N-orbits as images of that one under G's
    generators.  Orbits and transitivity profiles equal those of a
    generating set of N."""

    GROUPS = {
        # V4 is one class of Alt(4) plus the identity; its class
        # representative generates only a group of order 2
        "Alt(4)": (["(1 2 3)", "(1 2)(3 4)"], 4),
        "Alt(4) with two fixed points": (["(1 2 3)", "(1 2)(3 4)"], 6),
        "Alt(4) x C3 on 4 + 3 points": (["(1 2 3)", "(1 2)(3 4)", "(5 6 7)"], 7),
        "Alt(4) on 4 + 6 points": (["(1 2 3)(5 6 7)(8 9 10)", "(1 2)(3 4)(5 8)(7 10)"], 10),
        "order 16 on 4 + 4 points": (["(1 2 3 4)(5 6 7 8)", "(2 4)"], 8),
    }

    @staticmethod
    def check(group, name):
        for n_sub in og4.all_normal_subgroups(group):
            plain = og4.PermGroup(n_sub.degree, n_sub.generators, n_sub.table)
            want = BlockPartition.from_labels(og4._kernels.point_orbit_labels(plain.gen_rows()))
            assert og4.orbits(n_sub).blocks == want.blocks, (name, n_sub.order)
            assert og4.transitivity_profile(n_sub) == og4.transitivity_profile(plain), \
                (name, n_sub.order)

    def test_alt4_class_representatives_miss_v4(self):
        alt4 = enumerate_group([parse_permutation(c, 4) for c in self.GROUPS["Alt(4)"][0]])
        v4 = next(n for n in og4.all_normal_subgroups(alt4) if n.order == 4)
        classes = [c for c in og4.conjugacy_classes(alt4) if v4._mask[c].all()]
        assert [c.size for c in classes] == [1, 3]
        assert enumerate_group([alt4.element(int(c[0])) for c in classes]).order == 2
        assert og4.orbits(v4).blocks == ((0, 1, 2, 3),)
        assert og4.transitivity_profile(v4).regular

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_small_groups(self, name):
        gens, degree = self.GROUPS[name]
        self.check(enumerate_group([parse_permutation(c, degree) for c in gens]), name)

    def test_corpus_groups(self, narrow_groups):
        """Every normal subgroup of the corpus groups of order at most 2048."""
        for name, group in narrow_groups:
            if group.order <= 2048:
                self.check(group, name)


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
        real = og4.perm.PermGroup.generators.fget

        def counting(group):
            if group._generators is None:
                calls.append(group.order)
            return real(group)

        monkeypatch.setattr(og4.perm.PermGroup, "generators", property(counting))
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(self.DOCS[family]))
        assert og4.cli.main([command, str(path)]) == 0
        capsys.readouterr()
        assert calls == []

    def test_derived_generators_match_wrapped_table(self, sc_pair):
        for n_sub in og4.all_normal_subgroups(sc_pair.group):
            rewrapped = og4.perm._subgroup(n_sub, np.ones(n_sub.order, dtype=bool))
            assert n_sub.generators == rewrapped.generators
            assert enumerate_group(n_sub.generators).same_elements(n_sub)

    def test_whole_group_shares_the_parent_table(self, all_pairs):
        for name, pair in all_pairs:
            if name == "tw_cayley":
                continue
            group = pair.group
            *proper, whole = og4.all_normal_subgroups(group)
            assert whole.order == group.order, name
            assert np.shares_memory(whole.table, group.table), name
            assert not any(np.shares_memory(n.table, group.table) for n in proper), name
            unshared = og4.PermGroup(group.degree, None, group.table.copy())
            assert whole.generators == unshared.generators, name


class TestIndexSpace:
    """Base-image lookup, closures, classes and normality tests on element
    indices agree with the byte-keyed oracles in oracles.py."""

    WIDE = ("tw_cayley", "pa")

    def test_base_lengths(self, lex_pairs, sym7_pair, pa_pair):
        """The ascending base: each point is the least one moved by the
        stabiliser of the points before it.  sym_bigstab(7)'s stabiliser of
        point 0 has order 8 and moves 1 first, so its base has 4 points
        where a greedy choice needed 2."""
        assert pa_pair.group.index.base == [0, 1]
        assert sym7_pair.group.index.base == [0, 1, 2, 6]
        assert lex_pairs[8].group.index.base == list(range(0, 16, 2))

    def test_lookup_of_every_member(self, all_pairs):
        for name, pair in all_pairs:
            group = pair.group
            keys = group.index
            fixed = np.all(group.table[:, keys.base] == keys.base, axis=1)
            assert np.flatnonzero(fixed).tolist() == [group.identity_index], name
            assert np.array_equal(keys.lookup(keys.images), np.arange(group.order)), name

    def test_long_base_keys_are_reranked(self):
        """11 disjoint transpositions on 64 points: an 11-point base, and
        64^11 > 2^62, so the keys are re-ranked before the last fold."""
        group = enumerate_group([parse_permutation(f"({2 * i + 1} {2 * i + 2})", 64)
                                 for i in range(11)])
        keys = group.index
        assert len(keys.base) == 11 and keys.ranks[-1] is not None
        assert np.array_equal(keys.lookup(keys.images), np.arange(group.order))
        rng = random.Random(5)
        for _ in range(5):
            seeds = rng.sample(range(group.order), 3)
            mask, _ = og4.perm._generate_in_parent(group, seeds)
            assert index_set(mask) == oracles.generate_in_parent(group, seeds)

    def test_generate_in_parent(self, all_pairs):
        rng = random.Random(4)
        for name, pair in all_pairs:
            group = pair.group
            idx = oracles.byte_index(group)
            for _ in range(2 if name in self.WIDE else 6):
                seeds = rng.sample(range(group.order), rng.randint(1, 3))
                mask, gens = og4.perm._generate_in_parent(group, seeds)
                assert index_set(mask) == oracles.generate_in_parent(group, seeds, idx), name
                assert set(gens) <= set(seeds)

    def test_conjugacy_classes(self, all_pairs):
        for name, pair in all_pairs:
            if name in self.WIDE:
                continue
            got = [c.tolist() for c in og4.conjugacy_classes(pair.group)]
            assert got == oracles.conjugacy_classes(pair.group), name

    def test_is_normal_in_lattice(self, all_pairs):
        for name, pair in all_pairs:
            if name in self.WIDE:
                continue
            group = pair.group
            for n_sub in og4.all_normal_subgroups(group):
                assert og4.is_normal_in(n_sub, group) and oracles.is_normal_in(n_sub, group)
            stab = og4.point_stabilizer(group, 0)
            assert og4.is_normal_in(stab, group) == oracles.is_normal_in(stab, group), name

    @settings(max_examples=60, deadline=None)
    @given(st.lists(perm_strategy(5), min_size=1, max_size=3),
           st.lists(perm_strategy(5), min_size=1, max_size=2))
    def test_random_subgroups_of_sym5(self, gens, more):
        s5 = og4.symmetric_group(5)
        sub = enumerate_group(gens)
        seeds = [s5.index_of(p) for p in gens + more]
        mask, _ = og4.perm._generate_in_parent(s5, seeds)
        assert index_set(mask) == oracles.generate_in_parent(s5, seeds)
        assert og4.is_normal_in(sub, s5) == oracles.is_normal_in(sub, s5)
        assert [c.tolist() for c in og4.conjugacy_classes(sub)] == oracles.conjugacy_classes(sub)
        inner = enumerate_group(gens[:1])
        assert og4.is_normal_in(inner, sub) == oracles.is_normal_in(inner, sub)
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
        keys = group.index
        conj = og4.perm._conjugation_maps(group)

        def fools_lookup(rows):
            found = keys.lookup(rows[:, keys.base])
            member = np.zeros(group.order, dtype=bool)
            member[found] = True
            return (np.array_equal(keys.images[found], rows[:, keys.base])
                    and all(member[c[found]].all() for c in conj))

        outsiders = (
            enumerate_group([conjugate(g, c) for g in n_sub.generators])
            for n_sub in og4.all_normal_subgroups(group)[1:]
            for c in map(Permutation, itertools.permutations(range(6)))
            if c not in group
        )
        outsider = next(o for o in outsiders
                        if not oracles.contains_all(group, o) and fools_lookup(o.table))
        assert not oracles.is_normal_in(outsider, group)
        assert not og4.is_normal_in(outsider, group)
        # one of its rows is no member, though its base images are a member's
        idx = oracles.byte_index(group)
        row = next(r for r in outsider.table if r.tobytes() not in idx)
        member = keys.lookup(row[keys.base][None, :])[0]
        assert np.array_equal(group.table[member][keys.base], row[keys.base])
        assert Permutation(row) not in group
        with pytest.raises(og4.OG4Error, match="not in group"):
            group.index_of(Permutation(row))
        monkeypatch.setattr(og4.perm.BaseKeys, "find", lambda self, rows: (
            self.lookup(rows[:, self.base]), np.ones(rows.shape[0], dtype=bool)))
        assert og4.is_normal_in(outsider, group)

    def test_one_lookup_per_block(self, monkeypatch, cs_pair):
        """``indices_of`` looks each block of about 2^16 entries up once, for
        the sorted index of coset_simple's vertex group."""
        calls = []
        real = og4.perm.BaseKeys.lookup

        def lookup(keys, base_images):
            calls.append(base_images.shape[0])
            return real(keys, base_images)

        monkeypatch.setattr(og4.perm.BaseKeys, "lookup", lookup)
        group = cs_pair.group
        keys = group.index
        step = (1 << 16) // group.degree
        copies = 2 * step // group.order + 1
        rows = np.tile(keys.table, (copies, 1))
        calls.clear()
        got = keys.indices_of(rows)
        assert len(calls) > 1 and sum(calls) == rows.shape[0]
        assert max(calls) == step
        assert np.array_equal(got, np.tile(np.arange(group.order), copies))


class TestOneIndex:
    """Membership, generating sets, multiplication maps and automorphisms
    through ``PermGroup.index`` agree with the byte-keyed oracles."""

    def test_membership(self, corpus_groups):
        rng = np.random.default_rng(6)
        for name, group in corpus_groups:
            assert np.array_equal(group.index.indices_of(group.table), np.arange(group.order))
            for i in rng.choice(group.order, 5):
                assert group.index_of(group.element(i)) == i and group.element(i) in group
            idx = oracles.byte_index(group)
            for p in map(Permutation, (rng.permutation(group.degree) for _ in range(20))):
                if p.images.tobytes() in idx:
                    assert group.index_of(p) == idx[p.images.tobytes()], name
                    continue
                assert p not in group, name
                with pytest.raises(og4.OG4Error, match="not in group"):
                    group.index_of(p)
            assert identity(group.degree + 1) not in group
            short = identity(max(group.index.base))  # too short to hold a base image
            assert short not in group, name

    def test_generating_sets(self, narrow_groups):
        """On every group, and on the normal subgroups and the stabiliser of
        point 0 of those of order at most 2048."""
        for name, group in narrow_groups:
            subs = [og4.perm._subgroup(group, np.ones(group.order, dtype=bool))]
            if group.order <= 2048:
                subs += og4.all_normal_subgroups(group) + [og4.point_stabilizer(group, 0)]
            for sub in subs:
                assert list(sub.generators) == oracles.small_generating_set(sub.table), name

    def test_multiplication_maps(self, narrow_groups):
        rng = random.Random(7)
        for name, group in narrow_groups:
            ops = oracles.IndexOps(group)
            for j in rng.sample(range(group.order), 3):
                by_j = og4.perm.right_mult_map(group, j)
                assert np.array_equal(by_j, ops.right_mult_perm(j)), name
                j_by = og4.perm.left_mult_map(group, j)
                assert all(j_by[x] == ops.mul(j, x) for x in range(group.order)), name

    def test_from_conjugation(self, narrow_groups):
        rng = np.random.default_rng(8)
        refused = 0
        for name, group in narrow_groups:
            inner = [group.element(i) for i in rng.choice(group.order, 2)]
            outer = [Permutation(rng.permutation(group.degree)) for _ in range(2)]
            for c in inner + outer:
                try:
                    want = oracles.from_conjugation(group, c)
                except og4.OG4Error:
                    refused += 1
                    with pytest.raises(og4.OG4Error, match="does not normalize"):
                        GroupAutomorphism.from_conjugation(group, c)
                    continue
                got = GroupAutomorphism.from_conjugation(group, c).index_map
                assert np.array_equal(got, want), name
                assert oracles.is_automorphism(group, got), name
        assert refused > 0

    def test_from_generator_images(self, narrow_groups):
        rng = np.random.default_rng(9)
        for name, group in narrow_groups:
            gens = list(group.generators)
            c = group.element(int(rng.integers(group.order)))
            trials = [[conjugate(g, c) for g in gens],
                      [group.element(i) for i in rng.choice(group.order, len(gens))]]
            for images in trials:
                want = oracles.from_generator_images(group, gens, images)
                got = GroupAutomorphism.from_generator_images(group, gens, images)
                if want is None:
                    assert got is None, name
                else:
                    assert np.array_equal(got.index_map, want), name
            assert want is None or oracles.is_automorphism(group, want)

    def test_from_generator_images_of_no_generators(self, narrow_groups):
        """Empty lists extend to the identity on the trivial group and to
        nothing on any other."""
        trivial = og4.PermGroup(3, [identity(3)], np.arange(3, dtype=np.int32)[None, :])
        for name, group in narrow_groups + [("trivial", trivial)]:
            want = oracles.from_generator_images(group, [], [])
            got = GroupAutomorphism.from_generator_images(group, [], [])
            assert (want is None) == (got is None) == (group.order > 1), name
            assert got is None or np.array_equal(got.index_map, want), name

    def test_automorphism_check(self, construction_groups):
        for name, group in construction_groups[:2]:
            aut = GroupAutomorphism.from_conjugation(group, parse_permutation("(1 2)", 5))
            GroupAutomorphism(group, aut.index_map)  # checked, passes
            broken = aut.index_map.copy()
            broken[[1, 2]] = broken[[2, 1]]
            assert not oracles.is_automorphism(group, broken)
            with pytest.raises(og4.OG4Error, match="not a homomorphism"):
                GroupAutomorphism(group, broken)
            with pytest.raises(og4.OG4Error, match="not a bijection"):
                GroupAutomorphism(group, np.zeros(group.order, dtype=np.int64))


class TestComposedMaps:
    """Multiplication maps composed along each element's word in the search
    tree (``perm._word_map``) against the lookups ``right_mult_map`` and
    ``left_mult_map``."""

    def test_every_element(self, narrow_groups):
        """x * s and s * x for every element s, at 8 sampled points x: the
        column of x * s over all s is the lookup ``left_mult_map(x)``, and
        that of s * x is ``right_mult_map(x)``."""
        rng = random.Random(16)
        for name, group in narrow_groups:
            points = np.asarray([0] + rng.sample(range(1, group.order), min(7, group.order - 1)))
            x_s = np.stack([og4.perm.left_mult_map(group, x) for x in points], axis=1)
            s_x = np.stack([og4.perm.right_mult_map(group, x) for x in points], axis=1)
            for s in range(group.order):
                assert np.array_equal(og4.perm._word_map(group, s, points), x_s[s]), (name, s)
                assert np.array_equal(og4.perm._word_map(group, s, points, left=True),
                                      s_x[s]), (name, s)

    def test_sampled_full_maps(self, narrow_groups, tw_pair, pa_pair, cs_pair, sym7_pair):
        """Whole maps of 64 sampled elements of the small actions the tw and
        pa lattices run in and the coset groups, and of 4 elements of every
        narrow group."""
        rng = random.Random(17)
        groups = [(name, pair.group.action, 64) for name, pair in
                  [("tw N<iota>", tw_pair), ("pa G", pa_pair), ("coset_simple G", cs_pair),
                   ("Sym(7)", sym7_pair)]]
        groups += [(name, group, 4) for name, group in narrow_groups]
        for name, group, n in groups:
            for s in rng.sample(range(group.order), min(n, group.order)):
                assert np.array_equal(og4.perm._word_map(group, s),
                                      og4.perm.right_mult_map(group, s)), (name, s)
                assert np.array_equal(og4.perm._word_map(group, s, left=True),
                                      og4.perm.left_mult_map(group, s)), (name, s)

    def test_search_matches_oracle(self, narrow_groups, tw_pair, pa_pair):
        """Every element's word and ``_images`` in the element search, a
        ``_kernels._Level``, against the element-indexed search it replaced:
        on the narrow groups, on the small actions the tw and pa lattices run
        in, and on Z_1000, a tree 999 deep.  The images are taken under the
        generators, where they are the table, and under random rows, where
        they depend on the path."""
        rng = np.random.default_rng(23)
        smalls = [og4.perm._lattice(pair.group)[0] for pair in (tw_pair, pa_pair)]
        assert all(small is pair.group.action for small, pair in zip(smalls, (tw_pair, pa_pair)))
        groups = narrow_groups + [("tw N<iota>", smalls[0]), ("pa G", smalls[1]),
                                  ("Z1000", og4.cyclic_group(1000))]
        for name, group in groups:
            tree = og4.perm._search_tree(group)
            search = oracles.element_search(group)
            words = [[int(j) for j in tree._path(tree.where[s])] for s in range(group.order)]
            assert words == [oracles.search_word(search, s) for s in range(group.order)], name
            points = np.arange(group.degree)
            assert np.array_equal(og4.perm._images(tree, group.gen_rows(), points),
                                  group.table), name
            rows = np.array([rng.permutation(group.degree) for _ in group.generators],
                            dtype=np.int32)
            assert np.array_equal(og4.perm._images(tree, rows, points),
                                  oracles.search_images(group, search, rows, points)), name
        assert max(map(len, words)) == 999

    def test_search_needs_generating_set(self, alt5):
        """A group whose given generators reach only part of its table has no
        word for the rest, so its search refuses instead of composing maps."""
        group = og4.PermGroup(5, alt5.generators[:1], alt5.table)
        with pytest.raises(og4.InvariantViolation, match="do not generate"):
            og4.perm._word_map(group, group.order - 1)


class TestAutomorphisms:
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

    def test_from_generator_images_inconsistent(self):
        # g -> g, g^2 -> g^4 in Z6 assigns a bijection along a spanning tree
        # of the Cayley graph, but g * g = g^2 would have to map to g^2.
        # Listed with g^2 first, only the edges of g, the last one, break.
        z6 = og4.cyclic_group(6)
        gens, images = [z6.element(1), z6.element(2)], [z6.element(1), z6.element(4)]
        for order in (slice(None), slice(None, None, -1)):
            assert oracles.from_generator_images(z6, gens[order], images[order]) is None
            assert GroupAutomorphism.from_generator_images(z6, gens[order], images[order]) is None

    def test_from_generator_images_length_mismatch(self):
        a5 = og4.alternating_group(5)
        gens = list(a5.generators)
        for images in (gens + [parse_permutation("(1 2)", 5)], gens[:1]):
            with pytest.raises(og4.OG4Error, match="2 generators but"):
                GroupAutomorphism.from_generator_images(a5, gens, images)

    def test_from_generator_images_success(self):
        z5 = og4.cyclic_group(5)
        a = z5.generators[0]
        inv = GroupAutomorphism.from_generator_images(z5, [a], [a.inverse()])
        assert inv is not None and inv.is_involution()
