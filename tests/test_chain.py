"""Element tables from the stabiliser chain (``_kernels.stabiliser_chain``)
agree byte for byte with the breadth-first closure plus full-width lexsort
kept in oracles.py; the chain's base is the ascending base read back from
the table; the element cap is checked before the table is gathered; a
construction builds a chain only for the groups it does not already hold."""

import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import og4
import og4.cli
from og4 import EnumerationCapExceeded, Permutation, enumerate_group
from og4 import _kernels
from og4.constructions import _right_regular_generators, block_swap

import oracles


def assert_matches_oracle(gen_rows, cap, name=""):
    gen_rows = np.asarray(gen_rows, dtype=np.int32)
    want = oracles.close_under_products(gen_rows, cap)
    got = _kernels.close_under_products(gen_rows, cap)
    if want is None:
        assert got is None, name
        assert _kernels.stabiliser_chain(gen_rows, cap) is None, name
        return
    want = oracles.sorted_table(want)
    assert got is not None and got.dtype == np.int32, name
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    chain = _kernels.stabiliser_chain(gen_rows, cap)
    assert chain.order == got.shape[0], name
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
        assert _kernels.stabiliser_chain(group.gen_rows(), 10_000).base == list(range(0, 16, 2))

    @pytest.mark.parametrize("degree", [1, 2, 5])
    def test_trivial_group(self, degree):
        ident = np.arange(degree, dtype=np.int32)[None, :]
        assert_matches_oracle(ident, 1)
        assert_matches_oracle(np.repeat(ident, 3, axis=0), 1)
        assert _kernels.stabiliser_chain(ident, 1).base == []

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_generator_sets(self, data):
        """Generators on at most 12 points, each moving at most 5 of them,
        so the groups are often intransitive; with repeats and the identity
        mixed in.  Past the cap both sides give None."""
        degree = data.draw(st.integers(1, 12), label="degree")
        points = st.lists(st.integers(0, degree - 1), unique=True, max_size=min(5, degree))
        gens = []
        for support in data.draw(st.lists(points, min_size=1, max_size=4), label="supports"):
            images = np.arange(degree, dtype=np.int32)
            images[support] = data.draw(st.permutations(support))
            gens.append(images)
        if data.draw(st.booleans(), label="repeat a generator"):
            gens.append(gens[0])
        if data.draw(st.booleans(), label="add the identity"):
            gens.insert(data.draw(st.integers(0, len(gens))), np.arange(degree, dtype=np.int32))
        assert_matches_oracle(np.asarray(gens), 3000)


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
    """Building tw_cayley's vertex group (7200 rows of degree 3600, a
    99 MB table) stays within twice the table under tracemalloc, and a cap
    one below its order is refused before a table of that size exists."""

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
        peak = self._peak(lambda: enumerate_group(gens, 7200))
        assert peak <= 2 * table_bytes, peak / 2**20

    def test_cap_refused_before_gathering(self, tw_pair):
        gens = list(tw_pair.group.generators)

        def refused():
            with pytest.raises(EnumerationCapExceeded):
                enumerate_group(gens, 7199)

        assert self._peak(refused) < tw_pair.group.table.nbytes


class TestRegular:
    """Regularity as ``transitivity_profile`` reads it from the table."""

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

    def test_tw_refutes_nonregular_n(self, monkeypatch):
        """The tw:n_regular clause still refutes when the check fails."""
        nonregular = og4.TransitivityProfile(transitive=True, semiregular=False,
                                             regular=False, orbit_count=1)
        monkeypatch.setattr(og4.constructions, "transitivity_profile", lambda g: nonregular)
        alt5 = og4.alternating_group(5)
        sym5 = og4.symmetric_group(5)
        p = og4.parse_permutation
        with pytest.raises(og4.ConstructionRefuted) as exc:
            og4.tw_cayley(alt5, p("(1 2 3)", 5), p("(1 2 3 4 5)", 5),
                          og4.conjugation_inventory(sym5))
        assert exc.value.clause == "tw:n_regular"


class TestChainsPerConstruction:
    def test_tw_cayley_builds_one_chain_at_degree_3600(self, monkeypatch, tmp_path, capsys):
        """Alt(5) and the Aut supergroup Sym(5) arrive from the document, N
        is new at degree 10 and the vertex group at degree 3600; <a, b> in
        T, <s0, s1> in N and N's regularity are masks in tables already
        held."""
        degrees = Counter()
        real = _kernels.stabiliser_chain

        def counting(gen_rows, cap):
            degrees[gen_rows.shape[1]] += 1
            return real(gen_rows, cap)

        monkeypatch.setattr(_kernels, "stabiliser_chain", counting)
        doc = tmp_path / "tw.json"
        doc.write_text(json.dumps({
            "family": "tw_cayley", "degree": 5, "generators": ["(1 2 3)", "(1 2 3 4 5)"],
            "a": "(1 2 3)", "b": "(1 2 3 4 5)",
            "aut_supergroup_generators": ["(1 2)", "(1 2 3 4 5)"],
        }))
        assert og4.cli.main(["construct", str(doc)]) == 0
        capsys.readouterr()
        assert degrees == {5: 2, 10: 1, 3600: 1}
