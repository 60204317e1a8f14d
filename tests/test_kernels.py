import numpy as np
import pytest

import og4
from og4 import _kernels
from og4.perm import BlockPartition

import oracles


def random_gen_rows(rng, n, k):
    return np.stack([rng.permutation(n).astype(np.int32) for _ in range(k)])


def bfs_point_orbit_labels(gen_rows, n):
    """Orbit labels by search along the generators: the slow oracle for the
    component labelling."""
    labels = np.full(n, -1, dtype=np.int32)
    label = 0
    for v in range(n):
        if labels[v] >= 0:
            continue
        labels[v] = label
        stack = [v]
        while stack:
            x = stack.pop()
            for g in gen_rows:
                y = g[x]
                if labels[y] < 0:
                    labels[y] = label
                    stack.append(y)
        label += 1
    return labels


def assert_orbits_match_oracle(group):
    """The kernel on the generators, ``og4.orbits`` (for a lattice subgroup,
    read from its parent's orbits) and the table-column labelling all give
    the search's orbits."""
    want = BlockPartition.from_labels(bfs_point_orbit_labels(group.gen_rows(), group.degree))
    for labels in (_kernels.point_orbit_labels(group.gen_rows()),
                   oracles.point_orbit_labels(group.table)):
        assert BlockPartition.from_labels(labels).blocks == want.blocks
    assert og4.orbits(group).blocks == want.blocks


class TestClosure:
    @pytest.mark.parametrize("seed", range(8))
    def test_closed_distinct_with_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        gens = random_gen_rows(rng, n, int(rng.integers(1, 3)))
        rows = _kernels.close_under_products(gens, 10_000).table()
        keys = {r.tobytes() for r in rows}
        assert len(keys) == len(rows)
        assert np.arange(n, dtype=np.int32).tobytes() in keys
        assert all(g[r].tobytes() in keys for r in rows for g in gens)

    def test_cap_gives_none(self):
        gens = np.stack([
            np.roll(np.arange(7, dtype=np.int32), 1),
            np.array([1, 0, 2, 3, 4, 5, 6], dtype=np.int32),
        ])
        assert _kernels.close_under_products(gens, 100) is None

    def test_identity_only(self):
        gens = np.arange(5, dtype=np.int32)[None, :]
        assert _kernels.close_under_products(gens, 10).table().shape == (1, 5)


class TestArcOrbits:
    @pytest.mark.parametrize("seed", range(4))
    def test_labels_constant_on_orbits(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(4, 10))
        # arcs = all ordered pairs, which every permutation action preserves
        arcs = np.array(
            sorted(x * n + y for x in range(n) for y in range(n) if x != y),
            dtype=np.int64,
        )
        gens = random_gen_rows(rng, n, int(rng.integers(1, 3)))
        labels = _kernels.arc_orbit_labels(gens, arcs, n)
        assert labels.shape == arcs.shape
        assert labels.tolist() == oracles.arc_orbit_labels(gens, arcs, n).tolist()
        for a, lab in zip(arcs.tolist(), labels.tolist()):
            for g in gens:
                image = int(g[a // n]) * n + int(g[a % n])
                assert labels[np.searchsorted(arcs, image)] == lab

    def test_corpus_labels_match_search(self, all_pairs):
        """On each corpus graph's arcs and their reverses, under the acting
        group and under the stabiliser of vertex 0."""
        for name, pair in all_pairs:
            n = pair.graph.n_vertices
            x, y = pair.graph.arcs[:, 0], pair.graph.arcs[:, 1]
            arcs = np.sort(np.concatenate([x * n + y, y * n + x]))
            for group in (pair.group, og4.point_stabilizer(pair.group, 0)):
                gens = group.gen_rows()
                got = _kernels.arc_orbit_labels(gens, arcs, n)
                assert got.tolist() == oracles.arc_orbit_labels(gens, arcs, n).tolist(), name

    def test_rejects_unpreserved(self):
        n = 4
        gens = np.array([[1, 2, 3, 0]], dtype=np.int32)
        arcs = np.array([0 * n + 1], dtype=np.int64)  # orbit leaves the set
        assert _kernels.arc_orbit_labels(gens, arcs, n).shape[0] == 0
        assert oracles.arc_orbit_labels(gens, arcs, n).shape[0] == 0


CORPUS = [f"lex_cycle({r})" for r in range(3, 9)] + [
    "simple_cayley", "coset_simple", "sym_bigstab(5)", "sym_bigstab(7)",
]


@pytest.fixture
def corpus_group(request, lex_pairs):
    name = request.param
    if name.startswith("lex_cycle"):
        return lex_pairs[int(name[10:-1])].group
    fixture = {"simple_cayley": "sc_pair", "coset_simple": "cs_pair",
               "sym_bigstab(5)": "sym5_pair", "sym_bigstab(7)": "sym7_pair"}[name]
    return request.getfixturevalue(fixture).group


class TestPointOrbits:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_groups_match_bfs(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 8))
        gens = random_gen_rows(rng, n, int(rng.integers(1, 4)))
        assert_orbits_match_oracle(og4.enumerate_group([og4.Permutation(g) for g in gens]))

    @pytest.mark.parametrize("corpus_group", CORPUS, indirect=True)
    def test_corpus_and_normal_subgroups_match_bfs(self, corpus_group):
        assert_orbits_match_oracle(corpus_group)
        for n_sub in og4.all_normal_subgroups(corpus_group):
            assert_orbits_match_oracle(n_sub)


class TestLabelPartition:
    """``_kernels.label_partition`` (a sort by label) against the loop over
    the points it replaced (``oracles.block_partition``)."""

    @staticmethod
    def check(labels):
        blocks, point_block = _kernels.label_partition(labels)
        want_blocks, want_point_block = oracles.block_partition(labels)
        assert blocks == want_blocks
        assert point_block.tolist() == want_point_block.tolist()
        assert point_block.dtype == np.int32 and not point_block.flags.writeable

    def test_every_corpus_orbit_partition(self, corpus_groups, pairs_and_covers):
        """The orbits of every normal subgroup of every corpus group and
        cover quotient's group, and of each group itself."""
        groups = corpus_groups + [(name, pair.group) for name, pair in pairs_and_covers]
        for name, group in groups:
            for sub in [group] + og4.all_normal_subgroups(group):
                self.check(og4.perm._orbit_labels(sub))

    @pytest.mark.parametrize("seed", range(6))
    def test_arbitrary_labels(self, seed):
        """Labels that are not least points, in any order, with gaps."""
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(1, 40))
        self.check(rng.integers(-5, int(rng.integers(1, 12)), n) * 7)
