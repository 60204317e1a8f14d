import numpy as np
import pytest

from og4 import _kernels


pytestmark = pytest.mark.skipif(
    not _kernels.NUMBA_ENABLED,
    reason="numba not installed or OG4_BACKEND=python; nothing to compare",
)


def random_gen_rows(rng, n, k):
    return np.stack([rng.permutation(n).astype(np.int32) for _ in range(k)])


class TestClosureBackends:
    @pytest.mark.parametrize("seed", range(8))
    def test_same_row_set(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        gens = random_gen_rows(rng, n, int(rng.integers(1, 3)))
        py = _kernels.close_under_products_py(gens, 10_000)
        nb = _kernels.close_under_products_nb(gens, 10_000)
        assert py is not None and nb is not None
        assert py.shape == nb.shape
        assert {r.tobytes() for r in py} == {r.tobytes() for r in nb}

    def test_cap_agreement(self):
        # both backends refuse once the cap is exceeded
        gens = np.stack([
            np.roll(np.arange(7, dtype=np.int32), 1),
            np.array([1, 0, 2, 3, 4, 5, 6], dtype=np.int32),
        ])
        assert _kernels.close_under_products_py(gens, 100) is None
        assert _kernels.close_under_products_nb(gens, 100) is None

    def test_identity_only(self):
        gens = np.arange(5, dtype=np.int32)[None, :]
        py = _kernels.close_under_products_py(gens, 10)
        nb = _kernels.close_under_products_nb(gens, 10)
        assert py.shape == nb.shape == (1, 5)


class TestOrbitBackends:
    @pytest.mark.parametrize("seed", range(8))
    def test_point_orbits_equal(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 20))
        gens = random_gen_rows(rng, n, int(rng.integers(1, 4)))
        py = _kernels.point_orbit_labels_py(gens, n)
        nb = _kernels.point_orbit_labels_nb(gens, n)
        assert np.array_equal(py, nb)

    @pytest.mark.parametrize("seed", range(8))
    def test_arc_orbits_equal(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(4, 10))
        # arcs = all ordered pairs, which every permutation action preserves
        arcs = np.array(
            sorted(x * n + y for x in range(n) for y in range(n) if x != y),
            dtype=np.int64,
        )
        gens = random_gen_rows(rng, n, int(rng.integers(1, 3)))
        py = _kernels.arc_orbit_labels_py(gens, arcs, n)
        nb = _kernels.arc_orbit_labels_nb(gens, arcs, n)
        assert np.array_equal(py, nb)

    def test_arc_orbit_rejects_unpreserved(self):
        n = 4
        gens = np.array([[1, 2, 3, 0]], dtype=np.int32)
        arcs = np.array([0 * n + 1], dtype=np.int64)  # orbit leaves the set
        py = _kernels.arc_orbit_labels_py(gens, arcs, n)
        nb = _kernels.arc_orbit_labels_nb(gens, arcs, n)
        assert py.shape[0] == 0 and nb.shape[0] == 0
