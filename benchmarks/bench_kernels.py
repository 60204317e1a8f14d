#!/usr/bin/env python3
"""Compare the numba kernels against the pure-Python fallbacks.

Run with ``python3 benchmarks/bench_kernels.py``.  The numba variants are
compiled (and warmed) on first use, so one warm-up call precedes timing.
"""

import time

import numpy as np

from og4 import _kernels

if not _kernels.NUMBA_ENABLED:
    raise SystemExit(
        "numba not installed or OG4_BACKEND=python; nothing to compare"
    )


def timed(fn, *args, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench(name, py_fn, nb_fn, *args):
    nb_fn(*args)  # warm-up / JIT compile
    t_py, r_py = timed(py_fn, *args)
    t_nb, r_nb = timed(nb_fn, *args)
    speedup = t_py / t_nb if t_nb > 0 else float("inf")
    print(f"{name:<28} python {t_py * 1e3:9.2f} ms   "
          f"numba {t_nb * 1e3:9.2f} ms   speedup {speedup:6.1f}x")
    return r_py, r_nb


def sym_gen_rows(n):
    transposition = np.arange(n, dtype=np.int32)
    transposition[[0, 1]] = [1, 0]
    cycle = np.roll(np.arange(n, dtype=np.int32), -1)
    return np.stack([transposition, cycle])


def main():
    print(f"backend in use: {_kernels.BACKEND}")

    # closure: Sym(8) = 40320 elements from two generators
    gens = sym_gen_rows(8)
    py, nb = bench("close_under_products S8", _kernels.close_under_products_py,
                   _kernels.close_under_products_nb, gens, 100_000)
    assert py.shape == nb.shape == (40320, 8)

    # point orbits: 200k points under 4 random permutations
    rng = np.random.default_rng(0)
    n = 200_000
    rows = np.stack([rng.permutation(n).astype(np.int32) for _ in range(4)])
    py, nb = bench("point_orbit_labels 200k", _kernels.point_orbit_labels_py,
                   _kernels.point_orbit_labels_nb, rows, n)
    assert np.array_equal(py, nb)

    # arc orbits: the full ordered-pair set on 150 points (22350 arcs)
    m = 150
    arcs = np.array(sorted(x * m + y for x in range(m) for y in range(m) if x != y),
                    dtype=np.int64)
    rows = np.stack([rng.permutation(m).astype(np.int32) for _ in range(3)])
    py, nb = bench("arc_orbit_labels 22350", _kernels.arc_orbit_labels_py,
                   _kernels.arc_orbit_labels_nb, rows, arcs, m)
    assert np.array_equal(py, nb)


if __name__ == "__main__":
    main()
