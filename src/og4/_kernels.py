"""Hot array kernels: group closure, orbit partitions, arc-orbit search.

All kernels work on ``int32`` image rows: a permutation of degree ``n`` is a
row ``r`` with ``r[x]`` the image of ``x``, and the product "apply ``p`` then
``q``" is the gather ``q[p]``.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"


def close_under_products(gen_rows: np.ndarray, cap: int):
    """BFS closure of the generator rows under composition.

    Returns an ``(m, n)`` int32 array containing the identity and every
    product of generators, in BFS discovery order, or ``None`` if more than
    ``cap`` elements were found.
    """
    n = gen_rows.shape[1]
    ident = np.arange(n, dtype=np.int32)
    rows = [ident]
    seen = {ident.tobytes(): 0}
    head = 0
    while head < len(rows):
        base = rows[head]
        head += 1
        for g in gen_rows:
            prod = g[base]
            key = prod.tobytes()
            if key not in seen:
                if len(rows) >= cap:
                    return None
                seen[key] = len(rows)
                rows.append(prod)
    return np.asarray(rows, dtype=np.int32)


def point_orbit_labels(table: np.ndarray) -> np.ndarray:
    """Label each point by the least point of its orbit.

    ``table`` is the complete element table of the group, so column ``x``
    lists the orbit of ``x``.
    """
    return table.min(axis=0)


# ---------------------------------------------------------------------------
# orbit labels of arcs under the induced pair action
#
# Arcs are encoded as x * n + y (int64) and must be passed sorted ascending;
# the group action must preserve the arc set.


def arc_orbit_labels(gen_rows, arcs_enc, n):
    m = arcs_enc.shape[0]
    labels = np.full(m, -1, dtype=np.int32)
    stack = np.empty(m, dtype=np.int64)
    label = 0
    for a in range(m):
        if labels[a] >= 0:
            continue
        labels[a] = label
        stack[0] = a
        top = 1
        while top > 0:
            top -= 1
            enc = arcs_enc[stack[top]]
            x = enc // n
            y = enc % n
            for gi in range(gen_rows.shape[0]):
                enc2 = np.int64(gen_rows[gi, x]) * n + np.int64(gen_rows[gi, y])
                lo = 0
                hi = m - 1
                pos = -1
                while lo <= hi:
                    mid = (lo + hi) // 2
                    if arcs_enc[mid] == enc2:
                        pos = mid
                        break
                    if arcs_enc[mid] < enc2:
                        lo = mid + 1
                    else:
                        hi = mid - 1
                if pos < 0:
                    return labels[:0]  # action does not preserve the arc set
                if labels[pos] < 0:
                    labels[pos] = label
                    stack[top] = pos
                    top += 1
        label += 1
    return labels
