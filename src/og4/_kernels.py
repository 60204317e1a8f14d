"""Hot array kernels: group closure, orbit partitions, connected components
of index maps, and arc orbits.

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


def component_labels(maps, size: int) -> np.ndarray:
    """Label each of ``range(size)`` by the least member of its connected
    component under the index permutations ``maps``.

    Labels are pulled back along every map and then shortcut
    (``labels[labels]``) until nothing changes.  At that point no label
    exceeds the one it is pulled from, so labels are constant along each
    cycle of each map, hence on each component.
    """
    labels = np.arange(size)
    while True:
        new = labels
        for m in maps:
            new = np.minimum(new, new[m])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def arc_orbit_labels(gen_rows, arcs_enc, n):
    """Orbit labels 0, 1, ... of arcs, in order of each orbit's first arc.

    Arcs are encoded as ``x * n + y`` (int64) and passed sorted ascending.
    Each generator maps the arcs by one ``searchsorted`` of the encoded
    images; if some image is not an arc, the action does not preserve the
    arc set and an empty array is returned.
    """
    maps = []
    for g in gen_rows:
        image = g[arcs_enc // n] * np.int64(n) + g[arcs_enc % n]
        pos = np.minimum(np.searchsorted(arcs_enc, image), arcs_enc.size - 1)
        if not np.array_equal(arcs_enc[pos], image):
            return np.zeros(0, dtype=np.int32)
        maps.append(pos)
    labels = component_labels(maps, arcs_enc.size)
    first = labels == np.arange(arcs_enc.size)
    return (np.cumsum(first) - 1)[labels].astype(np.int32)
