"""Slow exhaustive oracles: the byte-keyed, per-element code that og4's
base-image index arithmetic replaced, the searches over generator images
and ``Permutation`` objects that its table reads replaced, the
breadth-first closure and full-width lexsort that its stabiliser chain
replaced, the chain's Schreier check and table gather over whole
transversal rows that its column blocks replaced, the table reads
(transitivity, point stabilisers, the orbit of an arc, point orbits, block
kernels) that the chain, generating sets and the arc-orbit kernel now
answer, the normal-subgroup lattice on the vertex table that the small
faithful action replaced, the element-by-element mask lattice that the
lattice over conjugacy classes replaced, the per-point block partition that
a sort by label replaced, the per-arc neighbour loops and the depth-first
search over them that the graph's sorted arc array replaced, the per-arc
alternating-cycle walk and multicover ``Counter`` that orbit labels and
sorted arc codes replaced, the per-point cycle-notation parser and
printer, the per-entry arc checks and tuple-set graph that whole-array
document reads replaced, the per-candidate automorphism loop that the
array test of an inventory's conjugator rows replaced, the greedy cover
loop and the per-quotient basic types that the one-step basic reduction
replaced, and the ``json.dumps`` that writes every report.

Each element is looked up by the bytes of its full image row in a dict built
here, never through ``PermGroup.index``, so the oracles share no lookup code
with what they check.  Index maps are returned as int64 arrays.
"""

import json
from collections import Counter

import numpy as np

import og4
from og4 import OG4Error, Permutation, compose
from og4.quotient import InvariantViolation, QuotientOutcome


def byte_index(group):
    """Row bytes -> element index, over the whole table."""
    return {group.table[i].tobytes(): i for i in range(group.order)}


# ---------------------------------------------------------------------------
# og4._kernels and og4.perm


def close_under_products(gen_rows, cap):
    """Breadth-first closure of the generator rows, keyed by row bytes: the
    identity and every product of generators in discovery order, or None
    once more than ``cap`` elements are found."""
    n = gen_rows.shape[1]
    ident = np.arange(n, dtype=np.int32)
    rows = [ident]
    seen = {ident.tobytes()}
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
                seen.add(key)
                rows.append(prod)
    return np.asarray(rows, dtype=np.int32)


def sorted_table(rows):
    """Rows in lexicographic order, by a lexsort over every column."""
    return rows[np.lexsort(rows.T[::-1])]


def closure_rows(gen_rows, cap):
    """The closure of the generator rows, or OG4Error past ``cap``."""
    rows = close_under_products(np.asarray(gen_rows, dtype=np.int32), cap)
    if rows is None:
        raise OG4Error(f"closure exceeds {cap} elements")
    return rows


def transversal_rows(level):
    """Every transversal row of a stabiliser-chain level, gathered whole:
    row y is its tree parent's row followed by the tree edge's generator."""
    rows = np.empty((level.orbit.size, level.tree.shape[1]), dtype=np.int32)
    rows[0] = np.arange(rows.shape[1])
    for lo, hi, s in level.segments:
        rows[lo:hi] = level.tree[s][rows[level.parent[lo:hi]]]
    return rows


def candidate_rows(level, below):
    """The candidate T * U of a level over the rows ``below`` of T, unsorted:
    row (y, t) is transversal row y applied after row t."""
    u = transversal_rows(level)
    return u[:, below].reshape(-1, u.shape[1])


def first_failure(level, below):
    """The first product u_x * s (row x, then generator s), generators in
    order and then rows, that is not one of the candidate's rows; None if
    every one is.  Members are found by the bytes of their full rows."""
    u = transversal_rows(level)
    members = {row.tobytes() for row in candidate_rows(level, below)}
    for g in level.gens:
        for x in range(u.shape[0]):
            product = g[u[x]]
            if product.tobytes() not in members:
                return product
    return None


def candidate_table(level, below):
    """The candidate's rows, sorted by a lexsort over every column."""
    return sorted_table(candidate_rows(level, below))


def transitive(group):
    """Whether every point's least orbit point is 0: column x of the table
    is the orbit of x."""
    return not group.table.min(axis=0).any()


def point_stabilizer_table(group, x):
    """The rows of the table that fix x."""
    return group.table[group.table[:, x] == x]


def generate_in_parent(parent, seed_indices, idx=None):
    """Re-close the kept seeds from the identity after each new seed."""
    idx = byte_index(parent) if idx is None else idx
    gens = []
    members = {parent.identity_index}
    for s in sorted(set(int(i) for i in seed_indices)):
        if s in members:
            continue
        gens.append(s)
        rows = closure_rows(parent.table[gens], parent.order + 1)
        members = {idx[r.tobytes()] for r in rows}
    return members


def conjugacy_classes(group):
    """Depth-first search of each class through the generators' conjugates."""
    idx = byte_index(group)
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


def contains_all(group, sub):
    idx = byte_index(group)
    return all(sub.table[i].tobytes() in idx for i in range(sub.order))


def is_normal_in(sub, group):
    """Every row of sub in group, and every conjugate by a generator in sub."""
    if not contains_all(group, sub):
        return False
    rows = {sub.table[i].tobytes() for i in range(sub.order)}
    for g in group.generators:
        ginv = g.inverse().images
        for i in range(sub.order):
            if g.images[sub.table[i][ginv]].tobytes() not in rows:
                return False
    return True


def small_generating_set(table):
    """Greedy generating set: add the first element not yet generated."""
    n = table.shape[1]
    if table.shape[0] == 1:
        return [og4.identity(n)]
    gens = []
    generated = {np.arange(n, dtype=np.int32).tobytes()}
    for row in table:
        if row.tobytes() in generated:
            continue
        gens.append(row)
        rows = closure_rows(np.asarray(gens), table.shape[0] + 1)
        generated = {r.tobytes() for r in rows}
        if len(generated) == table.shape[0]:
            break
    return [Permutation(g) for g in gens]


def from_conjugation(group, c):
    """Index map of x -> c^-1 x c; raises if c does not normalize."""
    idx = byte_index(group)
    conj_rows = c.images[group.table[:, c.inverse().images]]
    index_map = np.empty(group.order, dtype=np.int64)
    for i in range(group.order):
        j = idx.get(conj_rows[i].tobytes())
        if j is None:
            raise OG4Error("conjugating permutation does not normalize the group")
        index_map[i] = j
    return index_map


def conjugating_rows(group, inventory, pairs):
    """Mask of the inventory rows c that normalise the group and send x to y
    for each (x, y) in ``pairs``: each row made a ``Permutation``, its
    conjugation map built if it normalises, and each x looked up in it."""
    idx = byte_index(group)
    found = []
    for row in inventory:
        c = Permutation(row)
        try:
            aut = from_conjugation(group, c) if c.degree == group.degree else None
        except OG4Error:
            aut = None
        found.append(aut is not None and all(
            aut[idx[x.images.tobytes()]] == idx[y.images.tobytes()] for x, y in pairs))
    return np.array(found, dtype=bool)


def element_search(group):
    """Breadth-first search of the elements from the identity over the right
    multiplications by the generators, looked up by row bytes, as og4 kept
    it before the search became a stabiliser-chain level: (parent, via,
    layers), element x being element parent[x] times generator via[x], and
    layers the elements each round finds, each generator's in turn."""
    idx = byte_index(group)
    right = [[idx[row.tobytes()] for row in g.images[group.table]] for g in group.generators]
    parent = np.zeros(group.order, dtype=np.int64)
    via = np.full(group.order, -1, dtype=np.int64)
    seen = {group.identity_index}
    frontier, layers = [group.identity_index], []
    while frontier:
        layer = []
        for j, m in enumerate(right):
            for x in frontier:
                if m[x] not in seen:
                    seen.add(m[x])
                    parent[m[x]], via[m[x]] = x, j
                    layer.append(m[x])
        frontier = layer
        if layer:
            layers.append(np.array(layer))
    return parent, via, layers


def search_word(search, s):
    """Generator indices j1, ..., jd with element s = g_j1 * ... * g_jd,
    read up the ``element_search`` tree."""
    parent, via, _ = search
    word = []
    while via[s] >= 0:
        word.append(int(via[s]))
        s = parent[s]
    return word[::-1]


def search_images(group, search, rows, points):
    """Row x: the images of the points under the product of ``rows`` along
    the ``element_search`` path to element x, one layer at a time."""
    parent, via, layers = search
    out = np.empty((group.order, len(points)), dtype=np.int64)
    out[group.identity_index] = points
    for found in layers:
        out[found] = rows[via[found][:, None], out[parent[found]]]
    return out


def from_generator_images(group, gens, images):
    """Index map extending gens -> images by a stack search, or None."""
    idx = byte_index(group)
    gi = [idx[g.images.tobytes()] for g in gens]
    im = [idx[h.images.tobytes()] for h in images]
    fmap = np.full(group.order, -1, dtype=np.int64)
    fmap[group.identity_index] = group.identity_index
    queue = [group.identity_index]
    while queue:
        x = queue.pop()
        for g, h in zip(gi, im):
            y = idx[group.table[g][group.table[x]].tobytes()]  # x * g
            fy = idx[group.table[h][group.table[fmap[x]]].tobytes()]
            if fmap[y] < 0:
                fmap[y] = fy
                queue.append(y)
            elif fmap[y] != fy:
                return None
    if (fmap < 0).any() or len(set(fmap.tolist())) != group.order:
        return None
    return fmap


def is_automorphism(group, index_map):
    """Bijection, and f(x*g) = f(x)*f(g) for every x and generator g."""
    if sorted(index_map.tolist()) != list(range(group.order)):
        return False
    idx = byte_index(group)
    for g in group.generators:
        fg_row = group.table[index_map[idx[g.images.tobytes()]]]
        for x in range(group.order):
            left = idx[g.images[group.table[x]].tobytes()]
            right_row = fg_row[group.table[index_map[x]]]
            if int(index_map[left]) != idx[right_row.tobytes()]:
                return False
    return True


def parse_permutation(text, degree=None):
    """The cycle-notation parser with a Python loop over the points of each
    cycle and a set of the points seen, that ``og4.parse_permutation``'s
    string splits and array checks replaced."""
    import re

    cycle_re = re.compile(r"\(([^()]*)\)")
    stripped = re.sub(r"\s+", " ", text.strip())
    if not stripped:
        raise og4.ParseError("empty permutation text")
    if cycle_re.sub("", stripped.replace(" ", "")) != "":
        raise og4.ParseError(f"malformed cycle notation: {text!r}")
    cycles = []
    maxpt = 0
    for grp in cycle_re.findall(stripped):
        pts = [tok for tok in re.split(r"[,\s]+", grp.strip()) if tok]
        cyc = []
        for tok in pts:
            if not tok.isdecimal() or int(tok) < 1:
                raise og4.ParseError(f"bad point {tok!r} in {text!r}")
            cyc.append(int(tok) - 1)
        if len(set(cyc)) != len(cyc):
            raise og4.ParseError(f"repeated point inside a cycle: {text!r}")
        maxpt = max(maxpt, *(c + 1 for c in cyc)) if cyc else maxpt
        if len(cyc) > 1:
            cycles.append(cyc)
    if degree is None:
        degree = max(maxpt, 1)
    elif maxpt > degree:
        raise og4.ParseError(f"point {maxpt} exceeds degree {degree}")
    images = np.arange(degree, dtype=np.int32)
    seen = set()
    for cyc in cycles:
        for pt in cyc:
            if pt in seen:
                raise og4.ParseError(f"point {pt + 1} appears in two cycles: {text!r}")
            seen.add(pt)
        for i, pt in enumerate(cyc):
            images[pt] = cyc[(i + 1) % len(cyc)]
    return Permutation(images)


def format_cycles(p):
    """The cycle printer that follows each cycle one ``Permutation.apply``
    at a time, that ``og4.cycle_strings``' loop over image-row lists
    replaced."""
    seen = [False] * p.degree
    parts = []
    for start in range(p.degree):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        nxt = p.apply(start)
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p.apply(nxt)
        if len(cyc) > 1:
            parts.append("(" + " ".join(str(v + 1) for v in cyc) + ")")
    return "".join(parts) if parts else "()"


# ---------------------------------------------------------------------------
# og4.constructions


class IndexOps:
    """Products, inverses and right multiplications of element indices."""

    def __init__(self, group):
        self.group = group
        self.idx = byte_index(group)

    def of(self, p):
        return self.idx[p.images.tobytes()]

    def mul(self, i, j):
        # i then j
        return self.idx[self.group.table[j][self.group.table[i]].tobytes()]

    def inv(self, i):
        row = self.group.table[i]
        out = np.empty_like(row)
        out[row] = np.arange(row.size, dtype=row.dtype)
        return self.idx[out.tobytes()]

    def right_mult_perm(self, j):
        """The permutation of element indices i -> i * j."""
        rows = self.group.table[j][self.group.table]  # (order, degree)
        return np.fromiter((self.idx[rows[i].tobytes()] for i in range(self.group.order)),
                           dtype=np.int64, count=self.group.order)


def right_regular_image(n_grp, vertex_group):
    """N's right multiplications in a Cayley pair's vertex group, as the
    subgroup of the vertex group's table they generate."""
    ops = IndexOps(n_grp)
    idx = byte_index(vertex_group)
    seeds = [idx[ops.right_mult_perm(ops.of(g)).astype(np.int32).tobytes()]
             for g in n_grp.generators]
    members = generate_in_parent(vertex_group, seeds, idx)
    return og4.PermGroup(vertex_group.degree, None, vertex_group.table[sorted(members)])


def coset_space(group, subgroup, ops=None):
    """(coset_id, reps): right cosets Hx numbered in order of their least
    element, by a scan of the table."""
    ops = IndexOps(group) if ops is None else ops
    if not all(subgroup.table[i].tobytes() in ops.idx for i in range(subgroup.order)):
        raise OG4Error("subgroup elements not all inside the group")
    h_idx = sorted(ops.idx[r.tobytes()] for r in subgroup.table)
    coset_id = np.full(group.order, -1, dtype=np.int64)
    reps = []
    for i in range(group.order):
        if coset_id[i] >= 0:
            continue
        cid = len(reps)
        reps.append(i)
        for h in h_idx:
            coset_id[ops.mul(h, i)] = cid
    return coset_id, np.asarray(reps, dtype=np.int64)


def core_indices(group, h_idx, ops=None):
    """Largest normal subgroup of the group inside H, by iterated pruning."""
    ops = IndexOps(group) if ops is None else ops
    gen_idx = [ops.of(g) for g in group.generators]
    gen_inv = [ops.inv(i) for i in gen_idx]
    core = set(h_idx)
    while True:
        keep = {
            x for x in core
            if all(ops.mul(ops.mul(gi_inv, x), gi) in core
                   for gi, gi_inv in zip(gen_idx, gen_inv))
        }
        if keep == core:
            return core
        core = keep


def double_coset_arcs(group, subgroup, s, ops=None):
    """Sorted arcs Hx -> Hdx of the coset graph, d in HsH."""
    ops = IndexOps(group) if ops is None else ops
    coset_id, reps = coset_space(group, subgroup, ops)
    h_idx = [ops.idx[r.tobytes()] for r in subgroup.table]
    si = ops.of(s)
    dcs = {ops.mul(ops.mul(h1, si), h2) for h1 in h_idx for h2 in h_idx}
    return sorted({(c, int(coset_id[ops.mul(d, int(x))])) for c, x in enumerate(reps)
                   for d in dcs})


# ---------------------------------------------------------------------------
# og4.quotient


def element_order(p):
    """Least k with p^k the identity, by repeated composition."""
    k, power = 1, p
    while not power.is_identity():
        power, k = compose(power, p), k + 1
    return k


def is_cyclic_of_order(group, r):
    if group.order != r:
        return False
    return any(element_order(group.element(i)) == r for i in range(group.order))


def is_dihedral_of_order(group, two_r):
    """A rotation of order r, and an involution outside <rotation> that
    inverts it; <rotation> kept as a set of row bytes."""
    r = two_r // 2
    if group.order != two_r or two_r % 2 != 0 or r < 3:
        return False
    rotations = [i for i in range(group.order) if element_order(group.element(i)) == r]
    if not rotations:
        return False
    rot = group.element(rotations[0])
    rot_inv = rot.inverse()
    cyc = {rot.images.tobytes()}
    p = rot
    for _ in range(r - 1):
        p = p * rot
        cyc.add(p.images.tobytes())
    for i in range(group.order):
        t = group.element(i)
        if t.images.tobytes() in cyc:
            continue
        if element_order(t) == 2 and (t.inverse() * rot * t) == rot_inv:
            return True
    return False


# ---------------------------------------------------------------------------
# og4.graph and og4._kernels


def pair_orbit(group, x, y):
    """Sorted pairs reached from (x, y) by a search along the generators."""
    gen_rows = group.gen_rows()
    seen = {(x, y)}
    stack = [(x, y)]
    while stack:
        a, b = stack.pop()
        for g in gen_rows:
            p = (int(g[a]), int(g[b]))
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return sorted(seen)


def edge_transitive(graph, group):
    """Whether the orbit of the first arc, the distinct pairs in its two
    columns of the table, is the whole arc set."""
    n = graph.n_vertices
    x, y = graph.arcs[0].tolist()
    codes = np.unique(group.table[:, x] * np.int64(n) + group.table[:, y])
    return np.array_equal(codes, graph.encoded_arcs())


def canonical_seed(group):
    """The first pair (x, y), in lexicographic order, whose orbit misses
    (y, x)."""
    n = group.degree
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            if (y, x) not in set(pair_orbit(group, x, y)):
                return (x, y)
    raise OG4Error("every orbital of this group is self-paired")


def arc_orbit_labels(gen_rows, arcs_enc, n):
    """Depth-first search of each arc orbit with a hand-written binary
    search; labels in order of each orbit's first arc, empty if some image
    is not an arc."""
    m = arcs_enc.shape[0]
    labels = np.full(m, -1, dtype=np.int32)
    label = 0
    for a in range(m):
        if labels[a] >= 0:
            continue
        labels[a] = label
        stack = [a]
        while stack:
            enc = int(arcs_enc[stack.pop()])
            x, y = enc // n, enc % n
            for g in gen_rows:
                enc2 = int(g[x]) * n + int(g[y])
                lo, hi, pos = 0, m - 1, -1
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
                    return labels[:0]
                if labels[pos] < 0:
                    labels[pos] = label
                    stack.append(pos)
        label += 1
    return labels


def oriented_graph_arcs(n, arcs):
    """The sorted 0-based arcs that the tuple-set ``OrientedGraph`` made of
    ``arcs``, or OG4Error with its message."""
    given = [(int(x), int(y)) for x, y in arcs]
    arr = np.asarray(sorted(set(given)), dtype=np.int64).reshape(-1, 2)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise OG4Error("arc endpoint out of range")
    if arr.size and (arr[:, 0] == arr[:, 1]).any():
        raise OG4Error("diagonal arc (x, x) is not allowed")
    if len(arr) != len(given):
        raise OG4Error("duplicate arcs")
    return arr.tolist()


def document_arcs(n, arcs):
    """A pair document's 1-based arc entries checked one at a time, as
    ``og4.cli.parse_pair_document`` did before it checked them as one
    array, then made a graph by ``oriented_graph_arcs``: the arcs, or the
    message of the first error."""
    pairs = []
    try:
        for a in arcs:
            if not (isinstance(a, list) and len(a) == 2 and all(type(v) is int for v in a)):
                raise OG4Error(f"bad arc entry {a!r}")
            x, y = a
            if x == y:
                raise OG4Error(f"diagonal arc {a!r}")
            pairs.append((x - 1, y - 1))
        return oriented_graph_arcs(n, pairs)
    except OG4Error as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# og4.cli


def json_report(obj):
    """A report as ``og4.cli`` wrote it with ``json.dumps``."""
    return json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# og4.analysis


def _canonical_cycle(seq):
    """Lexicographically least rotation of the cyclic sequence or its
    reversal, starting at the least vertex."""
    best = None
    for cand in (seq, seq[::-1]):
        m = min(cand)
        for i, v in enumerate(cand):
            if v != m:
                continue
            rot = tuple(cand[i:] + cand[:i])
            if best is None or rot < best:
                best = rot
    return best


def alternating_walk(graph):
    """(cycles, common length, attachment number, attachment kind), tracing
    each alternating cycle arc by arc from a dict of arcs to cycles, and
    counting the vertices shared by each pair of cycles in a dict."""
    outs, ins = neighbors(graph)
    if any(len(o) != 2 or len(i) != 2 for o, i in zip(outs, ins)):
        raise InvariantViolation("alternating structure needs in- and out-valency 2")
    arc_cycle = {}
    cycles = []
    lengths = set()
    for a in map(tuple, graph.arcs.tolist()):
        if a in arc_cycle:
            continue
        cid = len(cycles)
        # forward along an arc, back along the other in-arc of its head,
        # forward along the other out-arc of that tail, and so on
        verts, edges = [a[0]], []
        arc, forward = a, True
        while True:
            edges.append(arc)
            if arc in arc_cycle and arc_cycle[arc] != cid:
                raise InvariantViolation("alternating cycles do not partition the edges")
            arc_cycle[arc] = cid
            if forward:
                v = arc[1]
                arc, forward = (next(w for w in ins[v] if (w, v) != arc), v), False
            else:
                v = arc[0]
                arc, forward = (v, next(w for w in outs[v] if (v, w) != arc)), True
            verts.append(v)
            if arc == a and forward:
                break
        if len(set(edges)) != len(edges):
            raise InvariantViolation("alternating cycle repeats an edge")
        lengths.add(len(edges))
        cycles.append(_canonical_cycle(verts[:-1]))  # the trace closes on its start
    if len(arc_cycle) != graph.n_arcs:
        raise InvariantViolation("alternating cycles do not cover the edges")
    if len(lengths) != 1:
        raise InvariantViolation(f"alternating cycle lengths differ: {sorted(lengths)}")
    common = lengths.pop()
    if common % 2 != 0:
        raise InvariantViolation(f"alternating cycle length {common} is odd")
    cycles_sorted = tuple(sorted(cycles))
    if len(cycles_sorted) <= 2:
        return cycles_sorted, common, None, "two_cycles_degenerate"
    vertex_cycles = [set() for _ in range(graph.n_vertices)]
    for (x, y), cid in arc_cycle.items():
        vertex_cycles[x].add(cid)
        vertex_cycles[y].add(cid)
    counts = {}
    for cs in vertex_cycles:
        for i in cs:
            for j in cs:
                if i < j:
                    counts[(i, j)] = counts.get((i, j), 0) + 1
    sizes = set(counts.values())
    if len(sizes) != 1:
        raise InvariantViolation(f"attachment sizes differ: {sorted(sizes)}")
    attachment = sizes.pop()
    half = common // 2
    if attachment > half:
        raise InvariantViolation(f"attachment number {attachment} exceeds half-length {half}")
    kind = "tight" if attachment == half else "loose" if attachment == 1 else "intermediate"
    return cycles_sorted, common, attachment, kind


def walk_orbit_size(group, walk, cap):
    """Search of the orbit of a vertex tuple along the generators; stops
    once more than ``cap`` tuples are seen."""
    gen_rows = [g.images for g in group.generators]
    seed = tuple(walk)
    seen = {seed}
    stack = [seed]
    while stack:
        t = stack.pop()
        for row in gen_rows:
            img = tuple(int(row[v]) for v in t)
            if img not in seen:
                seen.add(img)
                stack.append(img)
        if len(seen) > cap:
            break
    return len(seen)


def nilpotency_class(group):
    """Lower central series by enumerating the group generated by every
    commutator of an element of the group with one of the current term."""
    elems = group.elements()
    layer = group
    c = 0
    while layer.order > 1:
        comms = [compose(compose(g.inverse(), x.inverse()), compose(g, x))
                 for g in elems for x in layer.elements()]
        prev, layer = layer.order, og4.enumerate_group(comms, group.order + 1)
        c += 1
        if layer.order == prev:
            raise InvariantViolation("lower central series does not terminate")
    return c


def is_elementary_abelian(group):
    if group.order == 1:
        return True
    p = next(d for d in range(2, group.order + 1) if group.order % d == 0)
    if any(element_order(x) not in (1, p) for x in group.elements()):
        return False
    return all(compose(x, y) == compose(y, x) for x in group.generators for y in group.generators)


# ---------------------------------------------------------------------------
# og4.quotient


def normal_quotient(pair, n_sub):
    """``og4.quotient.normal_quotient`` with its arc part done per arc:
    quotient arcs in a set, and the arcs from each vertex into each block
    and into each vertex from each block in ``Counter``s.  The orbits and
    the block action are og4's."""
    m = pair.valency
    part = og4.orbits(n_sub)
    image, kernel = og4.induced_block_action(pair.group, part)
    if part.n_blocks == 1:
        return QuotientOutcome("K1", None, image, kernel, part, None, None)
    pb = part.point_block
    qpairs = set()
    out_counts, in_counts = Counter(), Counter()
    for x, y in pair.graph.arcs.tolist():
        bx, by = int(pb[x]), int(pb[y])
        if bx == by:
            raise InvariantViolation("arc inside a single N-orbit of an intransitive N")
        qpairs.add((bx, by))
        out_counts[(x, by)] += 1
        in_counts[(y, bx)] += 1
    ells = set(out_counts.values())
    if len(ells) != 1:
        raise InvariantViolation("multicover degree varies across vertices/orbits")
    ell_dir = ells.pop()
    if set(in_counts.values()) != {ell_dir}:
        raise InvariantViolation("multicover degree differs between edge sides")
    if any((b, a) in qpairs for a, b in qpairs):
        if not all((b, a) in qpairs for a, b in qpairs):
            raise InvariantViolation("quotient edges mixed one-way and two-way")
        ell, kind = 2 * ell_dir, "ArcTransitiveMulticover"
    else:
        ell, kind = ell_dir, "OGMulticover"
    if m % ell != 0:
        raise InvariantViolation("multicover degree does not divide the valency")
    qgraph = og4.OrientedGraph(part.n_blocks, sorted(qpairs))
    if not og4.connectivity(qgraph).connected:
        raise InvariantViolation("quotient of a connected pair is disconnected")
    return QuotientOutcome(kind, qgraph, image, kernel, part, ell, m // ell)


def basic_chain(pair):
    """``og4.basic_chain`` as a greedy loop: take the first largest cover
    kernel of the current pair, compose its blocks with the blocks so far,
    and read the chain subgroup of the original group as the kernel of the
    original group on the composed blocks, until no cover is left."""
    group = pair.group
    chain, current = [], pair
    current_blocks = og4.BlockPartition.from_labels(np.arange(pair.graph.n_vertices))
    while True:
        classified = og4.classify_all_quotients(current)
        covers = [(n_sub, out) for n_sub, out in classified if out.kind == "Cover"]
        if not covers:
            return chain, current, classified
        _, out = max(covers, key=lambda item: item[0].order)  # first of the largest
        composed_labels = out.partition.point_block[current_blocks.point_block]
        current_blocks = og4.BlockPartition.from_labels(composed_labels)
        _, n_orig = og4.induced_block_action(group, current_blocks)
        if chain and n_orig.order <= chain[-1][0].order:
            raise InvariantViolation("basic chain is not strictly increasing")
        current = out.quotient_pair
        chain.append((n_orig, current))


def basic_quotients(pair):
    """``og4.basic_quotients`` by the basic type of every cover quotient."""
    return [(n_sub, out.quotient_pair) for n_sub, out in og4.classify_all_quotients(pair)
            if out.kind == "Cover" and og4.basic_type(out.quotient_pair) != "NonBasic"]


# ---------------------------------------------------------------------------
# og4.perm's lattice, orbits and block actions on the vertex table


def point_orbit_labels(table):
    """Each point's least orbit point: column x of a group's table lists
    the orbit of x."""
    return table.min(axis=0)


def semiregular(group):
    """Whether only the identity fixes the least point of each orbit, read
    from the table (stabilisers of points in one orbit are conjugate)."""
    labels = point_orbit_labels(group.table)
    reps = np.flatnonzero(labels == np.arange(group.degree))
    return bool((np.count_nonzero(group.table[:, reps] == reps, axis=0) == 1).all())


class VertexLattice:
    """Conjugacy classes, normal subgroups and block kernels of a group
    computed on its own table, as og4 computed them before the lattice moved
    into a pair's small faithful action.  Index maps are lookups of products
    and conjugates of the whole table in the table's base-image index; a
    subgroup is a boolean mask over the table, grown by right
    multiplications by its kept seeds.  Results are element-index lists in
    the table's order."""

    def __init__(self, group):
        self.table, self.keys, self.order = group.table, group.index, group.order
        base = self.keys.base
        self.conj = [self.keys.lookup(g.images[self.table[:, g.inverse().images[base]]])
                     for g in group.generators]
        self.right = {}

    def _right(self, s):
        if s not in self.right:
            self.right[s] = self.keys.lookup(self.table[s][self.keys.images])
        return self.right[s]

    def _grow(self, mask, seeds):
        """Extend a normal subgroup's mask by seeds, multiplying each new
        frontier by every seed kept so far."""
        gens = []
        for s in map(int, seeds):
            if mask[s]:
                continue
            gens.append(s)
            maps = [self._right(g) for g in gens]
            new = np.zeros_like(mask)
            new[maps[-1][np.flatnonzero(mask)]] = True
            while new.any():
                mask |= new
                frontier = np.flatnonzero(new)
                new[:] = False
                for m in maps:
                    new[m[frontier]] = True
                new &= ~mask
        return mask

    def classes(self):
        """Components of the conjugation maps, each as its sorted indices,
        by least index; labels pulled back along the maps to a fixpoint."""
        labels = np.arange(self.order)
        while True:
            new = labels
            for m in self.conj:
                new = np.minimum(new, new[m])
            if np.array_equal(new, labels):
                break
            labels = new
        by_label = np.argsort(labels, kind="stable")
        cuts = np.flatnonzero(np.diff(labels[by_label])) + 1
        return [c.tolist() for c in np.split(by_label, cuts)]

    def _trivial(self):
        mask = np.zeros(self.order, dtype=bool)
        mask[0] = True
        return mask

    def _closures(self):
        """<class> of each nontrivial class, deduplicated: (mask, class)."""
        out, seen = [], set()
        for cls in self.classes()[1:]:  # the identity's class is the first
            mask = self._grow(self._trivial(), cls)
            if mask.tobytes() not in seen:
                seen.add(mask.tobytes())
                out.append((mask, cls))
        return out

    @staticmethod
    def _sorted(masks):
        return sorted((np.flatnonzero(m).tolist() for m in masks), key=lambda s: (len(s), s))

    def normal_subgroups(self):
        """Joins of class closures, from the trivial group up."""
        atoms = self._closures()
        found = {self._trivial().tobytes(): self._trivial()}
        frontier = list(found.values())
        while frontier:
            nxt = []
            for sub in frontier:
                for atom, cls in atoms:
                    if (atom & ~sub).any():
                        joined = self._grow(sub.copy(), cls)
                        if joined.tobytes() not in found:
                            found[joined.tobytes()] = joined
                            nxt.append(joined)
            frontier = nxt
        return self._sorted(found.values())

    def minimal_normal_subgroups(self):
        masks = [m for m, _ in self._closures()]
        return self._sorted(m for m in masks
                            if not any(o is not m and not (o & ~m).any() for o in masks))

    def block_action(self, partition):
        """(kernel indices, sorted image table) of the action on the blocks,
        read from the table's columns at the blocks' least points."""
        reps = [b[0] for b in partition.blocks]
        induced = partition.point_block[self.table[:, reps]]
        kernel = np.flatnonzero((induced == np.arange(len(reps))).all(axis=1)).tolist()
        distinct = {row.tobytes(): row for row in induced}
        return kernel, sorted_table(np.asarray(list(distinct.values()), dtype=np.int32))


class MaskLattice:
    """The normal-subgroup lattice as og4 computed it before it moved to
    conjugacy classes: in the index space of the group the lattice runs in
    (``og4.perm._lattice``), the normal closure of each nontrivial class is
    a boolean mask grown element by element (``og4.perm._generate_in_parent``),
    and each join N<S> of a subgroup found with a closure's kept seeds S is
    grown from N's mask (``og4.perm._grow``), from the trivial group up.
    Results are the masks put in the group's element order by
    ``to_lattice``, as element-index lists ordered by (order, indices)."""

    def __init__(self, group):
        self.lattice, self.to_lattice = og4.perm._lattice(group)
        self.closures, seen = [], set()
        for cls in og4.conjugacy_classes(self.lattice)[1:]:  # the identity's class is the first
            mask, gens = og4.perm._generate_in_parent(self.lattice, cls)
            if mask.tobytes() not in seen:
                seen.add(mask.tobytes())
                self.closures.append((mask, gens))

    def normal_subgroups(self):
        trivial = np.arange(self.lattice.order) == 0
        found = {trivial.tobytes(): trivial}
        frontier = [trivial]
        while frontier:
            nxt = []
            for sub in frontier:
                for atom, seeds in self.closures:
                    if (atom & ~sub).any():
                        joined = sub.copy()
                        og4.perm._grow(self.lattice, joined, [], seeds)
                        if joined.tobytes() not in found:
                            found[joined.tobytes()] = joined
                            nxt.append(joined)
            frontier = nxt
        return VertexLattice._sorted(m[self.to_lattice] for m in found.values())

    def minimal_normal_subgroups(self):
        masks = [m for m, _ in self.closures]
        return VertexLattice._sorted(m[self.to_lattice] for m in masks
                                     if not any(o is not m and not (o & ~m).any() for o in masks))


def block_partition(labels):
    """(blocks, point -> block) of equal labels, by a loop over the points:
    each block in ascending order, the blocks sorted by least point."""
    raw = {}
    for v in range(labels.size):
        raw.setdefault(int(labels[v]), []).append(v)
    blocks = sorted((tuple(b) for b in raw.values()), key=lambda b: b[0])
    point_block = np.empty(labels.size, dtype=np.int32)
    for i, b in enumerate(blocks):
        for v in b:
            point_block[v] = i
    return tuple(blocks), point_block


def neighbors(graph):
    """(out-neighbours, in-neighbours) of each vertex, by a loop over the
    arcs in order."""
    out = [[] for _ in range(graph.n_vertices)]
    inn = [[] for _ in range(graph.n_vertices)]
    for x, y in graph.arcs.tolist():
        out[x].append(y)
        inn[y].append(x)
    return out, inn


def reached(graph, forward=True, backward=True):
    """How many vertices a depth-first search from vertex 0 reaches along
    the arcs, against them, or (by default) both ways."""
    out, inn = neighbors(graph)
    seen = [False] * graph.n_vertices
    seen[0] = True
    stack, count = [0], 1
    while stack:
        v = stack.pop()
        for w in (out[v] if forward else []) + (inn[v] if backward else []):
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count


def connectivity(graph):
    """(weakly connected, strongly connected) by depth-first searches."""
    n = graph.n_vertices
    return (reached(graph) == n,
            reached(graph, True, False) == n and reached(graph, False, True) == n)


def least_walk(graph, steps):
    """The walk from vertex 0 that always goes to the least out-neighbour,
    for ``steps`` steps or up to a vertex with none."""
    outs, walk = neighbors(graph)[0], [0]
    while len(walk) <= steps and outs[walk[-1]]:
        walk.append(min(outs[walk[-1]]))
    return walk


def undirected_edges(graph):
    return {(min(x, y), max(x, y)) for x, y in graph.arcs.tolist()}


def has_arc(graph, x, y):
    return [x, y] in graph.arcs.tolist()
