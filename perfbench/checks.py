"""Correctness checks on CLI reports, written apart from the program.

Each check returns a list of problems (empty when the report is right).  The
expected numbers come from the closed forms in ``workloads.closed_form`` and
from properties every OG(4) pair and every normal quotient must have; the
program's own code is never called here.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from workloads import MALFORMED, closed_form

KINDS = {"K1", "Cover", "K2", "OrientedCycle", "UnorientedCycle"}
BASIC_TYPES = {"Quasiprimitive", "Biquasiprimitive", "Cycle"}
# Below this degree sympy recomputes |G| in every run; above it the
# benchmark's own tests do (tw_cayley alone takes about 9 s).
SYMPY_MAX_DEGREE = 1000


def parse_cycles(text: str, degree: int) -> np.ndarray:
    """1-based cycle notation -> 0-based image array."""
    images = np.arange(degree, dtype=np.int64)
    for part in text.replace(" ", ",").split(")"):
        part = part.strip("(,")
        if not part:
            continue
        cyc = [int(v) - 1 for v in part.split(",") if v]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return images


def _certificate(cert: dict, cf: dict) -> list[str]:
    bad = [k for k in ("vertex_transitive", "edge_transitive", "orientation_preserved",
                       "connected") if cert.get(k) is not True]
    if cert.get("valency") != 4:
        bad.append("valency")
    if cert.get("group_order") != cf["G"]:
        bad.append(f"group_order {cert.get('group_order')} != {cf['G']}")
    if cert.get("stabilizer_order") != cf["Gv"]:
        bad.append(f"stabilizer_order {cert.get('stabilizer_order')} != {cf['Gv']}")
    return [f"certificate: {b}" for b in bad]


def _type_from_kinds(kinds: set) -> str:
    if "Cover" in kinds:
        return "NonBasic"
    if kinds & {"OrientedCycle", "UnorientedCycle"}:
        return "Cycle"
    return "Biquasiprimitive" if "K2" in kinds else "Quasiprimitive"


def check_classify(rep: dict, cf: dict) -> list[str]:
    bad = _certificate(rep.get("certificate", {}), cf)
    if rep.get("basic_type") != cf["type"]:
        bad.append(f"basic_type {rep.get('basic_type')} != {cf['type']}")
    quotients = rep.get("quotients", [])
    full = [q for q in quotients if q.get("normal_subgroup_order") == cf["G"]]
    if len(full) != 1 or full[0].get("kind") != "K1":
        bad.append("the full group does not give exactly one K1")
    for q in quotients:
        n, kind, blocks = q.get("normal_subgroup_order"), q.get("kind"), q.get("n_blocks")
        if kind not in KINDS:
            bad.append(f"kind {kind!r} is not one of the five")
            continue
        if not (isinstance(n, int) and 1 < n and cf["G"] % n == 0):
            bad.append(f"normal subgroup order {n} does not divide |G|")
            continue
        if not (isinstance(blocks, int) and cf["V"] % blocks == 0):
            bad.append(f"{kind}: n_blocks {blocks} does not divide |V|")
        elif kind == "K1" and blocks != 1:
            bad.append("K1 with more than one block")
        elif kind == "K2" and blocks != 2:
            bad.append("K2 without two blocks")
        elif kind == "Cover" and (q.get("multicover_degree") != 1
                                  or blocks * n != cf["V"]
                                  or q.get("quotient_valency") != 4):
            bad.append(f"Cover by |N|={n} is not a degree-1 cover with |V|/|N| blocks")
        elif kind.endswith("Cycle") and not (q.get("cycle_length") == blocks >= 3):
            bad.append(f"{kind} length does not match its blocks")
    if quotients and _type_from_kinds({q.get("kind") for q in quotients}) != rep.get("basic_type"):
        bad.append("basic_type disagrees with the quotient kinds")
    return bad


def check_chain(rep: dict, cf: dict) -> list[str]:
    bad = []
    kernels = rep.get("kernel_orders", [])
    term = rep.get("terminal", {})
    top = kernels[-1] if kernels else 1
    if any(b <= a for a, b in zip(kernels, kernels[1:])):
        bad.append("kernel orders do not increase")
    if top * term.get("n_vertices", 0) != cf["V"]:
        bad.append("kernel order x terminal |V| != |V|")
    if top * term.get("group_order", 0) != cf["G"]:
        bad.append("kernel order x terminal |G| != |G|")
    if rep.get("basic_type_of_terminal") not in BASIC_TYPES:
        bad.append(f"terminal type {rep.get('basic_type_of_terminal')!r} is not basic")
    if (cf["type"] == "NonBasic") == (not kernels):
        bad.append("chain length does not match whether the pair is basic")
    return bad


def _sympy_order(gens: list[np.ndarray]) -> int:
    from sympy.combinatorics import Permutation, PermutationGroup

    return int(PermutationGroup([Permutation(g.tolist()) for g in gens]).order())


def check_pair_document(pair: dict, cf: dict, sympy_max_degree: int = SYMPY_MAX_DEGREE
                        ) -> list[str]:
    """The emitted pair: 2|V| arcs, in- and out-degree 2, no loops or
    two-way edges, arcs invariant under every generator and forming one
    orbit, connected underlying graph, and (for small degree) |G| by
    sympy's Schreier-Sims."""
    n = pair.get("n_vertices")
    if n != cf["V"]:
        return [f"n_vertices {n} != {cf['V']}"]
    arcs = np.asarray(pair.get("arcs", []), dtype=np.int64) - 1
    if arcs.shape != (2 * n, 2) or arcs.min() < 0 or arcs.max() >= n:
        return ["arc list is not 2|V| pairs of vertices"]
    bad = []
    x, y = arcs[:, 0], arcs[:, 1]
    code = x * n + y
    arc_set = set(code.tolist())
    if (x == y).any() or len(arc_set) != 2 * n or set((y * n + x).tolist()) & arc_set:
        bad.append("loops, repeated arcs or two-way edges")
    if not ((np.bincount(x, minlength=n) == 2).all() and (np.bincount(y, minlength=n) == 2).all()):
        bad.append("in- or out-degree is not 2")
    gens = [parse_cycles(g, n) for g in pair.get("generators", [])]
    for g in gens:
        if set((g[x] * n + g[y]).tolist()) != arc_set:
            bad.append("arc set is not invariant under a generator")
            break
    else:
        # one orbit of <gens> on arcs, by union-find over arc indices
        index = {c: i for i, c in enumerate(code.tolist())}
        root = list(range(len(code)))

        def find(i):
            while root[i] != i:
                root[i] = root[root[i]]
                i = root[i]
            return i

        for g in gens:
            for i, c in enumerate((g[x] * n + g[y]).tolist()):
                root[find(i)] = find(index[c])
        if len({find(i) for i in range(len(code))}) != 1:
            bad.append("generators are not transitive on arcs")
    seen, stack = {0}, [0]
    nbrs = [[] for _ in range(n)]
    for a, b in zip(x.tolist(), y.tolist()):
        nbrs[a].append(b)
        nbrs[b].append(a)
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        bad.append("underlying graph is disconnected")
    if n < sympy_max_degree and gens and _sympy_order(gens) != cf["G"]:
        bad.append("sympy's |G| differs from the closed form")
    return bad


def check_construct(rep: dict, cf: dict) -> list[str]:
    return _certificate(rep.get("certificate", {}), cf) + check_pair_document(
        rep.get("pair", {}), cf)


def check_verify(rep: dict, cf: dict) -> list[str]:
    return _certificate(rep.get("certificate", {}), cf)


def check_analyze(rep: dict, cf: dict) -> list[str]:
    bad = []
    alt, sarc, stab = rep.get("alternating", {}), rep.get("s_arcs", {}), rep.get("stabilizer", {})
    if alt.get("n_cycles", 0) * alt.get("common_length", 0) != 2 * cf["V"]:
        bad.append("n_cycles x common_length != 2|V|")
    counts, max_s = sarc.get("counts", []), sarc.get("max_s")
    if not (isinstance(max_s, int) and 0 <= max_s < len(counts)):
        return bad + ["max_s outside the counts"]
    if counts != [cf["V"] * 2 ** s for s in range(len(counts))]:
        bad.append("s-arc counts are not |V| * 2^s")
    if sarc.get("regular_on_max") and counts[max_s] != cf["G"]:
        bad.append("regular on max_s-arcs but counts[max_s] != |G|")
    if stab.get("order") != cf["Gv"] or stab.get("is_2group") is not True:
        bad.append("stabilizer is not the 2-group of order |G_v|")
    return bad


CHECKS = {"classify": check_classify, "chain": check_chain, "construct": check_construct,
          "verify": check_verify, "analyze": check_analyze}


def malformed_outcome(name: str, status: int, out: str, err: str) -> Optional[str]:
    """'ok' when the document is rejected as it should be (exit 2, one-line
    error), 'failed' when it meets its named fault, None otherwise."""
    if status == 2 and not out and err.count("\n") == 1 and err.startswith("error:"):
        return "ok"
    fault = MALFORMED[name][2]
    if status != 1:
        return None
    if fault == "TypeError":
        return "failed" if err.rstrip().rsplit("\n", 1)[-1].startswith("TypeError:") else None
    try:
        return "failed" if json.loads(out).get("clause") == fault else None
    except json.JSONDecodeError:
        return None


def check_report(cmd: str, family: str, text: str) -> list[str]:
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    if rep.get("command") != cmd or rep.get("ok") is not True:
        return ["report is not an ok report of this command"]
    return CHECKS[cmd](rep, closed_form(family))
