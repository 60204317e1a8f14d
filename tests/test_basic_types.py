"""The basic type and the quotient kind that no pair of the corpus reaches,
on the two raw_coset documents of ``conftest.WREATH_DOCS``: Alt(5) wr S2
gives a Biquasiprimitive pair on 3,600 vertices, and Z2 wr D6 a NonBasic
pair on 24 vertices with UnorientedCycle quotients.  Each document runs
through every command of the CLI, and each answer is checked apart from
og4's lattice: a two-colouring of the graph, the group orders from sympy,
and the dihedral block action of each cycle quotient.  The two theorem
checks these pairs reach first, the dihedral test of an UnorientedCycle
and the cross-check of a Biquasiprimitive type, are made to fail once each."""

import json
from collections import deque

import pytest

import og4
from og4 import quotient
from og4.cli import main

import oracles
from conftest import WREATH_DOCS

EXPECTED = {
    "Alt(5) wr S2": {
        "n_vertices": 3600, "group_order": 7200, "basic_type": "Biquasiprimitive",
        # (kind, |N|, blocks, cycle length)
        "quotients": [("K2", 3600, 2, None), ("K1", 7200, 1, None)],
        "kernel_orders": [], "terminal": (3600, 7200, "Biquasiprimitive"),
    },
    "Z2 wr D6": {
        "n_vertices": 24, "group_order": 48, "basic_type": "NonBasic",
        "quotients": [("Cover", 2, 12, None), ("UnorientedCycle", 4, 6, 6),
                      ("UnorientedCycle", 8, 3, 3), ("K2", 12, 2, None), ("K2", 24, 2, None),
                      ("K1", 24, 1, None), ("K1", 24, 1, None), ("K1", 48, 1, None)],
        "kernel_orders": [2], "terminal": (12, 24, "Cycle"),
    },
}


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    assert status == 0, (argv, out)
    return json.loads(out)


@pytest.mark.parametrize("name", sorted(WREATH_DOCS))
def test_every_command(capsys, tmp_path, name):
    want = EXPECTED[name]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(WREATH_DOCS[name]))
    built = run(capsys, "construct", str(spec))
    (tmp_path / "pair.json").write_text(json.dumps(built["pair"]))
    verified = run(capsys, "verify", str(tmp_path / "pair.json"))
    classified = run(capsys, "classify", str(spec))
    chained = run(capsys, "chain", str(spec))
    analyzed = run(capsys, "analyze", str(spec))

    assert built["pair"]["n_vertices"] == want["n_vertices"]
    assert verified["ok"] is True
    for report in (built, verified, classified):
        assert report["certificate"]["group_order"] == want["group_order"]
        assert report["certificate"]["connected"] is True
    assert classified["basic_type"] == want["basic_type"]
    assert [(q["kind"], q["normal_subgroup_order"], q["n_blocks"], q.get("cycle_length"))
            for q in classified["quotients"]] == want["quotients"]
    assert chained["kernel_orders"] == want["kernel_orders"]
    terminal = chained["terminal"]
    assert (terminal["n_vertices"], terminal["group_order"],
            chained["basic_type_of_terminal"]) == want["terminal"]
    assert analyzed["s_arcs"]["counts"][0] == want["n_vertices"]


def sympy_group(doc):
    """The document's group in sympy, from its 1-based cycle texts."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    gens = [[[int(p) - 1 for p in cycle.split()] for cycle in text[1:-1].split(")(")]
            for text in doc["group_generators"]]
    degree = 1 + max(p for g in gens for c in g for p in c)
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(g, size=degree) for g in gens])


def two_colouring(graph):
    """A colour per vertex with every arc joining two colours, by a
    breadth-first search over the neighbour lists; None if there is none."""
    out, inn = oracles.neighbors(graph)
    colour = [None] * graph.n_vertices
    colour[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in out[v] + inn[v]:
            if colour[w] is None:
                colour[w] = 1 - colour[v]
                queue.append(w)
            elif colour[w] == colour[v]:
                return None
    return colour


def test_group_orders_from_sympy(wreath_pairs):
    for name, pair in wreath_pairs:
        group = sympy_group(WREATH_DOCS[name])
        assert group.order() == pair.group.order == EXPECTED[name]["group_order"], name
    # Alt(5) x Alt(5) is the derived subgroup, of index 2: the normal
    # subgroup whose two orbits are the K2 quotient's blocks
    assert sympy_group(WREATH_DOCS["Alt(5) wr S2"]).derived_subgroup().order() == 3600


def test_biquasiprimitive_pair_is_bipartite(wreath_pairs):
    pair = dict(wreath_pairs)["Alt(5) wr S2"]
    colour = two_colouring(pair.graph)
    assert colour is not None and None not in colour
    assert colour.count(0) == colour.count(1) == 1800
    k2 = [out for _, out in og4.classify_all_quotients(pair) if out.kind == "K2"]
    assert [sorted({colour[v] for v in block}) for block in k2[0].partition.blocks] == [[0], [1]]


def test_unoriented_cycles_are_dihedral(wreath_pairs):
    pair = dict(wreath_pairs)["Z2 wr D6"]
    cycles = [out for _, out in og4.classify_all_quotients(pair) if out.kind == "UnorientedCycle"]
    assert [out.cycle_length for out in cycles] == [6, 3]
    for out in cycles:
        r = out.cycle_length
        assert out.induced_group.order == 2 * r
        assert oracles.is_dihedral_of_order(out.induced_group, 2 * r)
        # an r-cycle: connected, with two neighbours at every block
        edges = oracles.undirected_edges(out.quotient_graph)
        assert len(edges) == r and oracles.connectivity(out.quotient_graph)[0]
        assert sorted(v for e in edges for v in e) == sorted(2 * list(range(r)))


def test_dihedral_check_fires(monkeypatch, wreath_pairs):
    pair = dict(wreath_pairs)["Z2 wr D6"]
    monkeypatch.setattr(quotient, "_is_dihedral_of_order", lambda group, two_r: False)
    with pytest.raises(og4.InvariantViolation,
                       match="unoriented 2-valent quotient is not a dihedral r-cycle"):
        og4.classify_all_quotients(pair)


def test_biquasiprimitive_cross_check_fires(monkeypatch, wreath_pairs):
    pair = dict(wreath_pairs)["Alt(5) wr S2"]
    monkeypatch.setattr(quotient, "_quasiprimitivity", lambda group, minimal: "quasiprimitive")
    with pytest.raises(og4.InvariantViolation,
                       match="basic type and biquasiprimitivity test disagree"):
        og4.basic_type(pair)
