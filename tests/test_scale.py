"""The paper's tw and pa families over PSL(2,7) and PSL(2,9), past the Alt(5)
corpus.

T = PSL(2,7) acts on the projective line over F_7, with x -> point x + 1 and
infinity -> point 8.  Its generators are x -> x + 1, x -> 2x (2 = 3^2
generates the nonzero squares) and x -> -1/x; x -> 3x adds PGL(2,7), the
inventory of Aut(T).  The constructions give closed forms: tw has
|V| = |T|^2, pa has |V| = |T|^2 / 2, and both act by a group G of order
2|T|^2 whose only minimal normal subgroup is T x T, transitive on the
vertices, so both pairs are quasiprimitive.  Each member is constructed,
its emitted pair verified and its spec classified through the CLI, under a
generous time bound.  The tw member's N = <s0, s1>, read from one column of
N<iota>'s table, is compared with N grown in that table.

G = PSL(2,7) wr S2 acts on 16 points: T on 1..8, T on 9..16 and the swap
(1 9)(2 10)...(8 16).  Its raw_coset member, with |V| = |G|/2 = 28,224,
is biquasiprimitive: T x T, of index 2, has two orbits, the K2 quotient's
blocks.  It runs through construct, classify, chain and analyze.

T = PSL(2,9) = Alt(6) acts on the projective line over F_9 = F_3[i],
i^2 = -1, with a + bi -> point 1 + a + 3b and infinity -> point 10.  Its
generators are x -> x + 1, x -> -ix (-i = (1 + i)^2 generates the nonzero
squares) and x -> -1/x; x -> (1 + i)x and the Frobenius x -> x^3 add
PGammaL(2,9), all of Aut(T), the inventory.  Its pa member, with |V| = 64,800 and
|G| = 259,200, is constructed and classified.
"""

import json
import re
import time
import tracemalloc

import numpy as np
import pytest

import og4
from og4 import parse_permutation
from og4.cli import build_from_document, main

PSL27 = ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)", "(1 8)(2 7)(3 4)(5 6)"]
PGL27 = PSL27 + ["(2 4 3 7 5 6)"]
T_ORDER = 168

SPECS = {
    "tw": {"family": "tw_cayley", "degree": 8, "generators": PSL27,
           "a": "(2 7 5)(3 4 8)", "b": "(1 4 6 2)(3 8 7 5)",
           "aut_supergroup_generators": PGL27},
    "pa": {"family": "pa", "degree": 8, "generators": PSL27,
           "a": "(1 4)(2 5)(3 8)(6 7)", "b": "(2 3 8 6 7 5 4)",
           "centralizer_supergroup_generators": PGL27},
}
N_VERTICES = {"tw": T_ORDER ** 2, "pa": T_ORDER ** 2 // 2}
SECONDS = 30.0  # all three commands of one member; about 1.5 s on 2 cores


@pytest.mark.parametrize("family", sorted(SPECS))
def test_psl27_member(capsys, tmp_path, family):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPECS[family]))
    cap = ["--max-order", str(10 ** 7)]

    def run(*argv):
        status = main([*argv, *cap])
        out = capsys.readouterr().out
        assert status == 0, (argv, out)
        return json.loads(out)

    t0 = time.perf_counter()
    built = run("construct", str(spec))
    (tmp_path / "pair.json").write_text(json.dumps(built["pair"]))
    verified = run("verify", str(tmp_path / "pair.json"))
    classified = run("classify", str(spec))
    elapsed = time.perf_counter() - t0

    assert built["pair"]["n_vertices"] == N_VERTICES[family]
    for report in (built, verified, classified):
        assert report["certificate"]["group_order"] == 2 * T_ORDER ** 2
    assert verified["ok"] is True
    assert classified["basic_type"] == "Quasiprimitive"
    # the nontrivial normal subgroups are T x T and G: T x T is the one
    # minimal normal subgroup, and it is transitive (one block)
    assert [(q["normal_subgroup_order"], q["n_blocks"]) for q in classified["quotients"]] \
        == [(T_ORDER ** 2, 1), (2 * T_ORDER ** 2, 1)]
    assert elapsed < SECONDS, f"{family}: {elapsed:.1f} s"


def assert_n_is_one_column(pair, a, b, degree):
    """tw's N = <s0, s1> is the elements of N<iota> (the pair's small
    action) that send point 0 into the first half, as growing N in the
    table finds."""
    n_iota = pair.group.action
    grown = og4.constructions._span(n_iota, [og4.embed_pair(a, b), og4.embed_pair(b, a)], "tw")
    assert np.array_equal(n_iota.table[:, 0] < degree, grown)
    assert np.count_nonzero(grown) * 2 == n_iota.order


def test_psl27_tw_n_is_one_column():
    spec = SPECS["tw"]
    a, b = (parse_permutation(spec[k], 8) for k in ("a", "b"))
    pair = build_from_document(spec, 10 ** 7)
    assert_n_is_one_column(pair, a, b, 8)


LATTICE_PEAK_BYTES = 8_000_000  # the peak is about 5.9 MB


def test_psl27_tw_lattice_memory():
    """The lattice of the tw member runs in its small action S = N<iota>
    itself: ``_lattice`` returns S and one index permutation, and its traced
    peak, S's element search included, stays under the bound."""
    pair = build_from_document(SPECS["tw"], 10 ** 7)
    tracemalloc.start()
    try:
        lattice = og4.perm._lattice(pair.group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < LATTICE_PEAK_BYTES, f"{peak / 1e6:.1f} MB"
    small, to_lattice = lattice
    assert small is pair.group.action
    assert np.array_equal(np.sort(to_lattice), np.arange(pair.group.order))


PSL29 = ["(1 2 3)(4 5 6)(7 8 9)", "(2 7 3 4)(5 8 9 6)", "(1 10)(2 3)(5 8)(6 9)"]
PGAMMAL29 = PSL29 + ["(2 5 7 8 3 9 4 6)", "(4 7)(5 8)(6 9)"]
PA29 = {"family": "pa", "degree": 10, "generators": PSL29,
        "a": "(2 3)(4 7)(5 9)(6 8)", "b": "(1 6 2 4 7)(3 10 5 9 8)",
        "centralizer_supergroup_generators": PGAMMAL29}
T29_ORDER = 360
SECONDS_29 = 30.0  # construct and classify; about 4 s on 2 cores


def test_psl29_pa_member(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(PA29))
    cap = ["--max-order", str(10 ** 7)]

    def run(*argv):
        status = main([*argv, *cap])
        out = capsys.readouterr().out
        assert status == 0, (argv, out)
        return json.loads(out)

    t0 = time.perf_counter()
    built = run("construct", str(spec))
    classified = run("classify", str(spec))
    elapsed = time.perf_counter() - t0

    assert built["pair"]["n_vertices"] == T29_ORDER ** 2 // 2 == 64_800
    for report in (built, classified):
        assert report["certificate"]["group_order"] == 2 * T29_ORDER ** 2 == 259_200
    assert classified["basic_type"] == "Quasiprimitive"
    # T x T is the one minimal normal subgroup, and it is transitive
    assert [(q["normal_subgroup_order"], q["n_blocks"]) for q in classified["quotients"]] \
        == [(T29_ORDER ** 2, 1), (2 * T29_ORDER ** 2, 1)]
    assert elapsed < SECONDS_29, f"pa over PSL(2,9): {elapsed:.1f} s"


def shift(text, by):
    """Cycle notation with every point moved up by ``by``."""
    return re.sub(r"\d+", lambda m: str(int(m.group()) + by), text)


PSL27_WR = {
    "family": "raw_coset",
    "group_generators": PSL27 + [shift(g, 8) for g in PSL27]
    + ["".join(f"({i} {i + 8})" for i in range(1, 9))],
    "subgroup_generators": ["(1 8)(2 6)(3 7)(4 5)(9 10)(11 12)(13 15)(14 16)"],
    "s": "(1 13 7 9 8 16)(2 10 4 11 6 12)(3 14)(5 15)",
}
SECONDS_WR = 30.0  # all four commands; about 1.1 s on 2 cores


def test_psl27_wreath_member(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(PSL27_WR))

    def run(*argv):
        status = main([*argv, str(spec), "--max-order", str(10 ** 7)])
        out = capsys.readouterr().out
        assert status == 0, (argv, out)
        return json.loads(out)

    t0 = time.perf_counter()
    built, classified, chained, analyzed = (
        run(command) for command in ("construct", "classify", "chain", "analyze"))
    elapsed = time.perf_counter() - t0

    order = 2 * T_ORDER ** 2
    assert built["pair"]["n_vertices"] == T_ORDER ** 2 == 28_224
    for report in (built, classified):
        assert report["certificate"]["group_order"] == order == 56_448
        assert report["certificate"]["stabilizer_order"] == 2
    assert classified["basic_type"] == "Biquasiprimitive"
    # (kind, |N|, blocks): T x T gives K2, G gives K1
    assert [(q["kind"], q["normal_subgroup_order"], q["n_blocks"])
            for q in classified["quotients"]] == [("K2", T_ORDER ** 2, 2), ("K1", order, 1)]
    assert chained["kernel_orders"] == []
    assert chained["terminal"] == {"n_vertices": T_ORDER ** 2, "group_order": order}
    assert chained["basic_type_of_terminal"] == "Biquasiprimitive"
    assert analyzed["s_arcs"]["counts"] == [T_ORDER ** 2, order, 2 * order]
    assert elapsed < SECONDS_WR, f"PSL(2,7) wr S2: {elapsed:.1f} s"
