"""Tests of the benchmark itself: its checks catch wrong reports, its seeds
keep every answer, and sympy confirms |G| of the large constructions.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from og4.cli import main  # noqa: E402

LEX3_PAIR = workloads.LEX3_PAIR
LEX3 = workloads.closed_form("lex_cycle(3)")


def report_of(tmp_path, cmd, family, seed=0):
    doc = tmp_path / "in.json"
    doc.write_text(json.dumps(workloads.spec(family, workloads.point_relabeling(seed))))
    out = tmp_path / "out.json"
    assert main([cmd, str(doc), "--output", str(out)]) == 0
    return out.read_text()


def test_benchmark_json_lists_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.metric_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in bench["end_to_end"]}


@pytest.mark.parametrize("seed", range(20))
def test_seeded_order_keeps_ops_and_dependencies(seed):
    for w in workloads.WORKLOADS:
        ops = workloads.seeded_ops(w, seed)
        assert sorted(ops) == sorted(workloads.fixed_ops(w))
        for i, (cmd, name) in enumerate(ops):
            if name.startswith("pair:"):
                assert ops.index(("construct", name[5:])) < i


def test_relabel_is_a_conjugation():
    pi = [3, 1, 5, 2, 4]
    assert workloads.relabel("(1 2 3)(4 5)", pi) == "(3 1 5)(2 4)"


def test_lex3_pair_passes_and_mutations_fail():
    assert checks.check_pair_document(LEX3_PAIR, LEX3) == []
    wrong_order = {**LEX3, "G": 48}
    assert checks.check_pair_document(LEX3_PAIR, wrong_order)  # sympy disagrees
    dropped = {**LEX3_PAIR, "arcs": LEX3_PAIR["arcs"][1:] + [[1, 2]]}
    assert checks.check_pair_document(dropped, LEX3)
    bad_gen = {**LEX3_PAIR, "generators": ["(1 3 5)(2 4 6)", "(1 3)"]}
    assert checks.check_pair_document(bad_gen, LEX3)


@pytest.mark.parametrize("cmd,family", [
    ("classify", "simple_cayley"), ("classify", "lex_cycle(4)"), ("chain", "simple_cayley"),
    ("chain", "lex_cycle(4)"), ("analyze", "lex_cycle(5)"), ("construct", "coset_simple"),
])
@pytest.mark.parametrize("seed", [0, 7])
def test_reports_pass_on_every_seed(tmp_path, cmd, family, seed):
    assert checks.check_report(cmd, family, report_of(tmp_path, cmd, family, seed)) == []


def test_checks_reject_wrong_answers(tmp_path):
    rep = json.loads(report_of(tmp_path, "classify", "simple_cayley"))
    cover = next(q for q in rep["quotients"] if q["kind"] == "Cover")
    cover["n_blocks"] = 20
    assert checks.check_classify(rep, workloads.closed_form("simple_cayley"))
    rep = json.loads(report_of(tmp_path, "chain", "simple_cayley"))
    rep["terminal"]["n_vertices"] = 20
    assert checks.check_chain(rep, workloads.closed_form("simple_cayley"))
    rep = json.loads(report_of(tmp_path, "analyze", "lex_cycle(4)"))
    rep["s_arcs"]["counts"][-1] += 1
    assert checks.check_analyze(rep, workloads.closed_form("lex_cycle(4)"))


def test_malformed_outcomes():
    assert checks.malformed_outcome("bad_arc", 2, "", "error: bad arc\n") == "ok"
    trace = "Traceback (most recent call last):\n  ...\nTypeError: x\n"
    assert checks.malformed_outcome("bad_arc", 1, "", trace) == "failed"
    refuted = json.dumps({"clause": "lex_cycle:r_ge_3", "ok": False})
    assert checks.malformed_outcome("bool_r", 1, refuted, "") == "failed"
    assert checks.malformed_outcome("bool_r", 0, "{}", "") is None


@pytest.mark.parametrize("family", ["tw_cayley", "pa"])
def test_sympy_order_of_large_constructions(tmp_path, family):
    """Too slow for every run (about 9 s for tw_cayley), so checked here."""
    rep = json.loads(report_of(tmp_path, "construct", family, seed=3))
    assert checks.check_pair_document(rep["pair"], workloads.closed_form(family),
                                      sympy_max_degree=10_000) == []
