import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import og4.perm
from og4.cli import _build_parser, _json_chunks, main


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def lex3_doc(tmp_path):
    return write_doc(tmp_path, "lex3.json", {"family": "lex_cycle", "r": 3})


@pytest.fixture
def sc_doc(tmp_path):
    return write_doc(tmp_path, "sc.json", {
        "family": "simple_cayley",
        "degree": 5,
        "generators": ["(1 2 3)", "(1 2 3 4 5)"],
        "a": "(1 2 3)",
        "sigma": "(1 4)(2 5)",
    })


class TestConstruct:
    def test_lex3(self, capsys, lex3_doc):
        status, out, err = run(capsys, "construct", lex3_doc)
        assert status == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["certificate"]["group_order"] == 24
        assert report["pair"]["n_vertices"] == 6
        assert len(report["pair"]["arcs"]) == 12

    def test_refuted_exit_1(self, capsys, tmp_path):
        doc = write_doc(tmp_path, "bad.json", {"family": "lex_cycle", "r": 2})
        status, out, err = run(capsys, "construct", doc)
        assert status == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert report["clause"] == "lex_cycle:r_ge_3"

    def test_unknown_family_exit_2(self, capsys, tmp_path):
        doc = write_doc(tmp_path, "bad.json", {"family": "nope"})
        status, out, err = run(capsys, "construct", doc)
        assert status == 2
        assert "unknown family" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        status, out, err = run(capsys, "construct", str(tmp_path / "absent.json"))
        assert status == 2

    def test_bad_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        status, out, err = run(capsys, "construct", str(path))
        assert status == 2

    def test_cap_exit_2(self, capsys, sc_doc):
        status, out, err = run(capsys, "construct", sc_doc, "--max-order", "10")
        assert status == 2

    def test_classify_cap_exit_2(self, capsys, tmp_path):
        doc = write_doc(tmp_path, "s5.json", {"family": "sym_bigstab", "n": 5})
        status, out, err = run(capsys, "classify", doc, "--max-order", "50")
        assert status == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "cap of 50" in err

    def test_deterministic_bytes(self, capsys, sc_doc):
        s1, out1, _ = run(capsys, "construct", sc_doc)
        s2, out2, _ = run(capsys, "construct", sc_doc)
        assert s1 == s2 == 0
        assert out1 == out2


class TestVerifyRoundTrip:
    def test_pair_document_round_trip(self, capsys, lex3_doc, tmp_path):
        _, out, _ = run(capsys, "construct", lex3_doc)
        pair_doc = json.loads(out)["pair"]
        path = write_doc(tmp_path, "pair.json", pair_doc)
        status, out, err = run(capsys, "verify", path)
        assert status == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["certificate"]["stabilizer_order"] == 4

    def test_bad_orientation_exit_1(self, capsys, tmp_path):
        # both directions of every edge present: orientation not antisymmetric
        doc = {
            "degree": 5,
            "generators": ["(1 2 3 4 5)"],
            "n_vertices": 5,
            "arcs": sorted(
                [[x + 1, (x + 1) % 5 + 1] for x in range(5)]
                + [[(x + 1) % 5 + 1, x + 1] for x in range(5)]
            ),
        }
        path = write_doc(tmp_path, "sym.json", doc)
        status, out, err = run(capsys, "verify", path)
        assert status == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert report["clause"].startswith("og:")

    def test_diagonal_arc_exit_2(self, capsys, tmp_path):
        doc = {"degree": 3, "generators": ["(1 2 3)"], "arcs": [[1, 1]]}
        path = write_doc(tmp_path, "diag.json", doc)
        status, out, err = run(capsys, "verify", path)
        assert status == 2

    def test_seed_arc_orbital(self, capsys, tmp_path):
        doc = {"degree": 6, "generators": ["(1 2 3 4 5 6)"]}
        path = write_doc(tmp_path, "orb.json", doc)
        status, out, err = run(capsys, "verify", path, "--seed-arc", "1", "2")
        # a single directed 6-cycle is 2-valent, not OG(4)
        assert status == 1


ALT5, SYM5 = ["(1 2 3)", "(1 2 3 4 5)"], ["(1 2)", "(1 2 3 4 5)"]
# conjugation by (1 4)(2 5) on Alt(5)'s generators
RAW_CAYLEY_SPEC = {"family": "raw_cayley", "degree": 5, "generators": ALT5,
                   "a": "(1 2 3)", "b": "(3 4 5)",
                   "h_generator_images": ["(3 4 5)", "(1 2 4 5 3)"]}
INVENTORY_SPECS = [
    {"family": "tw_cayley", "degree": 5, "generators": ALT5, "a": "(1 2 3)",
     "b": "(1 2 3 4 5)", "aut_supergroup_generators": SYM5},
    {"family": "pa", "degree": 5, "generators": ALT5, "a": "(1 2)(3 4)",
     "b": "(1 5 4 3 2)", "centralizer_supergroup_generators": SYM5},
    RAW_CAYLEY_SPEC,
]


class TestMalformedDocuments:
    """Malformed fields exit 2 with a one-line error, never a traceback."""

    @pytest.fixture
    def lex3_pair(self, capsys, lex3_doc):
        _, out, _ = run(capsys, "construct", lex3_doc)
        return json.loads(out)["pair"]

    def assert_usage_error(self, capsys, tmp_path, command, doc):
        status, out, err = run(capsys, command, write_doc(tmp_path, "bad.json", doc))
        assert status == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("images", [RAW_CAYLEY_SPEC["h_generator_images"] + ["(1 2)"],
                                        RAW_CAYLEY_SPEC["h_generator_images"][:1]])
    def test_h_generator_images_one_per_generator(self, capsys, tmp_path, images):
        doc = {**RAW_CAYLEY_SPEC, "h_generator_images": images}
        self.assert_usage_error(capsys, tmp_path, "construct", doc)

    def test_string_n_vertices(self, capsys, tmp_path, lex3_pair):
        doc = {**lex3_pair, "n_vertices": "6"}
        self.assert_usage_error(capsys, tmp_path, "verify", doc)

    def test_string_arc_endpoint(self, capsys, tmp_path, lex3_pair):
        doc = {**lex3_pair, "arcs": [["1", 2]] + lex3_pair["arcs"][1:]}
        self.assert_usage_error(capsys, tmp_path, "verify", doc)

    def test_arcs_not_a_list(self, capsys, tmp_path, lex3_pair):
        doc = {**lex3_pair, "arcs": 5}
        self.assert_usage_error(capsys, tmp_path, "verify", doc)

    def test_generator_not_a_string(self, capsys, tmp_path, lex3_pair):
        doc = {**lex3_pair, "generators": [5]}
        self.assert_usage_error(capsys, tmp_path, "verify", doc)

    def test_repeated_arc(self, capsys, tmp_path, lex3_pair):
        doc = {**lex3_pair, "arcs": lex3_pair["arcs"] + lex3_pair["arcs"][:1]}
        self.assert_usage_error(capsys, tmp_path, "verify", doc)

    def test_non_string_labels(self, capsys, tmp_path, lex3_pair):
        doc = {**lex3_pair, "labels": [1, 2, 3, 4, 5, 6]}
        self.assert_usage_error(capsys, tmp_path, "verify", doc)

    def test_superscript_digit_in_generator(self, capsys, tmp_path, lex3_pair):
        doc = {**lex3_pair, "generators": ["(1 \u00b2)"]}
        self.assert_usage_error(capsys, tmp_path, "verify", doc)

    def test_bool_r(self, capsys, tmp_path):
        doc = {"family": "lex_cycle", "r": True}
        self.assert_usage_error(capsys, tmp_path, "construct", doc)

    @pytest.mark.parametrize("field, value", [
        ("arcs", [[1, 10**30]]),
        ("arcs", [[1, -2**63 - 1]]),
        ("degree", 2**70),
        ("degree", 10**400),
        ("generators", [f"(1 {10**23})"]),
        ("generators", [f"(1 {10**9})"]),
        ("generators", ["(1 " + "7" * 5000 + ")"]),
    ])
    def test_huge_integers(self, capsys, tmp_path, lex3_pair, field, value):
        """Refused before any array of their size is made: exit 2, one line."""
        self.assert_usage_error(capsys, tmp_path, "verify", {**lex3_pair, field: value})

    @pytest.mark.parametrize("spec", [{"family": "lex_cycle", "r": 2**31},
                                      {"family": "lex_cycle", "r": 2**70},
                                      {"family": "sym_bigstab", "n": 2**70 + 1}])
    def test_huge_family_parameter(self, capsys, tmp_path, spec):
        self.assert_usage_error(capsys, tmp_path, "construct", spec)

    def test_integer_past_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"family": "lex_cycle", "r": ' + "7" * 5000 + "}")
        status, out, err = run(capsys, "construct", str(path))
        assert (status, out) == (2, "")
        assert err.startswith("error: cannot read") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["(1 2)", [1, 2], ["(1 2)"], ["(1 2)", "()", "()"], {}])
    def test_action_generators_of_wrong_type_or_length(self, capsys, tmp_path, lex3_pair,
                                                       value):
        doc = {**lex3_pair, "action_generators": value}
        self.assert_usage_error(capsys, tmp_path, "verify", doc)


# The lex_cycle(3) pair document as `construct` emits it.
LEX3_PAIR = {
    "n_vertices": 6,
    "generators": ["(1 3 5)(2 4 6)", "(1 2)"],
    "arcs": [[1, 3], [1, 4], [2, 3], [2, 4], [3, 5], [3, 6],
             [4, 5], [4, 6], [5, 1], [5, 2], [6, 1], [6, 2]],
    "labels": ["(0,0)", "(0,1)", "(1,0)", "(1,1)", "(2,0)", "(2,1)"],
}
LEX3_SPEC = {"family": "lex_cycle", "r": 3}

# Integers reach 10^4, plus four sentinels past int32, past int64 on either
# side and past 2^64, and strings stay short.  With `--max-order 1000` an r
# or n of 10^4 is refused (exit 2) while the chain's first orbit is
# searched, once it passes 1000 points, and an r past the table budget
# before any array is made.  A six-character string holds no point above
# 9999, so every table stays under 40 MB.  Cycle-notation strings are built from
# a few points, a superscript and an Arabic-Indic digit, and a letter;
# lists of them reach the generator parser.
POINT = st.sampled_from(["1", "2", "3", "7", "0", "\u00b2", "\u0662", "x"])
CYCLES = st.lists(st.lists(POINT, max_size=3).map(lambda pts: "(" + " ".join(pts) + ")"),
                  max_size=2).map("".join)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10_000)
    | st.sampled_from([2**31, 2**63, -2**63 - 1, 2**70]) | st.floats() | st.text(max_size=6)
    | CYCLES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
) | st.lists(CYCLES, min_size=1, max_size=3)


class TestFuzzedDocuments:
    """One field of a valid document replaced by arbitrary JSON: every
    command exits 0, 1 or 2 and never raises."""

    def test_lex3_pair_matches_construct(self, capsys, lex3_doc):
        _, out, _ = run(capsys, "construct", lex3_doc)
        assert json.loads(out)["pair"] == LEX3_PAIR

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([LEX3_PAIR, LEX3_SPEC]).flatmap(
               lambda doc: st.tuples(st.just(doc), st.sampled_from(sorted(doc)), JSON)),
           st.sampled_from(["verify", "construct", "classify"]))
    def test_one_field_replaced(self, case, command):
        self.check_replaced(*case, command)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(INVENTORY_SPECS).flatmap(
               lambda doc: st.tuples(st.just(doc), st.sampled_from(sorted(doc)), JSON)),
           st.sampled_from(["verify", "construct", "classify"]))
    def test_one_field_of_inventory_spec_replaced(self, case, command):
        """The tw and pa specs, whose supergroups are tested as conjugator
        rows, and the raw_cayley spec with generator images.  Under
        ``--max-order 1000`` tw and pa stop at the cap after that test."""
        self.check_replaced(*case, command)

    @staticmethod
    def check_replaced(doc, field, value, command):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps({**doc, field: value}))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = main([command, str(path), "--max-order", "1000"])
        assert status in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["n_vertices", "generators", "arcs", "labels", "action_generators"]),
           JSON, st.sampled_from(["verify", "construct", "classify"]))
    def test_one_field_of_certified_pair_replaced(self, field, value, command):
        """The emitted coset_simple pair, which carries its small action.
        Whenever ``verify`` accepts it, the certificate is the one it gives
        on the same document without 'action_generators'."""
        doc = {**coset_simple_pair(), field: value}
        status, out, err = run_quietly(command, doc)
        assert status in (0, 1, 2)
        assert "Traceback" not in err
        if command == "verify" and status == 0:
            plain = {k: v for k, v in doc.items() if k != "action_generators"}
            plain_status, plain_out, _ = run_quietly("verify", plain)
            assert plain_status == 0
            assert json.loads(out)["certificate"] == json.loads(plain_out)["certificate"]


@functools.lru_cache(maxsize=None)
def coset_simple_pair() -> dict:
    """The pair document ``construct`` emits for coset_simple, with its
    'action_generators'; callers copy it before replacing a field."""
    spec = {"family": "coset_simple", "degree": 5, "generators": ["(1 2 3)", "(1 2 3 4 5)"],
            "h": "(1 4)(2 5)", "g": "(1 2 3)"}
    status, out, _ = run_quietly("construct", spec)
    assert status == 0
    doc = json.loads(out)["pair"]
    assert "action_generators" in doc
    return doc


def run_quietly(command, doc):
    """(exit status, stdout, stderr) of one command on a document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([command, str(path), "--max-order", "1000"])
    return status, out.getvalue(), err.getvalue()


INT_OR_BOOL = st.integers() | st.booleans()
REPORT_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4)
                   | st.lists(INT_OR_BOOL, max_size=4) | st.lists(st.text(), max_size=4)
                   | st.lists(st.lists(INT_OR_BOOL, min_size=2, max_size=2), max_size=4)
                   | st.lists(st.lists(INT_OR_BOOL, max_size=2), max_size=4)),
    max_leaves=12,
)


class TestReportEmitter:
    """Reports are written byte for byte as ``json.dumps(sort_keys=True,
    indent=2)`` writes them."""

    @settings(max_examples=500, deadline=None)
    @given(REPORT_VALUE)
    def test_drawn_values(self, value):
        assert "".join(_json_chunks(value)) == oracles.json_report(value)

    @pytest.mark.parametrize("value", [
        [[i, -i] for i in range(2500)], [[1, 2], [3, True]], [[1, 2], [3]], [[], []],
        [1, 2.0], ["é", "\u2603", "\n"],
        {"b": {1: [2, 3]}, "a": [{"x": []}, {}]}, [2**70, -2**63 - 1], (1, [2, 3]),
    ])
    def test_listed_values(self, value):
        assert "".join(_json_chunks(value)) == oracles.json_report(value)

    def test_unserialisable_value_raises_as_json_does(self):
        with pytest.raises(TypeError):
            "".join(_json_chunks({"a": [object()]}))


class TestClassifyQuotientChain:
    def test_classify_lex3(self, capsys, lex3_doc):
        status, out, _ = run(capsys, "classify", lex3_doc)
        assert status == 0
        report = json.loads(out)
        assert report["basic_type"] == "Cycle"
        kinds = {q["normal_subgroup_order"]: q["kind"] for q in report["quotients"]}
        assert kinds[24] == "K1"

    def test_classify_simple_cayley(self, capsys, sc_doc):
        status, out, _ = run(capsys, "classify", sc_doc)
        assert status == 0
        report = json.loads(out)
        assert report["basic_type"] == "NonBasic"
        kinds = {q["normal_subgroup_order"]: q["kind"] for q in report["quotients"]}
        assert kinds[2] == "Cover"
        assert kinds[120] == "K1"

    def test_classify_leaves_numpy_ma_unimported(self, tmp_path):
        """``np.unique`` imports ``numpy.ma``, about 1 MB of resident memory
        in every command that calls it; no command path should.  Checked on
        ``classify``, and on ``construct``, ``verify`` of the emitted pair
        and ``export`` of pa, whose arcs are deduplicated as codes."""
        doc = write_doc(tmp_path, "lex8.json", {"family": "lex_cycle", "r": 8})
        pa = write_doc(tmp_path, "pa.json", {
            "family": "pa", "degree": 5, "generators": ["(1 2 3)", "(1 2 3 4 5)"],
            "a": "(1 2)(3 4)", "b": "(1 5 4 3 2)",
            "centralizer_supergroup_generators": ["(1 2)", "(1 2 3 4 5)"]})
        script = ("import json, sys, og4.cli\n"
                  "lex, pa, work = sys.argv[1:]\n"
                  "status = og4.cli.main(['classify', lex])\n"
                  "status |= og4.cli.main(['construct', pa, '--output', work + '/c.json'])\n"
                  "with open(work + '/c.json') as fh, open(work + '/p.json', 'w') as out:\n"
                  "    json.dump(json.load(fh)['pair'], out)\n"
                  "status |= og4.cli.main(['verify', work + '/p.json', '--output', work + '/v'])\n"
                  "status |= og4.cli.main(['export', pa, '--output', work + '/e'])\n"
                  "sys.exit(status or 3 * ('numpy.ma' in sys.modules))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", script, doc, pa, str(tmp_path)],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["basic_type"] == "Cycle"
        assert json.loads((tmp_path / "v").read_text())["certificate"]["group_order"] == 7200
        assert (tmp_path / "e").read_text().startswith("digraph")

    def test_no_np_unique_in_the_package(self):
        """``np.unique`` imports ``numpy.ma``; the package calls none."""
        package = Path(__file__).resolve().parents[1] / "src" / "og4"
        calls = [f"{path.name}:{n}" for path in sorted(package.glob("*.py"))
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if "np.unique(" in line]
        assert not calls, calls

    @pytest.mark.parametrize("spec", [
        {"family": "pa", "degree": 5, "generators": ["(1 2 3)", "(1 2 3 4 5)"],
         "a": "(1 2)(3 4)", "b": "(1 5 4 3 2)",
         "centralizer_supergroup_generators": ["(1 2)", "(1 2 3 4 5)"]},
        {"family": "lex_cycle", "r": 8},
    ], ids=["pa", "lex_cycle(8)"])
    def test_lookup_maps_per_group(self, capsys, monkeypatch, tmp_path, spec):
        """Every multiplication map beyond the generators' is composed along
        a word in the search tree: ``classify`` looks up at most k right and
        k left maps of each group with k generators.  (Before composed
        maps, pa's 7200-element group took 78 + 23 lookups and
        lex_cycle(8)'s 291.)"""
        counts, groups = {}, {}

        def counting(lookup):
            def counted(group, s):
                counts[id(group)] = counts.get(id(group), 0) + 1
                groups[id(group)] = group
                return lookup(group, s)
            return counted

        for name in ("right_mult_map", "left_mult_map"):
            monkeypatch.setattr(og4.perm, name, counting(getattr(og4.perm, name)))
        status, _, _ = run(capsys, "classify", write_doc(tmp_path, "spec.json", spec))
        monkeypatch.undo()
        assert status == 0 and counts
        for key, n in counts.items():
            assert n <= 2 * len(groups[key].generators), (groups[key], n)

    def test_quotient_subset_of_classify(self, capsys, lex3_doc):
        _, out_c, _ = run(capsys, "classify", lex3_doc)
        _, out_q, _ = run(capsys, "quotient", lex3_doc)
        assert json.loads(out_c)["quotients"] == json.loads(out_q)["quotients"]

    def test_chain_simple_cayley(self, capsys, sc_doc):
        status, out, _ = run(capsys, "chain", sc_doc)
        assert status == 0
        report = json.loads(out)
        assert report["kernel_orders"] == [2]
        assert report["terminal"] == {"n_vertices": 30, "group_order": 60}
        assert report["basic_type_of_terminal"] == "Quasiprimitive"


class TestAnalyzeExport:
    def test_analyze_lex3(self, capsys, lex3_doc):
        status, out, _ = run(capsys, "analyze", lex3_doc)
        assert status == 0
        report = json.loads(out)
        assert report["alternating"] == {
            "n_cycles": 3, "common_length": 4,
            "attachment_number": 2, "attachment_kind": "tight",
        }
        assert report["s_arcs"]["counts"] == [6, 12, 24, 48]
        assert report["s_arcs"]["max_s"] == 2
        assert report["stabilizer"]["order"] == 4

    def test_text_format(self, capsys, lex3_doc):
        status, out, _ = run(capsys, "analyze", lex3_doc, "--format", "text")
        assert status == 0
        assert "attachment_kind: tight" in out
        assert "{" not in out

    def test_export_dot_default(self, capsys, lex3_doc):
        status, out, _ = run(capsys, "export", lex3_doc)
        assert status == 0
        assert out.startswith("digraph")
        assert out.count("->") == 12

    def test_export_deterministic(self, capsys, lex3_doc):
        _, out1, _ = run(capsys, "export", lex3_doc)
        _, out2, _ = run(capsys, "export", lex3_doc)
        assert out1 == out2

    def test_dot_format_rejected_elsewhere(self, capsys, lex3_doc):
        status, out, err = run(capsys, "analyze", lex3_doc, "--format", "dot")
        assert status == 2

    def test_output_file(self, capsys, lex3_doc, tmp_path):
        dest = tmp_path / "report.json"
        status, out, _ = run(capsys, "classify", lex3_doc, "--output", str(dest))
        assert status == 0
        assert out == ""
        assert json.loads(dest.read_text())["basic_type"] == "Cycle"


class TestUsage:
    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["classify"], ["classify", "--help"], ["--help"],
        ["classify", "spec.json", "extra"], ["export", "spec.json", "--format", "xml"],
        ["verify", "--max-order"], ["chain", "spec.json", "--max-order", "7"],
    ])
    def test_parser_for_one_command(self, argv):
        """The parser built for the command in ``argv`` alone prints and
        parses exactly as the full parser of every command does."""
        def parse(parser):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    result = vars(parser.parse_args(argv))
                except SystemExit as exc:
                    result = exc.code
            return result, out.getvalue(), err.getvalue()

        assert parse(_build_parser(argv)) == parse(_build_parser())

    def test_nonpositive_cap(self, capsys, lex3_doc):
        with pytest.raises(SystemExit) as exc:
            main(["construct", lex3_doc, "--max-order", "0"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("cap", [["--max-order", "0"], ["--max-sarcs", "-1"]])
    def test_nonpositive_cap_error_line(self, capsys, lex3_doc, cap):
        """A cap below 1 is reported as every other exit-2 path is: one line
        that starts with ``error:``."""
        with pytest.raises(SystemExit) as exc:
            main(["classify", lex3_doc, *cap])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: caps must be positive\n"

    def test_raw_cayley_document(self, capsys, tmp_path):
        doc = {
            "family": "raw_cayley",
            "degree": 5,
            "generators": ["(1 2 3)", "(1 2 3 4 5)"],
            "a": "(1 2 3)",
            "b": "(3 4 5)",
            "h_conjugator": "(1 4)(2 5)",
        }
        path = write_doc(tmp_path, "rawc.json", doc)
        status, out, _ = run(capsys, "construct", path)
        assert status == 0
        assert json.loads(out)["pair"]["n_vertices"] == 60

    def test_raw_cayley_conjugator_not_normalising_refuted(self, capsys, tmp_path):
        doc = {"family": "raw_cayley", "degree": 5, "generators": ["(1 2 3 4 5)"],
               "a": "(1 2 3 4 5)", "b": "(1 3 5 2 4)", "h_conjugator": "(1 2)"}
        status, out, err = run(capsys, "construct", write_doc(tmp_path, "rawc.json", doc))
        assert (status, err) == (1, "")
        assert json.loads(out)["clause"] == "cayley:h_on_group"

    def test_raw_coset_subgroup_outside_group_refuted(self, capsys, tmp_path):
        doc = {
            "family": "raw_coset",
            "degree": 5,
            "group_generators": ["(1 2 3)", "(1 2 3 4 5)"],
            "subgroup_generators": ["(1 2)"],
            "s": "(1 2 3)",
        }
        status, out, err = run(capsys, "construct", write_doc(tmp_path, "k.json", doc))
        assert (status, err) == (1, "")
        report = json.loads(out)
        assert report["clause"] == "coset:subgroup_in_group"
        assert report["detail"] == "(1 2) is not in the group"

    def test_simple_cayley_a_outside_group_refuted(self, capsys, tmp_path):
        doc = {
            "family": "simple_cayley",
            "degree": 5,
            "generators": ["(1 2 3)", "(1 2 3 4 5)"],
            "a": "(1 2)",
            "sigma": "(1 4)(2 5)",
        }
        status, out, err = run(capsys, "construct", write_doc(tmp_path, "sc.json", doc))
        assert (status, err) == (1, "")
        assert json.loads(out)["clause"] == "simple_cayley:a_in_group"

    # T = Alt(5) on {1..5} at degree 6; (2 3 4 5 6) moves point 6, so it lies
    # outside T, though with the other element it generates a group of order
    # |T| (Alt(5) on {2..6}) for tw and pa.
    OUTSIDE_T = {
        "tw:generates": {"family": "tw_cayley", "a": "(2 3 4)", "b": "(2 3 4 5 6)",
                         "aut_supergroup_generators": ["(1 2)", "(1 2 3 4 5)"]},
        "pa:generates": {"family": "pa", "a": "(2 3)(4 5)", "b": "(2 3 4 5 6)",
                         "centralizer_supergroup_generators": ["(1 2)", "(1 2 3 4 5)"]},
        "coset_simple:generates": {"family": "coset_simple", "h": "(1 4)(2 5)",
                                   "g": "(2 3 4 5 6)"},
    }

    @pytest.mark.parametrize("clause", sorted(OUTSIDE_T))
    def test_element_outside_group_refuted(self, capsys, tmp_path, clause):
        doc = {"degree": 6, "generators": ["(1 2 3)", "(1 2 3 4 5)"], **self.OUTSIDE_T[clause]}
        status, out, err = run(capsys, "construct", write_doc(tmp_path, "out.json", doc))
        assert (status, err) == (1, "")
        report = json.loads(out)
        assert report["clause"] == clause
        assert report["detail"] == "(2 3 4 5 6) is not in the group"

    # T = Alt(5) and a supergroup Sym(4) that names only points 1..4: it is
    # read at T's degree, so the verdict is the same with "degree" or
    # without.  (1 3)(2 4) swaps tw's a and b; no row of Sym(4) fixes pa's a
    # and sends b to b·a.
    SHORT_INVENTORY = {
        "tw:no_swapping_automorphism": {
            "family": "tw_cayley", "a": "(3 4 5)", "b": "(1 2 5)",
            "aut_supergroup_generators": ["(1 2)", "(1 2 3 4)"]},
        "pa:b_not_conjugate_to_ba": {
            "family": "pa", "a": "(2 3)(4 5)", "b": "(1 2 4 3 5)",
            "centralizer_supergroup_generators": ["(1 2)", "(1 2 3 4)"]},
    }

    @pytest.mark.parametrize("degree", [None, 5])
    @pytest.mark.parametrize("clause", sorted(SHORT_INVENTORY))
    def test_inventory_read_at_the_degree_of_t(self, capsys, tmp_path, clause, degree):
        doc = {"generators": ["(1 2 3)", "(1 2 3 4 5)"], **self.SHORT_INVENTORY[clause]}
        if degree is not None:
            doc["degree"] = degree
        status, out, err = run(capsys, "verify", write_doc(tmp_path, "inv.json", doc))
        assert (status, err) == (1, "")
        assert json.loads(out)["clause"] == clause

    @pytest.mark.parametrize("clause", sorted(SHORT_INVENTORY))
    def test_inventory_past_the_degree_of_t(self, capsys, tmp_path, clause):
        doc = {"generators": ["(1 2 3)", "(1 2 3 4 5)"], **self.SHORT_INVENTORY[clause]}
        key = next(k for k in doc if k.endswith("_supergroup_generators"))
        doc[key] = ["(1 2)", "(1 2 3 4 6)"]
        status, out, err = run(capsys, "verify", write_doc(tmp_path, "inv.json", doc))
        assert (status, out) == (2, "")
        assert err == "error: point 6 exceeds degree 5\n"

    def test_raw_coset_document(self, capsys, tmp_path):
        doc = {
            "family": "raw_coset",
            "degree": 5,
            "group_generators": ["(1 2 3)", "(1 2 3 4 5)"],
            "subgroup_generators": ["(1 4)(2 5)"],
            "s": "(1 2 3)",
        }
        path = write_doc(tmp_path, "rawk.json", doc)
        status, out, _ = run(capsys, "construct", path)
        assert status == 0
        assert json.loads(out)["pair"]["n_vertices"] == 30

    @pytest.mark.parametrize("seed", [("100", "1"), ("0", "1"), ("1", "7")])
    def test_seed_arc_out_of_range(self, capsys, tmp_path, seed):
        doc = {"degree": 6, "generators": ["(1 2 3 4 5 6)"]}
        status, out, err = run(capsys, "verify", write_doc(tmp_path, "orb.json", doc),
                               "--seed-arc", *seed)
        assert (status, out) == (2, "")
        assert err == "error: seed point out of range for degree 6\n"
