"""The small-action certificate of an emitted pair document.

``construct`` emits the pair's small action S beside the vertex generators
('action_generators').  ``verify`` of that document proves |X| <= |S| for
the vertex group X from the pairing (``perm.paired_order_bound``), closes
X's chain by that bound and keeps S as X's action.  The chain is the
Schreier-checked one; a pairing that is not a homomorphism, a bound that is
not tight, or a pairing whose images miss a vertex falls back to the
document's path without the field, with the same report."""

import contextlib
import io
import json
from collections import Counter

import numpy as np
import pytest

import og4
import og4.cli
from og4 import Permutation, _kernels, enumerate_group, format_cycles, parse_permutation
from og4.cli import parse_pair_document, render_pair_document

SMALL = ["coset_simple", "sym_bigstab(5)", "sym_bigstab(7)", "tw_cayley", "pa"]
TW_DOC = {"family": "tw_cayley", "degree": 5, "generators": ["(1 2 3)", "(1 2 3 4 5)"],
          "a": "(1 2 3)", "b": "(1 2 3 4 5)",
          "aut_supergroup_generators": ["(1 2)", "(1 2 3 4 5)"]}
PA_DOC = {"family": "pa", "degree": 5, "generators": ["(1 2 3)", "(1 2 3 4 5)"],
          "a": "(1 2)(3 4)", "b": "(1 5 4 3 2)",
          "centralizer_supergroup_generators": ["(1 2)", "(1 2 3 4 5)"]}


@pytest.fixture(scope="module")
def documents(all_pairs):
    """name -> the pair document ``construct`` emits, for the corpus pairs
    that hold a small action."""
    return {name: render_pair_document(pair) for name, pair in all_pairs if name in SMALL}


def run_cli(tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = og4.cli.main([command, str(path)])
    return status, out.getvalue(), err.getvalue()


def without_action(doc):
    return {k: v for k, v in doc.items() if k != "action_generators"}


def assert_falls_back(tmp_path, doc, commands=("verify",)):
    """The document gives the reports it gives without the field, and its
    group keeps no small action."""
    for command in commands:
        assert run_cli(tmp_path, command, doc) == run_cli(tmp_path, command, without_action(doc))
    assert parse_pair_document(doc)[1].action is None


def small_group(doc):
    return enumerate_group(og4.cli._padded([parse_permutation(t)
                                            for t in doc["action_generators"]]))


class TestOracle:
    def test_emitted_only_with_an_action(self, all_pairs, documents):
        assert sorted(documents) == sorted(SMALL)
        for name, pair in all_pairs:
            doc = render_pair_document(pair)
            assert ("action_generators" in doc) == (name in SMALL), name
            if name in SMALL:
                assert doc["action_generators"] == [
                    format_cycles(g) for g in pair.group.action.generators], name
                assert len(doc["action_generators"]) == len(doc["generators"]), name

    def test_certified_chain_is_the_checked_chain(self, documents):
        """Base, orbits, order, first stabiliser and table of the chain
        closed by the certificate equal the Schreier-checked chain's; the
        orbits below the top as sets, since the two search them from
        different strong generators."""
        for name, doc in documents.items():
            group = parse_pair_document(doc)[1]
            assert group.action is not None and group.action.order == group.order, name
            got = group._chain
            want = _kernels.close_under_products(group.gen_rows(), group.order)
            assert got.base == want.base and got.order == want.order, name
            assert got.orbits[0].tobytes() == want.orbits[0].tobytes(), name
            for a, b in zip(got.orbits[1:], want.orbits[1:]):
                assert set(a.tolist()) == set(b.tolist()), name
            assert got.first_stabiliser().tobytes() == want.first_stabiliser().tobytes(), name
            assert got.table().tobytes() == want.table().tobytes(), name

    def test_bound_is_the_small_order(self, documents):
        for name, doc in documents.items():
            small = small_group(doc)
            gens = [parse_permutation(t, doc["n_vertices"]) for t in doc["generators"]]
            assert og4.paired_order_bound(small, gens) == small.order, name


class TestMutants:
    """Certificates that must not be trusted: the reports are those of the
    document without the field, and the group keeps no small action."""

    @pytest.mark.parametrize("name", ["coset_simple", "sym_bigstab(5)", "pa"])
    def test_swapped_generators(self, tmp_path, documents, name):
        """The first two action generators swapped: their orders differ from
        those of the vertex generators they are now paired with, so the
        pairing is not a homomorphism and some edge of S's Cayley graph
        fails the check."""
        doc = dict(documents[name])
        texts = list(doc["action_generators"])
        texts[0], texts[1] = texts[1], texts[0]
        doc["action_generators"] = texts
        gens = [parse_permutation(t, doc["n_vertices"]) for t in doc["generators"]]
        rows = np.asarray([g.images for g in gens])
        assert og4.perm._paired_images(small_group(doc), rows, [0]) is None
        assert og4.paired_order_bound(small_group(doc), gens) is None
        assert_falls_back(tmp_path, doc, ("verify", "classify"))

    @pytest.mark.parametrize("name", ["coset_simple", "sym_bigstab(5)"])
    def test_bound_twice_the_order(self, tmp_path, schreier_checks, documents, name):
        """Each action generator times a transposition on two new points
        generates S x Z2: the pairing holds and proves the bound 2|X|, which
        the chain does not reach, so it is built with the Schreier check."""
        doc = dict(documents[name])
        small = small_group(doc)
        d = small.degree
        doc["action_generators"] = [t + f"({d + 1} {d + 2})" for t in doc["action_generators"]]
        assert small_group(doc).order == 2 * small.order
        group = parse_pair_document(doc)[1]
        assert group.order == small.order and group.action is None
        assert schreier_checks[doc["n_vertices"]]
        assert_falls_back(tmp_path, doc, ("verify", "classify"))

    def test_images_miss_a_vertex(self, tmp_path, documents):
        """The coset_simple vertex generators extended to two more vertices,
        the first swapping them: the group has order 120 = 2|S| and is not
        transitive.  The pairing holds on the orbit of vertex 0 but its
        images miss the new vertices, so it proves nothing; trusted, the
        bound 60 would be false.  ``verify`` refutes vertex transitivity
        as without the field."""
        doc = dict(documents["coset_simple"])
        n = doc["n_vertices"]
        gens = list(doc["generators"])
        gens[0] += f"({n + 1} {n + 2})"
        doc.update(generators=gens, n_vertices=n + 2)
        del doc["labels"]
        vertex = [parse_permutation(t, n + 2) for t in gens]
        assert enumerate_group(vertex).order == 120
        assert og4.paired_order_bound(small_group(doc), vertex) is None
        status, out, _ = run_cli(tmp_path, "verify", doc)
        assert status == 1 and json.loads(out)["clause"] == "og:vertex_transitive"
        assert_falls_back(tmp_path, doc)


class TestNoVertexDegreeWork:
    @pytest.mark.parametrize("spec", [TW_DOC, PA_DOC], ids=["tw_cayley", "pa"])
    def test_verify_builds_no_checked_chain_at_vertex_degree(self, tmp_path, schreier_checks,
                                                              spec):
        status, out, _ = run_cli(tmp_path, "construct", spec)
        assert status == 0
        pair_doc = json.loads(out)["pair"]
        schreier_checks.clear()
        status, out, _ = run_cli(tmp_path, "verify", pair_doc)
        assert status == 0
        assert json.loads(out)["certificate"]["group_order"] == 7200
        assert schreier_checks.keys() == {10}, schreier_checks  # S alone

    @pytest.mark.parametrize("spec", [TW_DOC, PA_DOC], ids=["tw_cayley", "pa"])
    def test_classify_runs_in_the_small_action(self, tmp_path, monkeypatch, spec):
        """``classify`` of the emitted pair gives the spec's report and
        gathers no table at the vertex degree."""
        status, out, _ = run_cli(tmp_path, "construct", spec)
        pair_doc = json.loads(out)["pair"]
        gathered = Counter()
        real = _kernels.StabiliserChain.table

        def counting(chain):
            gathered[chain.degree] += 1
            return real(chain)

        monkeypatch.setattr(_kernels.StabiliserChain, "table", counting)
        status, got, _ = run_cli(tmp_path, "classify", pair_doc)
        assert status == 0
        assert not gathered.keys() & {1800, 3600}, gathered
        want = json.loads(run_cli(tmp_path, "classify", spec)[1])
        got = json.loads(got)
        assert got["basic_type"] == want["basic_type"] == "Quasiprimitive"
        assert got["quotients"] == want["quotients"]
        assert got["certificate"] == want["certificate"]

    def test_classify_builds_the_conjugation_maps_once(self, tmp_path, monkeypatch):
        """``classify`` of the pa spec builds the conjugation maps of its G,
        of order 7200, once: the coset checks build them on G, and the
        lattice runs in G itself."""
        builds = Counter()
        real = og4.perm._conjugation_maps

        def counting(group):
            builds[group.order] += group._conjugation is None
            return real(group)

        monkeypatch.setattr(og4.perm, "_conjugation_maps", counting)
        status, out, _ = run_cli(tmp_path, "classify", PA_DOC)
        assert status == 0 and json.loads(out)["basic_type"] == "Quasiprimitive"
        assert builds[7200] == 1, builds


def test_bound_needs_one_generator_per_generator():
    small = og4.alternating_group(5)
    assert og4.paired_order_bound(small, [parse_permutation("(1 2 3)", 5)]) is None
    assert og4.paired_order_bound(small, list(small.generators)) == 60
