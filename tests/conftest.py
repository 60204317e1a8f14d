from collections import Counter

import pytest

import og4
import og4.cli
from og4 import parse_permutation as P


@pytest.fixture
def schreier_checks(monkeypatch):
    """A counter, by degree, of the Schreier checks of chain levels
    (``_kernels._Candidate.first_failure`` calls) the test makes."""
    checks, real = Counter(), og4._kernels._Candidate.first_failure

    def check(cand):
        checks[cand.below.shape[1]] += 1
        return real(cand)

    monkeypatch.setattr(og4._kernels._Candidate, "first_failure", check)
    return checks


@pytest.fixture(scope="session")
def alt5():
    return og4.alternating_group(5)


@pytest.fixture(scope="session")
def sym5():
    return og4.symmetric_group(5)


@pytest.fixture(scope="session")
def lex_pairs():
    return {r: og4.lexicographic_cycle(r) for r in range(3, 9)}


@pytest.fixture(scope="session")
def sc_pair(alt5):
    return og4.simple_cayley(alt5, P("(1 2 3)", 5), P("(1 4)(2 5)", 5))


@pytest.fixture(scope="session")
def cs_pair(alt5):
    return og4.coset_simple(alt5, P("(1 4)(2 5)", 5), P("(1 2 3)", 5))


@pytest.fixture(scope="session")
def sym5_pair():
    return og4.sym_bigstab(5)


@pytest.fixture(scope="session")
def sym7_pair():
    return og4.sym_bigstab(7)


@pytest.fixture(scope="session")
def tw_pair(alt5, sym5):
    return og4.tw_cayley(
        alt5, P("(1 2 3)", 5), P("(1 2 3 4 5)", 5), og4.conjugation_inventory(sym5)
    )


@pytest.fixture(scope="session")
def pa_pair(alt5, sym5):
    return og4.pa_construction(
        alt5, P("(1 2)(3 4)", 5), P("(1 5 4 3 2)", 5), og4.conjugation_inventory(sym5)
    )


@pytest.fixture(scope="session")
def all_pairs(lex_pairs, sc_pair, cs_pair, sym5_pair, sym7_pair, tw_pair, pa_pair):
    pairs = [(f"lex_cycle({r})", p) for r, p in lex_pairs.items()]
    pairs += [
        ("simple_cayley", sc_pair),
        ("coset_simple", cs_pair),
        ("sym_bigstab(5)", sym5_pair),
        ("sym_bigstab(7)", sym7_pair),
        ("tw_cayley", tw_pair),
        ("pa", pa_pair),
    ]
    return pairs


# raw_coset documents of the basic type and the quotient kind that no pair of
# all_pairs reaches: Alt(5) wr S2 on 10 points gives a Biquasiprimitive pair
# on 3,600 vertices, and Z2 wr D6 on 6 points a NonBasic pair on 24 vertices
# with UnorientedCycle quotients.  Kept out of all_pairs for tier-1 time.
WREATH_DOCS = {
    "Alt(5) wr S2": {
        "family": "raw_coset",
        "group_generators": ["(1 2 3)", "(1 2 3 4 5)", "(6 7 8)", "(6 7 8 9 10)",
                             "(1 6)(2 7)(3 8)(4 9)(5 10)"],
        "subgroup_generators": ["(1 5)(2 3)(6 7)(9 10)"],
        "s": "(1 9 4 8 2 6 3 10 5 7)",
    },
    "Z2 wr D6": {
        "family": "raw_coset",
        "group_generators": ["(1 3 5)(2 4 6)", "(3 5)(4 6)", "(1 2)"],
        "subgroup_generators": ["(1 2)(3 6)(4 5)"],
        "s": "(1 4 2 3)(5 6)",
    },
}


@pytest.fixture(scope="session")
def wreath_pairs():
    return [(name, og4.cli.build_from_document(doc)) for name, doc in WREATH_DOCS.items()]


def cyclic_square_doc(n):
    """The raw_cayley document on Z_n x Z_n = <(1 .. n), (n+1 .. 2n)>, with
    a and b the two cycles and h swapping them, (1 n+1)(2 n+2)...(n 2n)."""
    a = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    b = "(" + " ".join(str(i) for i in range(n + 1, 2 * n + 1)) + ")"
    h = "".join(f"({i} {n + i})" for i in range(1, n + 1))
    return {"family": "raw_cayley", "generators": [a, b], "a": a, "b": b, "h_conjugator": h}


# NonBasic pairs whose cover kernels nest, so that the largest cover kernel,
# the basic quotients and the covers of a cover quotient differ: Z12 x Z12
# has 16 cover kernels, of which 6 lie in no larger one.  Kept out of
# all_pairs for tier-1 time.
CYCLIC_SQUARE_DOCS = {f"Z{n}^2": cyclic_square_doc(n) for n in (4, 6, 8, 12)}


@pytest.fixture(scope="session")
def cyclic_square_pairs():
    return [(name, og4.cli.build_from_document(doc)) for name, doc in CYCLIC_SQUARE_DOCS.items()]


@pytest.fixture(scope="session")
def pairs_and_covers(all_pairs):
    """``all_pairs`` followed by the certified quotient pair of each Cover
    among their normal quotients."""
    covers = [
        (f"{name} / N of order {n.order}", out.quotient_pair)
        for name, pair in all_pairs
        for n, out in og4.classify_all_quotients(pair)
        if out.kind == "Cover"
    ]
    assert covers
    return all_pairs + covers


@pytest.fixture(scope="session")
def construction_groups(alt5, sym5):
    """The groups the named constructions compute in, by name."""
    a, b = P("(1 2 3)", 5), P("(1 2 3 4 5)", 5)
    pa_gens = [og4.embed_pair(t, og4.identity(5)) for t in alt5.generators]
    return [
        ("Alt(5)", alt5),
        ("Sym(5)", sym5),
        ("Sym(7)", og4.symmetric_group(7)),
        ("tw N", og4.enumerate_group([og4.embed_pair(a, b), og4.embed_pair(b, a)])),
        ("pa G", og4.enumerate_group(pa_gens + [og4.constructions.block_swap(5)])),
    ]


@pytest.fixture(scope="session")
def corpus_groups(all_pairs, construction_groups):
    """(name, group): each corpus pair's acting group, then the construction
    groups."""
    return [(name, pair.group) for name, pair in all_pairs] + construction_groups


@pytest.fixture(scope="session")
def narrow_groups(corpus_groups):
    """``corpus_groups`` without the tw_cayley and pa acting groups, whose
    7200 rows of degree 3600 and 1800 make the byte-keyed oracles slow."""
    return [(name, g) for name, g in corpus_groups if name not in ("tw_cayley", "pa")]


# ---------------------------------------------------------------------------
# acceptance reporting: one PASS/FAIL line per criterion, printed in the
# terminal summary so it survives output capture

_acceptance_results: dict[int, bool] = {}


def record_acceptance(criterion: int, ok: bool) -> None:
    _acceptance_results[criterion] = _acceptance_results.get(criterion, True) and ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.write_line("")
    for n in sorted(_acceptance_results):
        verdict = "PASS" if _acceptance_results[n] else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {n}: {verdict}")
