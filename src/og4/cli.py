"""Command-line front end.

Subcommands: construct | verify | classify | quotient | chain | analyze |
export.  Inputs are JSON documents (construction specs or raw pair files);
reports are deterministic JSON, text, or DOT.  Exit codes: 0 verified or
constructed, 1 refuted, 2 usage / parse / cap error.

Permutations in documents use 1-based cycle notation; vertex numbers in
documents are 1-based.  All internal indices are 0-based.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from . import constructions as cons
from .analysis import (
    DEFAULT_SARC_CAP,
    alternating_structure,
    s_arc_report,
    stabilizer_report,
)
from .graph import (
    ConstructionRefuted,
    OGPair,
    OrientedGraph,
    certify_og,
    export_dot,
    orbital_graph,
)
from .perm import (
    DEFAULT_CAP,
    EnumerationCapExceeded,
    OG4Error,
    Permutation,
    TableBudgetExceeded,
    cycle_strings,
    enumerate_group,
    paired_order_bound,
    parse_permutation,
)
from .quotient import _basic_type, basic_chain, classify_all_quotients

FAMILIES = (
    "lex_cycle",
    "simple_cayley",
    "tw_cayley",
    "coset_simple",
    "sym_bigstab",
    "pa",
    "raw_cayley",
    "raw_coset",
)


class UsageError(OG4Error):
    pass


# ---------------------------------------------------------------------------
# documents


def _parse_gens(doc: dict, key: str, degree: Optional[int]) -> list:
    gens = doc.get(key)
    if not isinstance(gens, list) or not gens or not all(isinstance(g, str) for g in gens):
        raise UsageError(f"document needs a nonempty list of strings {key!r}")
    return [parse_permutation(g, degree) for g in gens]


def _doc_degree(doc: dict) -> Optional[int]:
    d = doc.get("degree")
    if d is not None and (type(d) is not int or d < 1):
        raise UsageError("degree must be a positive integer")
    return d


def _doc_gens(doc: dict, key: str = "generators") -> list[Permutation]:
    return _padded(_parse_gens(doc, key, _doc_degree(doc)))


def _padded(gens: list[Permutation]) -> list[Permutation]:
    """The generators at their greatest degree: a generator parsed short of
    it fixes the points above it."""
    degree = max(g.degree for g in gens)
    return [g if g.degree == degree
            else Permutation(g.images.tolist() + list(range(g.degree, degree)))
            for g in gens]


def _doc_group(doc: dict, cap: int, key: str = "generators"):
    return enumerate_group(_doc_gens(doc, key), cap)


def _doc_perm(doc: dict, key: str, degree: int):
    text = doc.get(key)
    if not isinstance(text, str):
        raise UsageError(f"document needs a cycle-notation string field {key!r}")
    return parse_permutation(text, degree)


def build_from_document(doc: dict, cap: int = DEFAULT_CAP) -> OGPair:
    family = doc.get("family")
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
    if family == "lex_cycle":
        r = doc.get("r")
        if type(r) is not int:
            raise UsageError("lex_cycle needs an integer field 'r'")
        return cons.lexicographic_cycle(r, cap)
    if family == "sym_bigstab":
        n = doc.get("n")
        if type(n) is not int:
            raise UsageError("sym_bigstab needs an integer field 'n'")
        return cons.sym_bigstab(n, cap)
    if family == "simple_cayley":
        group = _doc_group(doc, cap)
        a = _doc_perm(doc, "a", group.degree)
        sigma = _doc_perm(doc, "sigma", group.degree)
        return cons.simple_cayley(group, a, sigma, cap)
    if family == "tw_cayley":
        group = _doc_group(doc, cap)
        a = _doc_perm(doc, "a", group.degree)
        b = _doc_perm(doc, "b", group.degree)
        sup = _doc_group({**doc, "degree": group.degree}, cap, "aut_supergroup_generators")
        return cons.tw_cayley(group, a, b, cons.conjugation_inventory(sup), cap)
    if family == "coset_simple":
        group = _doc_group(doc, cap)
        h = _doc_perm(doc, "h", group.degree)
        g = _doc_perm(doc, "g", group.degree)
        return cons.coset_simple(group, h, g, cap)
    if family == "pa":
        group = _doc_group(doc, cap)
        a = _doc_perm(doc, "a", group.degree)
        b = _doc_perm(doc, "b", group.degree)
        sup = _doc_group({**doc, "degree": group.degree}, cap, "centralizer_supergroup_generators")
        return cons.pa_construction(group, a, b, cons.conjugation_inventory(sup), cap)
    if family == "raw_cayley":
        group = _doc_group(doc, cap)
        a = _doc_perm(doc, "a", group.degree)
        b = _doc_perm(doc, "b", group.degree)
        if "h_conjugator" in doc:
            c = _doc_perm(doc, "h_conjugator", group.degree)
            try:
                h = cons.GroupAutomorphism.from_conjugation(group, c)
            except OG4Error:
                raise ConstructionRefuted("cayley:h_on_group",
                                          "h is not an automorphism of N") from None
        elif "h_generator_images" in doc:
            images = _parse_gens(doc, "h_generator_images", group.degree)
            h = cons.GroupAutomorphism.from_generator_images(
                group, list(group.generators), images
            )
            if h is None:
                raise ConstructionRefuted(
                    "cayley:h_homomorphic",
                    "generator images do not extend to an automorphism",
                )
        else:
            raise UsageError("raw_cayley needs 'h_conjugator' or 'h_generator_images'")
        return cons.build_cayley(cons.CayleySpec(group, a, b, h), cap)
    # raw_coset
    group = _doc_group(doc, cap, "group_generators")
    sub = _doc_group({**doc, "degree": group.degree}, cap, "subgroup_generators")
    s = _doc_perm(doc, "s", group.degree)
    return cons.build_coset_graph(cons.CosetSpec(group, sub, s), cap)


def parse_pair_document(doc: dict, cap: int = DEFAULT_CAP,
                        seed_arc: Optional[tuple[int, int]] = None
                        ) -> tuple[OrientedGraph, Any, Optional[list[str]]]:
    """Raw pair document -> (graph, group, labels).  Vertices are 1-based in
    the document.  Without an 'arcs' field the graph is the canonical (or
    seeded) orbital graph of the group.

    With 'action_generators', the group's small action S as ``construct``
    emits it, S is enumerated under the same cap, and its pairing with the
    generators is checked to prove |group| <= |S| (``paired_order_bound``).
    The group's chain is then closed by that bound, and if it closes at |S|
    the group keeps S as its ``action``.  The field is never trusted: if
    the proof or the chain does not close, or S is over the cap, the group
    is built as without it, with the same result."""
    gens = _doc_gens(doc)
    small = _doc_action(doc, gens, cap)
    group = enumerate_group(gens, cap, None if small is None else small.order)
    if small is not None and group.order == small.order:
        group.action = small
    labels = doc.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or len(labels) != group.degree
        or not all(isinstance(s, str) for s in labels)
    ):
        raise UsageError("labels must list one string per vertex")
    arcs = doc.get("arcs")
    if arcs is None:
        graph = orbital_graph(group, seed_arc)
        return graph, group, labels
    if not isinstance(arcs, list):
        raise UsageError("arcs must be a list of [x, y] pairs")
    n = doc.get("n_vertices", group.degree)
    if type(n) is not int or n < 1:
        raise UsageError("n_vertices must be a positive integer")
    return OrientedGraph(n, _doc_arcs(arcs)), group, labels


def _doc_arcs(arcs: list) -> np.ndarray:
    """A document's 1-based [x, y] arc entries as a 0-based (m, 2) int64
    array.  The entries' types are checked in one pass and the diagonal on
    the array; a list that fails either check is walked entry by entry, so
    that its first offending entry names the error.  An endpoint past int64
    is out of range."""
    pairs = None
    if set(map(type, arcs)) <= {list} and set(map(len, arcs)) <= {2}:
        flat = list(chain.from_iterable(arcs))
        if set(map(type, flat)) <= {int}:
            try:
                pairs = np.array(flat, dtype=np.int64).reshape(-1, 2)
            except OverflowError:
                pass
    if pairs is None or (pairs[:, 0] == pairs[:, 1]).any():
        for a in arcs:
            if not (type(a) is list and len(a) == 2 and all(type(v) is int for v in a)):
                raise UsageError(f"bad arc entry {a!r}")
            if a[0] == a[1]:
                raise UsageError(f"diagonal arc {a!r}")
        raise OG4Error("arc endpoint out of range")
    return pairs - 1


def _doc_action(doc: dict, gens: list[Permutation], cap: int):
    """The group S that the document's 'action_generators' generate, if
    pairing them with ``gens`` proves |<gens>| <= |S|
    (``paired_order_bound``).  None if the document has no such field, S
    has more than ``cap`` elements or too large a table, or the proof
    fails."""
    texts = doc.get("action_generators")
    if texts is None:
        return None
    if (not isinstance(texts, list) or len(texts) != len(gens)
            or not all(isinstance(t, str) for t in texts)):
        raise UsageError("action_generators must list one cycle-notation string per generator")
    try:
        small = enumerate_group(_padded([parse_permutation(t) for t in texts]), cap)
        return small if paired_order_bound(small, gens) else None
    except (EnumerationCapExceeded, TableBudgetExceeded):
        return None


def render_pair_document(pair: OGPair) -> dict:
    doc: dict[str, Any] = {
        "n_vertices": pair.graph.n_vertices,
        "generators": cycle_strings(pair.group.gen_rows()),
        "arcs": (pair.graph.arcs + 1).tolist(),
    }
    if pair.labels is not None:
        doc["labels"] = list(pair.labels)
    if pair.group.action is not None:
        doc["action_generators"] = cycle_strings(pair.group.action.gen_rows())
    return doc


# ---------------------------------------------------------------------------
# reports


def _certificate_dict(pair: OGPair) -> dict:
    c = pair.certificate
    return {
        "vertex_transitive": c.vertex_transitive,
        "edge_transitive": c.edge_transitive,
        "orientation_preserved": c.orientation_preserved,
        "connected": c.connected,
        "valency": c.valency,
        "stabilizer_order": c.stabilizer_order,
        "group_order": pair.group.order,
    }


def _quotient_dict(n_sub, outcome) -> dict:
    d: dict[str, Any] = {
        "normal_subgroup_order": n_sub.order,
        "kind": outcome.kind,
    }
    if outcome.partition is not None:
        d["n_blocks"] = outcome.partition.n_blocks
    if outcome.multicover_degree is not None:
        d["multicover_degree"] = outcome.multicover_degree
    if outcome.quotient_valency is not None:
        d["quotient_valency"] = outcome.quotient_valency
    if outcome.cycle_length is not None:
        d["cycle_length"] = outcome.cycle_length
    return d


def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "dot":
        out.write(report["dot"])
    elif fmt == "text":
        for line in _text_lines(report, 0):
            out.write(line + "\n")
    else:
        out.writelines(_json_chunks(report))
        out.write("\n")


def _json_chunks(obj: Any, pad: str = "") -> Iterator[str]:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2)``, byte for
    byte, in pieces, with its continuation lines indented by ``pad``.
    Lists and string-keyed dicts are written here: a list of ints or of
    strings with one join, and a list of equal-length int lists with one
    format over the flattened values of each block of 1024 lists.
    Everything else is left to ``json.dumps``.  Written piece by piece, a
    report never has a second copy in memory."""
    inner = pad + "  "
    sep = ",\n" + inner
    if type(obj) is list and obj:
        yield "[\n" + inner
        types = set(map(type, obj))
        if types == {int}:
            yield sep.join(map(str, obj))
        elif types == {str}:
            yield sep.join(map(encode_basestring_ascii, obj))
        elif (types == {list} and len(set(map(len, obj))) == 1 and obj[0]
              and set(map(type, flat := list(chain.from_iterable(obj)))) == {int}):
            k = len(obj[0])
            item = "[\n" + inner + "  " + (sep + "  ").join(["%d"] * k) + "\n" + inner + "]"
            for lo in range(0, len(flat), 1024 * k):
                block = flat[lo:lo + 1024 * k]
                yield (sep if lo else "") + sep.join([item] * (len(block) // k)) % tuple(block)
        else:
            for i, v in enumerate(obj):
                yield sep if i else ""
                yield from _json_chunks(v, inner)
        yield "\n" + pad + "]"
    elif type(obj) is dict and obj and set(map(type, obj)) == {str}:
        yield "{\n" + inner
        for i, (key, v) in enumerate(sorted(obj.items())):
            yield (sep if i else "") + encode_basestring_ascii(key) + ": "
            yield from _json_chunks(v, inner)
        yield "\n" + pad + "}"
    else:
        yield json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _text_lines(obj: Any, depth: int) -> list[str]:
    pad = "  " * depth
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, depth + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(v, depth + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


# ---------------------------------------------------------------------------
# commands


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not JSON, or an int past 4300 digits
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("document root must be an object")
    return doc


def _obtain_pair(args) -> OGPair:
    """Construction documents are built; raw pair documents are certified."""
    doc = _load_document(args.input)
    if "family" in doc:
        return build_from_document(doc, args.max_order)
    seed = tuple(v - 1 for v in args.seed_arc) if args.seed_arc else None
    graph, group, labels = parse_pair_document(doc, args.max_order, seed)
    return certify_og(graph, group, 4, labels)


def _cmd_construct(args) -> dict:
    pair = _obtain_pair(args)
    return {
        "command": "construct",
        "ok": True,
        "certificate": _certificate_dict(pair),
        "pair": render_pair_document(pair),
    }


def _cmd_verify(args) -> dict:
    return {"command": "verify", "ok": True, "certificate": _certificate_dict(_obtain_pair(args))}


def _cmd_classify(args) -> dict:
    pair = _obtain_pair(args)
    results = classify_all_quotients(pair)
    return {
        "command": "classify",
        "ok": True,
        "basic_type": _basic_type(pair, results),
        "certificate": _certificate_dict(pair),
        "quotients": [_quotient_dict(n, o) for n, o in results],
    }


def _cmd_quotient(args) -> dict:
    pair = _obtain_pair(args)
    results = classify_all_quotients(pair)
    return {
        "command": "quotient",
        "ok": True,
        "quotients": [_quotient_dict(n, o) for n, o in results],
    }


def _cmd_chain(args) -> dict:
    pair = _obtain_pair(args)
    chain, terminal, classified = basic_chain(pair)
    return {
        "command": "chain",
        "ok": True,
        "basic_type_of_terminal": _basic_type(terminal, classified),
        "kernel_orders": [n.order for n, _ in chain],
        "terminal": {
            "n_vertices": terminal.graph.n_vertices,
            "group_order": terminal.group.order,
        },
    }


def _cmd_analyze(args) -> dict:
    pair = _obtain_pair(args)
    alt = alternating_structure(pair)
    sarcs = s_arc_report(pair, args.max_sarcs)
    stab = stabilizer_report(pair)
    return {
        "command": "analyze",
        "ok": True,
        "alternating": {
            "n_cycles": len(alt.cycles),
            "common_length": alt.common_length,
            "attachment_number": alt.attachment_number,
            "attachment_kind": alt.attachment_kind,
        },
        "s_arcs": {
            "max_s": sarcs.max_s,
            "counts": list(sarcs.counts),
            "regular_on_max": sarcs.regular_on_max,
            "lower_bound": sarcs.lower_bound,
        },
        "stabilizer": {
            "order": stab.order,
            "is_2group": stab.is_2group,
            "elementary_abelian": stab.elementary_abelian,
            "nilpotency_class": stab.nilpotency_class,
        },
    }


def _cmd_export(args) -> dict:
    pair = _obtain_pair(args)
    return {
        "command": "export",
        "ok": True,
        "dot": export_dot(pair.graph, pair.labels),
    }


_COMMANDS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
    "quotient": _cmd_quotient,
    "chain": _cmd_chain,
    "analyze": _cmd_analyze,
    "export": _cmd_export,
}


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The CLI's parser.  When ``argv`` starts with a command, only that
    command's subparser is added, since argparse reads no other; the list of
    commands is then given as the metavar, so every usage, help and error
    text is the full parser's."""
    parser = argparse.ArgumentParser(
        prog="og4",
        description="Construct, verify, classify, and analyze oriented "
        "4-valent edge-transitive graph-group pairs.",
    )
    lean = argv[:1] and argv[0] in _COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}" if lean else None)
    for name in argv[:1] if lean else _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("input", help="JSON construction spec or pair document")
        p.add_argument("--max-order", type=int, default=DEFAULT_CAP,
                       help="group enumeration cap (default 10^6)")
        p.add_argument("--max-sarcs", type=int, default=DEFAULT_SARC_CAP,
                       help="s-arc enumeration cap (default 10^7)")
        p.add_argument("--format", choices=("json", "text", "dot"), default="json")
        p.add_argument("--seed-arc", type=int, nargs=2, metavar=("X", "Y"),
                       help="1-based orbital seed pair for arc-less pair documents")
        p.add_argument("--output", help="write the report here instead of stdout")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    args = parser.parse_args(argv)
    if args.max_order <= 0 or args.max_sarcs <= 0:
        parser.exit(2, "error: caps must be positive\n")
    if args.command == "export" and args.format == "json":
        args.format = "dot"
    try:
        report, status = _COMMANDS[args.command](args), 0
    except ConstructionRefuted as exc:
        report = {
            "command": args.command,
            "ok": False,
            "clause": exc.clause,
            "detail": exc.detail,
        }
        status = 1
    except OG4Error as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.format == "dot" and "dot" not in report:
        sys.stderr.write("error: --format dot is only available for 'export'\n")
        return 2
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                _emit(report, args.format, fh)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {args.output}: {exc}\n")
            return 2
    else:
        _emit(report, args.format, sys.stdout)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
