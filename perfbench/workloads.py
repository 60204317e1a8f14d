"""Workload definitions: input documents, operation lists and closed forms.

A workload is a fixed list of CLI operations over the corpus of
``tests/conftest.py``.  The seed relabels the points {1..5} of the Alt(5)
specs and shuffles the order of operations in a pass; it changes no answer.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

ALT5 = ["(1 2 3)", "(1 2 3 4 5)"]
SYM5 = ["(1 2)", "(1 2 3 4 5)"]

# Alt(5)-based specs: every cycle-notation string is relabelled by the seed.
_ALT5_SPECS = {
    "simple_cayley": {"family": "simple_cayley", "degree": 5, "generators": ALT5,
                      "a": "(1 2 3)", "sigma": "(1 4)(2 5)"},
    "coset_simple": {"family": "coset_simple", "degree": 5, "generators": ALT5,
                     "h": "(1 4)(2 5)", "g": "(1 2 3)"},
    "tw_cayley": {"family": "tw_cayley", "degree": 5, "generators": ALT5,
                  "a": "(1 2 3)", "b": "(1 2 3 4 5)", "aut_supergroup_generators": SYM5},
    "pa": {"family": "pa", "degree": 5, "generators": ALT5,
           "a": "(1 2)(3 4)", "b": "(1 5 4 3 2)", "centralizer_supergroup_generators": SYM5},
}

# The lex_cycle(3) pair document as `construct` emits it.  The malformed
# documents corrupt one field of it; they do not depend on the seed.
LEX3_PAIR = {
    "n_vertices": 6,
    "generators": ["(1 3 5)(2 4 6)", "(1 2)"],
    "arcs": [[1, 3], [1, 4], [2, 3], [2, 4], [3, 5], [3, 6],
             [4, 5], [4, 6], [5, 1], [5, 2], [6, 1], [6, 2]],
    "labels": ["(0,0)", "(0,1)", "(1,0)", "(1,1)", "(2,0)", "(2,1)"],
}

# name -> (command, document, how the program mishandles it today)
MALFORMED = {
    "bad_n_vertices": ("verify", {**LEX3_PAIR, "n_vertices": "6"}, "TypeError"),
    "bad_arc": ("verify", {**LEX3_PAIR, "arcs": [["1", 2]] + LEX3_PAIR["arcs"][1:]},
                "TypeError"),
    "bool_r": ("construct", {"family": "lex_cycle", "r": True}, "lex_cycle:r_ge_3"),
}

LEX = [f"lex_cycle({r})" for r in range(3, 9)]
FAMILIES = LEX + ["simple_cayley", "coset_simple", "sym_bigstab(5)", "sym_bigstab(7)",
                  "tw_cayley", "pa"]


def fixed_ops(workload: str) -> list[tuple[str, str]]:
    """(command, input name) in canonical order, before the seeded shuffle."""
    if workload == "lattice":
        return ([("classify", f) for f in LEX + ["simple_cayley", "coset_simple",
                                                  "sym_bigstab(5)"]]
                + [("chain", f) for f in ["simple_cayley"] + LEX[:-1]])
    if workload == "wide":
        return [("classify", "sym_bigstab(7)"), ("classify", "pa")]
    if workload == "build":
        ops = []
        for f in FAMILIES:
            ops += [("construct", f), ("verify", f"pair:{f}"), ("analyze", f)]
        return ops + [(cmd, name) for name, (cmd, _, _) in MALFORMED.items()]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("lattice", "wide", "build")


def seeded_ops(workload: str, seed: int) -> list[tuple[str, str]]:
    """The pass order for this seed.  Each `verify` of an emitted pair still
    follows the `construct` that emits it."""
    ops = fixed_ops(workload)
    random.Random(seed).shuffle(ops)
    pos = {op: i for i, op in enumerate(ops)}
    for cmd, name in list(ops):
        if cmd == "verify" and name.startswith("pair:"):
            i, j = pos[(cmd, name)], pos[("construct", name[5:])]
            if i < j:
                ops[i], ops[j] = ops[j], ops[i]
                pos[ops[i]], pos[ops[j]] = i, j
    return ops


def relabel(text: str, pi: list[int]) -> str:
    """Replace each point k of a cycle-notation string by pi[k - 1]."""
    return re.sub(r"\d+", lambda m: str(pi[int(m.group()) - 1]), text)


def point_relabeling(seed: int) -> list[int]:
    return random.Random(f"relabel:{seed}").sample(range(1, 6), 5)


def spec(family: str, pi: list[int]) -> dict:
    m = re.fullmatch(r"(lex_cycle|sym_bigstab)\((\d+)\)", family)
    if m:
        key = "r" if m.group(1) == "lex_cycle" else "n"
        return {"family": m.group(1), key: int(m.group(2))}
    doc = {}
    for k, v in _ALT5_SPECS[family].items():
        if isinstance(v, list):
            v = [relabel(s, pi) for s in v]
        elif k != "family" and isinstance(v, str):
            v = relabel(v, pi)
        doc[k] = v
    return doc


def write_inputs(workload: str, seed: int, directory: Path) -> None:
    """Write every input document the workload reads (not the emitted pairs)."""
    directory.mkdir(parents=True, exist_ok=True)
    pi = point_relabeling(seed)
    for _, name in fixed_ops(workload):
        if name.startswith("pair:"):
            continue
        doc = MALFORMED[name][1] if name in MALFORMED else spec(name, pi)
        (directory / input_file(name)).write_text(json.dumps(doc, sort_keys=True))


def input_file(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]+", "_", name).strip("_") + ".json"


def closed_form(family: str) -> dict:
    """|V|, |G|, |G_v| and basic type of each corpus pair, from the paper's
    constructions rather than from the program."""
    m = re.fullmatch(r"(lex_cycle|sym_bigstab)\((\d+)\)", family)
    if m and m.group(1) == "lex_cycle":
        r = int(m.group(2))
        return {"V": 2 * r, "G": r * 2 ** r, "Gv": 2 ** (r - 1), "type": "Cycle"}
    if m:
        n = int(m.group(2))
        gv = 2 ** ((n - 1) // 2)
        return {"V": math.factorial(n) // gv, "G": math.factorial(n), "Gv": gv,
                "type": "Quasiprimitive"}
    return {
        "simple_cayley": {"V": 60, "G": 120, "Gv": 2, "type": "NonBasic"},
        # Alt(5) is simple and transitive on the 30 cosets: quasiprimitive.
        "coset_simple": {"V": 30, "G": 60, "Gv": 2, "type": "Quasiprimitive"},
        "tw_cayley": {"V": 3600, "G": 7200, "Gv": 2, "type": "Quasiprimitive"},
        "pa": {"V": 1800, "G": 7200, "Gv": 4, "type": "Quasiprimitive"},
    }[family]
