"""Spans around the calls into each og4 layer, recorded from outside.

``install`` replaces every public function of the seven layer modules by a
wrapper that records a span, under every name it is reachable by (the
modules import each other's functions by name).  Spans are kept in memory
with a link to the enclosing span and written out when the traced CLI call
ends; ``aggregate`` turns the written spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "cli": "og4.cli",
    "constructions": "og4.constructions",
    "graph": "og4.graph",
    "quotient": "og4.quotient",
    "analysis": "og4.analysis",
    "perm": "og4.perm",
    "kernels": "og4._kernels",
}
# _kernels binds each kernel under several names; these are the dispatched ones.
KERNELS = ("close_under_products", "point_orbit_labels", "arc_orbit_labels")

# Spans reported with calls and inclusive seconds, and with seconds only.
CALLS_AND_S = {
    "kernels": KERNELS,
    "perm": ("all_normal_subgroups", "conjugacy_classes", "minimal_normal_subgroups",
             "quasiprimitivity_type", "enumerate_group", "group_from_table", "index_build",
             "is_normal_in", "induced_block_action", "point_stabilizer",
             "is_nonabelian_simple", "from_conjugation"),
    "quotient": ("classify_all_quotients", "classify_og4_quotient", "normal_quotient",
                 "basic_type", "basic_chain"),
    "graph": ("verify_og", "certify_og", "connectivity", "OrientedGraph"),
    "constructions": ("build_cayley", "build_coset_graph", "coset_space",
                      "double_coset_graph"),
}
S_ONLY = {
    "analysis": ("alternating_structure", "s_arc_report", "stabilizer_report",
                 "nilpotency_class"),
    "cli": ("build_from_document", "parse_pair_document", "render_pair_document"),
}
# name -> function of the result giving the span's count
COUNTED = {
    "kernels.close_under_products": lambda rows: 0 if rows is None else len(rows),
    "perm.all_normal_subgroups": len,
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    units = {}
    for layer, names in CALLS_AND_S.items():
        for n in names:
            units[f"{layer}.{n}.calls"] = "count"
            units[f"{layer}.{n}.s"] = "s"
    units["kernels.close_under_products.rows"] = "count"
    units["perm.all_normal_subgroups.found"] = "count"
    units["perm.all_normal_subgroups.yield"] = "ratio"
    for layer, names in S_ONLY.items():
        for n in names:
            units[f"{layer}.{n}.s"] = "s"
    units["cli.report_bytes"] = "bytes"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # [name id, index of the enclosing span or -1, start, end, count]
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        nid = len(self.names)
        self.names.append(name)
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, open_[-1] if open_ else -1, 0.0, 0.0, 0]
            open_.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    rec[4] = count(out)
                return out
            finally:
                rec[3] = clock()
                open_.pop()

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the layer functions in the imported og4 modules, in place."""
    swap = {}
    for layer, modname in LAYERS.items():
        mod = sys.modules[modname]
        names = KERNELS if layer == "kernels" else [
            n for n, f in vars(mod).items()
            if inspect.isfunction(f) and f.__module__ == modname and not n.startswith("_")
        ]
        for n in names:
            fn = getattr(mod, n)
            swap[fn] = tracer.wrap(f"{layer}.{n}", fn, COUNTED.get(f"{layer}.{n}"))
    for modname, mod in list(sys.modules.items()):
        if modname == "og4" or modname.startswith("og4."):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in swap:
                    setattr(mod, attr, swap[val])
    perm, graph = sys.modules["og4.perm"], sys.modules["og4.graph"]
    aut = perm.GroupAutomorphism
    aut.from_conjugation = staticmethod(tracer.wrap("perm.from_conjugation",
                                                    aut.from_conjugation))
    graph.OrientedGraph.__init__ = tracer.wrap("graph.OrientedGraph",
                                               graph.OrientedGraph.__init__)
    # A span only for the access that builds the element index.
    plain = perm.PermGroup.index.fget
    build = tracer.wrap("perm.index_build", plain)
    perm.PermGroup.index = property(
        lambda self: build(self) if self._index is None else plain(self))


def aggregate(span_files, n_passes: int) -> dict[str, float]:
    """Per-pass per-layer metrics from the written spans (all but
    cli.report_bytes and trace.overhead_s, which the caller measures)."""
    calls, incl, counts = defaultdict(int), defaultdict(float), defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    main_s = 0.0
    closures_in_lattice = 0
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        names = data["names"]
        spans = data["spans"]
        covered = [0.0] * len(spans)
        for _, parent, t0, t1, _ in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        for i, (nid, parent, t0, t1, count) in enumerate(spans):
            name = names[nid]
            layer_self[name.split(".", 1)[0]] += (t1 - t0) - covered[i]
            calls[name] += 1
            counts[name] += count
            if parent < 0:
                main_s += t1 - t0
            ancestors = set()
            while parent >= 0:
                ancestors.add(names[spans[parent][0]])
                parent = spans[parent][1]
            if name not in ancestors:  # inclusive time of the outermost span only
                incl[name] += t1 - t0
            if name == "kernels.close_under_products" and "perm.all_normal_subgroups" in ancestors:
                closures_in_lattice += 1
    if abs(sum(layer_self.values()) - main_s) > 1e-6 * max(1.0, main_s):
        raise ValueError("layer self times do not add up to the time in og4.cli.main")
    out = {}
    for layer, names in CALLS_AND_S.items():
        for n in names:
            out[f"{layer}.{n}.calls"] = calls[f"{layer}.{n}"] / n_passes
            out[f"{layer}.{n}.s"] = incl[f"{layer}.{n}"] / n_passes
    out["kernels.close_under_products.rows"] = counts["kernels.close_under_products"] / n_passes
    found = counts["perm.all_normal_subgroups"]
    out["perm.all_normal_subgroups.found"] = found / n_passes
    out["perm.all_normal_subgroups.yield"] = found / closures_in_lattice if closures_in_lattice else 0.0
    for layer, names in S_ONLY.items():
        for n in names:
            out[f"{layer}.{n}.s"] = incl[f"{layer}.{n}"] / n_passes
    for layer, total in layer_self.items():
        out[f"{layer}.self_s"] = total / n_passes
    return out
