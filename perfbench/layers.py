"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions listed in ``LAYERS``
with timing wrappers, in the defining module and in every ``macposet``
module that imported the function by name, so no source under ``src/``
changes.  Each wrapped call is a span; a layer's self time is the sum of
its spans' durations minus the time covered by spans nested in them.
Spans are folded into per-layer totals as they close, so memory stays
flat however many calls a pass makes.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer, module, public names).  Tiny helpers called inside inner
# loops (ideals.divides, macaulay.shadow_masks, core shadows) are left
# unwrapped: their cost stays in the caller's self time.
LAYERS = (
    ("cli", "cli", ("run_command", "build_parser")),
    ("expr", "expr", ("parse_expression", "evaluate", "parse_order",
                      "resolve_order", "print_expression", "print_order")),
    ("construct", "construct", ("path", "box", "spider", "disjoint_union",
                                "wedge", "diamond", "fiber_product",
                                "cartesian_product", "adjoin_extreme",
                                "remove_extreme", "relabel_swap_xy",
                                "restrict_to_factors")),
    ("construct", "classify", ("build_heart",)),
    ("ideals", "ideals", ("ideal_from_generators", "pure_power_ideal",
                          "ideal_sum", "ideal_intersection", "ideal_contains",
                          "quotient_is_finite", "standard_monomials_by_degree",
                          "standard_monomial_poset", "inclusion_map",
                          "parse_monomial")),
    ("orders", "orders", ("order_from_lists", "lex_order",
                          "union_simplicial_order", "heart_label_set",
                          "twist_order", "restrict_order", "initial_segment",
                          "final_segment")),
    ("kernels", "kernels", ("level_min_shadows",)),
    ("macaulay.table", "macaulay", ("min_shadow_table",)),
    ("macaulay.check", "macaulay", ("check_macaulay", "new_shadow")),
    ("macaulay.search", "macaulay", ("find_macaulay_order",)),
    ("macaulay.additive", "macaulay", ("is_additive",)),
    ("classify", "classify", ("heart_predicate", "heart_order_choice",
                              "resolve_heart_order", "diamond_box_predicate",
                              "wedge_box_predicate", "verify_heart_grid",
                              "verify_diamond_grid", "verify_wedge_grid",
                              "union_simplicial_equivalence_check",
                              "hat_preservation_report", "equivalence_suite",
                              "y_poset", "ring_product_factor",
                              "conj66_quotient_ideal",
                              "cartesian_counterexamples", "verify_family",
                              "two_variable_quotients", "staircase_ideal",
                              "conjecture_6_7_search")),
    ("serialize", "serialize", ("poset_to_text", "poset_from_text",
                                "order_lists_to_text", "order_lists_from_text",
                                "fibermap_from_text", "build_report",
                                "report_to_bytes", "write_report")),
)

# kernel self time is split by level width n (2^n subsets per call)
WIDTH_BANDS = (("w01-08", 8), ("w09-16", 16), ("w17-24", None))


def width_band(n: int) -> str:
    return next(name for name, top in WIDTH_BANDS if top is None or n <= top)


class Tracer:
    """Span bookkeeping for one process.  ``self_s`` maps a span name to
    its summed self time; ``counts`` holds the work counters."""

    def __init__(self):
        self.self_s = {}
        self.counts = {}
        self.absent = []
        self._stack = []  # one [child seconds] cell per open span
        self._depth = {}  # open spans per layer, to count outermost only
        self._kernel_inputs = set()
        self._restore = []

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _span(self, name, layer, fn, args, kwargs, on_result):
        cell = [0.0]
        self._stack.append(cell)
        self._depth[layer] = self._depth.get(layer, 0) + 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            self._depth[layer] -= 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - cell[0]
            if self._stack:
                self._stack[-1][0] += dur
        self.count(name + ".calls")
        if on_result is not None:
            on_result(out, self._depth[layer] == 0)
        return out

    def _wrapper(self, layer, fn):
        on_result = getattr(self, "_on_" + layer.replace(".", "_"), None)
        if layer == "kernels":
            @functools.wraps(fn)
            def traced(masks, *args, **kwargs):
                n = len(masks)
                self.count("kernels.subsets." + width_band(n), 1 << n)
                self._kernel_inputs.add((masks.shape, masks.tobytes())
                                        if hasattr(masks, "tobytes") else repr(masks))
                return self._span("kernels." + width_band(n), layer, fn,
                                  (masks,) + args, kwargs, None)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self._span(layer, layer, fn, args, kwargs, on_result)
        return traced

    # counters read from return values; ``outer`` is False for a call
    # nested in another call of the same layer
    def _on_construct(self, out, outer):
        poset = getattr(out, "poset", out)
        self.count("construct.elements", getattr(poset, "n", 0))

    def _on_macaulay_search(self, out, outer):
        self.count("macaulay.search.nodes", out.stats.nodes)
        self.count("macaulay.search." + out.status.replace("-", "_"))

    def _on_classify(self, out, outer):
        if outer and hasattr(out, "rows"):
            self.count("classify.rows", len(out.rows))

    def _on_serialize(self, out, outer):
        if isinstance(out, (bytes, str)):
            self.count("serialize.bytes", len(out))

    def install(self):
        """Wrap every listed name that exists; layers with no wrappable
        name are recorded in ``absent`` rather than failing."""
        mods = {k: v for k, v in sys.modules.items()
                if k == "macposet" or k.startswith("macposet.")}
        wrapped = {}
        for layer, modname, names in LAYERS:
            home = mods.get("macposet." + modname)
            wrapped.setdefault(layer, 0)
            for name in names:
                fn = getattr(home, name, None)
                if not callable(fn):
                    continue
                traced = self._wrapper(layer, fn)
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, traced)
                            self._restore.append((mod, attr, fn))
                wrapped[layer] += 1
        self.absent = [layer for layer, n in wrapped.items() if not n]

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-layer self seconds and counters of everything traced so far."""
        out = {"self_s": dict(self.self_s), "counts": dict(self.counts),
               "absent": list(self.absent)}
        calls = sum(v for k, v in self.counts.items()
                    if k.startswith("kernels.w") and k.endswith(".calls"))
        out["counts"]["kernels.distinct_inputs"] = len(self._kernel_inputs)
        out["counts"]["kernels.calls"] = calls
        return out
