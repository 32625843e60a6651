"""Spans around topolab's public functions, installed from outside the
library for the traced run only.

`Tracer.install` replaces each function listed in SPANS, in every topolab
module namespace that binds it (aliases and tuples such as cli_io.SUITES
included), and the FiniteSpace constructor on its class.  `uninstall` puts
every original back.  A span records its name, start, end, parent span and
the query (request) it belongs to; spans stay in memory until `write`.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from functools import wraps

# (module, function, metric stem or None).  A stem's "_s" metric is the
# time inside the outermost spans that carry it, so recursion and nesting
# are not counted twice.
SPANS = (
    ("core_space", "from_poset", "core_space.from_poset"),
    ("core_space", "check_continuous", "core_space.check_continuous"),
    ("core_space", "enumerate_continuous_maps", "core_space.maps_enum"),
    ("core_space", "find_homeomorphism", "core_space.homeo"),
    ("families", "point_closures", None),
    ("families", "directed_closures", "families.directed_closures"),
    ("families", "irreducible_closed", "families.irreducible_closed"),
    ("families", "rudin_sets", "families.rudin_sets"),
    ("families", "k_family", None),
    ("families", "rudin_witness_search", None),
    ("hyperspaces", "lower_vietoris", "hyperspaces.lower_vietoris"),
    ("hyperspaces", "smyth_power", "hyperspaces.smyth_power"),
    ("hyperspaces", "eta", "hyperspaces.eta"),
    ("hyperspaces", "xi", None),
    ("reflections", "reflect", "reflections.reflect"),
    ("reflections", "extend", None),
    ("reflections", "functor_map", None),
    ("reflections", "universal_property_report", "reflections.universal_property"),
    ("reflections", "sober_target_catalog", "reflections.catalog"),
    ("reflections", "d_completion", None),
    ("products_properties", "predicates", "products_properties.predicates"),
    ("products_properties", "satisfies_category", "products_properties.satisfies_category"),
    ("products_properties", "product", "products_properties.product"),
    ("products_properties", "check_product_reflection", "products_properties.product_reflection"),
    ("products_properties", "check_kspace_product", None),
    ("products_properties", "check_smyth_category", None),
    ("symbolic", "sym_reflect", None),
    ("symbolic", "sym_predicates", None),
    ("symbolic", "sym_family", None),
    ("symbolic", "sym_space_iso", None),
    ("symbolic", "sym_product_irr", None),
    ("cli_io", "main", None),
    ("cli_io", "parse", "cli_io.parse"),
    ("cli_io", "render", "cli_io.render"),
    ("cli_io", "render_json", "cli_io.render"),
    ("cli_io", "render_dot", "cli_io.render"),
    ("cli_io", "to_jsonable", "cli_io.render"),
    ("cli_io", "verify", None),
    ("cli_io", "random_space", None),
) + tuple(
    ("cli_io", f"suite_{name}", f"cli_io.suite.{name}")
    for name in ("finite_collapse", "cofinite_example", "omega_chain",
                 "universal_property", "closure_formula", "product_theorems",
                 "rudin_witness", "transfer", "structural")
)
CONSTRUCTOR = ("core_space", "FiniteSpace", "core_space.validate")
LAYERS = ("core_space", "families", "hyperspaces", "reflections",
          "products_properties", "symbolic", "cli_io")
CALL_COUNTS = {  # metric -> span whose calls it counts
    "core_space.check_continuous_calls": "core_space.check_continuous",
    "core_space.homeo_calls": "core_space.find_homeomorphism",
    "products_properties.satisfies_category_calls": "products_properties.satisfies_category",
}
COUNTS = ("core_space.spaces_built", "core_space.opens_validated",
          "core_space.maps_candidates", "core_space.maps_kept",
          "families.members_out", "hyperspaces.hyper_opens", "cli_io.checks_skipped")


# Counts recorded at the span boundary, from the call's arguments and result.
def _count_space(counts, args, result):
    counts["core_space.spaces_built"] += 1
    counts["core_space.opens_validated"] += len(args[0].opens)


def _count_maps(counts, args, result):
    x, y = args[0], args[1]
    counts["core_space.maps_candidates"] += y.n ** x.n
    counts["core_space.maps_kept"] += len(result)


def _count_homeo(counts, args, result):
    counts["core_space.homeo_found"] += result is not None


def _count_members(counts, args, result):
    counts["families.members_out"] += len(getattr(result, "family", result).members)


def _count_hyper(counts, args, result):
    counts["hyperspaces.hyper_opens"] += len(result.space.opens)


def _count_skips(counts, args, result):
    counts["cli_io.checks_skipped"] += result.skipped


AFTER = {
    "core_space.FiniteSpace": _count_space,
    "core_space.enumerate_continuous_maps": _count_maps,
    "core_space.find_homeomorphism": _count_homeo,
    "families.point_closures": _count_members,
    "families.directed_closures": _count_members,
    "families.irreducible_closed": _count_members,
    "families.rudin_sets": _count_members,
    "families.k_family": _count_members,
    "hyperspaces.lower_vietoris": _count_hyper,
}
AFTER.update({f"cli_io.{fn}": _count_skips for _, fn, _ in SPANS if fn.startswith("suite_")})


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "topolab" or name.startswith("topolab."))]


class Tracer:
    """One traced run: wrappers, the span arrays and the counts."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.request = array("l")
        self.outer = array("b")   # 1 when no enclosing span has the same stem
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.current_request = -1
        self._stack = [-1]
        self._depth: Counter = Counter()
        self._stems: list = []
        self._wrappers: dict = {}  # id(original) -> wrapper
        self._saved: list = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str, stem):
        nid = len(self.names)
        self.names.append(name)
        self._stems.append(stem)
        after = AFTER.get(name)
        stack, depth, counts = self._stack, self._depth, self.counts
        name_id, parent, request = self.name_id, self.parent, self.request
        outer, start, end, clock = self.outer, self.start, self.end, time.perf_counter

        @wraps(fn)
        def span(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            request.append(self.current_request)
            outer.append(depth[stem] == 0)
            depth[stem] += 1
            stack.append(idx)
            start.append(clock())
            end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                depth[stem] -= 1
            if after is not None:
                after(counts, args, result)
            return result

        span.__perfbench_span__ = name
        return span

    def install(self) -> None:
        """Bind the wrappers; they are made on the first call and reused, so
        a tracer can be installed and uninstalled around each query."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _modules()
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        module, cls_name, stem = CONSTRUCTOR
        cls = getattr(by_name[module], cls_name)
        if not self._wrappers:
            for mod, attr, fn_stem in SPANS:
                fn = getattr(by_name[mod], attr)
                self._wrappers[id(fn)] = self._wrap(fn, f"{mod}.{attr}", fn_stem)
            self._wrappers[id(cls.__init__)] = self._wrap(
                cls.__init__, f"{module}.{cls_name}", stem)
        wrappers = self._wrappers
        for m in modules:
            for attr, value in list(vars(m).items()):
                if id(value) in wrappers:
                    replacement = wrappers[id(value)]
                elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                    replacement = tuple(wrappers.get(id(v), v) for v in value)
                else:
                    continue
                self._saved.append((m, attr, value))
                setattr(m, attr, replacement)
        self._saved.append((cls, "__init__", cls.__init__))
        cls.__init__ = wrappers[id(cls.__init__)]

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer self time and calls, stem times, counts and ratios."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [name.partition(".")[0] for name in self.names]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for stem in {stem for stem in self._stems if stem}:
            out[f"{stem}_s"] = 0.0
        calls_by_name = Counter()
        for i in range(n):
            nid = self.name_id[i]
            layer = layer_of[nid]
            out[f"{layer}.self_s"] += dur[i] - child[i]
            out[f"{layer}.calls"] += 1
            calls_by_name[self.names[nid]] += 1
            stem = self._stems[nid]
            if stem and self.outer[i]:
                out[f"{stem}_s"] += dur[i]
        for metric, name in CALL_COUNTS.items():
            out[metric] = calls_by_name[name]
        for key in COUNTS:
            out[key] = self.counts[key]
        out["core_space.maps_kept_ratio"] = _ratio(
            self.counts["core_space.maps_kept"], self.counts["core_space.maps_candidates"])
        out["core_space.homeo_found_ratio"] = _ratio(
            self.counts["core_space.homeo_found"], out["core_space.homeo_calls"])
        return out

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: request, parent, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("#span\trequest\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.start)):
                handle.write(f"{i}\t{self.request[i]}\t{self.parent[i]}\t"
                             f"{names[self.name_id[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
