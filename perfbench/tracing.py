"""Outside-in tracing of the fuzzycoarse layers.

The tracer wraps the public functions of the ``space``, ``covers``,
``asdim``, ``coarse``, ``config`` and ``cli`` modules, plus
``FuzzyMetricSpace.value``, ``_raw`` and ``ball_points`` on the class.
A wrapped function is rebound in every ``fuzzycoarse`` module that holds
the same object, because modules import each other's functions by name
(``asdim`` holds ``scale_multiplicity``, ``coarse`` holds
``verify_witness``, ``config`` and ``cli`` hold both).

Most wrappers record a span (name, start, end, parent) in memory.  The
helpers in ``COUNT_ONLY`` run once per point or pair, up to millions of
times a pass; they are counted, not timed, so their time stays in their
caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

LAYERS = ("space", "covers", "asdim", "coarse", "config", "cli")
METHODS = ("value", "_raw", "ball_points")
COUNT_ONLY = {
    "space._raw",
    "space.region_intersects",
    "covers.min_intra_pair",
    "covers.max_cross_pair",
    "config.point_to_json",
    "config.point_from_json",
}

# Inclusive-time groups: outermost spans of these functions, summed.
GROUPS = {
    "space.check_axioms_s": ("space.check_axioms",),
    "covers.scale_multiplicity_s": ("covers.scale_multiplicity",),
    "covers.lebesgue_s": ("covers.first_lebesgue_violation", "covers.has_lebesgue_pair"),
    "covers.refinement_s": ("covers.first_refinement_violation", "covers.refines"),
    "covers.extremal_s": ("covers.family_max_cross", "covers.family_min_intra"),
    "asdim.verify_witness_s": ("asdim.verify_witness",),
    "asdim.construct_s": ("asdim.witness_reciprocal_product", "asdim.witness_ratio_minmax",
                          "asdim.witness_ball_partition", "asdim.witness_whole_window"),
    "asdim.ball_partition_s": ("asdim.witness_ball_partition",),
    "coarse.modulus_s": ("coarse.check_uniformly_expansive",
                         "coarse.check_effectively_proper"),
    "coarse.onto_s": ("coarse.check_coarsely_onto",),
    "coarse.inverse_s": ("coarse.coarse_inverse",),
    "config.witness_write_s": ("config.witness_to_json", "config.dump_json"),
    "config.witness_read_s": ("config.load_json_file", "config.witness_from_json"),
}
GROUPS_OF = {}
for _group, _members in GROUPS.items():
    for _member in _members:
        GROUPS_OF.setdefault(_member, []).append(_group)

# Counters fed from a wrapped function's result.
SIZE_HOOKS = {
    "covers.scale_neighborhood": "covers.neighborhood_points",
    "space.ball_points": "covers.neighborhood_points",
    "config.dump_json": "config.witness_bytes",
}
REGION_HITS = "space.region_hits"
ROOT = "bench.op"


def _hook_size(result):
    return len(result.encode("utf-8")) if isinstance(result, str) else len(result)


class Tracer:
    """Span store and counters for one traced pass at a time."""

    def __init__(self):
        self.names = [ROOT]
        self.name_ids = {ROOT: 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op = [0]
        self.counts = {}
        self.installed = False
        self._root = self._span_wrapper(lambda call: call(), ROOT)

    # -- recording -------------------------------------------------------

    def reset(self):
        for arr in (self.span_name, self.span_parent, self.span_op,
                    self.span_start, self.span_end):
            del arr[:]
        self.stack[:] = [-1]
        for key in self.counts:
            self.counts[key] = 0

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _span_wrapper(self, fn, name):
        nid = self._name_id(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack, op = self.span_start, self.span_end, self.stack, self.op
        clock = time.perf_counter
        counts = self.counts
        sink = SIZE_HOOKS.get(name)
        if sink is not None:
            counts.setdefault(sink, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(op[0])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if sink is not None:
                counts[sink] += _hook_size(result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts
        counts[name] = 0
        if name == "space.region_intersects":
            counts[REGION_HITS] = 0

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                hit = fn(*args, **kwargs)
                counts[name] += 1
                if hit:
                    counts[REGION_HITS] += 1
                return hit

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, name):
        if name in COUNT_ONLY:
            return self._count_wrapper(fn, name)
        return self._span_wrapper(fn, name)

    def install(self):
        """Wrap every layer's public functions and the three space methods."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "fuzzycoarse" or key.startswith("fuzzycoarse."))]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"fuzzycoarse.{layer}"]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        cls = sys.modules["fuzzycoarse.space"].FuzzyMetricSpace
        for attr in METHODS:
            setattr(cls, attr, self._wrap(getattr(cls, attr), f"space.{attr}"))
        self.installed = True

    def run_op(self, op_index, call):
        """Run one op under a root span, so every span names its op."""
        self.op[0] = op_index
        return self._root(call)

    # -- derived metrics -------------------------------------------------

    def summary(self) -> dict:
        """Self time per layer, group times and call counts of this pass."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {}
        for i in range(n):
            name = self.names[names[i]]
            calls[name] = calls.get(name, 0) + 1
            layer = layer_of[names[i]]
            if layer in self_s:
                self_s[layer] += dur[i] - child[i]

        groups = {group: 0.0 for group in GROUPS}
        for i in range(n):
            for group in GROUPS_OF.get(self.names[names[i]], ()):
                p = parents[i]
                while p >= 0 and group not in GROUPS_OF.get(self.names[names[p]], ()):
                    p = parents[p]
                if p < 0:
                    groups[group] += dur[i]

        counts = dict(self.counts)
        for name, k in calls.items():
            counts[name] = counts.get(name, 0) + k
        return {"self_s": self_s, "groups": groups, "counts": counts}

    def write_spans(self, path):
        """Write the recorded spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\top\tparent\tstart_s\tend_s\n")
            base = self.span_start[0] if len(self.span_start) else 0.0
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.span_op[i]}\t"
                         f"{self.span_parent[i]}\t{self.span_start[i] - base!r}\t"
                         f"{self.span_end[i] - base!r}\n")
