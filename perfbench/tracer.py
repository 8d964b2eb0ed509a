"""Outside-in tracer: wraps qtlie's layer functions without editing qtlie.

Layers are qtlie modules.  Coarse layer functions get spans (id, parent id,
name, start, end) kept in memory in flat arrays and written out at the end.
Field operations are too frequent for a span each (a functor pass makes
about a million), so they get aggregated counters instead; their time is
subtracted from the enclosing span's self time and counted as cyclo's.

``verify`` and ``cuspidal`` bind names with ``from .x import f``, so a
function is replaced in every ``qtlie.*`` namespace that holds it, not only
in its defining module.  ``torus`` and ``xmatrix`` are small helpers and are
not wrapped: their time counts in their caller's self time.
"""
from __future__ import annotations

import gzip
import sys
import time
from array import array

# Field operations: (class attribute, counter name).  Every attribute of the
# class bound to the same function is replaced too (``__rmul__ = __mul__``).
FIELD_OPS = (
    ("__mul__", "cyclo.mul"),
    ("__add__", "cyclo.add"),
    ("__sub__", "cyclo.sub"),
    ("inverse", "cyclo.inverse"),
)

# Coarse layer functions: (module, owner class or None, attribute, span name).
# Besides the functions that have metrics of their own, every entry point
# through which another module calls into a layer is wrapped, so that self
# time lands in the layer that does the work.
SPANS = (
    ("matrices", "ExactMatrix", "__init__", "matrices.init"),
    ("matrices", "ExactMatrix", "__mul__", "matrices.mul"),
    ("matrices", "ExactMatrix", "__add__", "matrices.add"),
    ("matrices", "ExactMatrix", "__sub__", "matrices.sub"),
    ("matrices", "ExactMatrix", "__eq__", "matrices.eq"),
    ("matrices", "ExactMatrix", "is_zero", "matrices.is_zero"),
    ("matrices", "ExactMatrix", "scale", "matrices.scale"),
    ("matrices", "ExactMatrix", "submatrix", "matrices.submatrix"),
    ("matrices", "ExactMatrix", "apply", "matrices.apply"),
    ("matrices", "ExactMatrix", "rref", "matrices.rref"),
    ("matrices", "ExactMatrix", "kernel", "matrices.kernel"),
    ("matrices", "ExactMatrix", "solve", "matrices.solve"),
    ("matrices", "ExactMatrix", "inverse", "matrices.inverse"),
    ("matrices", "RowSpace", "add", "matrices.rowspace.add"),
    ("matrices", "RowSpace", "contains", "matrices.rowspace.contains"),
    ("derivations", None, "bracket_d", "derivations.bracket_d"),
    ("derivations", None, "bracket_witt", "derivations.bracket_witt"),
    ("derivations", None, "derivations_to_witt", "derivations.derivations_to_witt"),
    ("derivations", None, "deriv_along", "derivations.deriv_along"),
    ("derivations", None, "inner_product", "derivations.inner_product"),
    ("jetalg", None, "bracket_jets", "jetalg.bracket_jets"),
    ("jetalg", None, "canonical_keys", "jetalg.canonical_keys"),
    ("repn", None, "graded_regular_glN", "repn.graded_regular_glN"),
    ("repn", None, "natural_gld", "repn.natural_gld"),
    ("repn", None, "pullback", "repn.pullback"),
    ("repn", None, "verify_representation", "repn.verify_representation"),
    ("repn", None, "commutant", "repn.commutant"),
    ("repn", None, "scramble_representation", "repn.scramble_representation"),
    ("repn", None, "decompose_tensor", "repn.decompose_tensor"),
    ("repn", None, "spin_up", "repn.spin_up"),
    ("repn", "GLdGLNModule", "validate", "repn.validate"),
    ("repn", "GRepresentation", "__init__", "repn.rep_init"),
    ("repn", "GRepresentation", "__eq__", "repn.rep_eq"),
    ("repn", "GRepresentation", "nonzero_keys", "repn.nonzero_keys"),
    ("repn", "GRepresentation", "rho_element", "repn.rho_element"),
    ("repn", "GradedSpace", "block", "repn.block"),
    ("cuspidal", None, "build_module", "cuspidal.build_module"),
    ("cuspidal", None, "verify_module_axioms", "cuspidal.verify_module_axioms"),
    ("cuspidal", None, "extract_coefficients", "cuspidal.extract_coefficients"),
    ("cuspidal", None, "coefficients_to_representation", "cuspidal.coefficients_to_representation"),
    ("cuspidal", "_WeightModuleBase", "act", "cuspidal.act"),
    ("cuspidal", "_WeightModuleBase", "act_terms", "cuspidal.act_terms"),
    ("cuspidal", "OperatorFamily", "matrix_D", "cuspidal.matrix_D"),
    ("cuspidal", "OperatorFamily", "matrix_L", "cuspidal.matrix_L"),
)

# Root spans: the set-up and each job.  Their self time is time spent in
# the benchmark's job code and the verify suite bodies, outside every layer.
ROOTS = ("setup", "verify.job")


def _max_bits(matrix) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for row in matrix.data for x in row for c in x.coeffs), default=0)


class Tracer:
    """Counters, spans and self times for one traced process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.names = list(ROOTS) + [name for *_, name in SPANS]
        self.name_index = {name: i for i, name in enumerate(self.names)}
        # per span name: [calls, outermost inclusive seconds, nesting depth]
        self.stats = {name: [0, 0.0, 0] for name in self.names}
        # per field op: [calls, seconds of calls not inside another field op]
        self.field = {name: [0, 0.0] for _, name in FIELD_OPS}
        self.field_depth = [0]
        self.layer_self = {}
        # finished spans, in completion order
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.next_id = 0
        # open frames: [span id, seconds covered by children and field ops]
        self.stack = [[-1, 0.0]]
        self.counts = {"matrices.rref.cells": 0, "matrices.rref.rows": 0, "matrices.rref.rank": 0,
                       "matrices.rref.max_bits": 0, "matrices.rowspace.useful": 0,
                       "jetalg.bracket_jets.terms_out": 0}
        self.hooks = {
            "matrices.rref": self._after_rref,
            "matrices.rowspace.add": self._after_rowspace_add,
            "jetalg.bracket_jets": self._after_bracket_jets,
        }
        self.origin = self.clock()

    # -- counters computed from a call's arguments and result --------------

    def _after_rref(self, args, result):
        matrix = args[0]
        reduced, pivots = result
        c = self.counts
        c["matrices.rref.cells"] += matrix.rows * matrix.cols
        c["matrices.rref.rows"] += matrix.rows
        c["matrices.rref.rank"] += len(pivots)
        c["matrices.rref.max_bits"] = max(c["matrices.rref.max_bits"], _max_bits(reduced))

    def _after_rowspace_add(self, args, result):
        self.counts["matrices.rowspace.useful"] += bool(result)

    def _after_bracket_jets(self, args, result):
        self.counts["jetalg.bracket_jets.terms_out"] += len(result.terms)

    # -- wrappers -----------------------------------------------------------

    def _field_wrapper(self, fn, stat):
        depth = self.field_depth
        stack = self.stack
        clock = self.clock

        def wrapper(*args):
            stat[0] += 1
            if depth[0]:
                return fn(*args)
            depth[0] = 1
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                depth[0] = 0
                stat[1] += dt
                stack[-1][1] += dt

        return wrapper

    def _span_wrapper(self, fn, name):
        stat = self.stats[name]
        layer = name.split(".")[0]
        self.layer_self.setdefault(layer, 0.0)
        layer_self = self.layer_self
        index = self.name_index[name]
        hook = self.hooks.get(name)
        stack = self.stack
        clock = self.clock
        ids, parents, names = self.span_id, self.span_parent, self.span_name
        starts, ends = self.span_start, self.span_end
        tracer = self

        def wrapper(*args, **kwargs):
            stat[0] += 1
            stat[2] += 1
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1]
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat[2] -= 1
                dur = t1 - t0
                if not stat[2]:
                    stat[1] += dur
                layer_self[layer] += dur - frame[1]
                ids.append(sid)
                parents.append(parent[0])
                names.append(index)
                starts.append(t0)
                ends.append(t1)
                parent[1] += dur
            if hook is not None:
                hook(args, result)
                # the hook's own time is tracer overhead: hide it from every ancestor
                parent[1] += clock() - t1
            return result

        return wrapper

    def run(self, name, fn, *args):
        """Run fn(*args) as a root span (the set-up or one job)."""
        return self._span_wrapper(fn, name)(*args)

    # -- patching -----------------------------------------------------------

    def install(self):
        """Replace every traced function in every qtlie namespace that binds it."""
        from qtlie import cyclo

        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "qtlie" or name.startswith("qtlie.")) and m is not None]
        for attr, name in FIELD_OPS:
            fn = vars(cyclo.CycloNum)[attr]
            _replace(cyclo.CycloNum, modules, fn, self._field_wrapper(fn, self.field[name]))
        for module_name, owner_name, attr, name in SPANS:
            module = sys.modules[f"qtlie.{module_name}"]
            owner = getattr(module, owner_name) if owner_name else None
            fn = vars(owner)[attr] if owner else getattr(module, attr)
            _replace(owner, modules, fn, self._span_wrapper(fn, name))

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """The per-layer metrics, keyed as in BENCHMARK.json, except trace.overhead_frac."""
        traced = sum(self.stats[root][1] for root in ROOTS)
        layer_self = dict(self.layer_self)
        layer_self["cyclo"] = sum(busy for _, busy in self.field.values())
        c = self.counts
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for _, name in FIELD_OPS:
            calls, busy = self.field[name]
            put(f"{name}.calls", calls, "count")
            put(f"{name}.busy_s", busy, "s")
        for name in ("matrices.rref", "matrices.mul", "matrices.apply", "derivations.bracket_d",
                     "derivations.bracket_witt", "jetalg.bracket_jets", "repn.verify_representation",
                     "repn.commutant", "cuspidal.act"):
            calls, busy, _ = self.stats[name]
            put(f"{name}.calls", calls, "count")
            put(f"{name}.busy_s", busy, "s")
        for name in ("repn.pullback", "repn.decompose_tensor", "cuspidal.verify_module_axioms",
                     "cuspidal.extract_coefficients", "cuspidal.build_module"):
            put(f"{name}.busy_s", self.stats[name][1], "s")
        rows = c["matrices.rref.rows"]
        put("matrices.rref.cells", c["matrices.rref.cells"], "count")
        put("matrices.rref.rank_frac", c["matrices.rref.rank"] / rows if rows else 0.0, "ratio")
        put("matrices.rref.max_bits", c["matrices.rref.max_bits"], "bits")
        adds = self.stats["matrices.rowspace.add"][0]
        put("matrices.rowspace.add_calls", adds, "count")
        put("matrices.rowspace.useful_frac", c["matrices.rowspace.useful"] / adds if adds else 0.0, "ratio")
        put("jetalg.bracket_jets.terms_out", c["jetalg.bracket_jets.terms_out"], "count")
        for layer in ("cyclo", "matrices", "derivations", "jetalg", "repn", "cuspidal", "verify"):
            put(f"{layer}.self_frac", layer_self.get(layer, 0.0) / traced, "ratio")
        return out

    def write_spans(self, path):
        """Write every span as a tab-separated line, times relative to tracer start."""
        order = sorted(range(len(self.span_id)), key=self.span_id.__getitem__)
        with gzip.open(path, "wt", encoding="ascii") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in order:
                out.write(f"{self.span_id[i]}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                          f"{self.span_start[i] - self.origin:.9f}\t{self.span_end[i] - self.origin:.9f}\n")


def _replace(owner, modules, fn, wrapper):
    if owner is not None:
        for attr, value in list(vars(owner).items()):
            if value is fn:
                setattr(owner, attr, wrapper)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)
