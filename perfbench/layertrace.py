"""Per-layer tracing from outside the program.

`Tracer.install(api, package)` wraps the public functions of every layer
module, and the public methods of the classes they define, in each module
namespace that binds them (names bound by `from .x import y` and the
package's re-exports included).  It adds two counters without spans: calls
of `FpElement.__init__` and of `Fraction.__new__`.

While `active`, each wrapped call opens a span (id, parent id, name, start,
end) on a stack.  When a span closes, its duration is added to its parent's
child coverage, and its self time is its duration minus its own child
coverage; calls are single-threaded and nested, so the child spans of a span
never overlap.  Totals count only the outermost activation of a function.
Statistics are aggregated as spans close; span records are kept in memory
for the operation span and the two levels below it (the layer entry calls
and their direct callees), up to `SPAN_CAP` records, and written out when
the run ends.  Deeper spans count in the statistics only, so memory stays
bounded however many calls a round makes.
"""
from __future__ import annotations

import functools
import inspect
import resource
import time
from fractions import Fraction

LAYERS = ("fields", "linalg", "tpoly", "sntmodule", "spgroup", "orbits",
          "analytic", "serialize", "cli")
# ring arithmetic of the truncated-polynomial layer is traced as spans
POLY_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__neg__", "__truediv__", "__pow__")
KEEP_DEPTH = 2
SPAN_CAP = 200_000

# metric name -> statistics key, read as the call count, the total time of
# outermost activations, or the self time
_CALLS = {
    "tpoly.poly_mul": "tpoly.TruncPoly.__mul__",
    "tpoly.tmat_inverse.calls": "tpoly.tmat_inverse",
    "tpoly.smith_form_t.calls": "tpoly.smith_form_t",
    "linalg.mat_mul.calls": "linalg.mat_mul",
    "linalg.rref.calls": "linalg.rref",
    "linalg.solve.calls": "linalg.solve",
    "linalg.vec_mat.calls": "linalg.vec_mat",
    "linalg.mat_pow.calls": "linalg.mat_pow",
    "sntmodule.quasi_basis.calls": "sntmodule.quasi_basis",
    "spgroup.radical_lie_basis.calls": "spgroup.radical_lie_basis",
    "spgroup.is_member.calls": "spgroup.is_member",
    "orbits.act.calls": "orbits.TensorElement.act",
    "orbits.orbit_invariant.calls": "orbits.orbit_invariant",
    "analytic.eisenstein_q.calls": "analytic.eisenstein_q",
}
_TOTALS = {
    "sntmodule.validate.total_s": "sntmodule.SntModule.validate",
    "sntmodule.decompose.total_s": "sntmodule.decompose",
    "sntmodule.lagr.total_s": "sntmodule.enumerate_t_lagrangians",
    "spgroup.random_element.total_s": "spgroup.random_element",
    "spgroup.group_closure.total_s": "spgroup.group_closure",
    "orbits.brute_force_orbits.total_s": "orbits.brute_force_orbits",
    "orbits.orthogonal_group_ring.total_s": "orbits.orthogonal_group_ring",
    "orbits.orbit_invariant.total_s": "orbits.orbit_invariant",
    "orbits.transport.total_s": "orbits.transport",
    "analytic.counts_by_norm.total_s": "analytic.IntegralLattice.counts_by_norm",
    "analytic.eisenstein_lhs.total_s": "analytic.eisenstein_lhs",
    "analytic.theta_colinear.total_s": "analytic.theta_colinear",
    "analytic.verify_identity.total_s": "analytic.verify_identity",
}
_SELF = {
    "linalg.mat_mul.self_s": "linalg.mat_mul",
    "linalg.rref.self_s": "linalg.rref",
}
_LAYER_SELF = ("tpoly", "linalg", "spgroup", "analytic", "cli", "serialize")
_COUNTERS = ("fields.fp_new", "fields.fraction_new", "linalg.mat_pow.mults",
             "sntmodule.lagr.candidates", "sntmodule.lagr.found",
             "analytic.vectors_counted", "analytic.norm_bound_max")

UNITS = {"sntmodule.lagr.yield": "ratio", "analytic.norm_bound_max": "norm",
         "analytic.counts_by_norm.rss_growth_mb": "MB"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []
        self.stats = {}      # key -> [calls, total_s, self_s, active depth]
        self.layer_of = {}
        self.counts = {name: 0 for name in _COUNTERS}
        self.rss_growth = 0.0
        self.spans = []
        self._next_id = 0
        self._hooks = {
            "linalg.mat_pow": (None, self._mat_pow),
            "sntmodule.enumerate_t_lagrangians": (None, self._lagr_found),
            "sntmodule.is_isotropic": (self._lagr_candidate, None),
            "sntmodule.is_t_lagrangian": (self._lagr_candidate, None),
            "analytic.IntegralLattice.counts_by_norm":
                (lambda *_: _maxrss_mb(), self._counts_by_norm),
        }

    # -- spans -------------------------------------------------------------
    def open_op(self, kind):
        """Open the root span of one operation and start recording."""
        self._next_id += 1
        frame = ["op:" + kind, time.perf_counter(), 0.0, self._next_id]
        self.stack.append(frame)
        self.active = True
        return frame

    def close_op(self, frame):
        self.active = False
        end = time.perf_counter()
        self.stack.pop()
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[3], 0, frame[0], frame[1], end))

    def reset(self):
        for st in self.stats.values():
            st[0], st[1], st[2] = 0, 0.0, 0.0
        for name in self.counts:
            self.counts[name] = 0
        self.rss_growth = 0.0

    def _wrap(self, fn, key, layer):
        tr, clock = self, time.perf_counter
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        self.layer_of[key] = layer
        pre, post = self._hooks.get(key, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            stack = tr.stack
            parent = stack[-1]
            tr._next_id += 1
            frame = [key, 0.0, 0.0, tr._next_id]
            before = pre(parent, args, kwargs) if pre else None
            stack.append(frame)
            stats[3] += 1
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                stats[0] += 1
                stats[2] += dur - frame[2]
                stats[3] -= 1
                if not stats[3]:
                    stats[1] += dur
                parent[2] += dur
                if len(stack) <= KEEP_DEPTH and len(tr.spans) < SPAN_CAP:
                    tr.spans.append((frame[3], parent[3], key, frame[1], end))
            if post:
                post(before, args, kwargs, result)
            return result

        return wrapper

    # -- counters at layer boundaries ---------------------------------------
    def _mat_pow(self, _, args, kwargs, result):
        self.counts["linalg.mat_pow.mults"] += int(kwargs.get("e", args[2] if len(args) > 2 else 0))

    def _lagr_found(self, _, args, kwargs, result):
        self.counts["sntmodule.lagr.found"] += len(result)

    def _lagr_candidate(self, parent, args, kwargs):
        if parent[0] == "sntmodule.enumerate_t_lagrangians":
            self.counts["sntmodule.lagr.candidates"] += 1

    def _counts_by_norm(self, before, args, kwargs, result):
        self.rss_growth += _maxrss_mb() - before
        self.counts["analytic.vectors_counted"] += int(sum(result))
        bound = int(kwargs.get("B", args[1] if len(args) > 1 else 0))
        self.counts["analytic.norm_bound_max"] = max(
            self.counts["analytic.norm_bound_max"], bound)

    def _counter(self, name):
        tr, counts = self, self.counts

        def bump():
            if tr.active:
                counts[name] += 1
        return bump

    # -- installation ---------------------------------------------------------
    def install(self, api, package):
        wrapped = {}
        for layer in LAYERS:
            mod = getattr(api, layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, "%s.%s" % (layer, name), layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer, api)
        for mod in [getattr(api, layer) for layer in LAYERS] + [package]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
        self._install_counters(api)

    def _wrap_class(self, cls, layer, api):
        seen = {}
        operators = POLY_OPERATORS if cls is api.tpoly.TruncPoly else ()
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in operators:
                continue
            fn = attr.__func__ if isinstance(attr, (classmethod, staticmethod)) else attr
            if not inspect.isfunction(fn):
                continue
            if fn not in seen:
                seen[fn] = self._wrap(fn, "%s.%s.%s" % (layer, cls.__name__, name), layer)
            w = seen[fn]
            setattr(cls, name, type(attr)(w) if fn is not attr else w)

    def _install_counters(self, api):
        fp = api.fields.FpElement
        fp_init, fp_bump = fp.__init__, self._counter("fields.fp_new")

        def init(obj, p, v):
            fp_bump()
            fp_init(obj, p, v)
        fp.__init__ = init

        fr_new, fr_bump = Fraction.__new__, self._counter("fields.fraction_new")
        self._fraction_saved = dict(vars(Fraction))

        def new(cls, *args, **kwargs):
            fr_bump()
            return fr_new(cls, *args, **kwargs)
        Fraction.__new__ = staticmethod(new)
        # newer Pythons build arithmetic results without calling __new__
        coprime = vars(Fraction).get("_from_coprime_ints")
        if isinstance(coprime, classmethod):
            raw = coprime.__func__

            def from_coprime(cls, *args, **kwargs):
                fr_bump()
                return raw(cls, *args, **kwargs)
            Fraction._from_coprime_ints = classmethod(from_coprime)

    def uninstall(self):
        """Restore `Fraction`, which outlives the program's modules."""
        for name in ("__new__", "_from_coprime_ints"):
            if name in self._fraction_saved:
                setattr(Fraction, name, self._fraction_saved[name])

    # -- metrics ----------------------------------------------------------------
    def metrics(self):
        """Every per-layer metric of the round just traced."""
        st = self.stats
        zero = (0, 0.0, 0.0, 0)
        out = {name: st.get(key, zero)[0] for name, key in _CALLS.items()}
        out.update({name: st.get(key, zero)[1] for name, key in _TOTALS.items()})
        out.update({name: st.get(key, zero)[2] for name, key in _SELF.items()})
        for layer in _LAYER_SELF:
            out[layer + ".self_s"] = sum(v[2] for k, v in st.items()
                                         if self.layer_of[k] == layer)
        out["linalg.calls"] = sum(v[0] for k, v in st.items()
                                  if self.layer_of[k] == "linalg")
        out.update(self.counts)
        cand = self.counts["sntmodule.lagr.candidates"]
        out["sntmodule.lagr.yield"] = self.counts["sntmodule.lagr.found"] / cand \
            if cand else 0.0
        out["analytic.counts_by_norm.rss_growth_mb"] = self.rss_growth
        return out
