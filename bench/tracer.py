"""Outside-in tracing of the qtwist package, by wrapping functions by name.

The tracer replaces every public function and method of the layer modules
(plus the arithmetic and comparison dunders) with a timing wrapper, and
rebinds each ``from .x import name`` copy of a wrapped function in the other
qtwist modules.  Each wrapped function gets calls, total time (outermost
calls only, so recursion is not counted twice) and self time (its time minus
the time of wrapped functions it called).  Calls of the phase-level functions
in ``SPAN_TARGETS`` are also kept as spans with their parent span.

A few observers read the arguments and results of named functions to count
cache hits and expression sizes; their own time is excluded from every open
call.  A name that no longer exists is recorded as missing instead of
failing, so the per-layer metrics that depend on it are reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "qtwist"

# The layers, named after the package's modules.
LAYERS = ("coeffring", "params", "ncalg", "presentations", "twistmap", "hopf",
          "specializations", "repcheck", "report", "rootdata", "cli")

# Dunders that are part of a class's public interface and worth timing.
DUNDERS = frozenset((
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__eq__", "__str__",
    "__call__", "__getitem__", "__contains__",
))

SPAN_TARGETS = frozenset((
    "cli.main",
    "presentations.relations_of",
    "twistmap.verify_twist_isomorphism",
    "twistmap.verify_integrality",
    "hopf.verify_hopf",
    "hopf.verify_coproduct_powers",
    "hopf.verify_coproduct_serre",
    "hopf.verify_antipode",
    "hopf.verify_bialgebra",
    "specializations.make",
    "specializations.verify_specialization",
    "specializations.apply_to_isomorphism",
    "repcheck.verify_transported_modules",
    "repcheck.verify_module",
    "repcheck.transport",
    "report.Report.to_json",
))


def _cache_probe(attr, lookups=None):
    """Observer for a call that looks keys up in ``self.<attr>`` (or in the
    first argument's ``attr``) and stores each miss: a call that leaves the
    cache the same size was a hit.  ``lookups(args)`` gives the number of
    keys the call looks up, one by default."""

    def before(args):
        return len(getattr(args[0], attr))

    def after(args, result, size, counters):
        n = 1 if lookups is None else lookups(args)
        misses = len(getattr(args[0], attr)) - size
        counters["lookups"] += n
        counters["hits"] += n - misses

    return before, after


def _relations_after(args, result, _token, counters):
    counters["instances"] += len(result)
    for inst in result:
        terms = inst.expr.terms
        if not terms:
            counters["zero_instances"] += 1
        counters["max_terms"] = max(counters["max_terms"], len(terms))
        for c in terms.values():
            counters["max_den_terms"] = max(counters["max_den_terms"], len(c.den.terms))


def _tensor_after(args, result, _token, counters):
    counters["max_tensor_terms"] = max(counters["max_tensor_terms"], len(result.terms))


def _report_after(args, result, _token, counters):
    counters["checks"] += len(args[0].checks)


# target -> (counter group, before or None, after)
OBSERVERS = {
    "presentations.relations_of": ("presentations", None, _relations_after),
    "twistmap.TwistScalars.e": ("twistmap.TwistScalars",) + _cache_probe("_cache"),
    "twistmap.TwistScalars.f": ("twistmap.TwistScalars",) + _cache_probe("_cache"),
    "twistmap.TwistScalars.c": ("twistmap.TwistScalars",) + _cache_probe("_cache"),
    "ncalg.StraightenRules.hop": ("ncalg.StraightenRules.hop",) + _cache_probe("_cache"),
    "hopf.delta": ("hopf.delta",) + _cache_probe("_delta_cache", lambda args: len(args[1].terms)),
    "ncalg.tmul": ("ncalg", None, _tensor_after),
    "ncalg.TensorExpr.straighten": ("ncalg", None, _tensor_after),
    "report.Report.to_json": ("report", None, _report_after),
}

# How counters of one group combine across campaigns.
MAX_COUNTERS = frozenset(("max_terms", "max_den_terms", "max_tensor_terms"))


class _Counters(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Wraps the layer modules of one interpreter and aggregates their calls."""

    def __init__(self, campaign: str = "", layers=LAYERS, observers=OBSERVERS):
        self.campaign = campaign
        self.layers = tuple(layers)
        self.observers = dict(observers)
        self.stats: dict = {}       # name -> [calls, total_s, self_s, depth]
        self.counters: dict = {}    # group -> _Counters
        self.spans: list = []       # [campaign, id, parent, name, start, end]
        self.modules: list = []     # layer modules found
        self.missing: list = []     # layers, observers and targets not found
        self.broken: set = set()    # observers that raised, then disabled
        self._child = [0.0]         # child time of each open call; bottom sentinel
        self._paused = [0.0]        # time excluded from every open call (see exclude)
        self._span_stack = [None]
        self._undo: list = []
        self._t0 = time.perf_counter()

    # -- installation ---------------------------------------------------------------

    def install(self) -> "Tracer":
        replaced = {}  # id(original) -> wrapper
        for layer in self.layers:
            try:
                mod = importlib.import_module("%s.%s" % (PACKAGE, layer))
            except ImportError:
                self.missing.append(layer)
                continue
            self.modules.append(layer)
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrapper = self._wrap("%s.%s" % (layer, name), obj)
                    replaced[id(obj)] = wrapper
                    self._set(mod, name, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    self._wrap_class(layer, obj)
        # every other module-level binding of a wrapped function (from .x import name)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and obj is not wrapper:
                    self._set(mod, name, wrapper)
        for target in sorted(self.observers):
            if target not in self.stats:
                self.missing.append(target)
        return self

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            qual = "%s.%s.%s" % (layer, cls.__name__, name)
            if isinstance(attr, staticmethod):
                self._set(cls, name, staticmethod(self._wrap(qual, attr.__func__)))
            elif isinstance(attr, classmethod):
                self._set(cls, name, classmethod(self._wrap(qual, attr.__func__)))
            elif inspect.isfunction(attr):
                self._set(cls, name, self._wrap(qual, attr))

    def _wrap(self, name, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        if name in self.observers or name in SPAN_TARGETS:
            wrapper = self._wrap_observed(name, fn, st)
        else:
            wrapper = self._wrap_plain(fn, st)
        return functools.wraps(fn)(wrapper)

    def _wrap_plain(self, fn, st):
        child, paused, clock = self._child, self._paused, time.perf_counter

        def wrapper(*args, **kwargs):
            st[3] += 1
            child.append(0.0)
            p0 = paused[0]
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0 - (paused[0] - p0)
                own = child.pop()
                child[-1] += dt
                st[0] += 1
                st[2] += dt - own
                st[3] -= 1
                if not st[3]:
                    st[1] += dt

        return wrapper

    def _wrap_observed(self, name, fn, st):
        child, paused, clock = self._child, self._paused, time.perf_counter
        spans, span_stack = self.spans, self._span_stack
        is_span = name in SPAN_TARGETS
        obs = self.observers.get(name)
        group = obs[0] if obs else None
        tracer = self

        def wrapper(*args, **kwargs):
            token = None
            if obs and obs[1] is not None and name not in tracer.broken:
                s = clock()
                token = tracer._observe(name, obs[1], args)
                paused[0] += clock() - s
            st[3] += 1
            child.append(0.0)
            p0 = paused[0]
            t0 = clock()
            if is_span:
                rec = [tracer.campaign, len(spans), span_stack[-1], name, t0 - tracer._t0, None]
                spans.append(rec)
                span_stack.append(rec[1])
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                dt = t1 - t0 - (paused[0] - p0)
                own = child.pop()
                child[-1] += dt
                st[0] += 1
                st[2] += dt - own
                st[3] -= 1
                if not st[3]:
                    st[1] += dt
                if is_span:
                    rec[5] = t1 - tracer._t0
                    span_stack.pop()
                if ok and obs and name not in tracer.broken:
                    s = clock()
                    counters = tracer.counters.setdefault(group, _Counters())
                    tracer._observe(name, obs[2], args, result, token, counters)
                    paused[0] += clock() - s

        return wrapper

    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` spent outside the program (say, in a signal
        handler) out of every call that is open now."""
        self._paused[0] += seconds

    def _observe(self, name, fn, *args):
        try:
            return fn(*args)
        except (AttributeError, TypeError, KeyError):
            # the observed object changed shape; report the counter missing
            self.broken.add(name)
            return None

    # -- results --------------------------------------------------------------------

    def dump(self) -> dict:
        """Plain-data snapshot: one campaign's stats, counters and spans."""
        return {
            "stats": {k: v[:3] for k, v in self.stats.items()},
            "counters": {k: dict(v) for k, v in self.counters.items()},
            "spans": [list(s) for s in self.spans],
            "modules": list(self.modules),
            "missing": sorted(set(self.missing) | set(self.broken)),
        }


def merge(dumps) -> dict:
    """Combine campaign dumps: calls and times add, ``max_*`` counters take
    the maximum, spans are concatenated, and a name is missing when any
    campaign missed it."""
    out = {"stats": {}, "counters": {}, "spans": [], "modules": None, "missing": set()}
    for d in dumps:
        for name, (calls, total, own) in d["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for group, values in d["counters"].items():
            acc = out["counters"].setdefault(group, {})
            for key, val in values.items():
                if key in MAX_COUNTERS:
                    acc[key] = max(acc.get(key, 0), val)
                else:
                    acc[key] = acc.get(key, 0) + val
        out["spans"].extend(d["spans"])
        mods = set(d["modules"])
        out["modules"] = mods if out["modules"] is None else out["modules"] & mods
        out["missing"].update(d["missing"])
    out["modules"] = sorted(out["modules"] or ())
    out["missing"] = sorted(out["missing"])
    return out
