"""Outside-in layer tracing for the benchmark's traced run.

The library has no trace hooks, so the tracer wraps it from outside: every
public function (and public class method) defined in one of the layer
modules is replaced by a span-recording wrapper at each place where it is
looked up, that is, in every ``epszeta`` module namespace that binds it
and on the class that defines it.  ``regime_integrand`` additionally
returns an integrand that counts its evaluations.  Leaving the ``with``
block puts every original object back.

Spans live in flat arrays (name, parent, start, end).  ``fold`` derives
each span's self time, its duration minus the durations of its direct
children, adds it to the span's layer and clears the arrays, so memory
stays bounded by one operation's spans.
"""

import functools
import sys
import time
import types
from array import array
from collections import Counter

PACKAGE = "epszeta"
LAYERS = ("carlson", "jacobi", "epsilon_zeta", "extended", "quadrature", "elastica", "cli")
HARNESS = "harness"  # the benchmark's own code inside an operation span


class Tracer:
    """Installs span wrappers on the library's layers for the length of a ``with`` block."""

    def __init__(self):
        self.names = []            # span name id -> "layer.function"
        self.layer_of = []         # span name id -> layer
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.current = -1
        self.integrand_evals = 0
        self.self_ns = Counter()   # layer -> self time, summed over folded operations
        self.calls = Counter()     # "layer.function" -> calls
        self.total_ns = 0          # duration of the top-level spans
        self.ops = 0
        self._roots = {}           # operation function -> its harness wrapper
        self._saved = []           # (owner, attribute, original object)

    def _name_id(self, name, layer):
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, layer):
        nid = self._name_id(f"{layer}.{fn.__name__}", layer)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(tracer.current)
            ends.append(0)
            tracer.current = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = parents[idx]

        return wrapper

    def _counting_integrand(self, regime_integrand):
        # regime_integrand builds the quadrature integrand; count its calls
        def counted(*args, **kwargs):
            f = regime_integrand(*args, **kwargs)

            def integrand(t):
                self.integrand_evals += 1
                return f(t)

            return integrand

        return functools.wraps(regime_integrand)(counted)

    def _patch(self, owner, attribute, replacement):
        self._saved.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def __enter__(self):
        prefix = PACKAGE + "."
        layer_modules = {prefix + layer: layer for layer in LAYERS}
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == PACKAGE or name.startswith(prefix)]
        wrapped, classes = {}, set()
        for module in namespaces:
            for attribute, obj in list(vars(module).items()):
                if attribute.startswith("_"):
                    continue
                layer = layer_modules.get(getattr(obj, "__module__", None))
                if layer is None:
                    continue
                if isinstance(obj, types.FunctionType):
                    if obj not in wrapped:
                        w = self._wrap(obj, layer)
                        if obj.__name__ == "regime_integrand":
                            w = self._counting_integrand(w)
                        wrapped[obj] = w
                    self._patch(module, attribute, wrapped[obj])
                elif isinstance(obj, type) and obj not in classes:
                    classes.add(obj)
                    self._wrap_methods(obj, layer)
        return self

    def _wrap_methods(self, cls, layer):
        for attribute, raw in list(vars(cls).items()):
            if attribute.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = self._wrap(raw.__func__, layer)
                self._patch(cls, attribute, type(raw)(fn))
            elif isinstance(raw, types.FunctionType):
                self._patch(cls, attribute, self._wrap(raw, layer))

    def __exit__(self, *exc):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
        return False

    def run(self, op, args):
        """Call ``op(*args)`` inside a harness span, then fold its spans."""
        if op not in self._roots:
            self._roots[op] = self._wrap(op, HARNESS)
        try:
            return self._roots[op](*args)
        finally:
            self.fold()

    def fold(self):
        """Add the self time of every recorded span to its layer and clear the spans."""
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        own = [e - s for s, e in zip(starts, ends)]
        for i, p in enumerate(parents):
            if p >= 0:
                own[p] -= ends[i] - starts[i]
            else:
                self.total_ns += ends[i] - starts[i]
        for nid, ns in zip(names, own):
            self.self_ns[self.layer_of[nid]] += ns
            self.calls[self.names[nid]] += 1
        self.ops += 1
        for a in (names, parents, starts, ends):
            del a[:]
