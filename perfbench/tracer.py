"""Outside-in tracer: wraps library functions at every module attribute
that calls reach them through, and aggregates spans in memory.

A span is one call of a wrapped function.  Its self time is its wall
time minus the wall time of the wrapped calls it made (its children).
Nothing in the library is edited; the wrapping lives only in this
process, and only when the benchmark asks for a traced run.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path, extra statistic or None).  Every function
# reports calls and self_s; "repeat" adds repeat_frac (share of calls
# whose arguments were seen earlier in the run), "zero" adds zero_frac
# (share of calls returning a zero signed canonical form).
TRACED = (
    ("cli", "main", None),
    ("defcx", "build_slice", "repeat"),
    ("defcx", "cohomology_rank", None),
    ("defcx", "gc_differential", "repeat"),
    ("defcx", "symmetrize", None),
    ("defcx", "def_differential", None),
    ("graphs", "enumerate_graphs", "repeat"),
    ("graphs", "canonicalize", "zero"),
    ("gra", "compose", None),
    ("poly", "o_compose", None),
    ("poly", "s_action", None),
    ("poly", "component_normal_form", "repeat"),
    ("lie", "normalize", None),
    ("lie", "graft", None),
    ("linalg", "rank", None),
    ("linalg", "solve", None),
    ("linalg", "kernel_basis", None),
    ("linalg", "in_image", None),
    ("linalg", "SparseMatrix.from_columns", None),
    ("gutt", "star", "repeat"),
    ("gutt", "straighten", None),
)

PACKAGE = "liegraphs"


def metric_names():
    """Per-layer metric names, in BENCHMARK.json order."""
    names = []
    for module, attr, extra in TRACED:
        base = f"{module}.{attr}"
        names += [f"{base}.calls", f"{base}.self_s"]
        if extra:
            names.append(f"{base}.{extra}_frac")
    return names


def _freeze(x):
    return frozenset(x.items()) if isinstance(x, dict) else x


def _fingerprint(args, kwargs):
    return hash((tuple(_freeze(a) for a in args),
                 tuple(sorted(kwargs.items()))))


class _Stat:
    __slots__ = ("calls", "self_s", "hits", "seen")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0
        self.seen = set()


class Tracer:
    def __init__(self):
        self.stats = {}
        # child-time accumulators of the open spans, innermost last
        self._open = []
        # off while the benchmark checks outputs
        self.active = True

    def reset(self):
        """Zero counts and times; arguments seen so far stay seen, since
        the caches they warmed stay warm."""
        for st in self.stats.values():
            st.calls, st.self_s, st.hits = 0, 0.0, 0

    def _wrap(self, name, fn, extra):
        st = self.stats[name] = _Stat()
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if extra == "repeat":
                key = _fingerprint(args, kwargs)
                if key in st.seen:
                    st.hits += 1
                else:
                    st.seen.add(key)
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.calls += 1
                st.self_s += dt - open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
            if extra == "zero" and result.is_zero():
                st.hits += 1
            return result

        return traced

    def install(self):
        """Wrap every traced function in all loaded library modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module, attr, extra in TRACED:
            name = f"{module}.{attr}"
            home = sys.modules[f"{PACKAGE}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth].__func__
                cls_wrapped = self._wrap(name, fn, extra)
                setattr(cls, meth, classmethod(cls_wrapped))
                continue
            fn = getattr(home, attr)
            wrapped = self._wrap(name, fn, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def raw(self):
        """{name: [calls, self_s, hits]} for combining across processes."""
        return {name: [st.calls, st.self_s, st.hits]
                for name, st in self.stats.items()}


def combine(raws):
    """Per-layer metrics from the raw counts of one or more processes."""
    out = {}
    for module, attr, extra in TRACED:
        name = f"{module}.{attr}"
        calls = sum(r[name][0] for r in raws)
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = sum(r[name][1] for r in raws)
        if extra:
            hits = sum(r[name][2] for r in raws)
            out[f"{name}.{extra}_frac"] = hits / calls if calls else 0.0
    return out
