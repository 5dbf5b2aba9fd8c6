"""Timing wrappers around every layer of hyperappell, installed from outside.

Used by ``entry.py trace``: the package itself is not modified; the
wrappers exist only in the interpreter that runs one traced command.

Wrapped are the public module-level functions and every method of the
public classes of the layers ``rationals``, ``clifford``, ``trimatrix``,
``polynomials``, ``appell`` and ``operators``, plus ``cli.main``.  Each
wrapper replaces the original in every namespace it is bound in (the
defining module, the modules that imported it, the package), so calls
through ``from .appell import expand_multivariate`` are seen too.  The
``lru_cache`` of ``vector_power_expansion`` stays in place: the wrapper
calls the cached function.

Per function and thread, the wrappers count calls, total time and self
time (span time minus the child spans on the same thread).  Full spans
``(id, name, thread, start, end, parent id)`` are kept for the coarse layers
(``appell``, ``operators``, ``trimatrix``, ``cli``); the element arithmetic
of ``rationals``, ``clifford`` and ``polynomials`` runs hundreds of
thousands of times per command and is kept as counts only.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

LAYERS = ("rationals", "clifford", "trimatrix", "polynomials", "appell", "operators")
SPAN_LAYERS = {"appell", "operators", "trimatrix", "cli"}

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.local = threading.local()
        self.lock = threading.Lock()
        self.thread_stats: list[tuple[int, dict]] = []
        self.spans: list[tuple] = []
        self.span_ids = itertools.count()
        self.terms_out = 0

    def _new_thread(self) -> tuple[list, dict]:
        """Span stack and stats of the calling thread, on its first call."""
        state = self.local.state = ([], {})
        with self.lock:
            self.thread_stats.append((threading.get_ident(), state[1]))
        return state

    def wrap(self, name: str, fn):
        keep_span = name.split(".", 1)[0] in SPAN_LAYERS
        spans = self.spans
        span_ids = self.span_ids
        local = self.local
        new_thread = self._new_thread

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack, stats = local.state
            except AttributeError:
                stack, stats = new_thread()
            # frame: [child time, id of the nearest enclosing kept span]
            parent = stack[-1][1] if stack else None
            frame = [0.0, next(span_ids) if keep_span else parent]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat = stats.get(name)
                if stat is None:
                    stat = stats[name] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep_span:
                    spans.append((frame[1], name, threading.get_ident(), start, end, parent))

        return wrapper

    def counting_terms(self, expand):
        """expand_multivariate that also adds up the terms it returns."""

        @functools.wraps(expand)
        def counted(*args, **kwargs):
            result = expand(*args, **kwargs)
            with self.lock:
                self.terms_out += len(result.terms)
            return result

        return counted

    def merged_stats(self) -> dict:
        out: dict[str, list] = {}
        for _, stats in self.thread_stats:
            for name, (calls, total, own) in stats.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += own
        return {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in out.items()}


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def install(tracer: Tracer, package) -> None:
    """Wrap the layers' functions and rebind every name that refers to them.

    The ``lru_cache`` object of ``vector_power_expansion`` is wrapped, not
    replaced, so it keeps caching and its ``cache_info()`` stays reachable.
    """
    modules = {name: sys.modules[f"{package.__name__}.{name}"] for name in LAYERS + ("cli",)}
    replaced: dict[int, object] = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if layer == "cli":
                if attr == "main":
                    replaced[id(obj)] = tracer.wrap("cli.main", obj)
                continue
            if _is_function(obj):
                target = tracer.counting_terms(obj) if attr == "expand_multivariate" else obj
                replaced[id(obj)] = tracer.wrap(f"{layer}.{attr}", target)
            elif inspect.isclass(obj):
                _wrap_class(tracer, f"{layer}.{attr}", obj)
    for module in list(modules.values()) + [package]:
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])


def _wrap_class(tracer: Tracer, prefix: str, cls) -> None:
    for attr, raw in list(vars(cls).items()):
        name = f"{prefix}.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, tracer.wrap(name, raw))


def trace_report(tracer: Tracer, package) -> dict:
    # functools.wraps leaves the lru_cache object under __wrapped__.
    info = package.appell.vector_power_expansion.__wrapped__.cache_info()
    return {
        "stats": tracer.merged_stats(),
        "spans": tracer.spans,
        "vector_power_expansion_cache": {"hits": info.hits, "misses": info.misses},
        "expand_terms_out": tracer.terms_out,
    }
