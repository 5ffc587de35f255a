"""Traced run of one kgconst CLI command, and the per-layer summary of it.

Run as ``python bench/traced.py <cli args...>`` with ``src`` on PYTHONPATH.
It imports ``kgconst.cli``, wraps every public function of the package (the
names in ``kgconst.__all__`` plus ``cli.run``) wherever a module holds it by
name, calls ``kgconst.cli.run(argv)`` and exits with its code.  The CLI's
output goes to stdout unchanged.  Each call of a wrapped function is a span
(name, parent, start, end, raised, info), kept in memory and written as one
JSON line to stderr, prefixed with TRACE_PREFIX, when the command ends.

The layers are the modules: cli, core, identities, quadrature, series,
elliptic and khintchine.  Private helpers are not wrapped; their time is
self time of the public function that calls them.  ``inner_term`` and
``inner_term_magnitude`` run once per series term, so they are counted only.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

TRACE_PREFIX = "BENCH-TRACE "
LAYERS = ("cli", "core", "identities", "quadrature", "series", "elliptic", "khintchine")
COUNT_ONLY = ("inner_term", "inner_term_magnitude")


class Tracer:
    def __init__(self):
        self.spans = []   # [name, parent index, start, end, raised, info]
        self.stack = []
        self.counts = defaultdict(int)

    def span(self, fn, name):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, 0,
                      _pre_info(name, args, kwargs)]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = 1
                raise
            finally:
                record[3] = clock()
                stack.pop()
            _post_info(name, result, record[5])
            return result

        return wrapper

    def counter(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _pre_info(name, args, kwargs):
    if name == "quadrature.integrate":
        ctx = kwargs["ctx"] if "ctx" in kwargs else args[3]
        return {"wp": ctx.working_dps + 10}
    if name == "series.double_series_partial":
        return {"n": args[0]}
    if name == "identities.verify":
        return {"id": getattr(args[0], "value", args[0])}
    return {}


def _post_info(name, result, info):
    if name == "quadrature.integrate":
        info["evals"], info["levels"] = result.evaluations, result.levels
    elif name == "elliptic.solve_x0":
        info["iterations"] = result.iterations
    elif name.startswith("khintchine."):
        info["terms"] = result.terms_used
    elif name == "identities.verify":
        info["passed"] = result.passed


def install(tracer):
    """Wrap the public functions; return the original double_series."""
    import kgconst
    import kgconst.cli

    public = {n: getattr(kgconst, n) for n in kgconst.__all__}
    public["run"] = kgconst.cli.run
    public["inner_term_magnitude"] = kgconst.series.inner_term_magnitude
    wrapped = {}
    for name, fn in public.items():
        if not callable(fn) or isinstance(fn, type):
            continue
        layer = fn.__module__.rpartition(".")[2]
        qualified = f"{layer}.{name}"
        if name in COUNT_ONLY:
            wrapped[id(fn)] = tracer.counter(fn, qualified)
        else:
            wrapped[id(fn)] = tracer.span(fn, qualified)

    # `public` keeps the originals alive, so their ids stay unique
    def rebind(value):
        if id(value) in wrapped:
            return wrapped[id(value)]
        if isinstance(value, tuple) and any(id(v) in wrapped for v in value):
            return tuple(wrapped.get(id(v), v) for v in value)
        return value

    # patch every binding: module attributes, names imported with
    # `from .x import f`, and the (function, description) pairs of cli's tables
    for modname, module in list(sys.modules.items()):
        if modname != "kgconst" and not modname.startswith("kgconst."):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if rebind(item) is not item:
                        value[key] = rebind(item)
            elif rebind(value) is not value:
                setattr(module, attr, rebind(value))
    return public["double_series"]


def main(argv):
    start = time.perf_counter()
    import kgconst.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    double_series = install(tracer)
    code = kgconst.cli.run(argv)
    sys.stdout.flush()
    info = double_series.cache_info()
    trace = {"import_s": import_s, "spans": tracer.spans, "counts": tracer.counts,
             "double_series_hits": info.hits, "double_series_misses": info.misses}
    sys.stderr.write(TRACE_PREFIX + json.dumps(trace) + "\n")
    return code


def op_layer_metrics(trace) -> dict:
    """Per-layer metrics of one traced command."""
    spans = trace["spans"]
    child_s = [0.0] * len(spans)
    for name, parent, start, end, raised, info in spans:
        if parent >= 0:
            child_s[parent] += end - start
    m = defaultdict(float)
    seen_wp = set()
    for (name, parent, start, end, raised, info), children in zip(spans, child_s):
        layer, _, fn = name.partition(".")
        self_s = end - start - children
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += self_s
        m[f"{layer}.raised"] += raised
        if fn == "integrate" and not raised:
            m["quadrature.evals"] += info["evals"]
            m["quadrature.levels"] += info["levels"]
            if info["wp"] in seen_wp:
                m["quadrature.warm_s"] += self_s
                m["quadrature.warm_evals"] += info["evals"]
            else:
                m["quadrature.first_dps_s"] += self_s
        if fn == "integrate":
            seen_wp.add(info["wp"])
        if fn == "double_series":
            m["series.double_series.s"] += end - start
        elif fn == "double_series_partial":
            m["series.partial_terms"] += info["n"]
        elif fn in ("ellip_K", "ellip_E"):
            m["elliptic.agm_calls"] += 1
        elif fn == "solve_x0":
            m["elliptic.solve_x0.s"] += end - start
            m["elliptic.root_iterations"] += info.get("iterations", 0)
        elif layer == "khintchine":
            m["khintchine.terms"] += info.get("terms", 0)
        elif fn == "verify":
            m[f"identities.{info['id']}.s"] += end - start
            m["identities.failed"] += not info.get("passed", False)
    m["series.leaf_calls"] = sum(trace["counts"].values())
    m["series.double_series.hits"] = trace["double_series_hits"]
    m["series.double_series.misses"] = trace["double_series_misses"]
    m["cli.import_s"] = trace["import_s"]
    return m


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
