"""Spans and counters around the calls into each stablerd layer.

The tracer patches functions from outside the library: every binding of a
hooked function in any loaded ``stablerd`` module is replaced by a wrapper,
so names imported into other modules (``_solve_monotone`` in ``quantizer``,
``strength_of_uniform`` in ``figures``, ``reference_entropy`` in ``cli``) are
traced as well.  A hook whose target no longer exists is reported as missing;
the metrics that depend on it are left out instead of failing the run.

Self time of a span is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# (module, attribute, span).  "Class.method" patches the class attribute.
HOOKS = (
    ("stablerd.stable_core", "_StandardDensity._build_table", "stable_core.table_build"),
    ("stablerd.stable_core", "_pdf0_quadrature", "stable_core.quadrature"),
    ("stablerd.stable_core", "_StandardDensity.log_pdf_vec", "stable_core.log_pdf_vec"),
    ("stablerd.stable_core", "_log_pdf0_tail", "stable_core.tail_series"),
    ("stablerd.stable_core", "_gauss_legendre", "stable_core.gauss_legendre"),
    ("stablerd.stable_core", "_panel_integral", "stable_core.panel_integral"),
    ("stablerd.stable_core", "reference_entropy", "stable_core.reference_entropy"),
    ("stablerd.strength", "_solve_monotone", "strength.root_solve"),
    ("stablerd.strength", "g_value", "strength.g_value"),
    ("stablerd.strength", "strength_of_uniform", "strength.uniform_strength"),
    ("stablerd.quantizer", "_error_strength_raw", "quantizer.error_strength"),
    ("stablerd.quantizer", "design_optimal", "quantizer.design"),
    ("stablerd.quantizer", "_truncated_uniform_g", "quantizer.uniform_g"),
    ("stablerd.quantizer", "_uniform_weights", "quantizer.uniform_g"),
    ("stablerd.quantizer", "best_uniform_design", "quantizer.best_uniform"),
    ("stablerd.quantizer", "quantizer_to_json", "cli.write"),
    ("stablerd.figures", "fig1_curves", "figures.fig1"),
    ("stablerd.figures", "fig5_rows", "figures.fig5"),
    ("stablerd.cli", "_write_table", "cli.write"),
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class _Stat:
    __slots__ = ("count", "total", "self_time", "counters")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counters = {}

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value


class Tracer:
    """Installs wrappers, keeps spans in memory and sums them per span name."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.spans = []  # (id, parent id, name, start, end)
        self.installed = []  # "module.attr -> span"
        self.missing = []  # hook targets that were not found
        self.broken_counters = set()  # counters whose argument extraction failed
        self._stack = []  # [span id, child time] of the open spans
        self._restore = []  # (owner, attr, original)
        self._g_evals = 0

    # -- installation -------------------------------------------------------

    def install(self):
        """Patch every hook; may be called again after ``uninstall``."""
        self.installed, self.missing = [], []
        for module_name, attr, span in HOOKS:
            module = sys.modules.get(module_name)
            owner_name, _, member = attr.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = getattr(owner, member, None) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span, original, _EXTRAS.get(span))
            if owner_name:
                self._patch(owner, member, original, wrapper, f"{module_name}.{attr}", span)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "stablerd" or mod_name.startswith("stablerd.")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper, f"{mod_name}.{name}", span)

    def _patch(self, owner, name, original, wrapper, label, span):
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))
        self.installed.append(f"{label} -> {span}")

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, span, fn, extra):
        tracer = self

        def wrapper(*args, **kwargs):
            if extra is not None:
                args, kwargs, after = extra(tracer, span, args, kwargs)
            else:
                after = None
            span_id = len(tracer.spans) + len(tracer._stack)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                stat = tracer.stat(span)
                stat.count += 1
                stat.total += duration
                stat.self_time += duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans.append((span_id, parent, span, start, end))
            if after is not None:
                after(stat, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def stat(self, span):
        stat = self.stats.get(span)
        if stat is None:
            stat = self.stats[span] = _Stat()
        return stat

    def write_spans(self, path):
        """Write the spans as CSV: id, parent, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, name, start, end in sorted(self.spans):
                out.write(f"{span_id},{parent},{name},{start!r},{end!r}\n")

    def summary(self):
        """Per-span totals as plain data, to pass from a child process as JSON."""
        return {
            "stats": {
                name: {"count": s.count, "total": s.total, "self": s.self_time,
                       "counters": dict(s.counters)}
                for name, s in self.stats.items()
            },
            "installed": list(self.installed),
            "missing": list(self.missing),
            "broken_counters": sorted(self.broken_counters),
        }


# -- per-span counters ---------------------------------------------------------


def _count_points(index, name, key):
    def extra(tracer, span, args, kwargs):
        try:
            tracer.stat(span).add(key, int(np.size(_arg(args, kwargs, index, name))))
        except (TypeError, ValueError):
            tracer.broken_counters.add(f"{span}.{key}")
        return args, kwargs, None

    return extra


def _panel_nodes(tracer, span, args, kwargs):
    try:
        edges = _arg(args, kwargs, 1, "edges")
        n = _arg(args, kwargs, 2, "n", 16)
        tracer.stat(span).add("nodes", (len(edges) - 1) * int(n))
    except (TypeError, ValueError):
        tracer.broken_counters.add(f"{span}.nodes")
    return args, kwargs, None


def _root_solve(tracer, span, args, kwargs):
    """Count the calls the solver makes to its function next to the count it
    reports in ``StrengthSolution.evaluations``."""
    fn = _arg(args, kwargs, 0, "fn")
    if not callable(fn):
        tracer.broken_counters.add(f"{span}.implied_g_evals")
        return args, kwargs, None

    def counted(*a, **k):
        tracer.stat(span).add("implied_g_evals", 1)
        return fn(*a, **k)

    if len(args) > 0:
        args = (counted,) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, fn=counted)

    def after(stat, result):
        evaluations = getattr(result, "evaluations", None)
        if evaluations is None:
            tracer.broken_counters.add(f"{span}.g_evals")
            return
        stat.add("g_evals", int(evaluations))
        tracer._g_evals += int(evaluations)

    return args, kwargs, after


def _design(tracer, span, args, kwargs):
    g_before = tracer._g_evals

    def after(stat, report):
        try:
            stat.add("outer_iterations", int(report.iterations))
            stat.add("improving_steps", len(report.strength_trace) - 1)
        except (AttributeError, TypeError):
            tracer.broken_counters.add(f"{span}.outer_iterations")
        stat.add("g_evals", tracer._g_evals - g_before)

    return args, kwargs, after


_EXTRAS = {
    "stable_core.log_pdf_vec": _count_points(1, "u", "points"),
    "stable_core.tail_series": _count_points(1, "u", "points"),
    "stable_core.panel_integral": _panel_nodes,
    "strength.root_solve": _root_solve,
    "quantizer.design": _design,
}


# -- per-layer metrics -----------------------------------------------------------

_COUNTERS = ("points", "nodes", "g_evals", "outer_iterations")
# design metrics per outer iteration: metric field -> counter divided
_PER_ITERATION = {"improving_frac": "improving_steps", "g_evals_per_iteration": "g_evals"}


def layer_metrics(summary, names):
    """Map each per-layer metric name to its value from a tracer summary.

    A metric whose span had no hook installed, or whose counter could not be
    read, is returned in the second list instead.
    """
    stats = summary["stats"]
    spans = {entry.rpartition(" -> ")[2] for entry in summary["installed"]}
    broken = set(summary["broken_counters"])
    values, missing = {}, []
    for name in names:
        span, _, field = name.rpartition(".")
        if name == "strength.g_evals":
            span, field = "strength.root_solve", "g_evals"
        counter = "outer_iterations" if field in _PER_ITERATION else field
        if span not in spans or f"{span}.{counter}" in broken:
            missing.append(name)
            continue
        s = stats.get(span, {"count": 0, "total": 0.0, "self": 0.0, "counters": {}})
        counters = s["counters"]
        if field == "count":
            values[name] = s["count"]
        elif field == "self_s":
            values[name] = s["self"]
        elif field == "s":
            values[name] = s["total"]
        elif field in _PER_ITERATION:
            outer = counters.get("outer_iterations", 0)
            values[name] = counters.get(_PER_ITERATION[field], 0) / outer if outer else 0.0
        elif field in _COUNTERS:
            values[name] = counters.get(field, 0)
        else:
            missing.append(name)
    return values, missing
