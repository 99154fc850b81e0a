"""Spans and counters recorded around gcsdiag's layers, from outside the package.

`install(recorder)` wraps the public functions and methods of `ring`,
`scatter`, `theta`, `seed` and `cli` in place.  A wrapper records nothing
while `recorder.enabled` is false, so set-up and verification stay out of
the trace.  Spans stay in memory as (name, start_ns, end_ns, parent) tuples
and are summarised or written out once the run ends.

Names are rebound wherever gcsdiag holds them: `complete_rank2` is imported
by name into `cli` and `theta`, and the package namespace rebinds `theta`
to the function, so the module is reached through `sys.modules`.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import Counter

# span names and the (module, attribute) they wrap
SPANS = {
    "scatter.complete_rank2": ("gcsdiag.scatter", "complete_rank2"),
    "scatter.loop_product": ("gcsdiag.scatter", "loop_product"),
    "scatter.wall_cross": ("gcsdiag.scatter", "wall_cross"),
    "scatter.equivalence_check": ("gcsdiag.scatter", "equivalence_check"),
    "theta.enumerate": ("gcsdiag.theta", "enumerate_broken_lines"),
    "theta.structure_constant": ("gcsdiag.theta", "structure_constant"),
    "seed.mutate_cluster": ("gcsdiag.seed", "mutate_cluster"),
    "seed.laurent": ("gcsdiag.seed", "laurent_check"),
    "seed.laurent_dict": ("gcsdiag.seed", "laurent_dict"),
    "cli.render": ("gcsdiag.cli", "_plot_dump"),
    "cli.render_theta": ("gcsdiag.cli", "_plot_theta"),
}
# spans reported under another name
MERGED = {"seed.laurent_dict": "seed.laurent", "cli.render_theta": "cli.render"}

# the per-layer metrics a traced run reports, in BENCHMARK.json order
LAYER_METRICS = [
    ("ring.series_pow.calls", "count"),
    ("ring.series_pow.self_s", "s"),
    ("ring.series_mul.calls", "count"),
    ("ring.series_mul.self_s", "s"),
    ("ring.coeff_mul.calls", "count"),
    ("ring.grading.calls", "count"),
    ("ring.grading.hit_ratio", "ratio"),
    ("scatter.complete_rank2.self_s", "s"),
    ("scatter.loop_product.calls", "count"),
    ("scatter.wall_cross.calls", "count"),
    ("scatter.wall_cross.self_s", "s"),
    ("scatter.wall_cross.terms_in", "count"),
    ("scatter.walls_out", "count"),
    ("scatter.equivalence_check.self_s", "s"),
    ("theta.enumerate.calls", "count"),
    ("theta.enumerate.self_s", "s"),
    ("theta.dfs_nodes", "count"),
    ("theta.lines_found", "count"),
    ("theta.lines_per_node", "ratio"),
    ("theta.series_pow.calls", "count"),
    ("theta.structure_constant.self_s", "s"),
    ("seed.mutate_cluster.calls", "count"),
    ("seed.mutate_cluster.self_s", "s"),
    ("seed.laurent.self_s", "s"),
    ("seed.mutate_seed.calls", "count"),
    ("cli.spawn_s", "s"),
    ("cli.import_s", "s"),
    ("cli.cache.hits", "count"),
    ("cli.cache.misses", "count"),
    ("cli.cache.hit_ratio", "ratio"),
    ("cli.render.self_s", "s"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
]

# the metrics that count events; they repeat exactly for one seed
COUNT_METRICS = [name for name, unit in LAYER_METRICS
                 if unit == "count" or name in ("ring.grading.hit_ratio",
                                                "theta.lines_per_node",
                                                "cli.cache.hit_ratio")]


class Recorder:
    """In-memory spans plus event counters, switched on per operation."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(counts, args, result) adds counters."""
        spans, stack, clock, rec = self.spans, self._stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)
            if after is not None:
                after(rec.counts, args, result)
            return result

        return traced

    def count(self, name, fn):
        """Wrap fn so that each call adds one to counts[name]."""
        counts, rec = self.counts, self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if rec.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def op(self):
        """One timed operation: recording is on inside, and it roots the spans."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self.enabled = True
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.enabled = False
            self._stack.pop()
            self.spans[idx] = ("bench.op", start, end, -1)


def _rebind(original, replacement):
    """Replace original by replacement in every gcsdiag module that holds it."""
    for mname, mod in list(sys.modules.items()):
        if mname != "gcsdiag" and not mname.startswith("gcsdiag."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def install(rec):
    """Wrap gcsdiag's layers so that rec sees their calls."""
    import gcsdiag.cli  # noqa: F401  (cli holds names the wrappers must replace)

    mods = sys.modules
    ring = mods["gcsdiag.ring"]

    series = ring.TruncatedLaurent
    mul = rec.span("ring.series_mul", series.__mul__)
    series.__mul__ = series.__rmul__ = mul
    series.__pow__ = rec.span("ring.series_pow", series.__pow__)

    coeff = ring.CoeffPoly
    cmul = rec.count("ring.coeff_mul.calls", coeff.__mul__)
    coeff.__mul__ = coeff.__rmul__ = cmul

    solve = ring.Grading.coefficients

    @functools.wraps(solve)
    def coefficients(self, m):
        if rec.enabled:
            rec.counts["ring.grading.calls"] += 1
            if tuple(m) in self._cache:
                rec.counts["ring.grading.hits"] += 1
        return solve(self, m)

    ring.Grading.coefficients = coefficients

    after = {
        "scatter.complete_rank2":
            lambda c, a, r: c.update({"scatter.walls_out": len(r.walls)}),
        "scatter.wall_cross":
            lambda c, a, r: c.update({"scatter.wall_cross.terms_in": len(a[2].terms)}),
        "theta.enumerate":
            lambda c, a, r: c.update({"theta.lines_found": len(r)}),
    }
    for name, (mname, attr) in SPANS.items():
        original = getattr(mods[mname], attr)
        _rebind(original, rec.span(name, original, after.get(name)))

    # every dfs node of enumerate_broken_lines starts with this test
    theta_mod = mods["gcsdiag.theta"]
    hits_origin = theta_mod._segment_hits_origin
    _rebind(hits_origin, rec.count("theta.dfs_nodes", hits_origin))

    seed_mod = mods["gcsdiag.seed"]
    mutate_seed = seed_mod.mutate_seed
    _rebind(mutate_seed, rec.count("seed.mutate_seed.calls", mutate_seed))

    cli = mods["gcsdiag.cli"]
    cached = cli._cached_text

    @functools.wraps(cached)
    def cached_text(key_parts, producer, no_cache, out):
        if not rec.enabled:
            return cached(key_parts, producer, no_cache, out)
        produced = []

        def produce():
            produced.append(True)
            return producer()

        text = cached(key_parts, produce, no_cache, out)
        rec.counts["cli.cache.misses" if produced else "cli.cache.hits"] += 1
        return text

    cli._cached_text = cached_text


def self_times(spans):
    """Per span name: (calls, total self seconds) over recorded spans."""
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = Counter()
    self_ns = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        name = MERGED.get(name, name)
        calls[name] += 1
        self_ns[name] += end - start - child[i]
    return calls, {k: v / 1e9 for k, v in self_ns.items()}


def _theta_powers(spans):
    """Series powers whose nearest enclosing non-ring span is in theta."""
    n = 0
    for name, _, _, parent in spans:
        if name != "ring.series_pow":
            continue
        while parent >= 0 and spans[parent][0].startswith("ring."):
            parent = spans[parent][3]
        if parent >= 0 and spans[parent][0].startswith("theta."):
            n += 1
    return n


def layer_metrics(span_lists, counts, spawn_s=(), import_s=()):
    """Per-layer metric values from the spans of each process and the counters."""
    calls, self_s = Counter(), Counter()
    theta_pow = 0
    for spans in span_lists:
        c, s = self_times(spans)
        calls.update(c)
        self_s.update(s)
        theta_pow += _theta_powers(spans)

    def ratio(a, b):
        return a / b if b else 0.0

    hits, misses = counts["cli.cache.hits"], counts["cli.cache.misses"]
    return {
        "ring.series_pow.calls": calls["ring.series_pow"],
        "ring.series_pow.self_s": self_s["ring.series_pow"],
        "ring.series_mul.calls": calls["ring.series_mul"],
        "ring.series_mul.self_s": self_s["ring.series_mul"],
        "ring.coeff_mul.calls": counts["ring.coeff_mul.calls"],
        "ring.grading.calls": counts["ring.grading.calls"],
        "ring.grading.hit_ratio": ratio(counts["ring.grading.hits"],
                                        counts["ring.grading.calls"]),
        "scatter.complete_rank2.self_s": self_s["scatter.complete_rank2"],
        "scatter.loop_product.calls": calls["scatter.loop_product"],
        "scatter.wall_cross.calls": calls["scatter.wall_cross"],
        "scatter.wall_cross.self_s": self_s["scatter.wall_cross"],
        "scatter.wall_cross.terms_in": counts["scatter.wall_cross.terms_in"],
        "scatter.walls_out": counts["scatter.walls_out"],
        "scatter.equivalence_check.self_s": self_s["scatter.equivalence_check"],
        "theta.enumerate.calls": calls["theta.enumerate"],
        "theta.enumerate.self_s": self_s["theta.enumerate"],
        "theta.dfs_nodes": counts["theta.dfs_nodes"],
        "theta.lines_found": counts["theta.lines_found"],
        "theta.lines_per_node": ratio(counts["theta.lines_found"],
                                      counts["theta.dfs_nodes"]),
        "theta.series_pow.calls": theta_pow,
        "theta.structure_constant.self_s": self_s["theta.structure_constant"],
        "seed.mutate_cluster.calls": calls["seed.mutate_cluster"],
        "seed.mutate_cluster.self_s": self_s["seed.mutate_cluster"],
        "seed.laurent.self_s": self_s["seed.laurent"],
        "seed.mutate_seed.calls": counts["seed.mutate_seed.calls"],
        "cli.spawn_s": statistics.median(spawn_s) if spawn_s else 0.0,
        "cli.import_s": statistics.median(import_s) if import_s else 0.0,
        "cli.cache.hits": hits,
        "cli.cache.misses": misses,
        "cli.cache.hit_ratio": ratio(hits, hits + misses),
        "cli.render.self_s": self_s["cli.render"],
    }
