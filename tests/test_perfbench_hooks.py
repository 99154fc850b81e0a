"""The benchmark's tracer wraps gcsdiag by name; a rename must fail here.

perfbench/tracing.py replaces module attributes and methods in place.  A
hook it can no longer find would raise at install time, and one that is
found but no longer called would silently read zero in a per-layer metric.
"""

import importlib
import importlib.util
import inspect
import os
from fractions import Fraction

from gcsdiag import complete_rank2, initial_diagram
from gcsdiag.ring import Grading

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")

# hooks that install() reaches outside its SPANS table, with the
# parameters its wrappers index or pass by position
EXTRA_HOOKS = {
    ("gcsdiag.ring", "TruncatedLaurent.__mul__"): None,
    ("gcsdiag.ring", "TruncatedLaurent.__pow__"): None,
    ("gcsdiag.ring", "CoeffPoly.__mul__"): None,
    ("gcsdiag.ring", "Grading.coefficients"): ["self", "m"],
    ("gcsdiag.theta", "_segment_hits_origin"): None,
    ("gcsdiag.seed", "mutate_seed"): None,
    ("gcsdiag.cli", "_cached_text"): ["key_parts", "producer", "no_cache", "out"],
    ("gcsdiag.scatter", "wall_cross"): ["wall", "sign", "series", "proj"],
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(mname, attr):
    obj = importlib.import_module(mname)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_hook_resolves():
    tracing = _load_tracing()
    hooks = [(pair, None) for pair in tracing.SPANS.values()] + list(EXTRA_HOOKS.items())
    for (mname, attr), params in hooks:
        fn = _resolve(mname, attr)
        assert callable(fn), (mname, attr)
        if params is not None:
            assert list(inspect.signature(fn).parameters) == params, (mname, attr)


def test_grading_keeps_its_solve_cache():
    g = Grading([(0, 1), (-1, 0)])
    assert g._cache == {}
    g.degree((-1, 1))
    assert (-1, 1) in g._cache


def test_cold_theta_call_reaches_the_search_hook(g31, monkeypatch):
    # theta.dfs_nodes counts calls of _segment_hits_origin, one per state of
    # the broken-line search; a warm call reads the diagram's memo instead
    theta_mod = importlib.import_module("gcsdiag.theta")  # the package binds theta()
    calls = []
    original = theta_mod._segment_hits_origin

    def counted(point, mdir):
        calls.append(point)
        return original(point, mdir)

    monkeypatch.setattr(theta_mod, "_segment_hits_origin", counted)
    fixed, seed = g31
    diag = complete_rank2(initial_diagram(fixed, seed, 6))
    theta_mod.theta(diag, (Fraction(3, 2), 1), (0, -1))
    assert len(calls) > 3
    cold = len(calls)
    theta_mod.theta(diag, (Fraction(-3, 2), Fraction(1, 7)), (0, -1))
    assert len(calls) == cold
