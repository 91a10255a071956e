"""Tests of the benchmark's tracer and layer table.

    python3 -m pytest -q bench/tests
"""

import os
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    """A clock that advances only when the toy code says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def toy_module(clock):
    """leaf <- mid <- root, a self-recursive countdown, a dict binding and a
    class method, all calling each other through the module's globals."""
    mod = types.ModuleType("toy")
    src = '''
def leaf():
    tick(1.0)
    return 1

def mid():
    tick(2.0)
    return leaf() + leaf()

def root():
    tick(4.0)
    return mid() + leaf() + countdown(3)

def countdown(n):
    tick(0.5)
    return 0 if n == 0 else countdown(n - 1)

TABLE = {"nested": {"fn": leaf}}

class Box:
    def get(self):
        tick(8.0)
        return leaf()
'''
    mod.tick = clock.tick
    exec(src, mod.__dict__)
    return mod


def bindings(mod):
    return (dict(vars(mod)), dict(mod.TABLE["nested"]), dict(vars(mod.Box)))


def test_restore_puts_back_every_binding():
    clock = FakeClock()
    mod = toy_module(clock)
    before = bindings(mod)
    tr = Tracer(clock)
    for name in ("leaf", "mid", "root", "countdown"):
        tr.trace_function(getattr(mod, name), [mod], "toy." + name, "toy_s")
    tr.trace_method(mod.Box, "get", "toy.Box.get", "toy_s")
    assert mod.leaf is not before[0]["leaf"]
    assert mod.TABLE["nested"]["fn"] is mod.leaf
    assert vars(mod.Box)["get"] is not before[2]["get"]
    tr.restore()
    after = bindings(mod)
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        for key in old:
            assert new[key] is old[key], key


def test_self_times_sum_to_inclusive_time():
    clock = FakeClock()
    mod = toy_module(clock)
    tr = Tracer(clock)
    for name in ("leaf", "mid", "root", "countdown"):
        tr.trace_function(getattr(mod, name), [mod], "toy." + name,
                          "toy.%s_s" % name)
    assert mod.root() == 3
    p = tr.probes
    assert p["toy.root"].incl_s == 4.0 + 4.0 + 1.0 + 2.0
    assert p["toy.root"].self_s == 4.0
    assert p["toy.mid"].self_s == 2.0
    assert p["toy.leaf"].self_s == 3.0 and p["toy.leaf"].calls == 3
    # direct recursion stays inside the outer frame
    assert p["toy.countdown"].calls == 1 and p["toy.countdown"].self_s == 2.0
    assert sum(q.self_s for q in p.values()) == p["toy.root"].incl_s
    # spans: every span but the root names its caller's span
    by_id = {s[0]: s for s in tr.spans}
    assert [s[2] for s in tr.spans if s[1] is None] == ["toy.root"]
    assert all(s[1] in by_id for s in tr.spans if s[1] is not None)
    tr.restore()


def test_hot_targets_and_groups():
    clock = FakeClock()
    mod = toy_module(clock)
    tr = Tracer(clock)
    tr.trace_function(mod.root, [mod], "toy.root", "toy_s")
    tr.trace_function(mod.mid, [mod], "toy.mid", "toy_s", group="g",
                      hook=lambda c, a, r: c.__setitem__("n", c.get("n", 0) + r))
    tr.trace_function(mod.leaf, [mod], "toy.leaf", "toy_s", hot=True, group="g")
    mod.root()
    mod.leaf()
    # root's mid (its two leaves nest in it), root's own leaf, the outer leaf
    assert tr.entries("g") == 3
    assert tr.counters == {"n": 2}       # hook ran on mid's outermost call
    assert {s[2] for s in tr.spans} == {"toy.root", "toy.mid"}
    tr.restore()


def test_generators_are_refused():
    def gen():
        yield 1
    with pytest.raises(TypeError):
        Tracer().wrap("gen", gen, "x_s")


def _treehopf_bindings():
    mods = {n: m for n, m in sys.modules.items()
            if n == "treehopf" or n.startswith("treehopf.")}
    snap = {}

    def walk(prefix, d, seen):
        if id(d) in seen:
            return
        seen.add(id(d))
        for k, v in list(d.items()):
            snap[prefix + (k,)] = v
            if type(v) is dict:
                walk(prefix + (k,), v, seen)

    for name, m in mods.items():
        walk((name,), vars(m), set())
    from treehopf.linear import LinComb, RationalMatrix
    for cls in (LinComb, RationalMatrix):
        for k, v in vars(cls).items():
            snap[(cls.__name__, k)] = v
    return snap


def test_layers_install_and_restore_on_treehopf():
    import treehopf.cli  # noqa: F401
    from treehopf import hopf, primitives
    hopf._coadd_mono.cache_clear()
    comp = primitives.component("mag", degree=6)
    before = _treehopf_bindings()
    tr = layers.install()
    try:
        replaced = [k for k, v in _treehopf_bindings().items()
                    if k in before and v is not before[k]]
        # `from .x import f` copies are rebound too
        assert ("treehopf.hopf", "leaf_restrict") in replaced
        assert ("treehopf.verify", "CHECKS", "coassoc") in replaced
        assert ("treehopf.isos", "_MAPS", "theta", "src_product") in replaced
        assert primitives.prim_rank(comp) == 27
    finally:
        tr.restore()
    after = _treehopf_bindings()
    assert after.keys() >= before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed
    root = tr.probes["primitives.prim_rank"]
    total_self = sum(p.self_s for p in tr.probes.values())
    assert total_self + tr.hook_s[0] == pytest.approx(root.incl_s, rel=1e-9)
    assert tr.probes["trees.leaf_restrict"].calls == 42 * 2 ** 6 * 2


def test_per_layer_names_match_benchmark_json():
    import json
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
