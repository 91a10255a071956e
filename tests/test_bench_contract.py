"""The traced benchmark run wraps the functions that ``bench/layers.py``
lists in ``TARGETS``, looking each one up by name.  Every listed name must
stay bound, or ``--trace 1`` breaks; the list is read with ``ast``, without
importing the bench package."""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _targets():
    tree = ast.parse(LAYERS.read_text())
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in stmt.targets)):
            return ast.literal_eval(stmt.value)
    raise AssertionError("no TARGETS in %s" % LAYERS)


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for _metric, module, names, _hot in targets:
        mod = importlib.import_module("treehopf." + module)
        for name in names:
            obj = mod
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append("%s.%s" % (module, name))
    assert not missing, missing


def test_structures_are_plain_dicts():
    """The tracer rebinds module attributes and values of plain dicts only;
    a coproduct kept in any other container would escape the traced run."""
    from treehopf import hopf
    assert type(hopf.STRUCTURES) is dict
    assert all(type(st) is dict for st in hopf.STRUCTURES.values())


def test_every_kernel_passes_through_kernel_basis(monkeypatch):
    """The ``linear.kernel_s`` layer wraps ``linear.kernel_basis``: each
    exact kernel must make exactly one call to it, or the layer goes blind."""
    from treehopf import linear, magma, primitives
    calls = []
    inner = linear.kernel_basis

    def counted(m):
        calls.append(m.ncols)
        return inner(m)

    monkeypatch.setattr(linear, "kernel_basis", counted)
    for build in (
            lambda: primitives.prim_basis(primitives.component("mag", multilinear=3)),
            lambda: magma.constants_basis("mag", degree=3),
            lambda: primitives.highest_weight_basis((2, 1))):
        calls.clear()
        assert build()
        assert len(calls) == 1
    monkeypatch.undo()
    assert linear.kernel_basis is inner
