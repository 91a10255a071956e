"""The treehopf layers as the traced run sees them.

``TARGETS`` lists, per layer metric, the functions whose self time it sums.
Functions not listed are not wrapped; their time lands in the self time of
the nearest listed caller.  Private functions are listed where they are the
callbacks handed to ``LinComb.map_basis`` (the monomial coproducts, maps and
products): unwrapped, their work would be charged to the ``linear`` layer.

``install`` wraps them all in a fresh ``Tracer``; ``metrics`` turns the
tracer's totals into the per-layer metrics named in ``PER_LAYER`` (the same
names, in the same order, as ``per_layer`` in BENCHMARK.json).
"""

from __future__ import annotations

import sys

from tracer import Tracer
from workloads import VERIFY_CHECKS

# (metric, module, function or Class.method names, hot)
TARGETS = [
    ("trees.restrict_s", "trees", ("leaf_restrict", "reduced"), True),
    ("trees.enumerate_s", "trees",
     ("enumerate_trees", "enumerate_ptrees", "enumerate_forests"), False),
    ("trees.shuffle_s", "trees",
     ("enumerate_shuffles", "enumerate_shuffles_brute"), True),
    ("hopf.coproduct_s", "hopf",
     ("coproduct", "coadd", "reduced_coproduct", "_coadd_mono"), True),
    ("hopf.antipode_s", "hopf",
     ("antipode_left", "antipode_right", "antipode_right_by_mirror",
      "_antipode_left_mono", "_antipode_right_mono"), True),
    ("hopf.shuffle_s", "hopf", ("shuffle", "nabla2"), True),
    ("dendriform.coproduct_s", "dendriform",
     ("delta_lr", "delta_ck", "delta_bf", "delta_ck_by_cuts",
      "delta_bf_comb_form", "_delta_lr_cached", "_delta_ck_tree",
      "_delta_ck_forest", "_delta_bf_mono"), True),
    ("dendriform.product_s", "dendriform",
     ("prec", "succ", "star", "_star_mono", "circ_alpha_poly",
      "vee_leaf_poly", "comb_graft_poly", "corrected_comb"), True),
    ("magma.basis_s", "magma",
     ("monomial_basis", "one_var_basis", "multilinear_basis",
      "constants_basis"), False),
    ("magma.derivative_s", "magma",
     ("partial_k", "partial_kj", "partial_tree", "mu_count",
      "_partial_k_monomial", "_restriction_table", "taylor_expand",
      "constants_projection"), True),
    ("magma.product_s", "magma",
     ("vee", "dot", "commutator", "associator", "ternary_associator",
      "right_mult", "attach_powers"), True),
    ("linear.kernel_s", "linear", ("kernel_basis",), False),
    ("linear.rank_s", "linear", ("rank",), False),
    ("linear.solve_s", "linear", ("solve_exact",), True),
    ("linear.assemble_s", "linear",
     ("matrix_from_columns", "coordinates", "RationalMatrix.__init__"), True),
    ("linear.lincomb_s", "linear",
     ("LinComb.__init__", "LinComb.__add__", "LinComb.__rmul__",
      "LinComb.map_basis", "tensor", "apply_leg"), True),
    ("primitives.self_s", "primitives",
     ("component", "reduced_coproduct_rows", "prim_basis", "prim_rank",
      "prim_dim", "component_report", "named_primitives", "jacobi_check",
      "shuffle_monomials_one_var", "shuffle_monomials_multilinear",
      "pbw_check", "exp_series_identity", "highest_weight_basis",
      "in_span"), False),
    ("isos.map_s", "isos",
     ("xi", "theta", "psi", "_xi_tree", "_xi_forest", "_xi_matrix",
      "_theta_mono", "_psi_mono", "verify_hopf_morphism"), True),
    ("cli.self_s", "cli", ("main",), False),
]

# entry points counted once per outermost call
GROUPS = {
    "hopf.coproduct": ("hopf.coproduct", "hopf.coadd", "hopf.reduced_coproduct"),
    "dendriform.coproduct": ("dendriform.delta_lr", "dendriform.delta_ck",
                             "dendriform.delta_bf", "dendriform.delta_ck_by_cuts",
                             "dendriform.delta_bf_comb_form"),
}

PER_LAYER = [
    ("trees.restrict_calls", "count"), ("trees.restrict_s", "s"),
    ("trees.enumerate_s", "s"), ("trees.shuffle_calls", "count"),
    ("trees.shuffle_s", "s"),
    ("hopf.coproduct_calls", "count"), ("hopf.coproduct_s", "s"),
    ("hopf.terms_out", "count"), ("hopf.antipode_s", "s"),
    ("hopf.shuffle_s", "s"), ("hopf.useful_ratio", "ratio"),
    ("primitives.rows_s", "s"), ("primitives.terms_kept", "count"),
    ("primitives.self_s", "s"),
    ("linear.kernel_s", "s"), ("linear.rank_s", "s"), ("linear.solve_s", "s"),
    ("linear.assemble_s", "s"), ("linear.matrix_rows", "count"),
    ("linear.matrix_cols", "count"), ("linear.matrix_nnz", "count"),
    ("linear.rank_total", "count"), ("linear.lincomb_s", "s"),
    ("linear.add_calls", "count"), ("linear.add_terms", "count"),
    ("dendriform.coproduct_calls", "count"), ("dendriform.coproduct_s", "s"),
    ("dendriform.product_s", "s"),
    ("magma.basis_s", "s"), ("magma.derivative_s", "s"),
    ("magma.product_s", "s"),
    ("isos.map_s", "s"), ("cli.self_s", "s"), ("verify.self_s", "s"),
] + [("verify.%s_s" % c, "s") for c in VERIFY_CHECKS] + [
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
]

COUNTS = ("trees.restrict_calls", "trees.shuffle_calls", "hopf.coproduct_calls",
          "hopf.terms_out", "primitives.terms_kept", "linear.matrix_rows",
          "linear.matrix_cols", "linear.matrix_nnz", "linear.rank_total",
          "linear.add_calls", "linear.add_terms", "dendriform.coproduct_calls")


def _bump(counters, key, n):
    counters[key] = counters.get(key, 0) + n


def _terms_out(counters, args, result):
    _bump(counters, "hopf.terms_out", len(result))


def _terms_kept(counters, args, result):
    _bump(counters, "primitives.terms_kept", sum(len(img) for img in result))


def _add_terms(counters, args, result):
    # terms written into the new dict: the copy of the left operand, then
    # every term of the right one
    _bump(counters, "linear.add_terms", len(args[0].terms) + len(args[1].terms))


def _matrix(counters, m):
    _bump(counters, "linear.matrix_rows", m.nrows)
    _bump(counters, "linear.matrix_cols", m.ncols)
    _bump(counters, "linear.matrix_nnz",
          sum(len(r) - r.count(0) for r in m.rows))


def _rank(counters, args, result):
    _matrix(counters, args[0])
    _bump(counters, "linear.rank_total", result)


def _kernel(counters, args, result):
    _matrix(counters, args[0])
    _bump(counters, "linear.rank_total", args[0].ncols - len(result))


def _solve(counters, args, result):
    _matrix(counters, args[0])


HOOKS = {
    "hopf.coproduct": _terms_out, "hopf.coadd": _terms_out,
    "hopf.reduced_coproduct": _terms_out,
    "primitives.reduced_coproduct_rows": _terms_kept,
    "linear.LinComb.__add__": _add_terms,
    "linear.rank": _rank, "linear.kernel_basis": _kernel,
    "linear.solve_exact": _solve,
}


def install() -> Tracer:
    """Wrap every target of an imported treehopf; ``restore`` undoes it."""
    import treehopf.cli  # noqa: F401  (loads every layer)
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "treehopf" or name.startswith("treehopf.")]
    group_of = {label: g for g, labels in GROUPS.items() for label in labels}
    tracer = Tracer()
    try:
        for metric, modname, names, hot in TARGETS:
            mod = sys.modules["treehopf." + modname]
            for name in names:
                label = "%s.%s" % (modname, name)
                opts = dict(hot=hot, group=group_of.get(label),
                            hook=HOOKS.get(label))
                if "." in name:
                    cls_name, meth = name.split(".")
                    tracer.trace_method(getattr(mod, cls_name), meth, label,
                                        metric, **opts)
                else:
                    tracer.trace_function(getattr(mod, name), modules, label,
                                          metric, **opts)
        verify = sys.modules["treehopf.verify"]
        if tuple(verify.CHECKS) != VERIFY_CHECKS:
            raise LookupError("verify.CHECKS changed: %s" % list(verify.CHECKS))
        for check, fn in list(verify.CHECKS.items()):
            tracer.trace_function(fn, modules, "verify." + check,
                                  "verify.self_s")
    except BaseException:
        tracer.restore()
        raise
    return tracer


def metrics(tracer: Tracer, wall_s: float, overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass, keyed as in ``PER_LAYER``.

    ``wall_s`` is the pass's measured wall time without the speed probes,
    the time the self times add up to; ``overhead_s`` is the pass's rescaled
    wall time minus the untraced passes' median.
    """
    out = {name: 0 for name, _ in PER_LAYER}
    out.update(tracer.self_by_metric())
    out.update(tracer.counters)
    calls = {label: p.calls for label, p in tracer.probes.items()}
    out["trees.restrict_calls"] = calls["trees.leaf_restrict"]
    out["trees.shuffle_calls"] = (calls["trees.enumerate_shuffles"]
                                  + calls["trees.enumerate_shuffles_brute"])
    out["hopf.coproduct_calls"] = tracer.entries("hopf.coproduct")
    out["dendriform.coproduct_calls"] = tracer.entries("dendriform.coproduct")
    out["linear.add_calls"] = calls["linear.LinComb.__add__"]
    out["primitives.rows_s"] = tracer.probes[
        "primitives.reduced_coproduct_rows"].incl_s
    restricts = out["trees.restrict_calls"]
    out["hopf.useful_ratio"] = (out["primitives.terms_kept"] / restricts
                                if restricts else 0.0)
    for check in VERIFY_CHECKS:
        out["verify.%s_s" % check] = tracer.probes["verify." + check].incl_s
    out["trace.wall_s"] = wall_s
    out["trace.overhead_s"] = overhead_s
    return out
