"""Named verification checks: golden values from worked examples plus the
structural identities, each returning a small report dict.

These back both the command-line ``verify`` subcommand and the acceptance
test suite; every check is exact, with no tolerances anywhere.  The checks
are independent, so ``run_checks`` runs them side by side in forked worker
processes, one per usable CPU, and yields their reports in request order.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from fractions import Fraction

from . import dendriform, hopf, isos, magma, primitives, trees
from .linear import LinComb, apply_leg, pairing, parse_poly, tensor
from .trees import Forest, arity_census, enumerate_ptrees, sequence


def _report(name: str, ok: bool, **details) -> dict:
    out = {"name": name, "ok": bool(ok)}
    out.update(details)
    return out


def check_sequences() -> dict:
    expected = {
        "catalan": [1, 1, 2, 5, 14, 42, 132, 429, 1430],
        "super-catalan": [1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049],
        "log-catalan": [1, 1, 4, 13, 46, 166, 610, 2269, 8518, 32206],
        "log-super-catalan": [1, 1, 7, 33, 171, 901, 4831],
    }
    bad = {k: sequence(k, len(v)) for k, v in expected.items()
           if sequence(k, len(v)) != v}
    return _report("sequences", not bad, mismatches=bad)


def check_arity_census(max_vertices: int = 7) -> dict:
    logcat = sequence("log-catalan", max_vertices)
    odd_expected = sequence("odd-arity", max_vertices)
    rows = []
    ok = True
    for n in range(1, max_vertices + 1):
        even = odd = 0
        for t in enumerate_ptrees(n):
            e, o = arity_census(t)
            even += e
            odd += o
        good = even == logcat[n - 1] and odd == odd_expected[n - 1]
        ok = ok and good
        rows.append({"n": n, "even": even, "odd": odd, "ok": good})
    return _report("arity-census", ok, rows=rows)


def _lc(text: str) -> LinComb:
    return parse_poly(text)


def _flc(*ts) -> LinComb:
    return LinComb.of(Forest(ts))


def check_coproduct_golden() -> dict:
    failures = []
    d = hopf.coadd(_lc("(x1 x2)"))
    if d != _lc("(x1 x2) (x) 1 + 1 (x) (x1 x2) + x1 (x) x2 + x2 (x) x1"):
        failures.append("coadd 4-term")
    d = hopf.coadd(_lc("((x1 x2) x3)"))
    if d != _lc("((x1 x2) x3) (x) 1 + 1 (x) ((x1 x2) x3) + (x1 x2) (x) x3"
                " + x1 (x) (x2 x3) + x2 (x) (x1 x3) + x3 (x) (x1 x2)"
                " + (x2 x3) (x) x1 + (x1 x3) (x) x2"):
        failures.append("coadd 8-term")

    dot = trees.leaf()
    lad2, lad3 = trees.parse_tree("(o)"), trees.parse_tree("((o))")
    cor2 = trees.parse_tree("(o o)")
    f_ck = 2 * _flc(lad2) - _flc(dot, dot)
    if dendriform.delta_ck(f_ck) != tensor(f_ck, _flc()) + tensor(_flc(), f_ck):
        failures.append("ck f")
    h_ck = 2 * _flc(cor2) - _flc(lad3) - _flc(lad2, dot)
    want = (tensor(h_ck, _flc()) + tensor(_flc(), h_ck)
            + tensor(_flc(dot), f_ck) - tensor(f_ck, _flc(dot)))
    if dendriform.delta_ck(h_ck) != want:
        failures.append("ck h")

    y, up, down = _lc("(o o)"), _lc("(o (o o))"), _lc("((o o) o)")
    d = dendriform.delta_bf(down)
    if d != tensor(down, _lc("o")) + tensor(_lc("o"), down) + 2 * tensor(y, y):
        failures.append("bf Y.Y")
    q4 = _lc("(o ((o o) o))")
    d = dendriform.delta_bf(q4)
    if d != tensor(q4, _lc("o")) + tensor(_lc("o"), q4) + tensor(y, up):
        failures.append("bf degree-3")

    f = up - down
    if hopf.reduced_coproduct("lr", f) != LinComb():
        failures.append("lr f primitive")
    yy = _lc("((o o) (o o))")
    ystar = dendriform.star(y, y)
    if hopf.reduced_coproduct("lr", yy) != tensor(ystar, y) + tensor(y, ystar):
        failures.append("lr Y vee Y")
    h = q4 - _lc("((o (o o)) o)")
    if hopf.reduced_coproduct("lr", h) != tensor(y, f) - tensor(f, y):
        failures.append("lr h")
    return _report("coproduct-golden", not failures, failures=failures)


def check_coassociativity(max_degree: int = 5) -> dict:
    failures = []
    for kind in hopf.STRUCTURES:
        ok, bad = hopf.check_coassociative(kind, max_degree)
        if not ok:
            failures.append((kind, repr(bad)))
    return _report("coassociativity", not failures,
                   max_degree=max_degree, failures=failures)


def check_derivatives_golden() -> dict:
    failures = []
    f = _lc("(x1 ((x1 x2) x2))")
    if magma.partial_k(2, f) != _lc("2*(x1 (x1 x2))"):
        failures.append("d2")
    if magma.partial_k(1, f) != _lc("(x1 (x2 x2)) + ((x1 x2) x2)"):
        failures.append("d1")
    f8 = _lc("((x1 (x2 x2 x2)) ((x2 x2 x1) x2))")
    if magma.partial_k(1, f8) != _lc(
            "((x2 x2 x2) ((x2 x2 x1) x2)) + ((x1 (x2 x2 x2)) ((x2 x2) x2))"):
        failures.append("d1 eight-leaf")
    if magma.partial_kj(1, 2, f8) != _lc(
            "((x2 (x2 x2 x2)) ((x2 x2 x1) x2)) + ((x1 (x2 x2 x2)) ((x2 x2 x2) x2))"):
        failures.append("d12 eight-leaf")
    s = trees.parse_tree("((x2 x2 x2) x2)")
    if magma.partial_tree(s, f8) != _lc("(x1 (x2 x2 x1)) + 2*(x1 ((x2 x1) x2))"):
        failures.append("dS eight-leaf")
    if not magma.partial_tree(trees.parse_tree("(x2 x2 x2 x2)"), f8).is_zero():
        failures.append("d corolla-4")
    return _report("derivatives-golden", not failures, failures=failures)


def check_antipodes(max_degree: int = 5) -> dict:
    failures = []
    golden = [
        ("(x1 (x1 x1))", hopf.antipode_left, "2*(x1 (x1 x1)) - 3*((x1 x1) x1)"),
        ("((x1 x1) x1)", hopf.antipode_left, "3*(x1 (x1 x1)) - 4*((x1 x1) x1)"),
        ("(x1 (x1 x1))", hopf.antipode_right, "3*((x1 x1) x1) - 4*(x1 (x1 x1))"),
        ("((x1 x1) x1)", hopf.antipode_right, "2*((x1 x1) x1) - 3*(x1 (x1 x1))"),
    ]
    for src, fn, want in golden:
        if fn(_lc(src)) != _lc(want):
            failures.append((src, want))

    def sigma_hat(side):
        """The antipode on one leg, with the unit sent to itself."""
        return lambda t: LinComb.of(t) if t.is_empty else side(LinComb.of(t))

    for n in range(1, max_degree + 1):
        for t in trees.enumerate_trees(n, binary=True, labels=[1] * n):
            d = hopf.coadd(LinComb.of(t))
            # S * id and id * S: the antipode on one leg, then the product
            if not all(apply_leg(d, leg, sigma_hat(side)).map_basis(
                           magma.vee_monomials).is_zero()
                       for leg, side in ((0, hopf.antipode_left),
                                         (1, hopf.antipode_right))):
                failures.append(("identity", repr(t)))
            m = LinComb.of(t)
            if hopf.antipode_right_by_mirror(m) != hopf.antipode_right(m):
                failures.append(("mirror", repr(t)))
    return _report("antipodes", not failures, failures=failures)


def _random_poly(rng: random.Random, max_degree: int, nvars: int,
                 binary: bool) -> LinComb:
    terms = []
    for _ in range(rng.randint(1, 4)):
        n = rng.randint(1, max_degree)
        shape = rng.choice(trees.enumerate_trees(n, binary=binary))
        labs = [rng.randint(1, nvars) for _ in range(n)]
        terms.append((trees.relabel(shape, labs),
                      Fraction(rng.randint(-3, 3), rng.randint(1, 2))))
    return LinComb(terms)


def check_taylor(samples: int = 200, seed: int = 20260809) -> dict:
    failures = []
    tay = magma.taylor_expand(_lc("(x1 (x1 x1))"), 1)
    if (tay.coefficient((0,)) != _lc("(x1 (x1 x1)) - ((x1 x1) x1)")
            or tay.coefficient((3,)) != _lc("1")):
        failures.append("binary degree-3")
    tay = magma.taylor_expand(_lc("(x1 x1 x1)"), 1)
    if (tay.coefficient((0,)) != _lc("(x1 x1 x1) - ((x1 x1) x1)")
            or tay.coefficient((3,)) != _lc("1")):
        failures.append("ternary degree-3")
    rng = random.Random(seed)
    for i in range(samples):
        binary = i % 2 == 0
        f = _random_poly(rng, 5, 3, binary)
        tay = magma.taylor_expand(f, 3)
        if tay.reconstruct() != f:
            failures.append(("reconstruct", i))
        for j, a in tay.coefficients.items():
            for k in range(1, 4):
                if not magma.partial_k(k, a).is_zero():
                    failures.append(("non-constant coefficient", i, j))
    return _report("taylor", not failures, samples=samples, failures=failures[:5])


def check_prim_dims(mag_cap: int = 5, magw_cap: int = 4) -> dict:
    rows = []
    ok = True
    for operad, cap in (("mag", mag_cap), ("magw", magw_cap)):
        for n in range(1, cap + 1):
            r = primitives.prim_dim(operad, n)
            rows.append(r)
            ok = ok and r["match"]
    return _report("prim-dims", ok, rows=rows)


def check_named_primitives() -> dict:
    failures = []
    for name, f in primitives.named_primitives().items():
        if not hopf.is_primitive("coadd", f):
            failures.append(name)
    jac = primitives.jacobi_check()
    for key, val in jac.items():
        if not val:
            failures.append("jacobi:" + key)
    p_diag = primitives.degree4_right_substituted(*(magma.var(1),) * 4)
    if p_diag.is_zero():
        failures.append("degree4 diagonal vanishes")
    if p_diag.coeff(trees.parse_tree("((x1 x1) (x1 x1))")) == 0:
        failures.append("degree4 support")
    return _report("named-primitives", not failures, failures=failures)


def check_pbw(one_var_cap: int = 6, mag_multi_cap: int = 4,
              magw_multi_cap: int = 3) -> dict:
    sweeps = (("mag", one_var_cap, False), ("mag", mag_multi_cap, True),
              ("magw", magw_multi_cap, True))
    rows = [primitives.pbw_check(operad, n, multilinear=multilinear)
            for operad, cap, multilinear in sweeps for n in range(2, cap + 1)]
    series = (primitives.exp_series_identity("mag", 5)
              and primitives.exp_series_identity("magw", 4))
    ok = all(r["ok"] for r in rows) and series
    return _report("pbw", ok, series_identity=series,
                   rows=[{k: r[k] for k in ("operad", "n", "multilinear", "ok")
                          if k in r} for r in rows])


def check_highest_weights() -> dict:
    failures = []
    hw4 = primitives.highest_weight_basis((4,), "primitive")
    if len(hw4) != 3:
        failures.append(("one-variable degree 4", len(hw4)))
    hw31 = primitives.highest_weight_basis((3, 1), "primitive")
    if len(hw31) != 10:
        failures.append(("multidegree (3,1)", len(hw31)))
    f1 = _lc("(x2 (x1 (x1 x1))) - 3*(x1 (x2 (x1 x1)))"
             " + 3*(x1 (x1 (x2 x1))) - (x1 (x1 (x1 x2)))")
    comp = primitives.component("mag", multidegree=(3, 1))
    if not primitives.in_span(f1, hw31, comp):
        failures.append("f1 membership")
    return _report("highest-weights", not failures, failures=failures)


def check_isomorphisms(theta_cap: int = 5, psi_cap: int = 4) -> dict:
    failures = []
    r = isos.verify_hopf_morphism("theta", theta_cap)
    if not r["ok"]:
        failures.append(("theta", r["failures"][:3]))
    r = isos.verify_hopf_morphism("psi", psi_cap)
    if not r["ok"]:
        failures.append(("psi", r["failures"][:3]))
    for n in range(0, theta_cap + 1):
        for fo in trees.enumerate_forests(n):
            fp = LinComb.of(fo)
            if isos.theta(isos.xi(fp)) != fp:
                failures.append(("theta.xi", repr(fo)))
    if isos.psi(_lc("(o (o o))")) != _lc("(o (o o)) - ((o o) o)"):
        failures.append("psi comb-2 value")
    return _report("isomorphisms", not failures, failures=failures)


def check_shuffles(adjunction_cap: int = 5) -> dict:
    failures = []
    f = _lc("(x1 x2 x3)")
    got = hopf.shuffle(f, _lc("x4"))
    want = _lc("(x1 x2 x3 x4) + (x1 x2 x4 x3) + (x1 x4 x2 x3) + (x4 x1 x2 x3)"
               " + ((x1 x4) x2 x3) + (x1 (x2 x4) x3) + (x1 x2 (x3 x4))"
               " + ((x4 x1) x2 x3) + (x1 (x4 x2) x3) + (x1 x2 (x4 x3))"
               " + ((x1 x2 x3) x4) + (x4 (x1 x2 x3))")
    if got != want:
        failures.append("12-term")
    got = hopf.shuffle(hopf.shuffle(_lc("x1"), _lc("x2")), _lc("x3"))
    want = LinComb((trees.relabel(shape, perm), 1) for shape in trees.enumerate_trees(3)
                   for perm in itertools.permutations((1, 2, 3)))
    if got != want or len(got) != 18:
        failures.append("all-trees formula n=3")
    # adjunction over the one-variable bases, total degree <= cap
    coadds = {n: [(h, hopf.coadd(LinComb.of(h))) for h in trees.enumerate_trees(n, labels=[1] * n)]
              for n in range(2, adjunction_cap + 1)}
    for n1 in range(1, adjunction_cap):
        for n2 in range(1, adjunction_cap + 1 - n1):
            for a in trees.enumerate_trees(n1, labels=[1] * n1):
                for b in trees.enumerate_trees(n2, labels=[1] * n2):
                    prod = hopf.shuffle(LinComb.of(a), LinComb.of(b))
                    dual = tensor(LinComb.of(a), LinComb.of(b))
                    for h, dh in coadds[n1 + n2]:
                        lhs = prod.coeff(h)
                        rhs = pairing(dual, dh)
                        if lhs != rhs:
                            failures.append(("adjunction", repr(a), repr(b), repr(h)))
    return _report("shuffles", not failures, failures=failures[:5])


def check_constants() -> dict:
    failures = []
    dims = [1] + [len(magma.constants_basis("mag", degree=n)) for n in range(1, 6)]
    if dims != [1, 0, 0, 1, 3, 9]:
        failures.append(("one-variable dims", dims))
    # two-variable components up to total degree 4: constants dims determine
    # the full dims through the product with the polynomial algebra
    const_dim = {(0, 0): 1}
    full_dim = {(0, 0): 1}
    for d in range(1, 5):
        for d1 in range(d + 1):
            md = (d1, d - d1)
            comp = primitives.component("mag", multidegree=md)
            full_dim[md] = comp.dim
            const_dim[md] = len(magma.constants_basis("mag", multidegree=md))
    for md, dim in full_dim.items():
        total = sum(const_dim.get((j1, j2), 0)
                    for j1 in range(md[0] + 1) for j2 in range(md[1] + 1))
        if total != dim:
            failures.append(("multigraded", md, dim, total))
    # total-degree form: commuting monomials of degree d - j in two variables
    for d in range(0, 5):
        full = sum(full_dim[(d1, d - d1)] for d1 in range(d + 1))
        pred = sum(
            sum(const_dim[(j1, j - j1)] for j1 in range(j + 1)) * (d - j + 1)
            for j in range(d + 1))
        if full != pred:
            failures.append(("total-degree", d, full, pred))
    return _report("constants", not failures, failures=failures,
                   one_var_dims=dims)


CHECKS = {
    "sequences": check_sequences,
    "census": check_arity_census,
    "coproducts": check_coproduct_golden,
    "coassoc": check_coassociativity,
    "derivatives": check_derivatives_golden,
    "antipodes": check_antipodes,
    "taylor": check_taylor,
    "prim-dims": check_prim_dims,
    "jacobi": check_named_primitives,
    "pbw": check_pbw,
    "highest-weights": check_highest_weights,
    "isos": check_isomorphisms,
    "shuffles": check_shuffles,
    "constants": check_constants,
}


def _run_one(name: str, max_degree: int = None) -> dict:
    """Run one check and return its report with its wall time in seconds.

    ``max_degree`` is the sweep cap of ``coassoc`` and ``antipodes`` only.
    """
    fn = CHECKS[name]
    t0 = time.perf_counter()
    capped = max_degree is not None and name in ("coassoc", "antipodes")
    rep = fn(max_degree) if capped else fn()
    rep["name"] = name
    rep["seconds"] = round(time.perf_counter() - t0, 3)
    return rep


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_checks(names, max_degree: int = None):
    """Run the named checks; yields their reports in the order of ``names``.

    Each report is ``_run_one``'s, its ``seconds`` the check's wall time
    inside the process that ran it.  With two or more usable CPUs and more
    than one check, the checks run concurrently in a pool of forked
    workers, one per CPU up to one per check; otherwise they run here, one
    after another.  Forked workers inherit the interned trees, the caches
    and ``CHECKS`` as they stand, so a check replaced at run time runs
    replaced, and only names, ints and the plain-data reports are pickled.
    The executor forks all its workers at the first submission, before it
    starts its own threads.  An exception raised by a check reaches the
    caller with its type when that check's report is due; a worker that
    dies raises ``concurrent.futures.process.BrokenProcessPool``.  Once the
    generator is exhausted or closed, no worker is left running.
    """
    names = list(names)
    width = min(_usable_cpus(), len(names))
    if width >= 2:
        # imported only where a pool may run, so that importing this module
        # loads neither multiprocessing nor concurrent.futures
        import multiprocessing
    if width < 2 or "fork" not in multiprocessing.get_all_start_methods():
        for name in names:
            yield _run_one(name, max_degree)
        return
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(width, multiprocessing.get_context("fork"))
    try:
        yield from pool.map(_run_one, names, itertools.repeat(max_degree))
    finally:
        pool.shutdown(cancel_futures=True)
