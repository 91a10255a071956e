"""Command-line front end.

Subcommands: trees, coproduct, shuffle, derive, dtree, taylor, prim-dim,
hw-dim, verify, seq, iso.  Output is text (canonical term order) or JSON
with a pinned ``"schema": 1`` field.  Exit status: 0 success, 1 verification
failure or stdout closed early, 2 usage or parse error (input nested too
deeply, or a polynomial argument outside its basis, included).  Polynomial
arguments read stdin when given as ``-``; they are reduced trees, except
that a ``coproduct`` or ``iso`` input lies in the basis ``hopf.STRUCTURES``
gives its kind.  ``prim-dim`` and ``hw-dim`` refuse, with exit 2, a component
whose ambient dimension (counted before any basis is built) is above
``AMBIENT_CAP`` columns; ``primitives`` computes such a component uncapped.
``iso`` refuses, with exit 2, an input whose top degree n has more than
``AMBIENT_CAP`` basis elements, the Catalan number C_n (forests of n
vertices for ``xi``, binary trees of n internal vertices for ``theta`` and
``psi``): degree 11 (58,786) runs and degree 12 (208,012) is refused, and
``isos`` applies the maps uncapped.  ``seq`` refuses, with exit 2, a
``--count`` above ``SEQ_CAP`` = 700: the Catalan and super-Catalan numbers
come from a closed form and a three-term recurrence, but the log kinds and
``odd-arity`` go through ``log_derivative``, O(count^2) big-integer
products, and the slowest kind (``log-super-catalan``) takes about 0.5 s
end to end at 700 (Python 3.11, one core of a 2-core x86_64 machine);
``trees.sequence`` computes more terms uncapped.  ``coproduct`` refuses,
with exit 2 and before printing, output whose legs hold more than
``COPRODUCT_CAP`` = 131,072 vertices, 2-3 bytes of text each: any
monomial of 12 leaves and a right comb of 255 levels run, 13 distinct
leaves or 256 levels are refused; ``hopf.coproduct`` computes uncapped.
``trees`` refuses, with exit 2, a leaf count whose reduced trees (the
super-Catalan number, or the Catalan number C_{N-1} with ``--binary``)
number more than ``TREES_CAP`` = 3,000,000: 12 leaves (2,646,723) run and 13 (13,648,869) are refused, and
``trees.enumerate_trees`` enumerates uncapped.  ``verify`` refuses, with exit
2 and before any check runs, a ``--max-degree`` above ``VERIFY_DEGREE_CAP`` =
9; ``verify.run_checks`` runs higher degrees.  ``taylor`` refuses, with exit
2, a ``--vars`` above ``VARS_CAP`` = 100,000, since each coefficient prints
an exponent vector with one entry per variable; ``magma.taylor_expand``
expands uncapped.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import hopf, isos, magma, primitives, verify
from .linear import LinComb, format_poly, parse_poly
from .dendriform import ydegree
from .trees import (Forest, ParseError, SEQUENCE_KINDS, TreeError,
                    enumerate_trees, format_tree, sequence)

SCHEMA = 1

# The cap counts columns and does not bound the cost below it: ``prim-dim``
# on multilinear mag n=6 (30,240 columns) takes 1.2-1.4 s at a 170 MB peak,
# on one-variable mag d=11 (16,796) 1.6-1.8 s at 213 MB and on d=12
# (58,786) 10.1-10.3 s at 1,095 MB (3 runs each of scripts/reach.py; Python
# 3.11.7, one core of a shared 2-core Intel Xeon machine with 8 GB);
# multilinear mag n=7 (665,280) and hw-dim 3,3,3 (2,402,400) are refused.
AMBIENT_CAP = 60_000
SEQ_CAP = 700
# 16 balanced distinct labels print 1,966,082 vertices (5.8 MB, 1.6 s; 0.3 s
# to refuse, Python 3.11 on a 2-core x86_64), a d-level right comb 2 (d + 1)^2
COPRODUCT_CAP = 131_072
# ``trees 12`` (2,646,723 reduced trees) runs in about 70 s at a 1.8 GB peak
# (Python 3.11, one core of a 2-core x86_64 machine); ``trees 13``
# (13,648,869) would need about five times that memory, so it is refused
TREES_CAP = 3_000_000
# ``verify coassoc`` takes 4.3-5.0 s at 8 and 40 s at a 375 MB peak at 9,
# and ``verify antipodes`` 19 s at 9; at 10 ``coassoc`` had not finished
# after 60 s nor ``antipodes`` after 200 s (Python 3.11, one core of a
# 2-core x86_64 machine)
VERIFY_DEGREE_CAP = 9
# every coefficient line of ``taylor`` holds --vars exponents: 300 KB per
# line at the cap, 15 MB at 5,000,000, and 99,999,999,999 ran out of memory
# padding the exponent vectors
VARS_CAP = 100_000


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    pass


def _at_least(lo: int, value: int, flag: str):
    if value < lo:
        raise SystemExit2("%s must be >= %d, got %d" % (flag, lo, value))


def _at_most(hi: int, value: int, flag: str, beyond: str):
    if value > hi:
        raise SystemExit2("%s must be <= %d, got %d; %s" % (flag, hi, value, beyond))


def _poly_arg(text: str, kind: str = "coadd") -> LinComb:
    """Parse a polynomial argument (``-`` reads stdin) in the basis of the
    coproduct kind; a basis element outside it raises ValueError."""
    if text == "-":
        text = sys.stdin.read()
    f = parse_poly(text)
    hopf.check_basis(kind, f)
    return f


def _operad_arg(text: str, operad: str) -> LinComb:
    """Parse a polynomial argument in the operad's basis: reduced trees,
    binary ones when its ``magma.OPERADS`` row is binary."""
    f = _poly_arg(text)
    if magma.operad_spec(operad)["binary"]:
        for b in f.support():
            if not b.is_binary:
                raise ValueError("the %s basis is binary reduced trees, got %r"
                                 % (operad, LinComb.of(b)))
    return f


def _check_ambient(operad, degree, multidegree=None):
    """Exit 2 when the component of ``degree`` leaves, of ``multidegree`` or
    multilinear when it is None, is above ``AMBIENT_CAP``."""
    _check_cap(degree, lambda: primitives.ambient_dim(
        operad, multidegree or (1,) * degree), AMBIENT_CAP,
        "treehopf.primitives.component")


def _check_cap(leaves: int, count, cap: int, uncapped: str,
               counted: str = "the component has %s basis elements"):
    """Exit 2 when the ``count()`` items (``counted`` says what they are)
    built from trees with ``leaves`` leaves are above ``cap``; ``uncapped``
    names the library function that computes them anyway.  From 30 leaves
    on the tree shapes alone number more than 10^15 (C_29), so ``count`` is
    not called; below 1 leaf the builder is left to give its own message."""
    if leaves < 1:
        return
    dim = count() if leaves < 30 else None
    if dim is None or dim > cap:
        raise SystemExit2(
            counted % ("more than 10^15" if dim is None else dim)
            + ", above the cap of %d; %s computes it uncapped" % (cap, uncapped))


def _emit(args, text_fn, payload: dict):
    if args.format == "json":
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, default=str))
    else:
        print(text_fn())


def _cmd_trees(args) -> int:
    _at_least(0, args.vars, "--vars")
    _check_cap(args.leaves, lambda: sequence(
        "catalan" if args.binary else "super-catalan", args.leaves)[-1],
        TREES_CAP, "treehopf.trees.enumerate_trees",
        "the enumeration has %s trees")
    labels = None
    if args.vars:
        labels = [(i % args.vars) + 1 for i in range(args.leaves)]
    texts = [format_tree(t)
             for t in enumerate_trees(args.leaves, binary=args.binary, labels=labels)]
    _emit(args, lambda: "\n".join(texts), {"count": len(texts), "trees": texts})
    return 0


def _cmd_coproduct(args) -> int:
    f = _poly_arg(args.poly, args.kind)
    d = hopf.coproduct(args.kind, f)
    printed = sum(leg.degree if isinstance(leg, Forest) else leg.vertex_count
                  for key in d.support() for leg in key)
    _at_most(COPRODUCT_CAP, printed, "the coproduct's printed vertices",
             "treehopf.hopf.coproduct computes it uncapped")
    _emit(args, lambda: format_poly(d),
          {"kind": args.kind, "input": format_poly(f), "coproduct": format_poly(d)})
    return 0


def _cmd_shuffle(args) -> int:
    f, g = (_operad_arg(p, args.operad) for p in (args.left, args.right))
    r = hopf.shuffle(f, g, args.operad)
    _emit(args, lambda: format_poly(r),
          {"operad": args.operad, "shuffle": format_poly(r)})
    return 0


def _cmd_derive(args) -> int:
    _at_least(1, args.var, "--var")
    if args.to is not None:
        _at_least(1, args.to, "--to")
    f = _poly_arg(args.poly)
    if args.to is not None:
        r = magma.partial_kj(args.var, args.to, f)
    else:
        r = magma.partial_k(args.var, f)
    _emit(args, lambda: format_poly(r), {"derivative": format_poly(r)})
    return 0


def _cmd_dtree(args) -> int:
    s = _poly_arg(args.tree)
    f = _poly_arg(args.poly)
    r = magma.partial_tree(s, f)
    _emit(args, lambda: format_poly(r), {"derivative": format_poly(r)})
    return 0


def _cmd_taylor(args) -> int:
    _at_least(1, args.vars, "--vars")
    _at_most(VARS_CAP, args.vars, "--vars",
             "magma.taylor_expand expands more variables")
    f = _poly_arg(args.poly)
    tay = magma.taylor_expand(f, args.vars)
    rows = [(j, format_poly(c)) for j, c in sorted(tay.coefficients.items())]
    _emit(args, lambda: "\n".join("%s: %s" % (list(j), c) for j, c in rows),
          {"vars": args.vars,
           "coefficients": [{"exponents": list(j), "value": c} for j, c in rows]})
    return 0


def _cmd_prim_dim(args) -> int:
    _check_ambient(args.operad, args.degree,
                   None if args.multilinear else (args.degree,))
    if args.multilinear:
        comp = primitives.component(args.operad, multilinear=args.degree)
    else:
        comp = primitives.component(args.operad, degree=args.degree)
    rep = primitives.component_report(comp)
    ok = rep.get("match", True)

    def text():
        lines = ["ambient %d, primitive %d" % (rep["ambientDim"], rep["primDim"])]
        if "formulaDim" in rep:
            lines.append("formula %d (%s)" % (
                rep["formulaDim"], "match" if rep["match"] else "MISMATCH"))
        lines.extend(rep["basisSample"])
        return "\n".join(lines)

    _emit(args, text, rep)
    return 0 if ok else 1


def _cmd_hw_dim(args) -> int:
    _at_least(0, args.sample, "--sample")
    try:
        md = tuple(int(x) for x in args.multidegree.split(","))
    except ValueError:
        raise SystemExit2("--multidegree takes comma-separated integers, got %r"
                          % args.multidegree) from None
    for d in md:
        _at_least(0, d, "--multidegree entries")
    _check_ambient(args.operad, sum(md), md)
    dim, basis = primitives.highest_weight_sample(md, args.constraint, args.sample,
                                                  args.operad)
    texts = [format_poly(b) for b in basis]
    _emit(args, lambda: "\n".join([str(dim)] + texts),
          {"operad": args.operad, "multidegree": list(md),
           "constraint": args.constraint, "dim": dim, "basisSample": texts})
    return 0


def _cmd_verify(args) -> int:
    if args.max_degree is not None:
        _at_least(1, args.max_degree, "--max-degree")
        _at_most(VERIFY_DEGREE_CAP, args.max_degree, "--max-degree",
                 "verify.run_checks runs higher degrees")
    names = list(verify.CHECKS) if args.check == "all" else [args.check]
    reports = []
    ok = True
    for rep in verify.run_checks(names, max_degree=args.max_degree):
        reports.append(rep)
        ok = ok and rep["ok"]
        if args.format != "json":
            print("%s %s (%.2fs)" % ("PASS" if rep["ok"] else "FAIL",
                                     rep["name"], rep["seconds"]))
            if not rep["ok"]:
                print("  %s" % json.dumps(
                    {k: v for k, v in rep.items()
                     if k not in ("name", "ok", "seconds", "rows")},
                    default=str))
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, "ok": ok, "checks": reports},
                         default=str))
    else:
        print("%d/%d checks passed" % (sum(r["ok"] for r in reports), len(reports)))
    return 0 if ok else 1


def _cmd_seq(args) -> int:
    _at_most(SEQ_CAP, args.count, "--count", "trees.sequence computes longer sequences")
    vals = sequence(args.kind, args.count)
    _emit(args, lambda: " ".join(str(v) for v in vals),
          {"kind": args.kind, "values": vals})
    return 0


def _cmd_iso(args) -> int:
    spec = isos._MAPS[args.map]
    f = _poly_arg(args.poly, spec["src_kind"])
    # C_n forests of n vertices and C_n binary trees of n internal vertices,
    # that is of n + 1 leaves
    n = max((b.degree if isinstance(b, Forest) else ydegree(b)
             for b in f.support()), default=0)
    _check_cap(n + 1, lambda: sequence("catalan", n + 1)[-1], AMBIENT_CAP,
               "treehopf.isos." + args.map)
    r = spec["apply"](f)
    _emit(args, lambda: format_poly(r), {"map": args.map, "image": format_poly(r)})
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parsing leaves an argparse parser unchanged, so ``main`` reuses it."""
    p = _CliParser(prog="treehopf",
                   description="exact computations in planar-tree Hopf algebras")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("trees", help="enumerate reduced planar trees")
    sp.add_argument("leaves", type=int)
    sp.add_argument("--binary", action="store_true")
    sp.add_argument("--vars", type=int, default=0,
                    help="cycle labels x1..xm over the leaves (0: unlabeled)")
    common(sp)
    sp.set_defaults(fn=_cmd_trees)

    sp = sub.add_parser("coproduct", help="apply a coproduct to a polynomial")
    sp.add_argument("--kind", choices=tuple(hopf.STRUCTURES), default="coadd")
    sp.add_argument("poly")
    common(sp)
    sp.set_defaults(fn=_cmd_coproduct)

    sp = sub.add_parser("shuffle", help="dual shuffle product of two polynomials")
    sp.add_argument("--operad", choices=tuple(magma.OPERADS), default="magw")
    sp.add_argument("left")
    sp.add_argument("right")
    common(sp)
    sp.set_defaults(fn=_cmd_shuffle)

    sp = sub.add_parser("derive", help="partial derivative")
    sp.add_argument("--var", type=int, required=True)
    sp.add_argument("--to", type=int, default=None,
                    help="relabel to this variable instead of erasing")
    sp.add_argument("poly")
    common(sp)
    sp.set_defaults(fn=_cmd_derive)

    sp = sub.add_parser("dtree", help="generalized differential operator")
    sp.add_argument("tree", help="the operator monomial (or homogeneous polynomial)")
    sp.add_argument("poly")
    common(sp)
    sp.set_defaults(fn=_cmd_dtree)

    sp = sub.add_parser("taylor", help="right Taylor expansion")
    sp.add_argument("--vars", type=int, required=True)
    sp.add_argument("poly")
    common(sp)
    sp.set_defaults(fn=_cmd_taylor)

    sp = sub.add_parser("prim-dim", help="primitive dimension of a component")
    sp.add_argument("--operad", choices=tuple(magma.OPERADS), default="mag")
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--multilinear", action="store_true")
    common(sp)
    sp.set_defaults(fn=_cmd_prim_dim)

    sp = sub.add_parser("hw-dim", help="highest weight vector space")
    sp.add_argument("--operad", choices=tuple(magma.OPERADS), default="mag")
    sp.add_argument("--multidegree", required=True, help="e.g. 3,1")
    sp.add_argument("--constraint", choices=("primitive", "constant"),
                    default="primitive")
    sp.add_argument("--sample", type=int, default=3)
    common(sp)
    sp.set_defaults(fn=_cmd_hw_dim)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("check", choices=tuple(verify.CHECKS) + ("all",))
    sp.add_argument("--max-degree", type=int, default=None)
    common(sp)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("seq", help="integer sequence values")
    sp.add_argument("kind", choices=SEQUENCE_KINDS)
    sp.add_argument("--count", type=int, default=10)
    common(sp)
    sp.set_defaults(fn=_cmd_seq)

    sp = sub.add_parser("iso", help="apply a Hopf isomorphism")
    sp.add_argument("map", choices=("theta", "xi", "psi"))
    sp.add_argument("poly")
    common(sp)
    sp.set_defaults(fn=_cmd_iso)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        status = args.fn(args)
        # flush inside the try, so a reader that has gone is met here
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # stdout was closed early (``| head``): point it at devnull, so the
        # flush at interpreter exit cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except SystemExit2 as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (ParseError, TreeError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
