"""Graded isomorphisms between the three binary-tree / forest Hopf algebras.

``xi`` maps the forest algebra into binary trees; ``theta``, its inverse,
intertwines the forest coproduct with the dendriform one; ``psi`` turns the
first-leaf-product coalgebra into the dendriform one.  A generic verifier
checks multiplicativity, coproduct intertwining and per-degree bijectivity
for any of the named maps.

``theta`` is a structural recursion, with no linear solve: ``xi`` turns
concatenation into ``star`` and grafting into ``vee_leaf``, and for
t = (l r) the succ half of l * vee_leaf(r) is t itself, so
theta(t) = theta(l)·[graft(theta(r))] - theta(prec(l, vee_leaf(r))).  Every
prec term has the left child of l as its left subtree, so the recursion
ends, and its depth follows the left spine (Holtkamp, "Comparison of Hopf
algebras on trees", Arch. Math. 2003).
"""

from __future__ import annotations

from functools import lru_cache

from . import dendriform, hopf
from .linear import (LinComb, coordinates, matrix_from_columns, multilinear,
                     rank, tensor)
from .trees import Forest, PlanarTree, degraft, graft, right_comb_presentation


@lru_cache(maxsize=None)
def _xi_tree(t: PlanarTree) -> LinComb:
    out = dendriform.vee_leaf_poly(_xi_forest(degraft(t)))
    return out


def _xi_forest(f: Forest) -> LinComb:
    out = LinComb.of(dendriform.YLEAF)
    for t in f:
        out = dendriform.star(out, _xi_tree(t))
    return out


def xi(fp: LinComb) -> LinComb:
    """Forest algebra to binary trees: multiplicative into the dendriform
    product, one new root with a left leaf per vertex peeled off."""
    return fp.map_basis(_xi_forest)


@lru_cache(maxsize=None)
def _xi_matrix(n: int):
    """Coordinates of xi on the degree-n forest basis, with the bases; the
    tests' invertibility oracle, with no caller in the library."""
    forests = hopf.basis_elements("ck", n)
    ytrees = hopf.basis_elements("lr", n)
    coords = coordinates(ytrees)
    cols = [xi(LinComb.of(f)) for f in forests]
    return forests, ytrees, matrix_from_columns(cols, coords)


@lru_cache(maxsize=None)
def _theta_mono(t: PlanarTree) -> LinComb:
    if t is dendriform.YLEAF:
        return LinComb.of(Forest(()))
    # l * vee_leaf(r) = t + prec(l, vee_leaf(r)), read through theta
    l, r = t.children
    grafted = _theta_mono(r).map_basis(lambda f: Forest((graft(f),)))
    return (multilinear(lambda fg: fg[0] + fg[1], (_theta_mono(l), grafted))
            - theta(dendriform._prec_mono(l, dendriform.vee_leaf(r))))


def theta(yp: LinComb) -> LinComb:
    """Binary trees to forests: the inverse of xi, by structural recursion."""
    return yp.map_basis(_theta_mono)


@lru_cache(maxsize=None)
def _psi_mono(t: PlanarTree) -> LinComb:
    if t is dendriform.YLEAF:
        return LinComb.of(dendriform.YLEAF)
    if t is dendriform.Y:
        return LinComb.of(dendriform.Y)
    l, r = t.children
    if l is dendriform.YLEAF:
        # generator: t with the left leaf removed has comb presentation parts
        parts = right_comb_presentation(r)
        args = [_psi_mono(p) for p in reversed(parts)]
        g = dendriform.corrected_comb(args)
        return dendriform.vee_leaf_poly(g) - g.map_basis(
            lambda s: dendriform.comb_graft((s,)))
    # general tree: first-leaf product of the generator on r with l
    return dendriform.star(_psi_mono(dendriform.vee_leaf(r)), _psi_mono(l))


def psi(yp: LinComb) -> LinComb:
    """First-leaf-product algebra to the dendriform algebra; a graded Hopf
    isomorphism from the renormalization coproduct to the dendriform one."""
    return yp.map_basis(_psi_mono)


# -- generic morphism verification ---------------------------------------------

_MAPS = {
    "xi": {
        "apply": xi,
        "src_kind": "ck", "dst_kind": "lr",
        "src_product": lambda a, b: LinComb.of(a + b),
        "dst_product": dendriform._star_mono,
        "intertwines": False,  # xi is an algebra map; theta is the Hopf side
    },
    "theta": {
        "apply": theta,
        "src_kind": "lr", "dst_kind": "ck",
        "src_product": dendriform._star_mono,
        "dst_product": lambda a, b: LinComb.of(a + b),
        "intertwines": True,
    },
    "psi": {
        "apply": psi,
        "src_kind": "bf", "dst_kind": "lr",
        "src_product": lambda a, b: LinComb.of(dendriform.circ_alpha(a, b)),
        "dst_product": dendriform._star_mono,
        "intertwines": True,
    },
}


def verify_hopf_morphism(name: str, max_degree: int) -> dict:
    """Check a named map on every basis element up to the degree cap.

    Verifies multiplicativity against the two products, the coproduct
    intertwining, and per-degree bijectivity; the report lists every failure.
    """
    spec = _MAPS[name]
    apply_map = spec["apply"]
    failures = []
    # per-degree bijectivity
    for n in range(1, max_degree + 1):
        src = hopf.basis_elements(spec["src_kind"], n)
        dst = hopf.basis_elements(spec["dst_kind"], n)
        cols = [apply_map(LinComb.of(b)) for b in src]
        m = matrix_from_columns(cols, coordinates(dst))
        if len(src) != len(dst) or rank(m) != len(dst):
            failures.append(("bijective", n))
    # multiplicativity
    for n1 in range(1, max_degree):
        for n2 in range(1, max_degree + 1 - n1):
            for a in hopf.basis_elements(spec["src_kind"], n1):
                for b in hopf.basis_elements(spec["src_kind"], n2):
                    lhs = apply_map(spec["src_product"](a, b))
                    rhs = tensor(apply_map(LinComb.of(a)), apply_map(LinComb.of(b))
                                 ).map_basis(lambda ab: spec["dst_product"](*ab))
                    if lhs != rhs:
                        failures.append(("multiplicative", a, b))
    # coproduct intertwining
    if spec["intertwines"]:
        src_kind, dst_kind = spec["src_kind"], spec["dst_kind"]
        for n in range(1, max_degree + 1):
            for a in hopf.basis_elements(src_kind, n):
                d = hopf.coproduct(src_kind, LinComb.of(a))
                lhs = d.map_basis(lambda uv: tensor(*(apply_map(LinComb.of(x))
                                                      for x in uv)))
                rhs = hopf.coproduct(dst_kind, apply_map(LinComb.of(a)))
                if lhs != rhs:
                    failures.append(("intertwines", a))
    return {"map": name, "maxDegree": max_degree,
            "ok": not failures, "failures": failures}
