"""Co-addition on the free tree algebras, its dual shuffle product, the
co-magma map, recursive antipodes, and generic coproduct checkers.

The co-addition sends every variable to x (x) 1 + 1 (x) x and extends as an
algebra morphism for every grafting, so the co-addition of a monomial is
built from those of its children (``magma._restriction_table``).  Coproduct
dispatch covers the four structures in this package: ``coadd`` (trees,
unit 1), ``lr`` and ``bf`` (binary trees, unit the leaf), ``ck`` (forests,
unit the empty forest).
"""

from __future__ import annotations

from functools import lru_cache

from . import dendriform, magma
from .linear import LinComb, UnitTermError, apply_leg, tensor
from .trees import (ANON, EMPTY, Forest, PlanarTree, enumerate_forests,
                    enumerate_shuffles, enumerate_trees, mirror)

COPRODUCT_KINDS = ("coadd", "lr", "ck", "bf")


# the cached co-addition table itself, shared and never written to
_coadd_mono = magma._restriction_table


def coadd(f: LinComb) -> LinComb:
    """Co-addition; cocommutative, an algebra morphism for every grafting."""
    return f.map_basis(_coadd_mono)


def coproduct(kind: str, f: LinComb) -> LinComb:
    if kind == "coadd":
        return coadd(f)
    if kind == "lr":
        return dendriform.delta_lr(f)
    if kind == "ck":
        return dendriform.delta_ck(f)
    if kind == "bf":
        return dendriform.delta_bf(f)
    raise ValueError("unknown coproduct kind %r" % kind)


def coproduct_unit(kind: str):
    if kind == "coadd":
        return EMPTY
    if kind == "ck":
        return Forest(())
    return dendriform.YLEAF


def reduced_coproduct(kind: str, f: LinComb) -> LinComb:
    """The coproduct minus the two trivial terms; f may not contain the unit."""
    unit = coproduct_unit(kind)
    if f.coeff(unit):
        raise UnitTermError("reduced coproduct needs a zero unit coefficient")
    d = coproduct(kind, f)
    one = LinComb.of(unit)
    return d - tensor(f, one) - tensor(one, f)


def is_primitive(kind: str, f: LinComb) -> bool:
    """Whether the reduced coproduct vanishes; a nonzero multiple of the
    co-addition unit is group-like, so it is not primitive."""
    if f.is_zero():
        return True
    if kind == "coadd" and f.support() == {EMPTY}:
        return False
    return reduced_coproduct(kind, f).is_zero()


def half_degree(red: LinComb, n: int) -> LinComb:
    """The terms of a degree-n co-addition whose first leg has at most half
    of the n leaves; by cocommutativity they determine the rest."""
    return LinComb((pair, c) for pair, c in red.items()
                   if 2 * pair[0].leaf_count <= n)


# -- dual shuffle multiplication ----------------------------------------------

def shuffle(f: LinComb, g: LinComb, binary: bool = False) -> LinComb:
    """Dual of the co-addition: commutative, associative, unit 1.

    With ``binary`` the result is projected onto binary trees, which is the
    shuffle of the binary-tree algebra.
    """
    out = tensor(f, g).map_basis(_shuffle_mono)
    return LinComb((t, c) for t, c in out.items() if t.is_binary) if binary else out


def _shuffle_mono(pair) -> LinComb:
    a, b = pair
    if a.is_empty:
        return LinComb.of(b)
    if b.is_empty:
        return LinComb.of(a)
    return LinComb(enumerate_shuffles(a, b))


def nabla2(f: LinComb) -> LinComb:
    """Dual of the binary grafting: the co-magma map on the shuffle algebra."""

    def on_mono(t: PlanarTree) -> LinComb:
        if t.is_empty:
            return LinComb.of((EMPTY, EMPTY))
        pairs = [(t, EMPTY), (EMPTY, t)]
        if t.is_node and len(t.children) == 2:
            pairs.append(t.children)
        return LinComb((pair, 1) for pair in pairs)

    return f.map_basis(on_mono)


# -- antipodes ------------------------------------------------------------------

@lru_cache(maxsize=None)
def _antipode_left_mono(t: PlanarTree) -> LinComb:
    """S(t) = -t - sum S(t') t'' over the reduced co-addition of t."""
    red = reduced_coproduct("coadd", LinComb.of(t))
    return -LinComb.of(t) - apply_leg(red, 0, _antipode_left_mono).map_basis(
        magma.vee_monomials)


@lru_cache(maxsize=None)
def _antipode_right_mono(t: PlanarTree) -> LinComb:
    """S(t) = -t - sum t' S(t'') over the reduced co-addition of t."""
    red = reduced_coproduct("coadd", LinComb.of(t))
    return -LinComb.of(t) - apply_leg(red, 1, _antipode_right_mono).map_basis(
        magma.vee_monomials)


def antipode_left(f: LinComb) -> LinComb:
    """Left antipode for the co-addition, with the binary product in the recursion."""
    if f.coeff(EMPTY):
        raise UnitTermError("antipode needs a zero unit coefficient")
    return f.map_basis(_antipode_left_mono)


def antipode_right(f: LinComb) -> LinComb:
    if f.coeff(EMPTY):
        raise UnitTermError("antipode needs a zero unit coefficient")
    return f.map_basis(_antipode_right_mono)


def antipode_right_by_mirror(f: LinComb) -> LinComb:
    """The right antipode as the mirror conjugate of the left one."""
    m = f.map_basis(mirror)
    return antipode_left(m).map_basis(mirror)


# -- checkers -------------------------------------------------------------------

def basis_elements(kind: str, degree: int):
    """Canonical monomial basis of one graded component of the algebra
    carrying the coproduct; degree counts leaves (coadd, anonymous labels),
    internal vertices (lr/bf) or total vertices (ck)."""
    if kind == "coadd":
        return enumerate_trees(degree)
    if kind in ("lr", "bf"):
        if degree == 0:
            return [dendriform.YLEAF]
        return enumerate_trees(degree + 1, binary=True)
    if kind == "ck":
        return enumerate_forests(degree)
    raise ValueError("unknown coproduct kind %r" % kind)


_BASES = {"coadd": "trees", "ck": "forests",
          "lr": "non-empty binary trees with anonymous leaves"}
_BASES["bf"] = _BASES["lr"]


def check_basis(kind: str, f: LinComb) -> None:
    """Raise ValueError unless every basis element of f lies in the algebra
    carrying the coproduct of this kind, as named in ``_BASES``."""
    for b in f.support():
        if kind == "ck":
            ok = isinstance(b, Forest)
        else:
            ok = isinstance(b, PlanarTree) and (kind == "coadd" or (
                not b.is_empty and b.is_binary and set(b.labels()) == {ANON}))
        if not ok:
            raise ValueError("the %s basis is %s, got %r" % (kind, _BASES[kind], b))


def check_coassociative(kind: str, max_degree: int):
    """Verify (Delta (x) id) Delta = (id (x) Delta) Delta on every basis
    element up to the cap; returns (ok, first failure or None)."""
    lo = 1 if kind == "coadd" else 0
    for n in range(lo, max_degree + 1):
        for b in basis_elements(kind, n):
            d = coproduct(kind, LinComb.of(b))
            lhs = apply_leg(d, 0, lambda x: coproduct(kind, LinComb.of(x)))
            rhs = apply_leg(d, 1, lambda x: coproduct(kind, LinComb.of(x)))
            if lhs != rhs:
                return False, b
    return True, None
