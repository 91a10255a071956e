"""The one-generator dendriform algebra on planar binary trees, the grafting
operations under/over/first-leaf, and three Hopf coproducts on tree bases.

Planar binary trees here are unlabeled; the single leaf is the unit of the
associative product ``star`` and has degree 0 (degree counts internal
vertices).  The planar-forest Hopf algebra uses all planar trees graded by
the total vertex count, with the empty forest as unit.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .linear import LinComb, apply_leg, multilinear, tensor
from .trees import (ANON, Forest, NotBinaryError, PlanarTree,
                    admissible_cuts, comb_graft, graft, leaf, node,
                    right_comb_presentation, substitute_at_leaf)

YLEAF = leaf(ANON)
Y = node((YLEAF, YLEAF))


class UnitUnitError(ValueError):
    pass


def ydegree(t: PlanarTree) -> int:
    """Internal-vertex count of a binary tree."""
    return (t.vertex_count - 1) // 2


def _check_binary(t: PlanarTree):
    if t.is_empty or not t.is_binary:
        raise NotBinaryError("expected a non-empty planar binary tree: %r" % (t,))


# -- dendriform operations ----------------------------------------------------

def _prec_mono(t: PlanarTree, z: PlanarTree) -> LinComb:
    if t is YLEAF and z is YLEAF:
        raise UnitUnitError("x < y is undefined on two units")
    if z is YLEAF:
        return LinComb.of(t)
    if t is YLEAF:
        return LinComb()
    l, r = t.children
    return apply_vee_left(_star_mono(r, z), l)


def _succ_mono(t: PlanarTree, z: PlanarTree) -> LinComb:
    if t is YLEAF and z is YLEAF:
        raise UnitUnitError("x > y is undefined on two units")
    if t is YLEAF:
        return LinComb.of(z)
    if z is YLEAF:
        return LinComb()
    l, r = z.children
    return apply_vee_right(_star_mono(t, l), r)


def apply_vee_left(p: LinComb, left: PlanarTree) -> LinComb:
    return p.map_basis(lambda t: node((left, t)))


def apply_vee_right(p: LinComb, right: PlanarTree) -> LinComb:
    return p.map_basis(lambda t: node((t, right)))


@lru_cache(maxsize=None)
def _star_mono(t: PlanarTree, z: PlanarTree) -> LinComb:
    if t is YLEAF:
        return LinComb.of(z)
    if z is YLEAF:
        return LinComb.of(t)
    return _prec_mono(t, z) + _succ_mono(t, z)


def prec(f: LinComb, g: LinComb) -> LinComb:
    return tensor(f, g).map_basis(lambda ab: _prec_mono(*ab))


def succ(f: LinComb, g: LinComb) -> LinComb:
    return tensor(f, g).map_basis(lambda ab: _succ_mono(*ab))


def star(f: LinComb, g: LinComb) -> LinComb:
    """The associative sum of the two dendriform halves; unit is the leaf."""
    return tensor(f, g).map_basis(lambda ab: _star_mono(*ab))


# -- grafting products ---------------------------------------------------------

def under(t: PlanarTree, s: PlanarTree) -> PlanarTree:
    """Graft s at the last leaf of t."""
    if t is YLEAF:
        return s
    return substitute_at_leaf(t, t.leaf_count, s)


def circ_alpha(t: PlanarTree, s: PlanarTree) -> PlanarTree:
    """Graft s at the first leaf of t."""
    if t is YLEAF:
        return s
    return substitute_at_leaf(t, 1, s)


def over(s: PlanarTree, t: PlanarTree) -> PlanarTree:
    """Opposite of circ_alpha."""
    return circ_alpha(t, s)


def circ_alpha_poly(f: LinComb, g: LinComb) -> LinComb:
    return multilinear(lambda ab: circ_alpha(*ab), (f, g))


def vee_leaf(t: PlanarTree) -> PlanarTree:
    """New root with an extra leaf on the left."""
    return node((YLEAF, t))


def vee_leaf_poly(f: LinComb) -> LinComb:
    return f.map_basis(vee_leaf)


def comb_graft_poly(polys) -> LinComb:
    """Multilinear extension of the right-comb grafting; no arguments give
    the leaf."""
    return multilinear(comb_graft, polys)


def corrected_comb(polys) -> LinComb:
    """Comb grafting minus recursive lower-comb corrections.

    The corrections fold the tail into one factor and re-apply the operator,
    not the bare comb grafting; only this reading makes the coproduct of the
    result split into star products of first legs against corrected combs of
    second legs, which the dendriform image of the first-leaf coalgebra needs.
    """
    polys = list(polys)
    n = len(polys)
    if n == 0:
        raise ValueError("corrected_comb needs at least one argument")
    corrections = (corrected_comb(polys[:j - 1]
                                  + [star(polys[j - 1], comb_graft_poly(polys[j:]))])
                   for j in range(1, n))
    return comb_graft_poly(polys) - LinComb(
        term for corr in corrections for term in corr.items())


# -- coproducts ----------------------------------------------------------------

def delta_lr(f: LinComb) -> LinComb:
    """Coproduct of the free dendriform algebra on one generator."""
    return f.map_basis(_delta_lr_cached)


@lru_cache(maxsize=None)
def _delta_lr_cached(t: PlanarTree) -> LinComb:
    _check_binary(t)
    if t is YLEAF:
        return LinComb.of((YLEAF, YLEAF))
    l, r = t.children
    dl, dr = _delta_lr_cached(l), _delta_lr_cached(r)
    return LinComb(itertools.chain(
        [((t, YLEAF), 1)],
        (((a, node((l2, r2))), cl * cr * ca) for (l1, l2), cl in dl.items()
         for (r1, r2), cr in dr.items() for a, ca in _star_mono(l1, r1).items())))


def delta_ck(f: LinComb) -> LinComb:
    """Coproduct of the planar-forest Hopf algebra; multiplicative over
    concatenation, admissible-cut sum on trees.  Both legs are forests."""
    return f.map_basis(_delta_ck_forest)


def _concat_pairs(pairs):
    """Legwise concatenation: the coproduct is multiplicative for it."""
    return (Forest([t for left, _ in pairs for t in left]),
            Forest([t for _, right in pairs for t in right]))


def _graft_cut(pairs):
    """One cut of a vertex from one cut of each child: the branches side by
    side on the left, the trunks grafted under the vertex on the right."""
    branches, trunks = _concat_pairs(pairs)
    return branches, Forest((graft(trunks),))


@lru_cache(maxsize=None)
def _delta_ck_tree(t: PlanarTree) -> LinComb:
    if t.is_leaf:
        return LinComb({(Forest((t,)), Forest(())): 1, (Forest(()), Forest((t,))): 1})
    return LinComb.of((Forest((t,)), Forest(()))) + multilinear(
        _graft_cut, [_delta_ck_tree(c) for c in t.children])


@lru_cache(maxsize=None)
def _delta_ck_forest(fo: Forest) -> LinComb:
    """The forest coproduct of one forest, shared and never written to."""
    return multilinear(_concat_pairs, [_delta_ck_tree(t) for t in fo])


def delta_ck_by_cuts(f: LinComb) -> LinComb:
    """Admissible-cut form of the forest coproduct; must agree with delta_ck."""

    def on_tree(t):
        return LinComb(
            ((branches, Forest(()) if trunk.is_empty else Forest((trunk,))), 1)
            for branches, trunk in admissible_cuts(t))

    return f.map_basis(lambda fo: multilinear(_concat_pairs, [on_tree(t) for t in fo]))


@lru_cache(maxsize=None)
def _delta_bf_mono(t: PlanarTree) -> LinComb:
    _check_binary(t)
    if t is YLEAF:
        return LinComb.of((YLEAF, YLEAF))
    if t is Y:
        return LinComb.of((Y, YLEAF)) + LinComb.of((YLEAF, Y))
    l, r = t.children
    if l is YLEAF:
        # generator of the first-leaf product: t = vee_leaf(r), r != leaf
        rl, rr = r.children
        inner = _delta_bf_mono(vee_leaf(rr)) - LinComb.of((vee_leaf(rr), YLEAF))
        mixed = multilinear(_circ_alpha_legs, (inner, _delta_bf_mono(rl)))
        return LinComb.of((t, YLEAF)) + apply_leg(mixed, 1, vee_leaf)
    # general tree: graft the left subtree onto the first leaf of vee_leaf(r)
    return multilinear(_circ_alpha_legs, (_delta_bf_mono(vee_leaf(r)), _delta_bf_mono(l)))


def _circ_alpha_legs(pairs):
    """Legwise first-leaf grafting: the coproduct is multiplicative for it."""
    return tuple(map(circ_alpha, *pairs))


def delta_bf(f: LinComb) -> LinComb:
    """Renormalization-style coproduct on binary trees, an algebra morphism
    for the first-leaf grafting product."""
    return f.map_basis(_delta_bf_mono)


def delta_bf_comb_form(t: PlanarTree) -> LinComb:
    """Closed form of the coproduct on vee_leaf(t) through the right-comb
    presentation; agrees with the recursive definition."""
    _check_binary(t)
    if t is YLEAF:
        return _delta_bf_mono(Y)
    parts = right_comb_presentation(t)          # t = comb_graft(parts)
    rev = parts[::-1]                           # innermost factor first
    terms = [((vee_leaf(t), YLEAF), 1)]
    deltas = [_delta_bf_mono(p) for p in rev]
    for combo in itertools.product(*(d.items() for d in deltas)):
        first = LinComb.of(YLEAF)
        for (leg1, _), _ in combo:
            first = circ_alpha_poly(first, LinComb.of(leg1))
        second = vee_leaf(comb_graft(tuple(leg2 for (_, leg2), _ in reversed(combo))))
        c = math.prod(ci for _, ci in combo)
        terms.extend(((a, second), c * ca) for a, ca in first.items())
    return LinComb(terms)
