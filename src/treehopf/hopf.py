"""Co-addition on the free tree algebras, its dual shuffle product, the
co-magma map, recursive antipodes, and generic coproduct checkers.

The co-addition sends every variable to x (x) 1 + 1 (x) x and extends as an
algebra morphism for every grafting, so the co-addition of a monomial is
grafted from its children's by one fold, ``magma._graft_tables``, for
the cached table ``magma._restriction_table`` and for the kernel rows.
The rows, ``magma.half_degree_rows``, keep only the legs the primitive
kernels need (the ``primitives`` module docstring says which and how).

``STRUCTURES`` holds the per-kind facts of the four coproducts in this
package, each a plain dict: ``table``, the cached coproduct of one basis
element, its ``unit``, ``basis(n)`` (the canonical basis of degree n,
``[unit]`` in degree 0), ``basis_name`` and the membership test
``in_basis``.  The tables are ``magma._restriction_table`` (coadd),
``dendriform._delta_lr_cached`` (lr), the ``lru_cache``d forest table
``dendriform._delta_ck_forest`` (ck) and ``dendriform._delta_bf_mono`` (bf);
they are shared and never written to.  ``coproduct(kind, f)`` is the linear
extension of the table, and ``check_coassociative`` applies the table to
each leg directly.  ``coadd`` lives on reduced trees (unit 1, degree the
leaf count), ``lr`` and ``bf`` on binary trees with anonymous leaves (unit
the leaf, degree the internal-vertex count), ``ck`` on forests (unit the
empty forest, degree the vertex count).
"""

from __future__ import annotations

from functools import lru_cache

from . import dendriform, magma
from .linear import LinComb, UnitTermError, apply_leg, tensor
from .trees import (ANON, EMPTY, Forest, PlanarTree, enumerate_forests,
                    enumerate_shuffles, enumerate_trees, mirror)


# the cached co-addition table itself, shared and never written to
_coadd_mono = magma._restriction_table


def coadd(f: LinComb) -> LinComb:
    """Co-addition; cocommutative, an algebra morphism for every grafting."""
    return f.map_basis(_coadd_mono)


# lr and bf share the algebra of binary trees with anonymous leaves
_YTREES = {
    "unit": dendriform.YLEAF,
    "basis": lambda n: enumerate_trees(n + 1, binary=True),
    "basis_name": "non-empty binary trees with anonymous leaves",
    "in_basis": lambda b: (isinstance(b, PlanarTree) and not b.is_empty
                           and b.is_binary and set(b.labels()) == {ANON}),
}

# plain dicts, so that a tracer rebinding module-level dict values sees the
# tables
STRUCTURES = {
    "coadd": {
        "table": _coadd_mono, "unit": EMPTY,
        "basis": lambda n: enumerate_trees(n) if n else [EMPTY],
        "basis_name": "reduced trees",
        "in_basis": lambda b: isinstance(b, PlanarTree) and b.is_reduced,
    },
    "lr": {"table": dendriform._delta_lr_cached, **_YTREES},
    "ck": {
        "table": dendriform._delta_ck_forest, "unit": Forest(()),
        "basis": enumerate_forests,
        "basis_name": "forests with anonymous leaves",
        "in_basis": lambda b: (isinstance(b, Forest)
                               and all(set(t.labels()) == {ANON} for t in b)),
    },
    "bf": {"table": dendriform._delta_bf_mono, **_YTREES},
}


def _structure(kind: str) -> dict:
    try:
        return STRUCTURES[kind]
    except KeyError:
        raise ValueError("unknown coproduct kind %r" % kind) from None


def coproduct(kind: str, f: LinComb) -> LinComb:
    """The linear extension of the kind's per-basis-element table."""
    return f.map_basis(_structure(kind)["table"])


def reduced_coproduct(kind: str, f: LinComb) -> LinComb:
    """The coproduct minus the two trivial terms; f may not contain the unit."""
    unit = _structure(kind)["unit"]
    if f.coeff(unit):
        raise UnitTermError("reduced coproduct needs a zero unit coefficient")
    d = coproduct(kind, f)
    one = LinComb.of(unit)
    return d - tensor(f, one) - tensor(one, f)


def is_primitive(kind: str, f: LinComb) -> bool:
    """Whether the reduced coproduct vanishes; a nonzero multiple of the
    unit is group-like, so it is not primitive."""
    if f.is_zero():
        return True
    if f.support() == {_structure(kind)["unit"]}:
        return False
    return reduced_coproduct(kind, f).is_zero()


# -- dual shuffle multiplication ----------------------------------------------

def shuffle(f: LinComb, g: LinComb, operad: str = "magw") -> LinComb:
    """Dual of the co-addition: commutative, associative, unit 1.

    For a binary operad of ``magma.OPERADS`` (``mag``) the result is
    projected onto binary trees, the shuffle of the binary-tree algebra;
    the projection reads each tree's ``is_binary``, fixed when the tree was
    interned.
    """
    binary = magma.operad_spec(operad)["binary"]
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
    return _structure(kind)["basis"](degree)


def check_basis(kind: str, f: LinComb) -> None:
    """Raise ValueError unless every basis element of f lies in the algebra
    carrying the coproduct of this kind."""
    st = _structure(kind)
    for b in f.support():
        if not st["in_basis"](b):
            raise ValueError("the %s basis is %s, got %r"
                             % (kind, st["basis_name"], LinComb.of(b)))


def check_coassociative(kind: str, max_degree: int):
    """Verify (Delta (x) id) Delta = (id (x) Delta) Delta on every basis
    element up to the cap; returns (ok, first failure or None).  The cached
    table of each basis element and of each leg is read, never copied."""
    table = _structure(kind)["table"]
    for n in range(max_degree + 1):
        for b in basis_elements(kind, n):
            d = table(b)
            if apply_leg(d, 0, table) != apply_leg(d, 1, table):
                return False, b
    return True, None
