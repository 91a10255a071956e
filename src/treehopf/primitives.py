"""Primitive subspaces of graded components, dimension formulas, the
shuffle-basis complement, the non-associative Jacobi identity, and highest
weight vectors.

A graded component fixes an algebra kind and a degree descriptor and carries
its canonical monomial basis; an ``operad`` is a key of ``magma.OPERADS``
(``mag`` or ``magw``), whose coproduct is the co-addition.  Primitive
spaces are exact kernels of the reduced coproduct in coordinates.  For the
co-addition of a component of multidegree md with n leaves, the kernel rows
are grouped in blocks, one per first-leg sub-multidegree a of at most n // 2
leaves, taken in a total order that refines the leaf count: by size, then
by the tuple a (for one variable, by size alone).  A block keeps only the
pairs (A, B) whose first leg A is a primitive coordinate of a and whose
second leg B is a kernel coordinate of the blocks before a:

- Cocommutativity: the row (B, A) equals the row (A, B), so the first legs
  of at most n // 2 leaves suffice, and in the middle layer (2|A| = n) the
  pairs with A not after B in the basis order.
- Coassociativity, first legs: suppose every block before a vanishes on
  f.  For each split a = c + e, (Delta_{c,e} (x) id) Delta_{a,.} f
  = (id (x) Delta_{e,.}) Delta_{c,.} f = 0, as c has fewer leaves than a,
  so Delta_{a,.} f lies in Prim_a (x) V.  In the middle layer the same
  holds for the second leg, by cocommutativity.
- Coassociativity, second legs: let b = md - a.  For each block c <= b
  before a, (id (x) Delta_{c,.}) Delta_{a,.} f
  = tau_12 (id (x) Delta_{a,.}) Delta_{c,.} f = 0, with tau_12 the swap
  of the first two legs.  So outside the middle layer Delta_{a,.} f lies
  in Prim_a (x) K_b, where K_b is the kernel, on the component of b, of
  those blocks c.  Only the c with fewer than half of b's leaves are used
  in K_b: dropping a condition only makes K_b larger, and it keeps the
  middle layer's cut, which needs both halves, out of K_b.
- An element of a kernel is fixed by its coefficients at the free columns
  of the kernel matrix, each ``kernel_basis`` vector being positive at its
  own free column and zero at the others.  These basis trees, relabelled
  onto the variables of a (or b), are the primitive coordinates of a and
  the kernel coordinates of b (``_primitive_coordinates``, cached per
  (operad, shape, blocks kept), with the order moved into b's own
  coordinates by dropping its zero entries).

By induction along the order of the blocks, the cut rows of any leading
run of blocks have the same kernel as those blocks of the whole reduced
co-addition: so K_b is computed from b's own cut rows, and every dimension
and every ``kernel_basis`` vector is unchanged.  The rows left are almost
independent: their number equals the rank on one-variable mag d <= 9 and
on multilinear mag n = 4, 5, so elimination is a small part of the work.
Every cut above lives in ``_first_legs``, which gives each first leg A
a concrete set of second legs: the whole basis of b in a block with no
block before it, and in the middle layer only the B not before A.
``magma.half_degree_rows`` indexes these legs by their piece tuples
(``magma.leg_index``) and only looks pairs up: the one co-addition fold,
``magma._graft_tables``, keeps only the prefixes of kept first legs, each
first leg is completed with one lookup and each second leg found by its
pieces, so no leg is grafted and no tree compared; each count goes
straight into its pair's sparse row.  The multilinear
primitive dimensions are cached per (operad, n) in
``multilinear_prim_rank``.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

from . import hopf, magma
from .linear import (LinComb, RationalMatrix, coordinates, format_poly,
                     free_columns_of, kernel_of, kernel_sample_of,
                     matrix_from_columns, rank, solve_exact)
from .trees import EMPTY, _graft, inverse_log_derivative, leaf, sequence


class GradedComponent:
    """One graded piece of an algebra with its canonical ordered basis; its
    coproduct is the co-addition for an operad, else hopf.STRUCTURES[kind].
    ``multidegree`` is the leaves per variable, for an operad, else None."""

    __slots__ = ("kind", "descriptor", "basis", "multidegree")

    def __init__(self, kind: str, descriptor: dict, basis: list,
                 multidegree: tuple = None):
        self.kind = kind
        self.descriptor = descriptor
        self.basis = basis
        self.multidegree = multidegree

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self):
        return coordinates(self.basis)


def component(kind: str, degree: int = None, multidegree=None,
              multilinear: int = None) -> GradedComponent:
    """Build a graded component.

    mag / magw: exactly one of ``degree`` (one variable x_1), ``multidegree``
    (counts per variable) or ``multilinear`` (n distinct variables, each once)
    selects the basis.  lr / bf / ck take ``degree`` (internal vertices for
    binary trees, total vertices for forests).  Any other choice of keywords
    raises ``ValueError``.
    """
    given = [name for name, v in (("degree", degree), ("multidegree", multidegree),
                                  ("multilinear", multilinear)) if v is not None]
    if kind in magma.OPERADS:
        if len(given) != 1:
            raise ValueError("%s takes exactly one of degree, multidegree, "
                             "multilinear; got %s" % (kind, ", ".join(given) or "none"))
        if multilinear is not None:
            desc, md = {"multilinear": multilinear}, (1,) * multilinear
        elif multidegree is not None:
            md = tuple(multidegree)
            desc = {"multidegree": md}
        else:
            desc, md = {"degree": degree}, (degree,)
        return GradedComponent(kind, desc, magma.monomial_basis(md, kind), md)
    if kind in ("lr", "bf", "ck"):
        if given != ["degree"]:
            raise ValueError("%s takes degree only; got %s"
                             % (kind, ", ".join(given) or "none"))
        return GradedComponent(kind, {"degree": degree},
                               hopf.basis_elements(kind, degree))
    raise ValueError("unknown algebra kind %r" % kind)


def ambient_dim(operad: str, multidegree) -> int:
    """The dimension of the operad's component of a multidegree (entries
    >= 0, sum d >= 1), before any basis is built: the tree shapes with d
    leaves (the ``shapes`` sequence of its ``magma.OPERADS`` row) times the
    d! / prod(m_k!) arrangements of the labels.
    """
    d = sum(multidegree)
    shapes = sequence(magma.operad_spec(operad)["shapes"], d)[-1]
    return shapes * math.factorial(d) // math.prod(map(math.factorial, multidegree))


def reduced_coproduct_rows(comp: GradedComponent) -> list:
    """The sparse rows, ``{column: coefficient}`` dicts, of the reduced
    coproduct's matrix on the component basis.

    For the co-addition, ``magma.half_degree_rows`` looks up the pairs
    (A, B) of ``_first_legs``: A a primitive coordinate of at most half
    the leaves and B a kernel coordinate of the blocks before A's, which
    by the module docstring have the kernel of the whole reduced
    co-addition.  Other kinds' coproducts are transposed by
    ``matrix_from_columns``.
    """
    if comp.kind in magma.OPERADS:
        return magma.half_degree_rows(
            comp.basis, _first_legs(comp.kind, comp.multidegree))
    return matrix_from_columns([hopf.reduced_coproduct(comp.kind, LinComb.of(b))
                                for b in comp.basis]).sparse


def _coproduct_matrix(comp: GradedComponent) -> RationalMatrix:
    return RationalMatrix._of_sparse(reduced_coproduct_rows(comp), comp.dim)


@functools.lru_cache(maxsize=None)
def _primitive_coordinates(operad: str, shape: tuple, before: int = None) -> tuple:
    """The basis trees at the free columns of the cut kernel matrix of the
    component of multidegree ``shape``: an element of the kernel is fixed
    by its coefficients at them.

    With ``before`` None the matrix has every block, so these are the
    primitive coordinates.  Otherwise it has only the first ``before``
    blocks of fewer than half the leaves, in the order of ``_first_legs``,
    and these are their kernel coordinates, the second legs that
    ``_first_legs`` keeps."""
    comp = component(operad, multidegree=shape)
    rows = magma.half_degree_rows(comp.basis, _first_legs(operad, shape, before))
    free = free_columns_of(comp.basis, RationalMatrix._of_sparse(rows, comp.dim))
    return tuple(comp.basis[j] for j in free)


def _first_legs(operad: str, multidegree, before: int = None) -> dict:
    """``{A: the frozenset of second legs B kept with A}`` for the rows of
    the component of ``multidegree``, each leg relabelled onto the
    variables of its sub-multidegree: the module docstring's cuts, all of
    them, so that ``magma.half_degree_rows`` only looks the pairs up.

    The blocks are the first-leg sub-multidegrees a of at most half the
    leaves, by size and then by the tuple a.  The first legs of a are its
    primitive coordinates.  Its second legs, of b = multidegree - a, are
    the kernel coordinates of the blocks c <= b before a with fewer than
    half of b's leaves, or the whole basis of b when there is none (as for
    the first block); in the middle layer they are the primitive
    coordinates of b not before A in the basis order.  With ``before``
    given, the rows are only those of the first ``before`` blocks of fewer
    than half the leaves.
    """
    md = tuple(multidegree)
    n = sum(md)
    subs = list(_sub_multidegrees(md))
    blocks = sorted((blk for blk in subs if 2 * sum(blk[0]) <= n),
                    key=lambda blk: (sum(blk[0]), blk[0]))
    if before is not None:
        blocks = [blk for blk in blocks if 2 * sum(blk[0]) < n][:before]
    onto_of = {s: (shape, onto) for s, shape, onto in subs}
    legs = {}
    for i, (a, shape, onto) in enumerate(blocks):
        b = tuple(m - x for m, x in zip(md, a))
        b_shape, b_onto = onto_of[b]
        # b's blocks before a, in b's order: the same order, zeros dropped
        count = sum(1 for c, _, _ in blocks[:i]
                    if 2 * sum(c) < n - sum(a) and all(map(int.__le__, c, b)))
        middle = 2 * sum(a) == n
        if middle or count:
            kept = frozenset(map(b_onto, _primitive_coordinates(
                operad, b_shape, None if middle else count)))
        else:
            kept = frozenset(magma.monomial_basis(b, operad))
        for t in map(onto, _primitive_coordinates(operad, shape)):
            legs[t] = frozenset(s for s in kept if not s < t) if middle else kept
    return legs


def _sub_multidegrees(multidegree):
    """(s, shape, onto) for each nonzero s below ``multidegree`` entrywise,
    s not equal to it, in ``itertools.product`` order: ``shape`` is s
    without its zero entries, and ``onto`` relabels a tree of that shape's
    component increasingly onto the variables of s."""
    md = tuple(multidegree)
    for s in itertools.product(*(range(d + 1) for d in md)):
        if any(s) and s != md:
            variables = tuple(k for k, d in enumerate(s, start=1) if d)
            yield (s, tuple(s[k - 1] for k in variables),
                   functools.partial(_onto, variables))


@functools.lru_cache(maxsize=None)
def _onto(variables: tuple, t):
    """t with each label l replaced by ``variables[l - 1]``, cached per
    subtree; the variables increase, so when the last is k they are 1..k
    and t is kept."""
    if variables[-1] == len(variables):
        return t
    if t.children is None:
        return leaf(variables[t.var - 1])
    return _graft(tuple(_onto(variables, c) for c in t.children))


def prim_basis(comp: GradedComponent):
    """Exact basis of the primitive part of the component, deterministic."""
    return kernel_of(comp.basis, _coproduct_matrix(comp))


def prim_rank(comp: GradedComponent) -> int:
    """Dimension of the primitive part via the rank of the coproduct matrix."""
    return comp.dim - rank(_coproduct_matrix(comp))


def prim_dim_formula(operad: str, n: int) -> int:
    """(n-1)! times b_n, where B = t * d/dt log(1 + A) is read off the
    identity (1 + A) * B = t * A' in the log direction, with A the Catalan
    (mag) or super-Catalan (magw) series."""
    kind = "log-" + magma.operad_spec(operad)["shapes"]
    return math.factorial(n - 1) * sequence(kind, n)[n - 1]


@functools.lru_cache(maxsize=None)
def multilinear_prim_rank(operad: str, n: int) -> int:
    """The primitive dimension of the multilinear component on x_1..x_n,
    computed once per (operad, n): ``prim_dim`` and ``exp_series_identity``
    both read it."""
    return prim_rank(component(operad, multilinear=n))


def prim_dim(operad: str, n: int) -> dict:
    """Multilinear primitive dimension, from the formula and the exact
    kernel; reports whether the two agree."""
    formula = prim_dim_formula(operad, n)
    prim = multilinear_prim_rank(operad, n)
    return {"operad": operad, "n": n, "formulaDim": formula,
            "ambientDim": ambient_dim(operad, (1,) * n), "primDim": prim,
            "match": prim == formula}


def component_report(comp: GradedComponent, sample: int = 3) -> dict:
    """JSON-ready summary of one primitive-space computation: the
    dimension and the first ``sample`` vectors of ``prim_basis``, from one
    elimination that back-substitutes only those vectors."""
    dim, basis = kernel_sample_of(comp.basis, _coproduct_matrix(comp),
                                  count=sample)
    report = {
        "component": {"kind": comp.kind, **comp.descriptor},
        "ambientDim": comp.dim,
        "primDim": dim,
        "basisSample": [format_poly(p) for p in basis],
    }
    if "multilinear" in comp.descriptor:
        f = prim_dim_formula(comp.kind, comp.descriptor["multilinear"])
        report["formulaDim"] = f
        report["match"] = f == report["primDim"]
    return report


# -- named primitive elements ---------------------------------------------------

def _x(k: int) -> LinComb:
    return magma.var(k)


def named_primitives() -> dict:
    """Catalog of explicitly constructed primitive elements in degrees 2..4."""
    x1, x2, x3, x4 = (_x(k) for k in range(1, 5))
    dot = magma.dot
    assoc = magma.associator
    p = (dot(dot(x1, x2), dot(x3, x4)) - dot(dot(dot(x1, x2), x3), x4)
         + dot(assoc(x1, x3, x4), x2) + dot(assoc(x2, x3, x4), x1))
    q = (dot(dot(x1, x2), dot(x3, x4)) - dot(x1, dot(x2, dot(x3, x4)))
         - dot(x3, assoc(x1, x2, x4)) - dot(x4, assoc(x1, x2, x3)))
    return {
        "commutator": magma.commutator(x1, x2),
        "binary_associator": assoc(x1, x2, x3),
        "ternary_associator": magma.ternary_associator(x1, x2, x3),
        "degree4_right": p,
        "degree4_left": q,
    }


def degree4_right_substituted(*polys) -> LinComb:
    """The degree-4 right-expansion primitive with arbitrary arguments."""
    a, b, c, d = polys
    dot = magma.dot
    assoc = magma.associator
    return (dot(dot(a, b), dot(c, d)) - dot(dot(dot(a, b), c), d)
            + dot(assoc(a, c, d), b) + dot(assoc(b, c, d), a))


def jacobi_check() -> dict:
    """The non-associative Jacobi identity and its companions, symbolically."""
    x1, x2, x3 = (_x(k) for k in range(1, 4))
    dot = magma.dot
    comm = magma.commutator
    assoc = magma.associator
    lhs = (comm(comm(x1, x2), x3) + comm(comm(x3, x1), x2)
           + comm(comm(x2, x3), x1))
    rhs = (assoc(x1, x2, x3) - assoc(x2, x1, x3)
           + assoc(x3, x1, x2) - assoc(x1, x3, x2)
           + assoc(x2, x3, x1) - assoc(x3, x2, x1))
    antisym = comm(comm(x2, x1), x3) == -1 * comm(comm(x1, x2), x3)

    def right_normed(a, b, c):
        return comm(comm(a, b), c) - assoc(a, b, c) + assoc(b, a, c)

    a123 = right_normed(x1, x2, x3)
    expected = (dot(x3, dot(x2, x1)) - dot(x3, dot(x1, x2))
                + dot(x1, dot(x2, x3)) - dot(x2, dot(x1, x3)))
    cyclic = (right_normed(x1, x2, x3) + right_normed(x3, x1, x2)
              + right_normed(x2, x3, x1))
    return {
        "jacobi": lhs == rhs,
        "antisymmetry": antisym,
        "right_normed_form": a123 == expected,
        "right_normed_cyclic_sum_zero": cyclic.is_zero(),
    }


# -- the shuffle complement -------------------------------------------------------

def _shuffle_product(factors, operad: str) -> LinComb:
    """The shuffle product of the factors, folded from the unit."""
    return functools.reduce(lambda p, g: hopf.shuffle(p, g, operad),
                            factors, LinComb.of(EMPTY))


def shuffle_monomials(operad: str, multidegree):
    """Shuffle products of at least two lower primitives filling the multidegree.

    The generators are the primitives of every nonzero sub-multidegree s of
    ``multidegree`` (s below it entrywise, s not equal to it), computed once
    per shape (s without its zero entries) and relabelled increasingly onto
    the variables of s.  One monomial is the shuffle product of one multiset
    of generators whose sub-multidegrees sum to ``multidegree``: generator
    indices are taken nondecreasing, grouped by s, so each multiset comes once.
    """
    magma.operad_spec(operad)  # refused here too when no sub-shape is built
    md = tuple(multidegree)
    prims, groups = {}, []
    for s, shape, onto in _sub_multidegrees(md):
        if shape not in prims:
            prims[shape] = prim_basis(component(operad, multidegree=shape))
        groups.append((s, [LinComb((onto(t), c) for t, c in p.items())
                           for p in prims[shape]]))

    def multisets(start, remaining):
        # nondecreasing group indices whose sub-multidegrees sum to remaining
        if not any(remaining):
            yield ()
            return
        for k in range(start, len(groups)):
            rest = tuple(r - d for r, d in zip(remaining, groups[k][0]))
            if min(rest) >= 0:
                yield from ((k,) + m for m in multisets(k, rest))

    out = []
    for picks in multisets(0, md):
        if len(picks) >= 2:
            per_group = [itertools.combinations_with_replacement(groups[k][1], m)
                         for k, m in Counter(picks).items()]
            out.extend(_shuffle_product(itertools.chain(*combo), operad)
                       for combo in itertools.product(*per_group))
    return out


def shuffle_monomials_one_var(operad: str, n: int):
    """The shuffle monomials of the one-variable component of degree n."""
    return shuffle_monomials(operad, (n,))


def shuffle_monomials_multilinear(operad: str, n: int):
    """The shuffle monomials of the multilinear component on x_1..x_n."""
    return shuffle_monomials(operad, (1,) * n)


def pbw_check(operad: str, n: int, multilinear: bool = False) -> dict:
    """Shuffle monomials of lower-degree primitives are independent, stay
    orthogonal to the primitives, and span the orthogonal complement Prim^perp.

    One rank decides it.  ``linear.pairing`` makes the monomial basis
    orthonormal, a positive-definite form over Q, so orthogonal subspaces
    meet only in 0, and the primitives are a ``kernel_basis``, hence
    independent.  So when ``orthogonal`` holds, the monomials and the
    primitives together have rank ``shuffleRank + primDim``, and that total
    is ``ambientDim`` exactly when the monomials, which lie in Prim^perp,
    span ambientDim - primDim = dim Prim^perp dimensions of it, i.e. all of
    it: that is ``complement``.  When ``orthogonal`` fails, ``ok`` is False
    whatever the total rank, and ``complement`` is False with it, so no
    second elimination is needed.  Row b of the monomials' matrix holds
    every monomial's coefficient of b, so sum_b p_b * row_b pairs a
    primitive p with all monomials at once.
    """
    md = (1,) * n if multilinear else (n,)
    comp = component(operad, multidegree=md)
    monos = shuffle_monomials(operad, md)
    prims = prim_basis(comp)
    coords = comp.coords()
    matrix = matrix_from_columns(monos, coords)
    shuffle_rank = rank(matrix)
    independent = shuffle_rank == len(monos)
    orthogonal = all(_pairs_to_zero(p, matrix.sparse, coords) for p in prims)
    complement = orthogonal and shuffle_rank + len(prims) == comp.dim
    return {
        "operad": operad, "n": n, "multilinear": multilinear,
        "ambientDim": comp.dim,
        "primDim": len(prims),
        "shuffleCount": len(monos),
        "shuffleRank": shuffle_rank,
        "independent": independent,
        "complement": complement,
        "orthogonal": orthogonal,
        "ok": independent and complement and orthogonal,
    }


def _pairs_to_zero(p: LinComb, rows, coords) -> bool:
    """Whether sum_b p_b * rows[coords[b]], summed in a plain dict, is zero."""
    acc = {}
    get = acc.get
    for b, c in p.items():
        for j, x in rows[coords[b]].items():
            acc[j] = get(j, 0) + c * x
    return not any(acc.values())


def exp_series_identity(operad: str, cap: int) -> bool:
    """exp of the primitive generating series minus 1 equals the operad
    generating series, coefficientwise up to the cap.

    Reads the identity (1 + A) * B = t * A' in the exp direction: B has
    coefficients dim Prim_k / (k-1)!, with dim Prim_k the computed kernel
    dimension of the multilinear component (``multilinear_prim_rank``, the
    ranks ``prim_dim`` computed), and A must come out as the
    Catalan (mag) or super-Catalan (magw) series.
    """
    b = [Fraction(multilinear_prim_rank(operad, k), math.factorial(k - 1))
         for k in range(1, cap + 1)]
    target = sequence(magma.operad_spec(operad)["shapes"], cap)
    return inverse_log_derivative(b) == target


# -- highest weight vectors --------------------------------------------------------

def _highest_weight_blocks(multidegree, constraint: str, operad: str):
    """The component basis and the blocks whose stacked kernel is the space
    of highest weight vectors, as ``highest_weight_basis`` describes it."""
    multidegree = tuple(multidegree)
    m = len(multidegree)
    comp = component(operad, multidegree=multidegree)
    if constraint == "primitive":
        killed = _coproduct_matrix(comp)
    elif constraint == "constant":
        killed = magma.derivation_images(comp.basis, 1)[0]
    else:
        raise ValueError("constraint must be 'primitive' or 'constant'")
    lowered = [[magma.partial_kj(i, i - 1, LinComb.of(t)) for t in comp.basis]
               for i in range(2, m + 1)]
    return comp.basis, lowered + [killed]


def highest_weight_basis(multidegree, constraint: str = "primitive",
                         operad: str = "mag"):
    """Basis of the operad's multihomogeneous elements killed by every
    lowering substitution D_{i->j} = ``magma.partial_kj(i, j, .)`` (j < i),
    intersected with the primitive or constant subspace.

    The adjacent substitutions D_{i->i-1} (i = 2..m) suffice: for
    j < i - 1, D_{i->j} = [D_{i-1->j}, D_{i->i-1}], so by induction on i - j
    a vector they kill is killed by every D_{i->j}.  Likewise the one
    derivation d_1 suffices for the constants: d_b = [d_1, D_{b->1}].  The
    kernel is the same subspace as with every map stacked, so ``kernel_of``
    returns the same vectors.
    """
    basis, blocks = _highest_weight_blocks(multidegree, constraint, operad)
    return kernel_of(basis, *blocks)


def highest_weight_sample(multidegree, constraint: str, sample: int,
                          operad: str = "mag"):
    """(the dimension, the first ``sample`` vectors) of
    ``highest_weight_basis``, from one elimination that back-substitutes
    only those vectors."""
    basis, blocks = _highest_weight_blocks(multidegree, constraint, operad)
    return kernel_sample_of(basis, *blocks, count=sample)


def in_span(candidate: LinComb, basis_polys, comp: GradedComponent) -> bool:
    """Exact membership of a component element in the span of given elements."""
    coords = comp.coords()
    m = matrix_from_columns(basis_polys, coords)
    rhs = [0] * comp.dim
    for b, c in candidate.items():
        rhs[coords[b]] = c
    return solve_exact(m, rhs) is not None
