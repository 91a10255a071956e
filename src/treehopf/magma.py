"""The free unitary tree algebras on labeled leaves.

Elements are :class:`~treehopf.linear.LinComb` values over reduced planar
trees with labeled leaves; the empty tree is the unit 1.  The binary algebra
(``mag``) uses ``dot`` and stays on binary trees; the algebra with one
generating operation per arity (``magw``) uses ``vee``; ``OPERADS`` is the
table of the two operads.  Unit normalization is eager: no basis tree ever
contains the empty tree, and any unit argument of ``vee`` is deleted with
the arity dropping accordingly.

The derivations d_k (x_k to 1) and D_{k->j} (x_k to x_j) are fixed by their
values on the variables and extended over every grafting by the Leibniz
rule, in one cached recursion, ``_partial_k_monomial``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .linear import LinComb, kernel_of, multilinear
from .trees import EMPTY, PlanarTree, _graft, _relabel, enumerate_trees, leaf

# per operad: whether all vertices are binary; trees.sequence kind of shapes
OPERADS = {"mag": {"binary": True, "shapes": "catalan"},
           "magw": {"binary": False, "shapes": "super-catalan"}}


def operad_spec(operad: str) -> dict:
    """The ``OPERADS`` row of ``operad``; ValueError for any other name."""
    if operad not in OPERADS:
        raise ValueError("unknown operad %r" % (operad,))
    return OPERADS[operad]


def vee_monomials(ts) -> PlanarTree:
    """Grafting on monomials with unit normalization."""
    kept = tuple(t for t in ts if t is not EMPTY)
    if not kept:
        return EMPTY
    if len(kept) == 1:
        return kept[0]
    # the units are gone, so the checks of node() cannot fail
    return _graft(kept)


def vee(*args: LinComb) -> LinComb:
    """Multilinear grafting of polynomials; no arguments give the unit."""
    return multilinear(vee_monomials, args)


def dot(f: LinComb, g: LinComb) -> LinComb:
    """The binary product; closes on binary trees."""
    return vee(f, g)


def unit() -> LinComb:
    return LinComb.of(EMPTY)


def var(k: int) -> LinComb:
    return LinComb.of(leaf(k))


def commutator(f: LinComb, g: LinComb) -> LinComb:
    return dot(f, g) - dot(g, f)


def associator(f: LinComb, g: LinComb, h: LinComb) -> LinComb:
    """(f,g,h) with the binary product: (fg)h - f(gh)."""
    return dot(dot(f, g), h) - dot(f, dot(g, h))


def ternary_associator(f: LinComb, g: LinComb, h: LinComb) -> LinComb:
    """(fg)h minus the single 3-corolla on f, g, h."""
    return dot(dot(f, g), h) - vee(f, g, h)


# -- derivations --------------------------------------------------------------

@lru_cache(maxsize=None)
def _partial_k_monomial(k: int, t: PlanarTree, image: PlanarTree = EMPTY):
    """d(t) as summed (tree, count) pairs, for the derivation d with
    d(x_k) = ``image`` (the unit 1 or a leaf x_j) and d(x_i) = 0 otherwise.

    By the Leibniz rule d(vee(t_1..t_r)) = sum_i vee(t_1..d t_i..t_r), one
    cached step per subtree.  With the unit image ``vee_monomials`` drops the
    unit and collapses the arity-1 vertex it may leave, so for reduced t the
    pairs are red(t minus one x_k leaf): the x_k (x) . slice of the
    co-addition.  A leaf image is grafted with ``_graft``, so a non-reduced t
    keeps its arity-1 vertices.  Callers pass ``image`` positionally, as the
    recursion does, so that each image has one cache key.
    """
    if not t.is_node:
        return ((image, 1),) if t.var == k else ()
    graft = vee_monomials if image is EMPTY else _graft
    kids = t.children
    out = {}
    for i, c in enumerate(kids):
        for s, m in _partial_k_monomial(k, c, image):
            g = graft(kids[:i] + (s,) + kids[i + 1:])
            out[g] = out.get(g, 0) + m
    return tuple(out.items())


def partial_k(k: int, f: LinComb) -> LinComb:
    """Derivation sending x_k to 1 and the other variables to 0."""
    return _derive(k, f, EMPTY)


def _derive(k: int, f: LinComb, image: PlanarTree) -> LinComb:
    """The derivation of ``_partial_k_monomial`` on f, summed in one pass
    over the cached pairs of its monomials."""
    return LinComb((s, c * m) for t, c in f.terms.items()
                   for s, m in _partial_k_monomial(k, t, image))


def derivation_images(basis, nvars: int) -> list:
    """One block of images per derivation d_1..d_nvars: ``blocks[k-1][j]``
    is d_k of ``basis[j]``."""
    return [[LinComb(_partial_k_monomial(k, t, EMPTY)) for t in basis]
            for k in range(1, nvars + 1)]


def partial_kj(k: int, j: int, f: LinComb) -> LinComb:
    """Derivation sending x_k to x_j and the other variables to 0."""
    return _derive(k, f, leaf(j))


@lru_cache(maxsize=None)
def _restriction_table(t: PlanarTree) -> LinComb:
    """The co-addition of a monomial, as (left, right) pairs with int counts.

    The co-addition is the algebra morphism sending each variable x to
    x (x) 1 + 1 (x) x: a leaf gives (x, 1) and (1, x), and a vertex grafts
    one pair from each child's table on both legs (``_graft_tables``),
    multiplying the counts.  No unit is grafted, so the pairs are
    (red(t|I), red(t|I^c)) over the leaf subsets I of t.  The grafted
    pairs are summed straight into one dict: the counts are positive ints,
    so no coefficient needs ``_accumulate``'s normal form.
    """
    if t.is_empty:
        return LinComb.of((EMPTY, EMPTY))
    if t.is_leaf:
        return LinComb({(t, EMPTY): 1, (EMPTY, t): 1})
    out = {}
    get = out.get
    for (lefts, rights), mult in _graft_tables(t.children).items():
        key = (_leg(lefts), _leg(rights))
        out[key] = get(key, 0) + mult
    table = LinComb()
    table.terms = out
    return table


def _graft_tables(children, prefixes=None) -> dict:
    """The co-addition of the tree over ``children``, as ``{(left pieces,
    right pieces): multiplicity}``; given ``prefixes``, only the states
    whose left pieces lie in it.

    A leg is the tuple of its non-unit pieces, so grafting is concatenation.
    The fold merges equal partial legs one child at a time, reading each
    child's cached table once per state.  A state whose left pieces leave
    ``prefixes`` is dropped when it is grown, so ``prefixes`` must hold
    every prefix of its members.  ``_leg`` is not injective (one piece
    (a b), or pieces a and b), so callers sum the grafted pairs.
    """
    cut = prefixes is not None
    states = {((), ()): 1}
    for c in children:
        grown = {}
        grow = grown.get
        pairs = _restriction_table(c).terms.items()
        for (lefts, rights), mult in states.items():
            for (a, b), m in pairs:
                if a is EMPTY:
                    key = (lefts, rights + (b,))
                else:
                    grown_lefts = lefts + (a,)
                    if cut and grown_lefts not in prefixes:
                        continue
                    key = (grown_lefts, rights + (b,) if b is not EMPTY else rights)
                grown[key] = grow(key, 0) + mult * m
        states = grown
    return states


def _leg(pieces: tuple) -> PlanarTree:
    """The leg grafted from its non-unit pieces; one piece is itself."""
    if len(pieces) > 1:
        return _graft(pieces)
    return pieces[0] if pieces else EMPTY


def leg_index(legs: dict) -> tuple:
    """The lookup tables ``half_degree_rows`` walks, built from ``legs``:
    each kept first leg A to the frozenset of second legs kept with it.

    A leg is grafted from its pieces, one per child of t it takes leaves
    from, so a leg B is reached from its children or from ``(B,)``, when
    one child gives it whole.  Returns ``(completions, prefixes, slots)``:
    ``completions[lefts][r]`` is ``(keyed, slot)`` for each piece tuple
    ``lefts + (r,)`` of A (and ``lefts`` with r = EMPTY, when the last
    child gives A nothing); ``keyed`` re-keys A's kept set by the piece
    tuples of its trees, and ``slot`` < ``slots`` numbers A.  ``prefixes``
    holds every prefix of every piece tuple of a kept A.
    """
    completions, prefixes, rekeyed = {}, set(), {}
    for slot, (a, kept) in enumerate(legs.items()):
        if kept not in rekeyed:
            rekeyed[kept] = {p: b for b in kept for p in _piece_tuples(b)}
        entry = (rekeyed[kept], slot)
        for pieces in _piece_tuples(a):
            completions.setdefault(pieces[:-1], {})[pieces[-1]] = entry
            completions.setdefault(pieces, {})[EMPTY] = entry
            prefixes.update(pieces[:i] for i in range(len(pieces) + 1))
    return completions, prefixes, len(legs)


def _piece_tuples(b: PlanarTree) -> tuple:
    """The piece tuples ``_leg`` grafts b from: its children, or b whole."""
    return ((b,), b.children) if b.children else ((b,),)


def half_degree_rows(basis, legs: dict) -> list:
    """The kernel rows of the co-addition on ``basis``: a sparse
    ``{column: count}`` row per pair (A, B) with A a key of ``legs`` and B
    in its kept set (``primitives._first_legs`` says which pairs keep the
    kernel).

    Per basis tree, the children but the last are folded by
    ``_graft_tables`` along the prefixes of kept first legs of the
    ``leg_index`` of ``legs``; each state reads the last child's table
    once, completes to a kept A by one ``completions`` lookup, and looks B
    up by its pieces in A's kept set, so no leg is grafted and no tree
    compared.  The (1, t) term has no completion; (t, 1) is never reached.
    A pair gets its row on first appearance, from the ``{B: row}`` map of
    A's slot, so the rows and their columns come in ``matrix_from_columns``
    order over the per-tree tables, with no (A, B) key per count.
    """
    completions, prefixes, slots = leg_index(legs)
    numbered = [{} for _ in range(slots)]
    rows = []
    for j, t in enumerate(basis):
        if not t.is_node:
            continue
        kids = t.children
        pairs = _restriction_table(kids[-1]).terms.items()
        for (lefts, rights), mult in _graft_tables(kids[:-1], prefixes).items():
            ends = completions.get(lefts)
            if ends is None:
                continue
            for (a, b), m in pairs:
                hit = ends.get(a)
                if hit is None:
                    continue
                keyed, slot = hit
                right = keyed.get(rights + (b,) if b is not EMPTY else rights)
                if right is None:
                    continue
                seen = numbered[slot]
                i = seen.get(right)
                if i is None:
                    seen[right] = len(rows)
                    rows.append({j: mult * m})
                else:
                    row = rows[i]
                    row[j] = row.get(j, 0) + mult * m
    return rows


def partial_tree(s, f: LinComb) -> LinComb:
    """Generalized differential operator indexed by a monomial or a
    homogeneous polynomial s; the empty tree gives the identity."""
    weight = (s if isinstance(s, LinComb) else LinComb.of(s)).terms
    return f.map_basis(lambda t: LinComb(
        (right, mult * weight[left])
        for (left, right), mult in _restriction_table(t).items() if left in weight))


def mu_count(s: PlanarTree, t: PlanarTree) -> int:
    """Number of leaf subsets of t whose reduced restriction equals s."""
    if s.is_empty:
        return 1
    return sum(mult for (left, _), mult in _restriction_table(t).items()
               if left is s)


# -- Taylor expansion ---------------------------------------------------------

def right_mult(f: LinComb, k: int) -> LinComb:
    return dot(f, var(k))


def attach_powers(f: LinComb, exponents) -> LinComb:
    """Iterated binary right multiplications [f] x1^j1 ... xm^jm, x_m outermost."""
    out = f
    for k, j in enumerate(exponents, start=1):
        for _ in range(j):
            out = right_mult(out, k)
    return out


class TaylorExpansion:
    """Finite expansion of a polynomial into constant coefficients against
    iterated right multiplications by the variables."""

    def __init__(self, nvars: int, coefficients: dict):
        self.nvars = nvars
        self.coefficients = {j: c for j, c in coefficients.items() if not c.is_zero()}

    def coefficient(self, exponents) -> LinComb:
        return self.coefficients.get(tuple(exponents), LinComb())

    def constant_term(self) -> LinComb:
        return self.coefficient((0,) * self.nvars)

    def reconstruct(self) -> LinComb:
        return LinComb(term for j, c in self.coefficients.items()
                       for term in attach_powers(c, j).items())

    def __repr__(self):
        parts = ["%s: %r" % (j, c) for j, c in sorted(self.coefficients.items())]
        return "TaylorExpansion{" + ", ".join(parts) + "}"


def _expand_one_var(f: LinComb, k: int):
    """The nonzero coefficients a_i of f = sum_i [a_i] x_k^i with every a_i
    killed by d = d_k, as ``{i: a_i}`` from the highest power down.

    With R the right multiplication by x_k, d is a derivation and
    d(x_k) = 1, so d R = R d + 1, and for a constant a
    d^j R^i a = i!/(i-j)! R^(i-j) a.  Hence
    a_i = (1/i!) sum_{m >= 0} (-1)^m / m! R^m d^(i+m) f.  The tower
    f, d f, ..., d^N f (d^(N+1) f = 0) takes each derivative once and ends
    because each d removes a leaf.

    The sum runs in integers: f is scaled once by the lcm D of its
    denominators, and d has integer counts, so the tower is integral.  With
    M = N - i, Horner's rule clears the 1/m! by carrying H_m = (M!/m!) times
    the partial sum: H_M = d^N f and H_m = (M!/m!) d^(i+m) f - R(H_(m+1))
    for m = M-1 down to 0, in plain dicts; R is the injective key map
    t -> vee(t, x_k), so R(H) needs no summing.  Then a_i = H_0 / (D i! M!),
    the only division and the only place a Fraction is made.  ``right_mult``
    stays on ``dot``, so ``TaylorExpansion.reconstruct`` checks this sum by
    other code.
    """
    den = math.lcm(*(c.denominator for c in f.terms.values() if c.__class__ is not int))
    tower = [den * f]
    while not tower[-1].is_zero():
        tower.append(partial_k(k, tower[-1]))
    tower.pop()
    x = leaf(k)
    top = len(tower) - 1
    coeffs = {}
    for i in reversed(range(len(tower))):
        acc = tower[top].terms
        scale = 1
        for m in range(top - i - 1, -1, -1):
            scale *= m + 1
            acc = {vee_monomials((t, x)): -c for t, c in acc.items()}
            get = acc.get
            for t, c in tower[i + m].terms.items():
                c = get(t, 0) + scale * c
                if c:
                    acc[t] = c
                else:
                    del acc[t]
        if acc:
            q = den * math.factorial(i) * math.factorial(top - i)
            coeffs[i] = LinComb({t: Fraction(c, q) for t, c in acc.items()})
    return coeffs


def taylor_expand(f: LinComb, nvars: int) -> TaylorExpansion:
    """Unique expansion of f (in x_1..x_nvars) with constant coefficients.

    Only the variables that occur in f are expanded: an absent one has
    exponent 0 and leaves every coefficient unchanged, so the exponent
    tuples are padded with zeros once, at the end. Anonymous leaves are
    constants, not variables.
    """
    occurring = sorted({k for t in f.support() for k in t.labels()
                        if 1 <= k <= nvars})
    partial = {(): f}
    for k in reversed(occurring):
        partial = {(j,) + suffix: a for suffix, g in partial.items()
                   for j, a in _expand_one_var(g, k).items()}
    coefficients = {}
    for exps, a in partial.items():
        padded = [0] * nvars
        for k, j in zip(occurring, exps):
            padded[k - 1] = j
        coefficients[tuple(padded)] = a
    return TaylorExpansion(nvars, coefficients)


def constants_projection(f: LinComb, nvars: int) -> LinComb:
    """Projector onto the subalgebra killed by every derivation."""
    return taylor_expand(f, nvars).constant_term()


# -- component bases and constants --------------------------------------------

def _arrangements(labels: tuple):
    """The distinct arrangements of a sorted label tuple, in lexicographic
    order: a repeated label is placed at each position only once."""
    if not labels:
        yield ()
        return
    for i, lab in enumerate(labels):
        if i and labels[i - 1] == lab:
            continue
        for rest in _arrangements(labels[:i] + labels[i + 1:]):
            yield (lab,) + rest


def monomial_basis(multidegree, operad: str = "mag"):
    """Canonically ordered basis monomials of the operad's component of
    ``multidegree``, with ``multidegree[k-1]`` leaves labelled x_k: one
    variable in degree d is ``(d,)``, multilinear in n is ``(1,) * n``.

    All relabellings share one memo, so each distinct (subtree, label
    slice) is built once.  With one arrangement (a single variable
    occurs) every leaf gets the same label, which keeps the canonical
    order of the shapes, so only several arrangements need a sort."""
    if any(d < 0 for d in multidegree):
        raise ValueError("multidegree entries must be >= 0, got %s"
                         % (tuple(multidegree),))
    labels = tuple(k for k, d in enumerate(multidegree, start=1) for _ in range(d))
    shapes = enumerate_trees(len(labels), binary=operad_spec(operad)["binary"])
    arrangements = list(_arrangements(labels))
    memo = {}
    out = [_relabel(s, arr, memo) for s in shapes for arr in arrangements]
    if len(arrangements) > 1:
        out.sort(key=PlanarTree.sort_key)
    return out


def one_var_basis(degree: int, operad: str = "mag"):
    return monomial_basis((degree,), operad)


def multilinear_basis(n: int, operad: str = "mag"):
    return monomial_basis((1,) * n, operad)


def constants_basis(operad: str, degree: int = None, multidegree=None):
    """Exact basis of the constants in one graded component of the operad,
    via the kernel of the stacked derivations."""
    md = (degree,) if multidegree is None else tuple(multidegree)
    basis = monomial_basis(md, operad)
    return kernel_of(basis, *derivation_images(basis, len(md)))
