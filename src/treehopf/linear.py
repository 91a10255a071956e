"""Exact linear algebra: formal rational combinations and a sparse
fraction-free elimination engine.

A :class:`LinComb` is a finite formal linear combination over any hashable
basis (trees, forests, or tuples of those for tensor values), with rational
coefficients in one normal form: an ``int`` when the value is integral, a
``fractions.Fraction`` only when its denominator is greater than 1.  An int
and the equal Fraction compare and hash alike, so the normal form only saves
work.  Zero coefficients are never stored.  Every combination is summed by
``_accumulate``, the one loop that adds (basis, coefficient) pairs into a
dict, each coefficient times a ``scale`` and, given a ``head``, each basis
element b stored as ``head + b + tail``: ``map_basis`` and ``apply_leg``
(which splices each image into its key's leg) pass an image's own terms with
the key's coefficient as the scale, so no scaled or spliced pair is built
per term.  It writes only into a fresh dict its caller owns: ``terms`` may
be shared with a cache and is never mutated after construction.  The one
exception is the co-addition's cached table ``magma._restriction_table``,
which sums positive int counts in its own dict and hands it over as
``terms``.  Every basis function is extended to combinations by
``multilinear``, the one loop over the product of the factors' terms:
products, tensors and the dendriform and forest coproduct recursions go
through it (the co-addition has its own fold, ``magma._graft_tables``).

Matrices are sparse: one ``{column: coefficient}`` dict per row, zeros never
stored.  ``rank``, ``kernel_basis``, ``kernel_sample`` and ``solve_exact``
share one elimination, ``_echelon``: each row is copied (the matrix is
never written to) and scaled to primitive integers from its own nonzeros,
columns are eliminated left to right with a Markowitz pivot (the sparsest
row), and a row is divided by its gcd whenever it was scaled and when it
becomes a pivot.  ``rank`` stops at the echelon form; the solution
back-reduces it, in reverse pivot order, to the reduced echelon form.
Every exact kernel goes one route, ``kernel_of(basis, *blocks)``: each
block is one linear map's images of the basis, the columns of a matrix
over the coordinates it uses, or that matrix already (the co-addition's
rows); the blocks' rows are stacked into one matrix, whose primitive
integer kernel vectors map back to combinations of the basis, so the
kernel is the intersection of the maps' kernels.  ``kernel_sample_of(basis,
*blocks, count=k)`` returns the kernel's dimension, read off the same
echelon, with its first k combinations, and ``free_columns_of(basis,
*blocks)`` reads only the free columns.  Both kernels build their vectors
in ``_kernel_vectors``, which back-reduces only the part of the echelon
that the first k free columns need.  Kernel vectors are sparse like the
rows, ``{column: entry}`` with zeros never stored.

The text form of a combination is ``c*T`` terms joined by `` + `` / `` - ``,
with ``c`` an integer or ``p/q`` and ``c*`` omitted when c = 1; tensor terms
are written ``T (x) S`` (or ``T (x) S (x) R``).  Printing uses the canonical
basis order, and parsing, over the tokens of ``trees.Reader``, round-trips.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

from .trees import Forest, Reader, format_forest, format_tree


def _coerce(c):
    """The normal form of a coefficient: an int when it is integral (a bool
    becomes its int), otherwise a Fraction with denominator > 1."""
    if c.__class__ is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError("coefficient must be an int or Fraction, got %r" % (c,))


def _accumulate(acc: dict, pairs, scale=1, head=None, tail=()) -> None:
    """Add (basis, coefficient) pairs into ``acc`` in place, dropping zeros.

    Each coefficient is multiplied by ``scale``; given a ``head``, each basis
    element b is stored as ``head + b + tail`` (b as a 1-tuple if not a tuple).
    Ints go straight through; anything else is brought to normal form by
    ``_coerce``, and a Fraction sum that comes out integral is stored as an int.
    """
    get = acc.get
    for b, c in pairs:
        if scale != 1:
            c *= scale
        if head is not None:
            b = head + (b if isinstance(b, tuple) else (b,)) + tail
        if c.__class__ is not int:
            c = _coerce(c)
        if not c:
            continue
        old = get(b)
        if old is None:
            acc[b] = c
        else:
            c += old
            if not c:
                del acc[b]
            elif c.__class__ is int or c.denominator != 1:
                acc[b] = c
            else:
                acc[b] = c.numerator


class UnitTermError(ValueError):
    pass


class InternalInconsistencyError(RuntimeError):
    pass


def _basis_key(b):
    # trees before forests: their order keys do not compare with each other
    if isinstance(b, tuple):
        return tuple(_basis_key(x) for x in b)
    return (isinstance(b, Forest), b.sort_key())


class LinComb:
    """Formal rational-linear combination of hashable basis elements."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            _accumulate(self.terms, terms.items() if isinstance(terms, dict) else terms)

    @classmethod
    def of(cls, basis, coeff=1) -> "LinComb":
        r = cls.__new__(cls)
        r.terms = {basis: c} if (c := _coerce(coeff)) else {}
        return r

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, basis):
        return self.terms.get(basis, 0)

    def items(self):
        return self.terms.items()

    def support(self):
        return self.terms.keys()

    def __len__(self):
        return len(self.terms)

    def __add__(self, other: "LinComb") -> "LinComb":
        r = LinComb()
        r.terms = dict(self.terms)
        _accumulate(r.terms, other.terms.items())
        return r

    def __sub__(self, other: "LinComb") -> "LinComb":
        r = LinComb()
        r.terms = dict(self.terms)
        _accumulate(r.terms, other.terms.items(), -1)
        return r

    def __neg__(self) -> "LinComb":
        return (-1) * self

    def __rmul__(self, scalar) -> "LinComb":
        r = LinComb()
        _accumulate(r.terms, self.terms.items(), _coerce(scalar))
        return r

    __mul__ = __rmul__

    def __truediv__(self, scalar) -> "LinComb":
        return self.__rmul__(Fraction(1) / _coerce(scalar))

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self.terms == other.terms

    def map_basis(self, fn) -> "LinComb":
        """Linear extension of a basis map; fn returns a basis element or a LinComb."""
        r = LinComb()
        for b, c in self.terms.items():
            _accumulate(r.terms, _pairs(fn(b)), c)
        return r

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda bc: _basis_key(bc[0]))

    def __repr__(self):
        return format_poly(self)


def _pairs(img):
    """An image's pairs: a LinComb's terms, or a bare basis element with 1."""
    return img.terms.items() if isinstance(img, LinComb) else ((img, 1),)


def multilinear(fn, factors) -> LinComb:
    """The multilinear extension of a basis function of one element from each
    factor: ``fn`` takes the tuple of basis elements and returns a basis
    element, whose coefficient is the product of theirs.  No factors give
    ``fn(())`` once."""
    terms = [f.terms for f in factors]
    return LinComb(zip(map(fn, product(*[t.keys() for t in terms])),
                       map(prod, product(*[t.values() for t in terms]))))


def _flatten(bases) -> tuple:
    return tuple(x for b in bases for x in (b if isinstance(b, tuple) else (b,)))


def tensor(*factors: LinComb) -> LinComb:
    """Tensor product; keys become flat tuples of the factors' keys."""
    return multilinear(_flatten, factors)


def apply_leg(tp: LinComb, leg: int, fn) -> LinComb:
    """Apply a linear map to one tensor leg; tuple-valued images are spliced in."""
    r = LinComb()
    for key, c in tp.terms.items():
        _accumulate(r.terms, _pairs(fn(key[leg])), c, key[:leg], key[leg + 1:])
    return r


def pairing(f: LinComb, g: LinComb):
    """Bilinear form making the monomial basis orthonormal."""
    small, big = (f, g) if len(f) <= len(g) else (g, f)
    acc = 0
    for b, c in small.terms.items():
        acc += c * big.terms.get(b, 0)
    return _coerce(acc)


# -- text form ---------------------------------------------------------------

def _format_basis(b) -> str:
    if isinstance(b, tuple):
        return " (x) ".join(_format_basis(x) for x in b)
    if isinstance(b, Forest):
        return format_forest(b)
    return format_tree(b)


def format_poly(p: LinComb) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for b, c in p.sorted_items():
        mag = c if c > 0 else -c
        body = _format_basis(b) if mag == 1 else "%s*%s" % (_format_coeff(mag), _format_basis(b))
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


def _format_coeff(c) -> str:
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def parse_poly(text: str) -> LinComb:
    """Parse the polynomial text form through ``trees.Reader``: a term is an
    optional ``n*`` or ``p/q*`` coefficient and its legs (trees or forests)
    joined by ``(x)``, and a bare ``1`` is the unit tree, not a coefficient."""
    if text.strip() == "0":
        return LinComb()
    r = Reader(text)
    terms = []
    while True:
        coeff = -1 if r.peek() == "-" else 1
        if r.peek() in ("+", "-"):
            r.take()
        tok = r.peek()
        if tok.isdecimal() and (int(tok) != 1 or r.peek(1) in ("/", "*")):
            num = int(r.take())
            if r.peek() == "/":
                r.take()
                if not r.peek().isdecimal():
                    r.fail("expected an integer")
                if int(r.peek()) == 0:
                    r.fail("zero denominator", len(r.peek()))
                coeff *= Fraction(num, int(r.take()))
                r.expect("*")
            elif r.peek() == "*":
                r.take()
                coeff *= num
            else:
                r.fail("expected '*' after coefficient")
        legs = [r.forest() if r.peek() == "[" else r.tree()]
        while r.peek() == "(x)":
            r.take()
            legs.append(r.forest() if r.peek() == "[" else r.tree())
        terms.append((tuple(legs) if len(legs) > 1 else legs[0], coeff))
        if r.peek() == "":
            return LinComb(terms)
        if r.peek() not in ("+", "-"):
            r.fail("expected '+', '-' or end of input")


# -- exact sparse matrices ---------------------------------------------------

class RationalMatrix:
    """Exact sparse matrix: ``sparse`` holds one ``{column: coefficient}``
    dict per row, coefficients ints or Fractions and never zero.

    The constructor takes dense rows and ``rows`` reads them back dense;
    ``_of_sparse`` wraps sparse rows, built by ``matrix_from_columns`` or,
    for the co-addition, row by row by ``magma.half_degree_rows``.
    """

    def __init__(self, rows, ncols=None):
        rows = [list(r) for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for an empty matrix")
            ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        self.ncols = ncols
        self.sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]

    @classmethod
    def _of_sparse(cls, sparse, ncols) -> "RationalMatrix":
        m = cls.__new__(cls)
        m.ncols = ncols
        m.sparse = sparse
        return m

    @property
    def nrows(self):
        return len(self.sparse)

    @property
    def rows(self):
        out = []
        for r in self.sparse:
            row = [0] * self.ncols
            for j, x in r.items():
                row[j] = x
            out.append(row)
        return out


def _primitive(row: dict) -> dict:
    """A sparse integer row divided by the gcd of its entries."""
    g = 0
    for x in row.values():
        g = gcd(g, x)
        if g == 1:
            return row
    return row if not g else {j: x // g for j, x in row.items()}


def _integral(row: dict) -> dict:
    """A sparse rational row, copied and scaled to primitive integers."""
    if all(x.__class__ is int for x in row.values()):
        return _primitive(dict(row))
    den = lcm(*(x.denominator for x in row.values()))
    return _primitive({j: x.numerator * (den // x.denominator)
                       for j, x in row.items()})


def _combine(row: dict, prow: dict, c: int, i=None, at=None) -> dict:
    """a*row - b*prow for the coprime a > 0 and b that cancel column c;
    ``row`` (row number ``i``) is consumed.

    A row's sign is immaterial, so a is taken positive: a = 1 whenever the
    pivot entry divides the row's entry, and then nothing is multiplied and
    the gcd pass waits until the row becomes a pivot.  A scaled row is
    divided by its gcd at once.  Given the column index ``at``, row i is
    added where an entry appears and dropped where one cancels; no other
    entry of the index is touched.
    """
    pv = prow[c]
    rv = row.pop(c)
    g = gcd(pv, rv) if pv > 0 else -gcd(pv, rv)
    a, b = pv // g, rv // g
    if a != 1:
        for j in row:
            row[j] *= a
    get = row.get
    for j, x in prow.items():
        if j != c:
            y = get(j)
            if y is None:
                row[j] = -b * x
                if at is not None:
                    at[j].add(i)
            else:
                y -= b * x
                if y:
                    row[j] = y
                else:
                    del row[j]
                    if at is not None:
                        at[j].discard(i)
    return row if a == 1 else _primitive(row)


def _echelon(rows, ncols):
    """Fraction-free sparse elimination with Markowitz pivoting.

    Columns are taken in increasing order, so the pivot columns are the
    leftmost independent ones.  In column c the pivot is the active row with
    the fewest nonzeros, then the smallest |entry| at c, then the lowest
    index, divided by its gcd.  ``at[j]`` holds the active rows that are
    nonzero in column j.  Returns ``[(pivot column, row)]`` in column order;
    each row is primitive and zero left of its pivot.
    """
    rows = [_integral(r) for r in rows if r]
    at = [set() for _ in range(ncols)]
    for i, r in enumerate(rows):
        for j in r:
            at[j].add(i)
    active = len(rows)
    echelon = []
    for c in range(ncols):
        hits = at[c]
        if not hits:
            continue
        p = min(hits, key=lambda i: (len(rows[i]), abs(rows[i][c]), i))
        prow = rows[p] = _primitive(rows[p])
        for j in prow:
            at[j].discard(p)
        for i in hits:
            r = rows[i] = _combine(rows[i], prow, c, i, at)
            if not r:
                active -= 1
        echelon.append((c, prow))
        active -= 1
        if not active:
            break
    return echelon


def _back_reduce(echelon):
    """The reduced echelon form as {pivot column: row}, rows up to scale: each
    row is cleared at the later pivot columns by rows already reduced, in
    reverse pivot order."""
    reduced = {}
    for c, row in reversed(echelon):
        for j in [j for j in row if j != c and j in reduced]:
            row = _combine(row, reduced[j], j)
        reduced[c] = row
    return reduced


def rank(m: RationalMatrix) -> int:
    return len(_echelon(m.sparse, m.ncols))


def _free(echelon, ncols) -> list:
    """The free columns of an ``_echelon``, the non-pivot ones, increasing."""
    pivots = {c for c, _ in echelon}
    return [j for j in range(ncols) if j not in pivots]


def _kernel_vectors(echelon, ncols, count):
    """The kernel vectors of the first ``count`` free columns of an
    ``_echelon``, as ``kernel_basis`` describes them.

    With F the last of those free columns, only the rows whose pivot is left
    of F are back-reduced, cut to the columns <= F.  A row with a pivot
    right of F is zero at every column <= F, so clearing a row by it only
    rescales that row there, and each vector is fixed by its normal form.
    """
    free = _free(echelon, ncols)[:count]
    if not free:
        return []
    last = free[-1]
    rref = _back_reduce([(c, {j: x for j, x in row.items() if j <= last})
                         for c, row in echelon if c < last])
    hits = {}
    for c in sorted(rref):
        prow = rref[c]
        for j in prow:
            if j != c:
                hits.setdefault(j, []).append((c, prow))
    basis = []
    for fc in free:
        # a reduced row is zero left of its pivot, so every c here is < fc
        col = hits.get(fc, ())
        scale = lcm(*(prow[c] for c, prow in col))
        v = {c: -prow[fc] * (scale // prow[c]) for c, prow in col}
        v[fc] = scale
        basis.append(_primitive(v))
    return basis


def kernel_basis(m: RationalMatrix):
    """Exact null-space basis as sparse primitive integer vectors,
    deterministic.

    One ``{column: entry}`` dict per free column ``fc``, in column order,
    its keys increasing and no entry zero: it is positive at ``fc``, zero at
    every other free column, and primitive (its entries have gcd 1), which
    fixes it uniquely.
    """
    return _kernel_vectors(_echelon(m.sparse, m.ncols), m.ncols, m.ncols)


def kernel_sample(m: RationalMatrix, count: int):
    """(nullity, the first ``count`` vectors of ``kernel_basis(m)``) from one
    elimination: the nullity is read off the echelon, and only the sampled
    vectors are back-substituted."""
    echelon = _echelon(m.sparse, m.ncols)
    return m.ncols - len(echelon), _kernel_vectors(echelon, m.ncols, count)


def solve_exact(m: RationalMatrix, rhs):
    """Any exact solution of m x = rhs, or None when the system is inconsistent."""
    n = m.ncols
    aug = [{**r, n: b} if b else r for r, b in zip(m.sparse, rhs)]
    echelon = _echelon(aug, n + 1)
    if echelon and echelon[-1][0] == n:
        return None
    x = [Fraction(0)] * n
    for c, prow in _back_reduce(echelon).items():
        x[c] = Fraction(prow.get(n, 0), prow[c])
    return x


def matrix_from_columns(columns, coords=None) -> RationalMatrix:
    """Matrix whose j-th column is the coordinate vector of columns[j].

    ``coords`` is a dict basis -> row index, and rows are emitted for exactly
    those indices; by default it indexes the columns' supports in
    first-appearance order.  Only the nonzero coefficients are stored.
    """
    if coords is None:
        coords = coordinates(b for p in columns for b in p.support())
    rows = [{} for _ in range(len(coords))]
    for j, p in enumerate(columns):
        for b, c in p.terms.items():
            i = coords.get(b)
            if i is None:
                raise InternalInconsistencyError("value outside the coordinate system: %r" % (b,))
            rows[i][j] = c
    return RationalMatrix._of_sparse(rows, len(columns))


def coordinates(basis) -> dict:
    """Index the distinct elements of an iterable in first-appearance order."""
    return {b: i for i, b in enumerate(dict.fromkeys(basis))}


def kernel_of(basis, *blocks) -> list:
    """The combinations of ``basis`` that every map in ``blocks`` sends to
    zero, one per vector of ``kernel_basis`` and in its order, each built
    from that vector's nonzeros in increasing column order.

    Each block is one map's images of the basis, ``block[j]`` the image of
    ``basis[j]``, or its ``RationalMatrix``; the blocks' matrices are
    stacked, so rows from different maps never mix and their targets need
    no common coordinates.
    """
    return _combinations(basis, kernel_basis(_stacked(basis, blocks)))


def free_columns_of(basis, *blocks) -> list:
    """The free columns of the stacked matrix that ``kernel_of`` eliminates,
    increasing, read off the echelon with nothing back-substituted.  There
    is one per kernel vector, and each vector is positive at its own free
    column and zero at the others, so the kernel's coordinates at these
    columns determine its elements."""
    m = _stacked(basis, blocks)
    return _free(_echelon(m.sparse, m.ncols), m.ncols)


def kernel_sample_of(basis, *blocks, count: int):
    """(dimension of the kernel ``kernel_of`` spans, its first ``count``
    combinations), from ``kernel_sample`` of the same stacked matrix."""
    nullity, vecs = kernel_sample(_stacked(basis, blocks), count)
    return nullity, _combinations(basis, vecs)


def _stacked(basis, blocks) -> RationalMatrix:
    rows = [r for block in blocks for r in (
        block if isinstance(block, RationalMatrix) else matrix_from_columns(block)).sparse]
    return RationalMatrix._of_sparse(rows, len(basis))


def _combinations(basis, vecs) -> list:
    return [LinComb((basis[j], x) for j, x in vec.items()) for vec in vecs]
