"""Planar rooted trees: structure, grammar, surgery, enumeration, counting.

Trees are immutable and interned (hash-consed), so structurally equal trees
are the same object: a leaf is interned under its label and a vertex under
the tuple of its children.  A vertex's counts, shape flags (``is_reduced``,
``is_binary``) and order key (``sort_key``) are set then, from its
children's, so reading them later is O(1).  Forests are interned the same
way, one instance per tuple of trees.  A tree is the empty tree, a labeled
leaf, or an internal vertex with an ordered, non-empty sequence of non-empty
subtrees.  Leaves carry an integer label: 0 is the anonymous mark (printed
``o``), k >= 1 is the variable x_k.  Internal vertices are unlabeled; their
arity carries all the information the algebras in this package distinguish.

The text grammar.  ``Reader`` splits a text into tokens, skipping blanks
between them: the tensor mark ``(x)``, ``x`` with its digits, a run of
digits, and any other single character.

    1            empty tree
    o            anonymous leaf        (binary contexts also accept |)
    x<k>         leaf labeled x_k, k >= 1
    (T1 ... Tk)  internal vertex with k >= 1 children
    [T1; ...; Tn] forest, [] the empty forest

``(x)`` is the tensor mark of ``linear.parse_poly``, never a tree.  Trees
are read without recursion, printed through ``_walk`` and mapped through
``_fold``, which both keep an explicit stack, so any depth works;
``substitute_at_leaf`` descends along one path and regrafts only it.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb


class TreeError(ValueError):
    """Base class for structural errors on trees and forests."""


class EmptyTreeError(TreeError):
    pass


class BadPositionError(TreeError):
    pass


class EmptyArgumentError(TreeError):
    pass


class NotReducedError(TreeError):
    pass


class NotBinaryError(TreeError):
    pass


class LabelCountMismatchError(TreeError):
    pass


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__("offset %d: %s" % (offset, message))
        self.message = message
        self.offset = offset


ANON = 0


class PlanarTree:
    """Immutable planar rooted tree.

    Use the factories ``leaf``/``node`` and the constant ``EMPTY``; the
    constructor is internal.  Equality is identity thanks to interning, and
    pickling or copying goes back through the factories, so a copy is the
    interned tree itself.
    """

    __slots__ = ("children", "var", "leaf_count", "vertex_count",
                 "is_reduced", "is_binary", "_key")

    def __init__(self, children, var, leaf_count, vertex_count,
                 is_reduced, is_binary, key):
        self.children = children
        self.var = var
        self.leaf_count = leaf_count
        self.vertex_count = vertex_count
        self.is_reduced = is_reduced
        self.is_binary = is_binary
        self._key = key

    @property
    def is_empty(self) -> bool:
        return self.children is None and self.var is None

    @property
    def is_leaf(self) -> bool:
        return self.var is not None

    @property
    def is_node(self) -> bool:
        return self.children is not None

    def labels(self) -> tuple:
        """Leaf labels in left-to-right order."""
        return tuple(s.var for s in _walk(self) if s is not None and s.var is not None)

    def sort_key(self):
        """Key for the canonical total order on trees, fixed at interning."""
        return self._key

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __reduce__(self):
        if self.is_empty:
            return "EMPTY"
        if self.is_leaf:
            return (leaf, (self.var,))
        return (node, (self.children,))

    def __repr__(self):
        return format_tree(self)


# leaves are keyed by their label, vertices by the tuple of their children;
# setdefault is atomic, so concurrent constructions agree on one instance
_interned: dict = {}

EMPTY = PlanarTree(None, None, 0, 0, True, True, (0, 0, -1, 0, ()))


def leaf(var: int = ANON) -> PlanarTree:
    if var < 0:
        raise TreeError("leaf label must be >= 0")
    t = _interned.get(var)
    if t is None:
        t = _interned.setdefault(
            var, PlanarTree(None, var, 1, 1, True, True, (1, 1, 0, var, ())))
    return t


def node(children) -> PlanarTree:
    """Internal vertex over an ordered non-empty sequence of non-empty trees."""
    ts = tuple(children)
    if not ts:
        raise TreeError("node needs at least one child; use graft for forests")
    for c in ts:
        if c.is_empty:
            raise EmptyArgumentError("the empty tree cannot be a child")
    return _graft(ts)


def _graft(ts: tuple) -> PlanarTree:
    """``node`` without its checks, for callers that already hold a
    non-empty tuple of non-empty trees: one intern lookup keyed by ``ts``,
    and on a miss one pass over the children for the counts, the shape
    flags and the order key."""
    t = _interned.get(ts)
    if t is None:
        lc, vc = 0, 1
        is_reduced, is_binary = len(ts) != 1, len(ts) == 2
        keys = []
        for c in ts:
            lc += c.leaf_count
            vc += c.vertex_count
            is_reduced = is_reduced and c.is_reduced
            is_binary = is_binary and c.is_binary
            keys.append(c._key)
        t = _interned.setdefault(ts, PlanarTree(
            ts, None, lc, vc, is_reduced, is_binary,
            (lc, vc, 1, len(ts), tuple(keys))))
    return t


def _walk(t: PlanarTree):
    """The subtrees of t in preorder, from an explicit stack; after the
    subtrees of a vertex comes ``None``, the mark that it closes."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        if s is not None and s.children is not None:
            stack += (None, *reversed(s.children))


def _fold(t: PlanarTree, on_node, on_leaf=lambda i, s: s):
    """Fold t bottom-up without recursion: ``on_leaf(i, s)`` for the i-th
    leaf s (from 1, left to right; the empty tree is its own leaf) and
    ``on_node(v, results)`` for each vertex v, given its children's."""
    i = 0
    out = []
    stack = [(None, iter((t,)), out)]  # open vertices, unread children, results
    while stack:
        v, unread, results = stack[-1]
        for c in unread:
            if c.children is None:
                i += 1
                results.append(on_leaf(i, c))
            else:
                stack.append((c, iter(c.children), []))
                break
        else:
            stack.pop()
            if stack:
                stack[-1][2].append(on_node(v, results))
    return out[0]


# -- grammar ---------------------------------------------------------------

def format_tree(t: PlanarTree) -> str:
    if t.is_empty:
        return "1"
    # the tokens joined by blanks, less the blanks just inside parentheses
    text = " ".join(")" if s is None else "(" if s.children else
                    "o" if s.var == ANON else "x%d" % s.var for s in _walk(t))
    return text.replace("( ", "(").replace(" )", ")")


def format_malcev(t: PlanarTree) -> str:
    """Bracket-free prefix form of a binary tree: each internal vertex prints
    as ``c`` followed by its two subtrees.  Print-only."""
    if t.is_empty or not t.is_binary:
        raise NotBinaryError("the prefix form needs a non-empty binary tree")
    return "".join("c" if s.children else format_tree(s)
                   for s in _walk(t) if s is not None)


_TOKEN = re.compile(r"\(x\)|x\d*|\d+|\S")


class Reader:
    """The tokens of a text, with their offsets, read left to right; the end
    of the text is the token ``""``.  An error names the offset of the next
    token, or of a point ``shift`` characters into it."""

    def __init__(self, text: str):
        self._tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text)]
        self._tokens.append(("", len(text)))
        self._i = 0

    def peek(self, ahead: int = 0) -> str:
        return self._tokens[self._i + ahead][0]

    def take(self) -> str:
        self._i += 1
        return self._tokens[self._i - 1][0]

    def fail(self, message: str, shift: int = 0):
        raise ParseError(message, self._tokens[self._i][1] + shift)

    def expect(self, tok: str):
        if self.peek() != tok:
            self.fail("expected '%s'" % tok)
        self.take()

    def tree(self, child: bool = False) -> PlanarTree:
        """One tree.  Open vertices wait on a stack, so any depth is read
        without recursion.  ``1`` is refused inside a vertex, and anywhere
        when ``child`` (a forest member)."""
        stack = []  # the children read so far of each open vertex
        while True:
            tok, off = self._tokens[self._i]
            if tok == "(":
                self.take()
                stack.append([])
                continue
            if tok == "" and (child or stack):
                self.fail("expected ')'")
            if tok[:1] == "1":
                if child or stack:
                    self.fail("empty tree not allowed as a child")
                t = EMPTY
            elif tok == "o" or tok == "|":
                t = leaf(ANON)
            elif tok[:1] == "x":
                if tok == "x":
                    self.fail("expected digits after 'x'", 1)
                if int(tok[1:]) < 1:
                    self.fail("variable index must be >= 1", 1)
                t = leaf(int(tok[1:]))
            else:
                self.fail("expected a tree ('1', 'o', 'x<k>' or '(')")
            # a run of digits gives up only its leading 1
            if t is EMPTY and tok != "1":
                self._tokens[self._i] = (tok[1:], off + 1)
            else:
                self.take()
            while stack:
                stack[-1].append(t)
                if self.peek() != ")":
                    break
                self.take()
                t = _graft(tuple(stack.pop()))
            if not stack:
                return t

    def forest(self) -> Forest:
        self.expect("[")
        trees = [] if self.peek() == "]" else [self.tree(child=True)]
        while trees and self.peek() == ";":
            self.take()
            trees.append(self.tree(child=True))
        self.expect("]")
        return Forest(trees)

    def end(self):
        if self.peek() != "":
            self.fail("expected end of input")


def parse_tree(text: str) -> PlanarTree:
    r = Reader(text)
    t = r.tree()
    r.end()
    return t


# -- forests ---------------------------------------------------------------

_forests: dict = {}


class Forest:
    """Ordered sequence of non-empty planar trees; may be empty.

    Interned like trees: ``Forest(trees)`` returns the one instance for that
    tuple of trees, with its ``degree`` (total vertex count) and order key
    set then, so equality and hashing are identity, and pickling or copying
    goes back through the constructor to the interned forest.
    """

    __slots__ = ("trees", "degree", "_key")

    def __new__(cls, trees=()):
        ts = tuple(trees)
        try:
            f = _forests.get(ts)
        except TypeError:  # an unhashable member, refused below
            f = None
        if f is None:
            for t in ts:
                if not isinstance(t, PlanarTree):
                    raise TreeError("a forest member must be a planar tree, got %r"
                                    % (t,))
                if t is EMPTY:
                    raise EmptyArgumentError("the empty tree cannot be a forest member")
            f = object.__new__(cls)
            f.trees = ts
            f.degree = sum(t.vertex_count for t in ts)
            f._key = (f.degree, len(ts), tuple(t._key for t in ts))
            # setdefault is atomic, so concurrent constructions agree on one instance
            f = _forests.setdefault(ts, f)
        return f

    def __len__(self):
        return len(self.trees)

    def __iter__(self):
        return iter(self.trees)

    def __getitem__(self, i):
        return self.trees[i]

    def __add__(self, other: "Forest") -> "Forest":
        return Forest(self.trees + other.trees)

    def __reduce__(self):
        # rebuild from the re-interned trees, so a copy is the interned forest
        return (Forest, (self.trees,))

    def sort_key(self):
        return self._key

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return format_forest(self)


def format_forest(f: Forest) -> str:
    return "[" + "; ".join(format_tree(t) for t in f) + "]"


def parse_forest(text: str) -> Forest:
    r = Reader(text)
    f = r.forest()
    r.end()
    return f


# -- structural operations -------------------------------------------------

def graft(forest) -> PlanarTree:
    """Join a forest under a new root; the empty forest gives the single vertex."""
    ts = tuple(forest)
    if not ts:
        return leaf(ANON)
    return node(ts)


def degraft(t: PlanarTree) -> Forest:
    """Drop the root; inverse of graft on non-empty trees."""
    if t.is_empty:
        raise EmptyTreeError("cannot degraft the empty tree")
    if t.is_leaf:
        return Forest(())
    return Forest(t.children)


def substitute_at_leaf(t1: PlanarTree, position: int, t2: PlanarTree) -> PlanarTree:
    """Replace the leaf at the given left-to-right position (1-based) by t2."""
    if t2.is_empty:
        raise EmptyArgumentError("cannot substitute the empty tree at a leaf")
    if t1.is_empty or not 1 <= position <= t1.leaf_count:
        raise BadPositionError("no leaf at position %d" % position)
    # descend to the leaf, keeping each ancestor's children and the branch
    # taken, then regraft only those ancestors, from the leaf up
    path = []
    while t1.children is not None:
        kids = t1.children
        i = 0
        while position > kids[i].leaf_count:
            position -= kids[i].leaf_count
            i += 1
        path.append((kids, i))
        t1 = kids[i]
    for kids, i in reversed(path):
        t2 = _graft(kids[:i] + (t2,) + kids[i + 1:])
    return t2


@lru_cache(maxsize=None)
def mirror(t: PlanarTree) -> PlanarTree:
    """Reverse the order of children at every vertex; cached per tree, as
    trees are interned and immutable."""
    return _fold(t, lambda v, rs: _graft(tuple(reversed(rs))))


def reduced(t: PlanarTree) -> PlanarTree:
    """Remove all arity-1 vertices; idempotent, preserves leaves and their order."""
    return _fold(t, lambda v, rs: rs[0] if len(rs) == 1 else _graft(tuple(rs)))


def sorted_children(t: PlanarTree) -> PlanarTree:
    """Sort the children of every vertex into canonical order: a
    representative of the underlying unordered tree, equal for trees
    differing only in planar structure."""
    return _fold(t, lambda v, rs: _graft(tuple(sorted(rs, key=PlanarTree.sort_key))))


def leaf_restrict(t: PlanarTree, keep) -> PlanarTree:
    """Keep only the vertices above the given leaf positions (1-based).

    A vertex survives iff some kept leaf lies in its subtree; the result may
    contain arity-1 vertices and may be the empty tree.
    """
    keepset = set(keep)
    for p in keepset:
        if not 1 <= p <= t.leaf_count:
            raise BadPositionError("no leaf at position %d" % p)

    def on_node(v, rs):
        kept = [r for r in rs if r is not EMPTY]
        return _graft(tuple(kept)) if kept else EMPTY

    return _fold(t, on_node, lambda i, s: s if i in keepset else EMPTY)


def leaf_split(t: PlanarTree, keep):
    """Split a reduced tree into the reduced restrictions to a leaf subset and its complement."""
    if not t.is_reduced:
        raise NotReducedError("leaf_split needs a reduced tree")
    keepset = set(keep)
    comp = set(range(1, t.leaf_count + 1)) - keepset
    return reduced(leaf_restrict(t, keepset)), reduced(leaf_restrict(t, comp))


def relabel(t: PlanarTree, labels) -> PlanarTree:
    """Assign the given labels to the leaves positionally."""
    labels = tuple(labels)
    if len(labels) != t.leaf_count:
        raise LabelCountMismatchError(
            "%d labels for %d leaves" % (len(labels), t.leaf_count))
    return _relabel(t, labels, {})


def _relabel(t: PlanarTree, labels: tuple, memo: dict) -> PlanarTree:
    """``relabel`` without its count check, through ``memo``, a dict from
    (subtree, its label slice) to the relabelled subtree.  A caller that
    relabels many trees with one memo, such as a component basis, builds
    each distinct (subtree, label slice) once."""
    key = (t, labels)
    r = memo.get(key)
    if r is None:
        if t.is_node:
            out = []
            offset = 0
            for c in t.children:
                end = offset + c.leaf_count
                out.append(_relabel(c, labels[offset:end], memo))
                offset = end
            r = _graft(tuple(out))
        else:
            r = leaf(labels[0]) if t.is_leaf else EMPTY
        memo[key] = r
    return r


# -- shuffles of reduced trees ---------------------------------------------

def _root_forests(t: PlanarTree):
    """The forests a root can contribute to a merge: ``(t,)``, the tree kept
    whole, and, for a vertex, its children, when its root fuses with the
    other root."""
    return ((t,), t.children) if t.is_node else ((t,),)


@lru_cache(maxsize=None)
def _shuffle_pairs(t1: PlanarTree, t2: PlanarTree):
    """All trees T with a leaf subset I restricting to (t1, t2), with the
    number of such subsets.  Both arguments reduced and non-empty.

    T is the two trees side by side under a new root, or a new root over a
    quasi-shuffle of a root forest of t1 with one of t2.  The pair of whole
    trees is left out: its fused term is the shuffle being computed."""
    out = Counter({node((t1, t2)): 1})
    out[node((t2, t1))] += 1
    pairs = itertools.product(_root_forests(t1), _root_forests(t2))
    for a, b in itertools.islice(pairs, 1, None):
        for ch, m in _forest_quasi_shuffles(a, b):
            out[node(ch)] += m
    return tuple(sorted(out.items(), key=lambda km: km[0].sort_key()))


@lru_cache(maxsize=None)
def _forest_quasi_shuffles(a: tuple, b: tuple):
    """Interleavings of two tree sequences where aligned entries may fuse
    into a shuffle: the one merge behind ``_shuffle_pairs``."""
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    out = Counter()
    for rest, m in _forest_quasi_shuffles(a[1:], b):
        out[(a[0],) + rest] += m
    for rest, m in _forest_quasi_shuffles(a, b[1:]):
        out[(b[0],) + rest] += m
    fused = _shuffle_pairs(a[0], b[0])
    for rest, m in _forest_quasi_shuffles(a[1:], b[1:]):
        for v, mv in fused:
            out[(v,) + rest] += mv * m
    return tuple(out.items())


def enumerate_shuffles(t1: PlanarTree, t2: PlanarTree):
    """All shuffles of two reduced trees with their subset multiplicities."""
    if t1.is_empty or t2.is_empty:
        raise EmptyTreeError("shuffle arguments must be non-empty")
    if not (t1.is_reduced and t2.is_reduced):
        raise NotReducedError("shuffle arguments must be reduced")
    return list(_shuffle_pairs(t1, t2))


def enumerate_shuffles_brute(t1: PlanarTree, t2: PlanarTree):
    """Oracle for enumerate_shuffles: scan all shapes and leaf subsets."""
    n1, n2 = t1.leaf_count, t2.leaf_count
    lab1, lab2 = t1.labels(), t2.labels()
    out: dict = {}
    for shape in _reduced_shapes(n1 + n2, False):
        for keep in itertools.combinations(range(1, n1 + n2 + 1), n1):
            keepset = set(keep)
            labels = []
            i = j = 0
            for p in range(1, n1 + n2 + 1):
                if p in keepset:
                    labels.append(lab1[i])
                    i += 1
                else:
                    labels.append(lab2[j])
                    j += 1
            cand = relabel(shape, labels)
            l, r = leaf_split(cand, keepset)
            if l is t1 and r is t2:
                out[cand] = out.get(cand, 0) + 1
    return sorted(out.items(), key=lambda km: km[0].sort_key())


# -- admissible cuts --------------------------------------------------------

def admissible_cuts(t: PlanarTree):
    """All (branch forest, trunk) pairs, one entry per admissible vertex cut.

    Includes the empty cut (empty forest, t) and the full cut ([t], EMPTY).
    Distinct cuts may repeat a pair; the multiplicity is meaningful.
    """
    if t.is_empty:
        raise EmptyTreeError("cannot cut the empty tree")

    def on_node(v, rs):
        # all cuts of v, from its children's; trunk EMPTY only for the full cut
        out = [(Forest((v,)), EMPTY)]
        for parts in itertools.product(*rs):
            branches = Forest(tuple(b for bf, _ in parts for b in bf))
            kept = [trunk for _, trunk in parts if trunk is not EMPTY]
            out.append((branches, graft(kept)))
        return out

    return _fold(t, on_node, lambda i, s: [(Forest((s,)), EMPTY), (Forest(()), s)])


# -- comb presentations and the forest bijection ----------------------------

def comb_graft(ts) -> PlanarTree:
    """Right comb over the given binary trees: leaf i of the height-n comb is
    replaced by the i-th tree, the last leaf stays.  Empty sequence gives the leaf."""
    t = leaf(ANON)
    for s in reversed(tuple(ts)):
        t = node((s, t))
    return t


def right_comb_presentation(t: PlanarTree):
    """The unique sequence rebuilt by comb_graft; a leaf gives the empty sequence."""
    if not t.is_binary or t.is_empty:
        raise NotBinaryError("right comb presentation needs a non-empty binary tree")
    out = []
    while t.is_node:
        out.append(t.children[0])
        t = t.children[1]
    return out


def binary_to_forest(t: PlanarTree) -> Forest:
    """Bijection from binary trees onto planar forests; internal vertices map
    to vertices degree by degree."""
    if not t.is_binary or t.is_empty:
        raise NotBinaryError("binary_to_forest needs a non-empty binary tree")

    def on_node(v, rs):  # (l r) gives graft(l's forest), then r's; kept reversed
        rs[1].append(graft(rs[0][::-1]))
        return rs[1]

    return Forest(_fold(t, on_node, lambda i, s: [])[::-1])


def forest_to_binary(f: Forest) -> PlanarTree:
    """Inverse of binary_to_forest."""
    return comb_graft(_fold(t, lambda v, rs: comb_graft(rs), lambda i, s: leaf(ANON))
                      for t in f)


# -- enumeration -------------------------------------------------------------

def _compositions(n: int, k: int):
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _reduced_shapes(n: int, binary: bool):
    if n == 1:
        return (leaf(ANON),)
    shapes = []
    arities = (2,) if binary else range(2, n + 1)
    for k in arities:
        for comp in _compositions(n, k):
            for kids in itertools.product(*(_reduced_shapes(m, binary) for m in comp)):
                shapes.append(node(kids))
    return tuple(sorted(shapes, key=PlanarTree.sort_key))


@lru_cache(maxsize=None)
def _ptree_shapes(n: int):
    """All planar trees with n vertices (arity-1 vertices allowed)."""
    if n < 1:
        return ()
    return tuple(sorted(map(graft, _forest_shapes(n - 1)), key=PlanarTree.sort_key))


@lru_cache(maxsize=None)
def _forest_shapes(n: int):
    """All planar forests with n vertices in total."""
    if n == 0:
        return (Forest(()),)
    out = []
    for k in range(1, n + 1):
        for t in _ptree_shapes(k):
            for rest in _forest_shapes(n - k):
                out.append(Forest((t,) + rest.trees))
    return tuple(sorted(out, key=Forest.sort_key))


def enumerate_trees(leaf_count: int, binary: bool = False, labels=None):
    """All reduced planar trees with the given number of leaves, in canonical
    order; labels, when given, are assigned positionally."""
    if leaf_count < 1:
        raise TreeError("leaf count must be >= 1")
    shapes = _reduced_shapes(leaf_count, binary)
    if labels is None:
        return list(shapes)
    labels = tuple(labels)
    if len(labels) != leaf_count:
        raise LabelCountMismatchError(
            "%d labels for %d leaves" % (len(labels), leaf_count))
    memo = {}
    return [_relabel(s, labels, memo) for s in shapes]


def enumerate_ptrees(vertex_count: int):
    """All planar trees with the given number of vertices (not necessarily reduced)."""
    if vertex_count < 1:
        raise TreeError("vertex count must be >= 1")
    return list(_ptree_shapes(vertex_count))


def enumerate_forests(vertex_count: int):
    """All planar forests of the given total vertex count."""
    if vertex_count < 0:
        raise TreeError("vertex count must be >= 0")
    return list(_forest_shapes(vertex_count))


# -- integer sequences -------------------------------------------------------

def _convolution(b, a, k):
    """sum_{j<k} b_j * a_{k-j}, the cross term of coefficient k."""
    return sum(bj * aj for bj, aj in zip(b, reversed(a[:k - 1])))


def log_derivative(a):
    """From a_1..a_n, the coefficients b_1..b_n of B = t * d/dt log(1 + A).

    Coefficient k of (1 + A) * B = t * A' gives
    b_k = k * a_k - sum_{j<k} b_j * a_{k-j}; no division, so integer input
    gives integer output.
    """
    b = []
    for k, ak in enumerate(a, start=1):
        b.append(k * ak - _convolution(b, a, k))
    return b


def inverse_log_derivative(b):
    """The inverse of ``log_derivative``: from b_1..b_n, the coefficients
    a_1..a_n of A with 1 + A = exp(integral of B / t).

    The same identity read for a_k gives
    a_k = (b_k + sum_{j<k} b_j * a_{k-j}) / k, an exact ``Fraction``.
    """
    a = []
    for k, bk in enumerate(b, start=1):
        a.append(Fraction(bk + _convolution(b, a, k), k))
    return a


@lru_cache(maxsize=None)
def _catalan(n: int):
    # C_{m-1} = binom(2m - 2, m - 1) / m
    return tuple(comb(2 * m - 2, m - 1) // m for m in range(1, n + 1))


@lru_cache(maxsize=None)
def _super_catalan(n: int):
    # s_0 = s_1 = 1, (m + 1) s_m = 3(2m - 1) s_{m-1} - (m - 2) s_{m-2}
    vals = [1, 1]
    for m in range(2, n):
        vals.append((3 * (2 * m - 1) * vals[m - 1] - (m - 2) * vals[m - 2]) // (m + 1))
    return tuple(vals[:n])


SEQUENCE_KINDS = ("catalan", "super-catalan", "log-catalan", "log-super-catalan",
                  "odd-arity", "one-var-constants")


def sequence(kind: str, count: int):
    """Exact values of the named integer sequence, indexed from n = 1."""
    if count < 1:
        raise TreeError("count must be >= 1")
    if kind == "catalan":
        return list(_catalan(count))
    if kind == "super-catalan":
        return list(_super_catalan(count))
    if kind == "log-catalan":
        return log_derivative(_catalan(count))
    if kind == "log-super-catalan":
        return log_derivative(_super_catalan(count))
    if kind == "odd-arity":
        cat = _catalan(count)
        logcat = log_derivative(cat)
        return [n * cat[n - 1] - logcat[n - 1] for n in range(1, count + 1)]
    if kind == "one-var-constants":
        cat = (1,) + _catalan(count)
        return [cat[n] - cat[n - 1] for n in range(1, count + 1)]
    raise TreeError("unknown sequence kind %r" % kind)


def arity_census(t: PlanarTree):
    """(number of even-arity vertices, number of odd-arity vertices); leaves
    have arity 0 and count as even."""
    odd = sum(1 for s in _walk(t) if s is not None and len(s.children or ()) % 2)
    return (t.vertex_count - odd, odd)
