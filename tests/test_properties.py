"""Property-based tests: random labelled reduced trees against the oracles
and the co-addition's laws, ``apply_leg`` on random Fraction tensors
against a brute-force sum, and the elimination on random sparse integer
matrices against a Fraction Gauss-Jordan.

Hypothesis draws the trees, derandomized so that the suite is
deterministic; the file is skipped where Hypothesis is absent.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from test_linear import _dense, _oracle_kernel, _rref  # noqa: E402
from test_magma import _columns, _half_table, _oracle_table  # noqa: E402
from treehopf import linear as L  # noqa: E402
from treehopf import magma as M  # noqa: E402
from treehopf import primitives as Pr  # noqa: E402
from treehopf import trees as T  # noqa: E402

MAX_LEAVES = 6
MAX_VARS = 3

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150,
                    database=None)


@st.composite
def labelled_trees(draw, operad):
    """A reduced tree of the operad (binary for mag) with at most
    ``MAX_LEAVES`` leaves, each labelled by one of x_1..x_MAX_VARS."""
    n = draw(st.integers(1, MAX_LEAVES))
    shape = draw(st.sampled_from(
        T.enumerate_trees(n, binary=M.operad_spec(operad)["binary"])))
    labels = draw(st.lists(st.integers(1, MAX_VARS), min_size=n, max_size=n))
    return operad, T.relabel(shape, labels)


any_tree = st.sampled_from(sorted(M.OPERADS)).flatmap(labelled_trees)


def _multidegree(t):
    counts = [0] * max(t.labels())
    for lab in t.labels():
        counts[lab - 1] += 1
    return tuple(counts)


@st.composite
def component_trees(draw, operad):
    """Up to five distinct trees of one operad and one multidegree: drawn
    shapes, each with a drawn arrangement of one drawn label multiset."""
    _, t = draw(labelled_trees(operad))
    n = t.leaf_count
    labels = sorted(t.labels())
    shapes = T.enumerate_trees(n, binary=M.operad_spec(operad)["binary"])
    trees = [t]
    for _ in range(draw(st.integers(0, 4))):
        shape = draw(st.sampled_from(shapes))
        trees.append(T.relabel(shape, draw(st.permutations(labels))))
    return operad, list(dict.fromkeys(trees))


any_component_trees = st.sampled_from(sorted(M.OPERADS)).flatmap(component_trees)


def _cut(tables, legs, n):
    """The rule of test_rows_are_the_half_degree_table_cut_to_the_legs on
    per-tree tables: A a kept first leg, B among its second legs, and in
    the middle layer A not after B."""
    return [{(a, b): c for (a, b), c in table.items()
             if a in legs and b in legs[a]
             and (2 * a.leaf_count < n or not b < a)} for table in tables]


@SETTINGS
@given(any_component_trees)
def test_indexed_rows_are_the_uncut_table_cut_to_the_legs(drawn):
    # the rows over a few trees of one component, read back to their pairs
    operad, trees = drawn
    md = _multidegree(trees[0])
    n = sum(md)
    legs = Pr._first_legs(operad, md)
    halves = [_half_table(t) for t in trees]
    want = _cut(halves, legs, n)
    rows = M.half_degree_rows(trees, legs)
    assert _columns(rows, want) == want
    # with every first leg keeping its whole second component, less the
    # middle layer's B before A, the rows are the oracle's middle cut
    every = {a: frozenset(M.monomial_basis(
        [m - x for m, x in zip(md, _multidegree(a) + (0,) * len(md))],
        operad)) for a in legs}
    want = _cut(halves, every, n)
    rows = M.half_degree_rows(trees, {
        a: frozenset(b for b in kept if 2 * a.leaf_count < n or not b < a)
        for a, kept in every.items()})
    assert _columns(rows, want) == want


@SETTINGS
@given(st.sampled_from(sorted(M.OPERADS)),
       st.lists(st.integers(0, 2), min_size=1, max_size=MAX_VARS)
       .filter(lambda md: 1 <= sum(md) <= 5))
def test_component_rows_are_the_cut_oracle(operad, md):
    # every row of a whole component read back to its pair (A, B): the
    # kernel rows are the cut oracle, in first-appearance order
    comp = Pr.component(operad, multidegree=md)
    legs = Pr._first_legs(operad, comp.multidegree)
    want = _cut([_half_table(t) for t in comp.basis], legs, sum(md))
    assert _columns(Pr.reduced_coproduct_rows(comp), want) == want


@SETTINGS
@given(any_tree)
def test_restriction_table_is_the_leaf_subset_enumeration(drawn):
    _, t = drawn
    assert M._restriction_table(t).terms == _oracle_table(t)


@SETTINGS
@given(any_tree)
def test_restriction_table_is_cocommutative(drawn):
    _, t = drawn
    table = M._restriction_table(t).terms
    assert {(b, a): c for (a, b), c in table.items()} == table


@SETTINGS
@given(any_tree)
def test_restriction_table_is_coassociative(drawn):
    # (Delta (x) id) Delta = (id (x) Delta) Delta, as triples of legs
    _, t = drawn
    table = M._restriction_table(t)
    assert (L.apply_leg(table, 0, M._restriction_table)
            == L.apply_leg(table, 1, M._restriction_table))


BASIS = [T.leaf(1), T.leaf(2), T.parse_tree("(x1 x2)")]
coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# an image is a combination of trees or of pairs of trees (spliced flat)
images = st.dictionaries(st.sampled_from(BASIS + [(a, b) for a in BASIS for b in BASIS]),
                         coefficients, max_size=4)


@settings(SETTINGS, max_examples=75)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
           st.dictionaries(st.tuples(*[st.sampled_from(BASIS)] * k), coefficients,
                           max_size=6),
           st.integers(0, k - 1))),
       st.lists(images, min_size=len(BASIS), max_size=len(BASIS)))
def test_apply_leg_is_the_brute_force_sum(tensor_leg, image_list):
    # every term of the tensor times every term of its leg's image, summed
    # in Fractions, is apply_leg's answer, in the int-or-Fraction normal form
    terms, leg = tensor_leg
    image = dict(zip(BASIS, image_list))
    want = {}
    for key, c in terms.items():
        for b, c2 in image[key[leg]].items():
            spliced = key[:leg] + (b if isinstance(b, tuple) else (b,)) + key[leg + 1:]
            want[spliced] = want.get(spliced, Fraction(0)) + c * c2
    got = L.apply_leg(L.LinComb(terms), leg, lambda b: L.LinComb(image[b])).terms
    assert got == {b: c for b, c in want.items() if c}
    assert all(type(c) is int or c.denominator > 1 for c in got.values())


# mostly zeros, so that the elimination fills in and cancels entries
sparse_entries = st.sampled_from((0, 0, 0, 0, -2, -1, 1, 2))


@SETTINGS
@given(st.integers(1, 10).flatmap(lambda ncols: st.lists(
    st.lists(sparse_entries, min_size=ncols, max_size=ncols), max_size=8)
    .map(lambda rows: L.RationalMatrix(rows, ncols))))
def test_elimination_is_gauss_jordan(m):
    # rank, kernel and free columns of one sparse integer matrix
    pivots, red = _rref(m.rows, m.ncols)
    assert L.rank(m) == len(pivots)
    assert _dense(L.kernel_basis(m), m.ncols) == _oracle_kernel(pivots, red, m.ncols)
    assert L.free_columns_of(range(m.ncols), m) == \
        [j for j in range(m.ncols) if j not in pivots]
