"""Property-based tests: random labelled reduced trees against the oracles
and the co-addition's laws.

Hypothesis draws the trees, derandomized so that the suite is
deterministic; the file is skipped where Hypothesis is absent.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from test_magma import _half_table, _oracle_table  # noqa: E402
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


@SETTINGS
@given(any_tree)
def test_indexed_rows_are_the_uncut_table_cut_to_the_legs(drawn):
    # the rule of test_rows_are_the_half_degree_table_cut_to_the_legs: A a
    # kept first leg, B among its second legs, and in the middle layer A
    # not after B
    operad, t = drawn
    md = _multidegree(t)
    n = sum(md)
    legs = Pr._first_legs(operad, md)
    want = {(a, b): c for (a, b), c in _half_table(t).items()
            if a in legs and (legs[a] is None or b in legs[a])
            and (2 * a.leaf_count < n or not b < a)}
    assert M.half_degree_table(t, M.leg_index(legs, n)).terms == want
    # with every kept set None the middle-layer order still cuts
    uncut = dict.fromkeys(legs)
    want = {(a, b): c for (a, b), c in _half_table(t).items()
            if a in legs and (2 * a.leaf_count < n or not b < a)}
    assert M.half_degree_table(t, M.leg_index(uncut, n)).terms == want


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
