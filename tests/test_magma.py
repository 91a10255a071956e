import functools
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest

from treehopf import linear as L
from treehopf import magma as M
from treehopf import trees as T
from treehopf.linear import LinComb


def P(text):
    return L.parse_poly(text)


def random_poly(rng, max_degree, nvars, binary):
    out = LinComb()
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, max_degree)
        shape = rng.choice(T.enumerate_trees(n, binary=binary))
        out = out + LinComb.of(
            T.relabel(shape, [rng.randint(1, nvars) for _ in range(n)]),
            Fraction(rng.randint(-3, 3)))
    return out


class TestVee:
    def test_unit_deletion(self):
        assert M.vee(P("x1"), P("1"), P("x2")) == P("(x1 x2)")
        assert M.vee(P("1"), P("1")) == P("1")
        assert M.vee(P("x1"), P("x2"), P("x3")) == P("(x1 x2 x3)")

    def test_corolla_vs_binary(self):
        assert M.vee(P("x1"), P("x2"), P("x3")) != M.dot(M.dot(P("x1"), P("x2")), P("x3"))

    def test_single_argument_collapses(self):
        assert M.vee(P("x1"), P("1")) == P("x1")

    def test_no_empty_in_basis(self):
        p = M.vee(P("x1 + 1"), P("x2 + 1"))
        for t in p.support():
            if not t.is_empty:
                assert all(not c.is_empty for c in (t.children or ()))


class TestPartials:
    def test_golden_binary(self):
        f = P("(x1 ((x1 x2) x2))")
        assert M.partial_k(2, f) == P("2*(x1 (x1 x2))")
        assert M.partial_k(1, f) == P("(x1 (x2 x2)) + ((x1 x2) x2)")

    def test_golden_eight_leaf(self):
        f = P("((x1 (x2 x2 x2)) ((x2 x2 x1) x2))")
        assert M.partial_k(1, f) == P(
            "((x2 x2 x2) ((x2 x2 x1) x2)) + ((x1 (x2 x2 x2)) ((x2 x2) x2))")
        assert M.partial_kj(1, 2, f) == P(
            "((x2 (x2 x2 x2)) ((x2 x2 x1) x2))"
            " + ((x1 (x2 x2 x2)) ((x2 x2 x2) x2))")

    def test_kk_counts_leaves(self):
        f = P("(x1 ((x1 x2) x2))")
        assert M.partial_kj(1, 1, f) == 2 * f
        assert M.partial_kj(2, 2, f) == 2 * f

    def test_no_matching_leaf(self):
        assert M.partial_kj(2, 1, P("x1")).is_zero()
        assert M.partial_k(3, P("(x1 x2)")).is_zero()

    def test_var_to_unit(self):
        assert M.partial_k(1, P("x1")) == P("1")

    def test_leibniz(self):
        rng = random.Random(21)
        for _ in range(25):
            arity = rng.randint(2, 3)
            fs = [random_poly(rng, 3, 2, False) for _ in range(arity)]
            k = rng.randint(1, 2)
            lhs = M.partial_k(k, M.vee(*fs))
            rhs = LinComb()
            for i in range(arity):
                args = fs[:i] + [M.partial_k(k, fs[i])] + fs[i + 1:]
                rhs = rhs + M.vee(*args)
            assert lhs == rhs

    def test_kj_matches_per_position_relabel(self):
        # the oracle relabels one x_k leaf to x_j at each position; a
        # non-reduced tree keeps its arity-1 vertices
        def relabel_each(k, j, t):
            labs = t.labels()
            return LinComb((T.relabel(t, labs[:pos] + (j,) + labs[pos + 1:]), 1)
                           for pos, lab in enumerate(labs) if lab == k)

        unreduced = T.node([T.node([T.leaf(1)]), T.leaf(2)])
        for t in _oracle_sweep_trees() + [unreduced]:
            for k, j in ((1, 2), (2, 1), (1, 1), (2, 2)):
                assert M.partial_kj(k, j, LinComb.of(t)) == relabel_each(k, j, t), (k, j, t)
        assert M.partial_kj(1, 2, LinComb.of(unreduced)) == LinComb.of(
            T.node([T.node([T.leaf(2)]), T.leaf(2)]))

    def test_no_coaddition_table_is_read(self, monkeypatch):
        # every derivation image comes from the Leibniz recursion alone
        from treehopf import primitives as Pr
        from treehopf import verify as V

        rng = random.Random(20260809)
        polys = [P("(x1 (x1 x1))"), P("(x1 x1 x1)")] + [
            V._random_poly(rng, 5, 3, i % 2 == 0) for i in range(200)]
        f = P("((x1 (x2 x2 x2)) ((x2 x2 x1) x2))")
        basis = M.monomial_basis((2, 1), "mag")

        def values():
            return (M.partial_k(1, f), M.partial_k(2, f), M.partial_kj(1, 2, f),
                    M.partial_kj(2, 1, f), M.derivation_images(basis, 2),
                    [M.taylor_expand(g, 3).coefficients for g in polys],
                    M.constants_basis("mag", multidegree=(2, 1)),
                    Pr.highest_weight_basis((2, 1), "constant"))

        expected = values()
        M._partial_k_monomial.cache_clear()

        def refused(t):
            raise AssertionError("co-addition table read for %r" % (t,))

        monkeypatch.setattr(M, "_restriction_table", refused)
        assert values() == expected


class TestPartialTree:
    def test_golden(self):
        f = P("((x1 (x2 x2 x2)) ((x2 x2 x1) x2))")
        s = T.parse_tree("((x2 x2 x2) x2)")
        assert M.partial_tree(s, f) == P("(x1 (x2 x2 x1)) + 2*(x1 ((x2 x1) x2))")
        assert M.partial_tree(T.parse_tree("(x2 x2 x2 x2)"), f).is_zero()

    def test_unit_is_identity(self):
        f = P("(x1 (x1 x2)) - 2*x1")
        assert M.partial_tree(T.EMPTY, f) == f

    def test_single_leaf_is_derivation(self):
        rng = random.Random(23)
        for _ in range(20):
            f = random_poly(rng, 4, 2, rng.random() < 0.5)
            k = rng.randint(1, 2)
            assert M.partial_tree(T.leaf(k), f) == M.partial_k(k, f)

    def test_commutativity(self):
        monos = []
        for n in (1, 2):
            for shape in T.enumerate_trees(n):
                for labs in itertools.product((1, 2), repeat=n):
                    monos.append(T.relabel(shape, labs))
        rng = random.Random(27)
        f = random_poly(rng, 5, 2, False)
        for s, t in itertools.combinations(monos, 2):
            if s.leaf_count + t.leaf_count <= 5:
                a = M.partial_tree(s, M.partial_tree(t, f))
                b = M.partial_tree(t, M.partial_tree(s, f))
                assert a == b

    def test_splitting_rule(self):
        rng = random.Random(29)
        for _ in range(15):
            p = rng.randint(2, 3)
            fs = [random_poly(rng, 2, 2, False) for _ in range(p)]
            n = rng.randint(1, 3)
            shape = rng.choice(T.enumerate_trees(n))
            s = T.relabel(shape, [rng.randint(1, 2) for _ in range(n)])
            lhs = M.partial_tree(s, M.vee(*fs))
            rhs = LinComb()
            for split in _vee_decompositions(s, p):
                parts = [M.partial_tree(x, fs[i]) if not x.is_empty else fs[i]
                         for i, x in enumerate(split)]
                rhs = rhs + M.vee(*parts)
            assert lhs == rhs

    def test_one_variable_summation_identity(self):
        # summing over all operator monomials of one fixed degree equals the
        # scaled power of the derivation
        rng = random.Random(31)
        for n in (1, 2, 3, 4):
            f = random_poly(rng, 5, 1, False)
            total = LinComb()
            for shape in T.enumerate_trees(n):
                total = total + M.partial_tree(T.relabel(shape, [1] * n), f)
            power = f
            fact = 1
            for i in range(1, n + 1):
                power = M.partial_k(1, power)
                fact *= i
            assert total == power / fact


def _vee_decompositions(s, p):
    """All tuples (S1..Sp), entries possibly empty, grafting back to s."""
    out = []
    if s.is_node and len(s.children) <= p:
        ch = s.children
        for positions in itertools.combinations(range(p), len(ch)):
            split = [T.EMPTY] * p
            for pos, c in zip(positions, ch):
                split[pos] = c
            out.append(tuple(split))
    if not s.is_empty:
        for pos in range(p):
            split = [T.EMPTY] * p
            split[pos] = s
            out.append(tuple(split))
    return out


class TestMuCount:
    def test_examples(self):
        assert M.mu_count(T.leaf(1), T.parse_tree("(x1 x1)")) == 2
        t = T.parse_tree("((x1 x2) x1)")
        assert M.mu_count(t, t) == 1
        assert M.mu_count(T.parse_tree("(x1 (x1 x1))"), T.parse_tree("(x1 x1)")) == 0

    def test_binary_recursion_exhaustive(self):
        # every node pair (S, T) in one variable with degrees up to 3 and 6
        ss = [t for n in (2, 3) for t in T.enumerate_trees(n, binary=True,
                                                           labels=[1] * n)]
        ts = [t for n in range(2, 7) for t in T.enumerate_trees(n, binary=True,
                                                                labels=[1] * n)]
        for s in ss:
            s1, s2 = s.children
            for t in ts:
                t1, t2 = t.children
                assert M.mu_count(s, t) == (
                    M.mu_count(s, t1) + M.mu_count(s, t2)
                    + M.mu_count(s1, t1) * M.mu_count(s2, t2))

    def test_binary_recursion_mixed_labels(self):
        rng = random.Random(33)
        for _ in range(60):
            s = _random_binary(rng, rng.randint(2, 3))
            t = _random_binary(rng, rng.randint(2, 3))
            s1, s2 = s.children
            t1, t2 = t.children
            assert M.mu_count(s, t) == (M.mu_count(s, t1) + M.mu_count(s, t2)
                                        + M.mu_count(s1, t1) * M.mu_count(s2, t2))


@functools.lru_cache(maxsize=None)
def _oracle_table(t):
    """The co-addition table by brute force over all leaf subsets; cached,
    since three tests sweep it, and only read."""
    n = t.leaf_count
    out = {}
    for r in range(n + 1):
        for keep in itertools.combinations(range(1, n + 1), r):
            pair = T.leaf_split(t, keep)
            out[pair] = out.get(pair, 0) + 1
    return out


def _half_table(t):
    """The kernel rows' oracle: the reduced co-addition of t with n leaves,
    cut to first legs A with 1 <= |A| <= n // 2, read from the cached
    table."""
    n = t.leaf_count
    return {pair: c for pair, c in M._restriction_table(t).items()
            if 1 <= pair[0].leaf_count <= n // 2}


def _columns(rows, tables):
    """Row-major kernel ``rows`` transposed back to one ``{(A, B): count}``
    per basis tree, checked to come in first-appearance order: each row's
    columns increase, and so do the rows' first columns.  A row has no key,
    so it is given the pair of ``tables`` (the expected per-tree dicts)
    whose column over the trees it equals, each pair once; a row that no
    pair's column equals is keyed by its row number, so it differs."""
    pairs = {}
    for j, table in enumerate(tables):
        for pair, c in table.items():
            pairs.setdefault(pair, []).append((j, c))
    unused = {}
    for pair, column in pairs.items():
        unused.setdefault(tuple(column), []).append(pair)
    assert all(list(row) == sorted(row) for row in rows)
    firsts = [min(row) for row in rows]
    assert firsts == sorted(firsts)
    out = [{} for _ in tables]
    for r, row in enumerate(rows):
        same = unused.get(tuple(row.items()))
        key = same.pop() if same else r
        for j, c in row.items():
            out[j][key] = c
    return out


def _rows_keeping_every_leg(trees, halves):
    """``half_degree_rows`` over ``trees``, all of one leaf count, keeping
    every first leg of their cut tables ``halves``, each with every second
    leg it has there (in the middle layer, every one not before it), read
    back per tree by ``_columns`` against the expected tables, ``halves``
    less the middle layer's pairs with A after B; returns (got, expected)."""
    n = trees[0].leaf_count
    seconds = {}
    for half in halves:
        for a, b in half:
            seconds.setdefault(a, set()).add(b)
    legs = {a: frozenset(b for b in bs if 2 * a.leaf_count < n or not b < a)
            for a, bs in seconds.items()}
    want = [_middle_cut(half, n) for half in halves]
    rows = M.half_degree_rows(trees, legs)
    return _columns(rows, want), want


def _middle_cut(half, n):
    """A cut table less its middle-layer pairs (A, B) with A after B."""
    return {(a, b): c for (a, b), c in half.items()
            if 2 * a.leaf_count < n or not b < a}


def _oracle_sweep_trees():
    shapes = [s for n in range(1, 8) for s in T.enumerate_trees(n, binary=True)]
    shapes += [s for n in range(3, 7) for s in T.enumerate_trees(n)
               if not s.is_binary]
    out = []
    for s in shapes:
        n = s.leaf_count
        out.append(T.relabel(s, [1] * n))
        if n <= 5:
            out.append(T.relabel(s, range(1, n + 1)))
        if n >= 3:
            out.append(T.relabel(s, [1] * (n - 2) + [2, 2]))
            out.append(T.relabel(s, [2] + [1] * (n - 2) + [2]))
    return out


class TestRestrictionTable:
    def test_matches_leaf_subset_oracle(self):
        # every reduced binary tree up to 7 leaves and every reduced tree up
        # to 6, in one variable, multilinear (up to 5) and with two
        # arrangements of the label multiset 1..1 2 2
        sweep = _oracle_sweep_trees()
        assert len(sweep) == 1227
        for t in [T.EMPTY] + sweep:
            table = _oracle_table(t)
            assert M._restriction_table(t).terms == table, t
            for k in (1, 2):
                slice_k = {r: c for (l, r), c in table.items() if l is T.leaf(k)}
                assert dict(M._partial_k_monomial(k, t)) == slice_k, (k, t)


class TestHalfDegreeTable:
    """The rows of the primitive kernels: the reduced co-addition cut to
    first legs with at most half of the leaves, against the full one."""

    COMPONENTS = ([("mag", (d,)) for d in range(1, 9)]
                  + [("magw", (d,)) for d in range(1, 8)]
                  + [("mag", (1,) * n) for n in range(1, 6)]
                  + [("magw", (1,) * n) for n in range(1, 5)]
                  + [(op, md) for op in ("mag", "magw")
                     for md in ((2, 1), (2, 2), (3, 1), (1, 0, 2), (2, 2, 1))])

    def test_matches_filtered_reduced_coadd(self):
        from treehopf import hopf as H
        for operad, md in self.COMPONENTS:
            n = sum(md)
            for t in M.monomial_basis(md, operad):
                red = H.reduced_coproduct("coadd", LinComb.of(t))
                want = {pair: c for pair, c in red.items()
                        if 2 * pair[0].leaf_count <= n}
                assert _half_table(t) == want, (operad, md, t)

    def test_uncut_table_is_the_leaf_subset_enumeration(self):
        # every reduced tree through 7 leaves, so both operads' bases: the
        # pairs (red(t|I), red(t|I^c)) over 1 <= |I| <= n / 2, by leaf_split;
        # the anonymous pairs are the multilinear ones with the labels
        # erased; the rows that keep every first leg are these pairs less
        # the middle layer's pairs with A after B
        erased = {}

        def erase(t):
            if t not in erased:
                erased[t] = T.relabel(t, [0] * t.leaf_count)
            return erased[t]

        for n in range(1, 8):
            shapes = T.enumerate_trees(n)
            trees = [T.relabel(shape, range(1, n + 1)) for shape in shapes]
            multilinears, anonymouses = [], []
            for shape, tree in zip(shapes, trees):
                multilinear, anonymous = {}, {}
                for r in range(1, n // 2 + 1):
                    for keep in itertools.combinations(range(1, n + 1), r):
                        a, b = T.leaf_split(tree, keep)
                        multilinear[a, b] = multilinear.get((a, b), 0) + 1
                        pair = (erase(a), erase(b))
                        anonymous[pair] = anonymous.get(pair, 0) + 1
                assert _half_table(tree) == multilinear, tree
                assert _half_table(shape) == anonymous, shape
                multilinears.append(multilinear)
                anonymouses.append(anonymous)
            got, want = _rows_keeping_every_leg(trees, multilinears)
            assert got == want, n
            got, want = _rows_keeping_every_leg(shapes, anonymouses)
            assert got == want, n


class TestGraftTables:
    """The one co-addition fold against the leaf-subset oracle, on every
    tree of the oracle sweep that has children."""

    def test_fold_matches_the_leaf_subset_oracle(self):
        # every state's legs grafted by _leg and summed; every multiplicity
        # a positive int and every piece non-unit
        for t in _oracle_sweep_trees():
            if not t.is_node:
                continue
            got = {}
            for (lefts, rights), mult in M._graft_tables(t.children).items():
                assert type(mult) is int and mult > 0, (t, lefts, rights)
                assert T.EMPTY not in lefts + rights, (t, lefts, rights)
                pair = (M._leg(lefts), M._leg(rights))
                got[pair] = got.get(pair, 0) + mult
            assert got == _oracle_table(t), t

    def test_half_degree_table_is_the_cut_oracle_without_units(self):
        # the rows that keep every first leg of the cut oracle, each with
        # every second leg: the oracle less the middle layer's pairs with
        # A after B, with no unit leg
        by_size = {}
        for t in _oracle_sweep_trees():
            by_size.setdefault(t.leaf_count, []).append(t)
        for n, trees in by_size.items():
            halves = [{pair: c for pair, c in _oracle_table(t).items()
                       if 1 <= pair[0].leaf_count <= n // 2} for t in trees]
            got, want = _rows_keeping_every_leg(trees, halves)
            assert got == want, n
            for t, row in zip(trees, got):
                assert (T.EMPTY, t) not in row, t
                assert all(right is not T.EMPTY for _, right in row), t
                assert all(type(m) is int and m > 0 for m in row.values()), t


def _random_binary(rng, n):
    shape = rng.choice(T.enumerate_trees(n, binary=True))
    return T.relabel(shape, [rng.randint(1, 2) for _ in range(n)])


def _peel_one_var(f, k):
    # the reference expansion: extract the top power with the derivative
    # tower, subtract its term and repeat until nothing is left
    coeffs = {}
    rest = f
    while not rest.is_zero():
        n, top, d = 0, rest, M.partial_k(k, rest)
        while not d.is_zero():
            n, top, d = n + 1, d, M.partial_k(k, d)
        if n == 0:
            coeffs[0] = rest
            break
        coeffs[n] = a_n = top / math.factorial(n)
        rest = rest - M.attach_powers(a_n, (0,) * (k - 1) + (n,))
    return coeffs


def _peeled_expansion(f, nvars):
    with mock.patch.object(M, "_expand_one_var", _peel_one_var):
        return M.taylor_expand(f, nvars).coefficients


def _fraction_horner_one_var(f, k):
    # the reference for the integer Horner sum: the same tower, summed in
    # Fractions with one combination per step, acc = d^(i+m-1) f - R(acc) / m
    tower = [f]
    while not tower[-1].is_zero():
        tower.append(M.partial_k(k, tower[-1]))
    tower.pop()
    coeffs = {}
    for i in reversed(range(len(tower))):
        acc = tower[-1]
        for m in range(len(tower) - 1 - i, 0, -1):
            acc = tower[i + m - 1] - M.dot(acc, M.var(k)) / m
        if not acc.is_zero():
            coeffs[i] = acc / math.factorial(i)
    return coeffs


def _fraction_horner_expansion(f, nvars):
    with mock.patch.object(M, "_expand_one_var", _fraction_horner_one_var):
        return M.taylor_expand(f, nvars).coefficients


class TestTaylor:
    def test_golden_binary(self):
        tay = M.taylor_expand(P("(x1 (x1 x1))"), 1)
        assert tay.coefficient((0,)) == P("(x1 (x1 x1)) - ((x1 x1) x1)")
        assert tay.coefficient((3,)) == P("1")
        assert set(tay.coefficients) == {(0,), (3,)}

    def test_golden_ternary(self):
        tay = M.taylor_expand(P("(x1 x1 x1)"), 1)
        assert tay.coefficient((0,)) == P("(x1 x1 x1) - ((x1 x1) x1)")
        assert tay.coefficient((3,)) == P("1")

    def test_constant_input(self):
        f = P("(x2 x1) - (x1 x2)")
        tay = M.taylor_expand(f, 2)
        assert tay.coefficients == {(0, 0): f}

    def test_two_leaf_expansion(self):
        tay = M.taylor_expand(P("(x2 x1)"), 2)
        assert tay.coefficient((0, 0)) == P("(x2 x1) - (x1 x2)")
        assert tay.coefficient((1, 1)) == P("1")

    def test_reconstruction_random(self):
        rng = random.Random(37)
        for i in range(60):
            f = random_poly(rng, 5, 3, i % 2 == 0)
            tay = M.taylor_expand(f, 3)
            assert tay.reconstruct() == f
            for j, a in tay.coefficients.items():
                for k in (1, 2, 3):
                    assert M.partial_k(k, a).is_zero()

    def test_idempotent_re_expansion(self):
        rng = random.Random(39)
        f = random_poly(rng, 5, 2, True)
        tay = M.taylor_expand(f, 2)
        for j, a in tay.coefficients.items():
            again = M.taylor_expand(a, 2)
            assert again.coefficients == {(0, 0): a}

    def test_degrees(self):
        f = P("((x1 x2) (x1 x1))")
        tay = M.taylor_expand(f, 2)
        for j, a in tay.coefficients.items():
            for t in a.support():
                assert t.leaf_count == 4 - sum(j)

    def test_absent_variables_are_padded_not_expanded(self, monkeypatch):
        f = P("(x1 x2) - 2*(x2 (x1 x1))")
        small = M.taylor_expand(f, 2).coefficients
        seen = set()
        partial_k = M.partial_k

        def recorded(k, g):
            seen.add(k)
            return partial_k(k, g)

        monkeypatch.setattr(M, "partial_k", recorded)
        wide = M.taylor_expand(f, 20000)
        assert wide.coefficients == {j + (0,) * 19998: a for j, a in small.items()}
        assert seen == {1, 2}

    def test_variables_above_nvars_stay_in_the_coefficients(self):
        f = P("(x2 x5)")
        tay = M.taylor_expand(f, 3)
        assert tay.coefficients == {(0, 1, 0): P("x5"),
                                    (0, 0, 0): P("(x2 x5) - (x5 x2)")}
        assert tay.reconstruct() == f

    def test_anonymous_leaves_are_constants(self):
        cases = [("(o x1)", 2, {(1, 0): P("o")}),
                 ("o", 1, {(0,): P("o")}),
                 ("((o x1) x2) + (x1 o)", 2,
                  {(0, 0): P("(x1 o) - (o x1)"), (1, 0): P("o"), (1, 1): P("o")}),
                 ("(o o x1)", 1,
                  {(0,): P("(o o x1) - ((o o) x1)"), (1,): P("(o o)")})]
        for text, nvars, expected in cases:
            tay = M.taylor_expand(P(text), nvars)
            assert tay.coefficients == expected
            assert tay.reconstruct() == P(text)

    def test_right_multiple_in_projector_kernel(self):
        f = M.dot(P("(x1 x2)"), P("x2"))
        assert M.constants_projection(f, 2).is_zero()

    def test_tower_expansion_matches_peeling(self):
        from treehopf import verify as V
        # every tree of every arity, the binary ones among them
        cases = [(LinComb.of(T.relabel(t, [1] * n)), 1)
                 for n in range(1, 8) for t in T.enumerate_trees(n, binary=False)]
        cases += [(LinComb.of(T.relabel(t, labs)), 2)
                  for n in range(1, 6) for t in T.enumerate_trees(n, binary=False)
                  for labs in itertools.product((1, 2), repeat=n)]
        cases += [(P(text), nvars) for text, nvars in
                  (("(o x1)", 2), ("o", 1), ("((o x1) x2) + (x1 o)", 2),
                   ("(o o x1)", 1))]
        # the polynomials of verify.check_taylor, from its seed
        rng = random.Random(20260809)
        cases += [(V._random_poly(rng, 5, 3, i % 2 == 0), 3) for i in range(200)]
        for f, nvars in cases:
            coefficients = M.taylor_expand(f, nvars).coefficients
            expected = _peeled_expansion(f, nvars)
            assert coefficients == expected, f
            assert list(coefficients) == list(expected), f

    def test_integer_horner_matches_fraction_horner(self):
        from treehopf import verify as V
        # every monomial of at most 4 leaves labelled from x1, x2, x3 and o:
        # the trees of every arity, so the binary (mag) ones among them
        cases = [(LinComb.of(T.relabel(t, labs)), nvars)
                 for n in range(1, 5) for t in T.enumerate_trees(n, binary=False)
                 for labs in itertools.product((1, 2, 3, T.ANON), repeat=n)
                 for nvars in (1, 3)]
        # the polynomials of verify.check_taylor, from its seed
        rng = random.Random(20260809)
        cases += [(V._random_poly(rng, 5, 3, i % 2 == 0), 3) for i in range(200)]
        # sums with proper fractions, so the lcm scaling is not 1
        rng = random.Random(41)
        for i in range(60):
            terms = []
            for _ in range(rng.randint(1, 4)):
                n = rng.randint(1, 5)
                shape = rng.choice(T.enumerate_trees(n, binary=i % 2 == 0))
                labs = [rng.randint(0, 3) for _ in range(n)]
                terms.append((T.relabel(shape, labs),
                              Fraction(rng.choice((-1, 1)) * rng.randint(1, 7),
                                       rng.randint(1, 6))))
            cases.append((LinComb(terms), 3))
        for f, nvars in cases:
            coefficients = M.taylor_expand(f, nvars).coefficients
            expected = _fraction_horner_expansion(f, nvars)
            assert coefficients == expected, f
            assert list(coefficients) == list(expected), f
            # the same normal form: an int wherever the value is integral
            for j, a in coefficients.items():
                assert [c.__class__ for _, c in a.sorted_items()] == \
                    [c.__class__ for _, c in expected[j].sorted_items()], f

    def test_each_derivative_taken_once(self, monkeypatch):
        calls = []
        partial_k = M.partial_k

        def counted(k, g):
            calls.append(k)
            return partial_k(k, g)

        monkeypatch.setattr(M, "partial_k", counted)
        sums = [LinComb((T.relabel(t, [1] * n), 1)
                        for t in T.enumerate_trees(n, binary=binary))
                for n, binary in ((6, False), (7, True))]
        for f, top in ((P("(x1 (x1 x1))"), 3), (P("x1 + (x1 x1 x1 x1)"), 4),
                       (P("(x1 x1) - 3*(x1 (x1 x1)) + 2*1"), 3),
                       (sums[0], 6), (sums[1], 7)):
            calls.clear()
            M.taylor_expand(f, 1)
            assert calls == [1] * (top + 1), f


class TestConstants:
    def test_one_var_dims(self):
        dims = [len(M.constants_basis("mag", degree=n)) for n in range(1, 6)]
        assert dims == [0, 0, 1, 3, 9]

    def test_degree_two_multidegree(self):
        basis = M.constants_basis("mag", multidegree=(1, 1))
        assert len(basis) == 1
        f = basis[0]
        assert f == P("(x1 x2) - (x2 x1)") or f == P("(x2 x1) - (x1 x2)")

    def test_matches_projection_span(self):
        # the one-variable constants are spanned by projected products with
        # a non-unit, non-variable right factor
        from treehopf.linear import matrix_from_columns, rank, coordinates
        for n in (3, 4, 5):
            basis = M.constants_basis("mag", degree=n)
            span = []
            for t in M.one_var_basis(n, "mag"):
                if t.is_node and t.children[1] is not T.leaf(1):
                    span.append(M.constants_projection(LinComb.of(t), 1))
            coords = coordinates(M.one_var_basis(n, "mag"))
            assert rank(matrix_from_columns(span, coords)) == len(basis)


class TestMonomialBasis:
    def test_one_variable_and_multilinear_are_multidegrees(self):
        assert M.one_var_basis(4, "magw") == M.monomial_basis((4,), "magw")
        assert M.multilinear_basis(3) == M.monomial_basis((1, 1, 1), "mag")
        # (2, 1): the three arrangements of x1 x1 x2 on each binary shape
        basis = M.monomial_basis((2, 1), "mag")
        assert len(basis) == 2 * 3
        assert all(sorted(t.labels()) == [1, 1, 2] for t in basis)

    def test_arrangements_are_the_distinct_permutations_in_order(self):
        for md in ((1,), (4,), (0, 3), (2, 1), (1, 2, 1), (3, 0, 2),
                   (1,) * 5, (2, 2, 1), (3, 3)):
            labels = tuple(k for k, d in enumerate(md, start=1) for _ in range(d))
            assert list(M._arrangements(labels)) == \
                sorted(set(itertools.permutations(labels))), md
        assert len(M.one_var_basis(10)) == 4862

    def test_basis_is_the_sorted_relabelled_shapes(self):
        # with one arrangement (a single variable occurs) the shapes' order
        # is kept unsorted; with several, the basis is sorted
        for operad in ("mag", "magw"):
            for md in ((1,), (5,), (7,), (0, 4), (0, 0, 3), (2, 1), (1, 1, 1),
                       (1, 0, 2), (2, 2)):
                labels = [k for k, d in enumerate(md, start=1) for _ in range(d)]
                shapes = T.enumerate_trees(len(labels), binary=operad == "mag")
                arrangements = set(itertools.permutations(labels))
                want = sorted((T.relabel(s, arr) for s in shapes for arr in arrangements),
                              key=T.PlanarTree.sort_key)
                assert M.monomial_basis(md, operad) == want, (operad, md)

    def test_negative_entry_is_refused(self):
        with pytest.raises(ValueError, match="multidegree"):
            M.monomial_basis((2, -1), "mag")
