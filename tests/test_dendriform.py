import itertools
import random
from fractions import Fraction

import pytest

from treehopf import dendriform as D
from treehopf import hopf as H
from treehopf import linear as L
from treehopf import trees as T
from treehopf.dendriform import UnitUnitError, Y, YLEAF
from treehopf.linear import LinComb, tensor


def P(text):
    return L.parse_poly(text)


UP = T.parse_tree("(o (o o))")
DOWN = T.parse_tree("((o o) o)")
RC3 = T.parse_tree("(o (o (o o)))")
LC3 = T.parse_tree("(((o o) o) o)")
MID3 = T.parse_tree("((o o) (o o))")
D2 = T.parse_tree("((o (o o)) o)")
Q4 = T.parse_tree("(o ((o o) o))")

F_PRIM = LinComb.of(UP) - LinComb.of(DOWN)


def ybasis(max_deg):
    out = [YLEAF]
    for n in range(1, max_deg + 1):
        out.extend(T.enumerate_trees(n + 1, binary=True))
    return out


def random_ypoly(rng, max_deg):
    out = LinComb()
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, max_deg)
        out = out + LinComb.of(rng.choice(T.enumerate_trees(n + 1, binary=True)),
                               rng.randint(-2, 2))
    return out if not out.is_zero() else LinComb.of(Y)


class TestDendriformOps:
    def test_star_of_generators(self):
        assert D.star(P("(o o)"), P("(o o)")) == LinComb.of(UP) + LinComb.of(DOWN)

    def test_unit_rules(self):
        t = P("((o o) o)")
        assert D.star(P("o"), t) == t
        assert D.star(t, P("o")) == t
        assert D.prec(t, P("o")) == t
        assert D.succ(t, P("o")).is_zero()
        assert D.prec(P("o"), t).is_zero()
        assert D.succ(P("o"), t) == t

    def test_unit_unit_undefined(self):
        with pytest.raises(UnitUnitError):
            D.prec(P("o"), P("o"))
        with pytest.raises(UnitUnitError):
            D.succ(P("o"), P("o"))

    def test_axioms(self):
        rng = random.Random(51)
        for _ in range(12):
            x = random_ypoly(rng, 2)
            y = random_ypoly(rng, 2)
            z = random_ypoly(rng, 2)
            assert D.prec(D.prec(x, y), z) == D.prec(x, D.star(y, z))
            assert D.prec(D.succ(x, y), z) == D.succ(x, D.prec(y, z))
            assert D.succ(D.star(x, y), z) == D.succ(x, D.succ(y, z))

    def test_star_associative_on_basis(self):
        basis = ybasis(2)
        for a, b, c in itertools.product(basis, repeat=3):
            if D.ydegree(a) + D.ydegree(b) + D.ydegree(c) > 5:
                continue
            x, y, z = (LinComb.of(t) for t in (a, b, c))
            assert D.star(D.star(x, y), z) == D.star(x, D.star(y, z))


class TestGraftingProducts:
    def test_under_combs(self):
        comb = YLEAF
        for h in range(1, 5):
            comb = D.under(comb, Y) if h > 1 else Y
        assert comb is T.comb_graft((YLEAF,) * 4)

    def test_circ_alpha(self):
        assert D.circ_alpha(Y, Y) is DOWN
        assert D.circ_alpha(UP, Y) is MID3
        assert D.circ_alpha(Y, YLEAF) is Y

    def test_over_is_opposite(self):
        assert D.over(Y, UP) is D.circ_alpha(UP, Y)

    def test_associativity_with_unit(self):
        basis = ybasis(2)
        for op in (D.under, D.circ_alpha):
            for a, b, c in itertools.product(basis, repeat=3):
                if D.ydegree(a) + D.ydegree(b) + D.ydegree(c) > 4:
                    continue
                assert op(op(a, b), c) is op(a, op(b, c))
            for a in basis:
                assert op(a, YLEAF) is a
                assert op(YLEAF, a) is a

    def test_mirror_exchanges_under_and_over(self):
        for a in ybasis(2):
            for b in ybasis(2):
                lhs = D.over(b, a)
                rhs = T.mirror(D.under(T.mirror(a), T.mirror(b)))
                assert lhs is rhs


class TestCombOperators:
    def test_vee_leaf(self):
        assert D.vee_leaf(YLEAF) is Y
        assert D.vee_leaf(Y) is UP

    def test_comb_graft(self):
        assert T.comb_graft((YLEAF,) * 3) is RC3
        assert T.comb_graft(()) is YLEAF

    def test_comb_inverse(self):
        for n in range(0, 6):
            for t in ([YLEAF] if n == 0 else T.enumerate_trees(n + 1, binary=True)):
                assert T.comb_graft(T.right_comb_presentation(t)) is t \
                    if t is not YLEAF else True

    def test_corrected_comb_single(self):
        assert D.corrected_comb([P("o")]) == P("(o o)")
        assert D.corrected_comb([P("(o o)")]) == LinComb.of(DOWN)

    def test_corrected_comb_two_units(self):
        got = D.corrected_comb([P("o"), P("o")])
        assert got == LinComb.of(UP) - LinComb.of(DOWN)

    def test_corrected_comb_three_units_primitive(self):
        got = D.corrected_comb([P("o"), P("o"), P("o")])
        assert got == (LinComb.of(RC3) - LinComb.of(D2)
                       - LinComb.of(Q4) + LinComb.of(LC3))
        assert H.reduced_coproduct("lr", got).is_zero()

    def test_coproduct_identity(self):
        rng = random.Random(53)
        pool = ybasis(2)
        for _ in range(25):
            k = rng.randint(1, 3)
            args = [rng.choice(pool) for _ in range(k)]
            if sum(D.ydegree(a) for a in args) + k > 4:
                continue
            argpolys = [LinComb.of(a) for a in args]
            g = D.corrected_comb(argpolys)
            lhs = D.delta_lr(g)
            rhs = tensor(g, P("o"))
            for combo in itertools.product(*(D.delta_lr(p).items()
                                             for p in argpolys)):
                c = Fraction(1)
                first = P("o")
                seconds = []
                for (l1, l2), ci in combo:
                    c *= ci
                    first = D.star(first, LinComb.of(l1))
                    seconds.append(LinComb.of(l2))
                rhs = rhs + c * tensor(first, D.corrected_comb(seconds))
            assert lhs == rhs


class TestDeltaLR:
    def test_unit_and_generator(self):
        assert D.delta_lr(P("o")) == P("o (x) o")
        assert D.delta_lr(P("(o o)")) == P("(o o) (x) o + o (x) (o o)")

    def test_f_primitive(self):
        assert H.reduced_coproduct("lr", F_PRIM).is_zero()

    def test_yvy(self):
        yy = D.star(P("(o o)"), P("(o o)"))
        got = H.reduced_coproduct("lr", LinComb.of(MID3))
        assert got == tensor(yy, P("(o o)")) + tensor(P("(o o)"), yy)

    def test_h(self):
        h = LinComb.of(Q4) - LinComb.of(D2)
        got = H.reduced_coproduct("lr", h)
        y = P("(o o)")
        assert got == tensor(y, F_PRIM) - tensor(F_PRIM, y)

    def test_comb_series(self):
        for n in range(0, 5):
            comb = T.comb_graft((YLEAF,) * n)
            d = D.delta_lr(LinComb.of(comb))
            want = LinComb()
            for j in range(n + 1):
                want = want + LinComb.of((T.comb_graft((YLEAF,) * (n - j)),
                                          T.comb_graft((YLEAF,) * j)))
            assert d == want

    def test_degree_three_primitive(self):
        g = LinComb.of(RC3) + LinComb.of(LC3) - LinComb.of(MID3)
        assert H.reduced_coproduct("lr", g).is_zero()

    def test_multiplicative(self):
        basis = ybasis(2)
        for a, b in itertools.product(basis, repeat=2):
            if D.ydegree(a) + D.ydegree(b) > 4:
                continue
            lhs = D.delta_lr(D.star(LinComb.of(a), LinComb.of(b)))
            rhs = LinComb()
            for (a1, a2), ca in D.delta_lr(LinComb.of(a)).items():
                for (b1, b2), cb in D.delta_lr(LinComb.of(b)).items():
                    rhs = rhs + ca * cb * tensor(
                        D.star(LinComb.of(a1), LinComb.of(b1)),
                        D.star(LinComb.of(a2), LinComb.of(b2)))
            assert lhs == rhs

    def test_easy_identities(self):
        # the three consequences of the recursion, on degree <= 4 inputs
        for t in ybasis(3):
            tp = LinComb.of(t)
            d = D.delta_lr(tp)
            lhs = D.delta_lr(D.vee_leaf_poly(tp))
            rhs = tensor(D.vee_leaf_poly(tp), P("o"))
            for (t1, t2), c in d.items():
                rhs = rhs + c * tensor(LinComb.of(t1),
                                       D.vee_leaf_poly(LinComb.of(t2)))
            assert lhs == rhs
            hang = tp.map_basis(lambda s: T.node((s, YLEAF)))
            lhs = D.delta_lr(hang)
            rhs = tensor(hang, P("o"))
            for (t1, t2), c in d.items():
                rhs = rhs + c * tensor(
                    LinComb.of(t1),
                    LinComb.of(t2).map_basis(lambda s: T.node((s, YLEAF))))
            assert lhs == rhs
        # comb form over tuples
        for args in itertools.product(ybasis(1), repeat=2):
            argpolys = [LinComb.of(a) for a in args]
            lhs = D.delta_lr(D.comb_graft_poly(argpolys))
            rhs = LinComb()
            deltas = [D.delta_lr(p) for p in argpolys]
            n = len(args)
            for j in range(n + 1):
                for combo in itertools.product(*(d.items() for d in deltas[:j])):
                    c = Fraction(1)
                    first = P("o")
                    seconds = []
                    for (l1, l2), ci in combo:
                        c *= ci
                        first = D.star(first, LinComb.of(l1))
                        seconds.append(LinComb.of(l2))
                    first = D.star(first, D.comb_graft_poly(argpolys[j:]))
                    rhs = rhs + c * tensor(first, D.comb_graft_poly(seconds))
            assert lhs == rhs


class TestDeltaCK:
    def test_single_vertex(self):
        dot = T.leaf()
        got = D.delta_ck(LinComb.of(T.Forest((dot,))))
        e = LinComb.of(T.Forest(()))
        assert got == tensor(LinComb.of(T.Forest((dot,))), e) + \
            tensor(e, LinComb.of(T.Forest((dot,))))

    def test_f_primitive(self):
        f = 2 * LinComb.of(T.Forest((T.parse_tree("(o)"),))) \
            - LinComb.of(T.Forest((T.leaf(), T.leaf())))
        assert H.reduced_coproduct("ck", f).is_zero()

    def test_h(self):
        f = 2 * LinComb.of(T.Forest((T.parse_tree("(o)"),))) \
            - LinComb.of(T.Forest((T.leaf(), T.leaf())))
        h = (2 * LinComb.of(T.Forest((T.parse_tree("(o o)"),)))
             - LinComb.of(T.Forest((T.parse_tree("((o))"),)))
             - LinComb.of(T.Forest((T.parse_tree("(o)"), T.leaf()))))
        got = H.reduced_coproduct("ck", h)
        dot = LinComb.of(T.Forest((T.leaf(),)))
        assert got == tensor(dot, f) - tensor(f, dot)

    def test_cut_form_agrees(self):
        for n in range(1, 7):
            for t in T.enumerate_ptrees(n):
                fp = LinComb.of(T.Forest((t,)))
                assert D.delta_ck(fp) == D.delta_ck_by_cuts(fp)

    def test_multiplicative_over_concatenation(self):
        for n1 in range(0, 3):
            for n2 in range(0, 3):
                for f1 in T.enumerate_forests(n1):
                    for f2 in T.enumerate_forests(n2):
                        lhs = D.delta_ck(LinComb.of(f1 + f2))
                        rhs = LinComb()
                        for (a1, a2), ca in D.delta_ck(LinComb.of(f1)).items():
                            for (b1, b2), cb in D.delta_ck(LinComb.of(f2)).items():
                                rhs = rhs + ca * cb * LinComb.of(
                                    (a1 + b1, a2 + b2))
                        assert lhs == rhs


class TestDeltaBF:
    def test_generators(self):
        assert D.delta_bf(P("o")) == P("o (x) o")
        assert D.delta_bf(P("(o o)")) == P("(o o) (x) o + o (x) (o o)")

    def test_first_product(self):
        down = LinComb.of(DOWN)
        y = P("(o o)")
        got = D.delta_bf(down)
        assert got == tensor(down, P("o")) + tensor(P("o"), down) \
            + 2 * tensor(y, y)

    def test_degree_three(self):
        q4 = LinComb.of(Q4)
        got = D.delta_bf(q4)
        assert got == tensor(q4, P("o")) + tensor(P("o"), q4) \
            + tensor(P("(o o)"), LinComb.of(UP))

    def test_right_combs_primitive(self):
        for h in range(1, 6):
            comb = LinComb.of(T.comb_graft((YLEAF,) * h))
            assert H.reduced_coproduct("bf", comb).is_zero()

    def test_multiplicative_for_first_leaf_product(self):
        basis = ybasis(2)
        for a, b in itertools.product(basis, repeat=2):
            if D.ydegree(a) + D.ydegree(b) > 4:
                continue
            lhs = D.delta_bf(LinComb.of(D.circ_alpha(a, b)))
            rhs = LinComb()
            for (a1, a2), ca in D.delta_bf(LinComb.of(a)).items():
                for (b1, b2), cb in D.delta_bf(LinComb.of(b)).items():
                    rhs = rhs + ca * cb * LinComb.of(
                        (D.circ_alpha(a1, b1), D.circ_alpha(a2, b2)))
            assert lhs == rhs

    def test_comb_form_agrees(self):
        for n in range(0, 7):
            for t in ([YLEAF] if n == 0 else T.enumerate_trees(n + 1, binary=True)):
                assert D.delta_bf_comb_form(t) == \
                    D.delta_bf(LinComb.of(D.vee_leaf(t)))
