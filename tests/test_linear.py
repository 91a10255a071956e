import math
import random
from fractions import Fraction

import pytest

from treehopf import linear as L
from treehopf import trees as T
from treehopf.linear import LinComb, RationalMatrix


def P(text):
    return L.parse_poly(text)


TREE = "expected a tree ('1', 'o', 'x<k>' or '(')"

# (text, message, offset) of parse_poly's errors; every row but the two
# marked ones is the parser's answer before it read tokens
POLY_ERRORS = [
    ("", TREE, 0),
    ("   ", TREE, 3),
    ("x", "expected digits after 'x'", 1),
    ("x0", "variable index must be >= 1", 1),
    ("x 1", "expected digits after 'x'", 1),
    ("(x1", "expected ')'", 3),
    ("(x1 1)", "empty tree not allowed as a child", 4),
    ("(1 x1)", "empty tree not allowed as a child", 1),
    ("(x1 x2) trailing", "expected '+', '-' or end of input", 8),
    ("[x1;]", TREE, 4),
    ("[", "expected ')'", 1),
    ("[o", "expected ']'", 2),
    ("[o o]", "expected ']'", 3),
    ("[1]", "empty tree not allowed as a child", 1),
    ("[o; 1]", "empty tree not allowed as a child", 4),
    ("1/0*x1", "zero denominator", 3),
    ("2/0 * x1", "zero denominator", 3),
    ("1/2", "expected '*'", 3),
    ("1/2 x1", "expected '*'", 4),
    ("1/x1", "expected an integer", 2),
    ("1/2*", TREE, 4),
    ("3", "expected '*' after coefficient", 1),
    ("3*", TREE, 2),
    ("3 x1", "expected '*' after coefficient", 2),
    ("2*-x1", TREE, 2),
    ("x1 + + x2", TREE, 5),
    ("x1 (x) ", TREE, 7),
    ("x1 x2", "expected '+', '-' or end of input", 3),
    ("x1 +", TREE, 4),
    ("-", TREE, 1),
    ("--x1", TREE, 1),
    ("0 + x1", "expected '*' after coefficient", 2),
    ("01", TREE, 0),
    ("12x1", "expected '*' after coefficient", 2),
    ("2*12", "expected '+', '-' or end of input", 3),
    ("x1 + 3", "expected '*' after coefficient", 6),
    ("()", TREE, 1),
    (")", TREE, 0),
    ("(o 10)", "empty tree not allowed as a child", 3),
    ("x1 (x) x2 (x)", TREE, 13),
    # "(x)" is one token, the tensor mark, so a tree stops at its "(";
    # the character scanner read a vertex there and failed after the x
    # ("expected digits after 'x'" at 2 and at 6)
    ("(x)", TREE, 0),
    ("(x1 (x) x2)", TREE, 4),
    ("x1 ; x2", "expected '+', '-' or end of input", 3),
    ("1x1", "expected '+', '-' or end of input", 1),
    ("x1 (x) 1 2", "expected '+', '-' or end of input", 9),
]

# accepted texts and how they print
POLY_VALUES = [
    ("0", "0"), ("  0 ", "0"), ("0*x1", "0"), ("x1 - x1", "0"),
    ("1", "1"), ("-1", "-1"), ("2*1", "2*1"), ("- 1/2 * 1", "-1/2*1"),
    ("1 + x1", "1 + x1"), ("1 (x) x1", "1 (x) x1"), ("+x1", "x1"),
    ("-x1 + 1/2*x2", "-x1 + 1/2*x2"), ("x1(x)x2", "x1 (x) x2"),
    ("(| |)", "(o o)"), ("x01", "x1"), ("3/6*(o o)", "1/2*(o o)"),
    ("[] (x) [o; x1]", "[] (x) [o; x1]"),
]


class TestLinComb:
    def test_add_cancel(self):
        p = P("(x1 x2) + 2*x1")
        assert (p + (-1) * p).is_zero()

    def test_scalar_identity(self):
        p = P("3*(o o) - 1/2*o")
        assert 1 * p == p
        assert p / 1 == p

    def test_term_reordering_irrelevant(self):
        assert P("x1 + x2") == P("x2 + x1")

    def test_zero_terms_dropped(self):
        p = LinComb({T.leaf(1): Fraction(0)})
        assert p.is_zero()
        assert len(P("x1 - x1")) == 0

    def test_coefficients_stay_normalized(self):
        rng = random.Random(9)
        p = LinComb()
        for _ in range(200):
            p = p + LinComb.of(T.leaf(rng.randint(1, 4)),
                               Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
            p = p * Fraction(rng.randint(1, 5), rng.randint(1, 5))
        for _, c in p.items():
            assert c.denominator > 0
            from math import gcd
            assert gcd(abs(c.numerator), c.denominator) == 1

    def test_map_basis_linear(self):
        p = P("2*x1 - x2")
        doubled = p.map_basis(lambda t: LinComb.of(t, 2))
        assert doubled == 2 * p

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(LinComb.of(T.leaf(1)))


class TestText:
    def test_round_trip_trees(self):
        rng = random.Random(11)
        for _ in range(60):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                n = rng.randint(1, 4)
                shape = rng.choice(T.enumerate_trees(n))
                tree = T.relabel(shape, [rng.randint(0, 2) for _ in range(n)])
                terms[tree] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            p = LinComb(terms)
            assert L.parse_poly(L.format_poly(p)) == p

    def test_round_trip_tensors_and_forests(self):
        p = L.tensor(P("x1 - 1"), P("2*(o o)"))
        assert L.parse_poly(L.format_poly(p)) == p
        q = LinComb.of(T.Forest((T.leaf(), T.parse_tree("(o)"))), Fraction(-2, 3))
        assert L.parse_poly(L.format_poly(q)) == q
        triple = L.tensor(P("x1"), P("x2"), P("1"))
        assert L.parse_poly(L.format_poly(triple)) == triple

    @pytest.mark.parametrize("text, printed", [
        ("1 - []", "1 - []"),
        ("[] + 2*(x1 x2) - [o]", "2*(x1 x2) + [] - [o]"),
        ("o (x) [] - [] (x) o + [o] (x) (o o)", "o (x) [] - [] (x) o + [o] (x) (o o)"),
    ])
    def test_trees_and_forests_in_one_combination(self, text, printed):
        # trees print before forests, and the text reads back equal
        p = P(text)
        assert L.format_poly(p) == printed
        assert P(printed) == p

    def test_unit_and_bare_coefficients(self):
        assert L.format_poly(P("1")) == "1"
        assert L.format_poly(P("3*1")) == "3*1"
        assert L.format_poly(LinComb()) == "0"
        assert L.parse_poly("-x1 + 1/2*x2") == \
            LinComb({T.leaf(1): -1, T.leaf(2): Fraction(1, 2)})

    def test_deterministic_order(self):
        p = P("x2 + x1 + (x1 x2)")
        assert L.format_poly(p) == "x1 + x2 + (x1 x2)"

    @pytest.mark.parametrize("text, message, offset", POLY_ERRORS)
    def test_error_message_and_offset(self, text, message, offset):
        with pytest.raises(T.ParseError) as e:
            P(text)
        assert (e.value.message, e.value.offset) == (message, offset)

    @pytest.mark.parametrize("text, printed", POLY_VALUES)
    def test_accepted_text(self, text, printed):
        assert L.format_poly(P(text)) == printed

    def test_decimal_digits_only(self):
        # int() reads every Unicode decimal digit; a superscript is no digit
        assert P("\u0663*x\u0661\u0662") == LinComb.of(T.leaf(12), 3)
        for text in ("x\u00b2", "\u00b2*x1", "1/\u00b2*x1"):
            with pytest.raises(T.ParseError):
                P(text)


class TestTensorOps:
    def test_apply_leg_splices(self):
        tp = L.tensor(P("x1"), P("x2"))
        tripled = L.apply_leg(tp, 0, lambda t: L.tensor(P("o"), P("o")))
        ((key, c),) = list(tripled.items())
        assert len(key) == 3

    def test_pairing_orthonormal(self):
        assert L.pairing(P("x1 + 2*x2"), P("3*x2")) == 6
        assert L.pairing(P("x1"), P("x2")) == 0


class TestAccumulator:
    def test_tensor_drops_a_cancelled_key(self):
        x, p, q = T.leaf(1), T.leaf(2), T.leaf(3)
        got = L.tensor(LinComb({x: 1, (x, p): -1}), LinComb({(p, q): 1, q: 1}))
        assert got.coeff((x, p, q)) == 0
        assert got == LinComb({(x, q): 1, (x, p, p, q): -1})
        assert len(got) == 2

    def test_coefficient_coercion(self):
        t = T.leaf(1)
        for bad in (0.0, 0.5):
            with pytest.raises(TypeError):
                LinComb({t: bad})
            with pytest.raises(TypeError):
                LinComb([(T.leaf(2), 1), (t, bad)])
        assert LinComb({t: 0}).is_zero()
        assert LinComb([(t, 2), (t, -2), (T.leaf(2), 0)]).is_zero()
        (c,) = LinComb({t: 3}).terms.values()
        assert type(c) is int
        (c,) = LinComb({t: Fraction(4, 2)}).terms.values()
        assert type(c) is int and c == 2
        (c,) = LinComb({t: True}).terms.values()
        assert type(c) is int and c == 1
        (c,) = (LinComb({t: Fraction(1, 2)}) * 2).terms.values()
        assert type(c) is int and c == 1
        (c,) = (LinComb({t: Fraction(1, 2)}) + LinComb({t: Fraction(1, 2)})).terms.values()
        assert type(c) is int and c == 1
        (c,) = LinComb({t: Fraction(1, 2)}).terms.values()
        assert type(c) is Fraction and c == Fraction(1, 2)

    def test_of_builds_the_normal_form(self):
        t = T.leaf(1)
        assert LinComb.of(t, 0).is_zero() and LinComb.of(t, Fraction(0)).is_zero()
        for coeff, want in ((Fraction(4, 2), 2), (True, 1), (3, 3)):
            (c,) = LinComb.of(t, coeff).terms.values()
            assert type(c) is int and c == want
        assert LinComb.of(t, Fraction(1, 2)).terms == {t: Fraction(1, 2)}
        assert LinComb.of((t, t)).terms == {(t, t): 1}
        with pytest.raises(TypeError):
            LinComb.of(t, 1.0)

    def test_cached_coadd_view_is_never_written(self):
        from treehopf import hopf, magma
        from treehopf import primitives as Pr
        t = T.parse_tree("(x1 (x2 x1) x1)")
        f = LinComb.of(t)
        # t and its proper subtrees, whose tables the kernel rows read
        trees = [t, *t.children, *t.children[1].children]
        before = [dict(magma._restriction_table(x).terms) for x in trees]
        one = LinComb.of(T.EMPTY)
        assert not (hopf.coadd(f) + L.tensor(f, one)).is_zero()
        assert not (hopf.coadd(f) - L.tensor(f, one)).is_zero()
        hopf.antipode_left(f)
        hopf.antipode_right(f)
        magma.partial_tree(T.leaf(1), f)
        comp = Pr.component("magw", multidegree=(3, 1))
        assert t in comp.basis
        Pr.reduced_coproduct_rows(comp)
        assert Pr.prim_basis(comp)
        for x, snapshot in zip(trees, before):
            table = magma._restriction_table(x).terms
            assert table == snapshot, x
            assert all(type(m) is int for m in table.values())


def _ref_sum(pairs):
    """All-Fraction reference accumulation: {basis: Fraction}, zeros dropped."""
    out = {}
    for b, c in pairs:
        out[b] = out.get(b, Fraction(0)) + Fraction(c)
    return {b: c for b, c in out.items() if c}


def _flat(b):
    return b if isinstance(b, tuple) else (b,)


class TestNormalForm:
    """Every operation agrees with an all-Fraction reference, and every stored
    coefficient is an int or a Fraction with denominator > 1."""

    BASIS = [T.leaf(1), T.leaf(2), T.parse_tree("(x1 x2)"), T.parse_tree("(x2 (x1 x1))")]

    @staticmethod
    def coefficient(rng):
        # integral Fractions (4/2, 3/1) are in the mix, as are exact cancellations
        return rng.choice([rng.randint(-3, 3), True,
                           Fraction(rng.randint(-6, 6), rng.randint(1, 3))])

    def random_ref(self, rng):
        return _ref_sum((rng.choice(self.BASIS), self.coefficient(rng))
                        for _ in range(rng.randint(0, 5)))

    @staticmethod
    def check(p, ref):
        assert p.terms == ref
        for c in p.terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c

    def test_operations_match_the_fraction_reference(self):
        import copy
        import pickle
        rng = random.Random(8)
        image = {b: self.random_ref(rng) for b in self.BASIS}

        def fn(b):
            return LinComb(image[b])

        for _ in range(300):
            f, g = self.random_ref(rng), self.random_ref(rng)
            pf, pg = LinComb(f), LinComb(g)
            self.check(pf, f)
            self.check(pf + pg, _ref_sum([*f.items(), *g.items()]))
            self.check(pf - pg, _ref_sum([*f.items(), *((b, -c) for b, c in g.items())]))
            self.check(-pf, _ref_sum((b, -c) for b, c in f.items()))
            k = self.coefficient(rng)
            self.check(pf * k, _ref_sum((b, c * k) for b, c in f.items()))
            self.check(k * pf, _ref_sum((b, c * k) for b, c in f.items()))
            if k:
                self.check(pf / k, _ref_sum((b, c / k) for b, c in f.items()))
            self.check(pf.map_basis(fn), _ref_sum(
                (b2, c * c2) for b, c in f.items() for b2, c2 in image[b].items()))
            tfg = _ref_sum(((b, b2), c * c2) for b, c in f.items() for b2, c2 in g.items())
            self.check(L.tensor(pf, pg), tfg)
            for leg in (0, 1):
                self.check(L.apply_leg(LinComb(tfg), leg, fn), _ref_sum(
                    (key[:leg] + _flat(b2) + key[leg + 1:], c * c2)
                    for key, c in tfg.items() for b2, c2 in image[key[leg]].items()))
            v = L.pairing(pf, pg)
            assert v == sum((c * g.get(b, 0) for b, c in f.items()), Fraction(0))
            assert type(v) is int or v.denominator > 1
            self.check(L.parse_poly(L.format_poly(pf)), f)
            for q in (pickle.loads(pickle.dumps(pf)), copy.copy(pf), copy.deepcopy(pf)):
                self.check(q, f)

    def test_splices_match_the_fraction_reference(self):
        # apply_leg on every leg of 3-tuple keys, map_basis and the
        # accumulator's own scale and splice, against the reference; images
        # are tensors (spliced flat), bare trees and bare tuples, and the
        # zero combination, and Fraction scales meet Fraction images
        rng = random.Random(33)
        a, b, c, d = self.BASIS
        images = {
            a: LinComb(self.random_ref(rng)) + L.tensor(P("x1 - 1/2*x2"), P("2*x1")),
            b: c,
            c: (a, d),
            d: LinComb(),
        }

        def fn(x):
            return images[x]

        def pairs_of(img):
            return img.terms.items() if isinstance(img, LinComb) else ((img, 1),)

        for _ in range(200):
            f = self.random_ref(rng)
            t3 = _ref_sum(((rng.choice(self.BASIS), rng.choice(self.BASIS),
                            rng.choice(self.BASIS)), self.coefficient(rng))
                          for _ in range(rng.randint(0, 6)))
            # integral products of halves, and keys that cancel after the map
            t3[(a, b, a)] = Fraction(1, 2)
            t3[(a, c, a)] = Fraction(-1, 2)
            for leg in (0, 1, 2):
                self.check(L.apply_leg(LinComb(t3), leg, fn), _ref_sum(
                    (key[:leg] + _flat(x) + key[leg + 1:], k * k2)
                    for key, k in t3.items() for x, k2 in pairs_of(images[key[leg]])))
            self.check(LinComb(f).map_basis(fn), _ref_sum(
                (x, k * k2) for y, k in f.items() for x, k2 in pairs_of(images[y])))
            pairs = [(rng.choice(self.BASIS + [(a, b)]), self.coefficient(rng))
                     for _ in range(rng.randint(0, 6))]
            scale = rng.choice([2, -1, Fraction(1, 2), Fraction(-2, 3)])
            head = rng.choice([(), (a,), (a, b)])
            tail = rng.choice([(), (c,)])
            acc = LinComb()
            L._accumulate(acc.terms, pairs, scale, head, tail)
            self.check(acc, _ref_sum((head + _flat(x) + tail, k * scale) for x, k in pairs))
            acc = LinComb()
            L._accumulate(acc.terms, pairs, scale)
            self.check(acc, _ref_sum((x, k * scale) for x, k in pairs))
        # halves sum to an int and a half times 2 is one; cancelling keys vanish
        got = L.apply_leg(LinComb({(a, b): Fraction(1, 2), (b, b): Fraction(1, 2)}), 0,
                          lambda x: c if x is a else LinComb({c: 1, d: 2}))
        self.check(got, {(c, b): 1, (d, b): 1})
        got = L.apply_leg(LinComb({(a, b, a): 1, (a, c, a): -1}), 1, lambda x: d)
        assert got.is_zero()


def _ref_multilinear(fn, factors):
    """Brute-force multilinear extension: nested loops over the factors'
    terms, summed by the one accumulator."""
    combos = [((), 1)]
    for f in factors:
        combos = [(bs + (b,), c * c2) for bs, c in combos for b, c2 in f.terms.items()]
    out = {}
    L._accumulate(out, ((fn(bs), c) for bs, c in combos))
    return out


def _sorted_bases(bs):
    # commutative, so distinct combos collide and their coefficients add up
    return tuple(sorted(bs, key=T.PlanarTree.sort_key))


class TestMultilinear:
    def test_no_factors_give_fn_of_the_empty_tuple_once(self):
        calls = []

        def fn(bs):
            calls.append(bs)
            return T.leaf(1)

        p = L.multilinear(fn, [])
        assert calls == [()]
        assert p.terms == {T.leaf(1): 1} and type(p.coeff(T.leaf(1))) is int

    def test_a_zero_factor_gives_zero(self):
        assert L.multilinear(_sorted_bases, [P("x1 + 2*x2"), LinComb(), P("x1")]).is_zero()

    def test_coefficients_keep_the_normal_form(self):
        p = L.multilinear(_sorted_bases, [P("1/2*x1"), P("4*x2"), P("1/2*x1")])
        (c,) = p.terms.values()
        assert type(c) is int and c == 1
        p = L.multilinear(_sorted_bases, [P("1/2*x1"), P("1/3*x2")])
        (c,) = p.terms.values()
        assert type(c) is Fraction and c == Fraction(1, 6)
        # x1 (x) x2 and -x2 (x) x1 cancel once the legs are sorted
        assert L.multilinear(_sorted_bases, [P("x1 - x2"), P("x1 + x2")]).terms == {
            (T.leaf(1), T.leaf(1)): 1, (T.leaf(2), T.leaf(2)): -1}

    def test_matches_the_brute_force_reference(self):
        rng = random.Random(9)
        normal = TestNormalForm()
        for _ in range(200):
            factors = [LinComb(normal.random_ref(rng)) for _ in range(rng.randint(1, 3))]
            for fn in (_sorted_bases, tuple):
                TestNormalForm.check(L.multilinear(fn, factors),
                                     _ref_multilinear(fn, factors))

    def test_empty_products_are_the_units(self):
        from treehopf import dendriform, magma
        assert dendriform.comb_graft_poly([]) == LinComb.of(dendriform.YLEAF)
        assert magma.vee() == magma.unit()


class TestCoordinates:
    def test_first_appearance_order(self):
        a, b, c = (T.leaf(k) for k in (1, 2, 3))
        assert L.coordinates([b, a, b, c, a]) == {b: 0, a: 1, c: 2}
        assert L.coordinates(x for x in (c, c)) == {c: 0}


class TestMatrices:
    def test_kernel_identity(self):
        m = RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert _dense(L.kernel_basis(m), 3) == []

    def test_kernel_zero(self):
        m = RationalMatrix([[0, 0, 0], [0, 0, 0]], 3)
        assert len(_dense(L.kernel_basis(m), 3)) == 3

    def test_kernel_line(self):
        m = RationalMatrix([[1, 1]], 2)
        (v,) = _dense(L.kernel_basis(m), 2)
        assert v[0] * 1 + v[1] * 1 == 0 and any(v)

    def test_kernel_vectors_annihilated_and_independent(self):
        rng = random.Random(13)
        for _ in range(30):
            rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(6)] for _ in range(4)]
            m = RationalMatrix(rows, 6)
            basis = _dense(L.kernel_basis(m), 6)
            for v in basis:
                for row in rows:
                    assert sum(a * b for a, b in zip(row, v)) == 0
            assert len(basis) == 6 - L.rank(m)
            if basis:
                assert L.rank(RationalMatrix(basis, 6)) == len(basis)

    def test_kernel_normal_form(self):
        # one vector per free column, in column order: primitive, positive at
        # its own free column, zero at every other one
        cases = [
            RationalMatrix([[2, 0, 3], [0, -3, 1]], 3),
            RationalMatrix([[-2, 4, 3, 1, 0], [0, 0, -6, 0, 9],
                            [4, -8, 0, -2, 6], [0, 0, 0, 0, 0]], 5),
            RationalMatrix([[Fraction(-3, 2), 5, 7, 0], [0, -4, 6, Fraction(2, 3)]], 4),
            RationalMatrix([[0, 6, -9, 0, 15], [0, -4, 6, 0, -10]], 5),
            RationalMatrix([], 3),
        ]
        for m in cases:
            cols = [[r[j] for r in m.rows] for j in range(m.ncols)]
            prefix = [L.rank(RationalMatrix(list(zip(*cols[:j])), j))
                      for j in range(m.ncols + 1)]
            free = [j for j in range(m.ncols) if prefix[j + 1] == prefix[j]]
            vecs = _dense(L.kernel_basis(m), m.ncols)
            assert len(vecs) == len(free)
            for fc, v in zip(free, vecs):
                assert all(type(x) is int for x in v)
                assert math.gcd(*v) == 1
                assert v[fc] > 0
                assert all(v[j] == 0 for j in free if j != fc)
                for row in m.rows:
                    assert sum(a * b for a, b in zip(row, v)) == 0
        assert _dense(L.kernel_basis(cases[0]), 3) == [[-9, 2, 6]]
        assert _dense(L.kernel_basis(cases[-1]), 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_kernel_of_without_rows_is_the_unit_combinations(self):
        from treehopf import primitives as Pr
        for kind in ("mag", "magw", "lr", "ck"):
            comp = Pr.component(kind, degree=1)
            m, images = _coproduct_matrix(comp)
            assert m.nrows == 0 and all(img.is_zero() for img in images)
            units = [LinComb.of(b) for b in comp.basis]
            assert L.kernel_of(comp.basis, images) == units
            assert L.kernel_of(comp.basis, m) == units

    def test_kernel_of_stacks_blocks_without_summing_them(self):
        a, b, x = T.leaf(1), T.leaf(2), T.leaf(3)
        plus = [LinComb.of(x), LinComb()]
        minus = [-1 * LinComb.of(x), LinComb()]
        # each map kills only b; the sum of the two maps would kill a too
        assert L.kernel_of([a, b], plus, minus) == [LinComb.of(b)]
        assert L.kernel_of([a, b]) == [LinComb.of(a), LinComb.of(b)]

    def test_rank_invariant_under_row_permutation(self):
        rng = random.Random(17)
        rows = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)]
        r = L.rank(RationalMatrix(rows, 5))
        for _ in range(10):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert L.rank(RationalMatrix(shuffled, 5)) == r

    def test_solve(self):
        m = RationalMatrix([[2]], 1)
        assert L.solve_exact(m, [3]) == [Fraction(3, 2)]
        ident = RationalMatrix([[1, 0], [0, 1]])
        assert L.solve_exact(ident, [4, 5]) == [4, 5]
        sing = RationalMatrix([[1, 1], [1, 1]], 2)
        assert L.solve_exact(sing, [1, 2]) is None
        assert L.solve_exact(sing, [1, 1]) is not None


def _dense(vecs, ncols):
    """Sparse ``{column: entry}`` kernel vectors read back as dense lists."""
    out = []
    for v in vecs:
        row = [0] * ncols
        for j, x in v.items():
            row[j] = x
        out.append(row)
    return out


def _check_sparse(vecs, ncols):
    """Every entry is a nonzero int, stored under increasing columns."""
    for v in vecs:
        assert list(v) == sorted(v) and all(0 <= j < ncols for j in v)
        assert all(type(x) is int for x in v.values())
        assert all(x != 0 for x in v.values())


def _rref(rows, ncols):
    """Textbook Gauss-Jordan over Fractions: (pivot columns, reduced rows)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        k = len(pivots)
        hit = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[k], rows[hit] = rows[hit], rows[k]
        rows[k] = [x / rows[k][c] for x in rows[k]]
        for i in range(len(rows)):
            if i != k and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[k])]
        pivots.append(c)
    return pivots, rows[:len(pivots)]


def _oracle_kernel(pivots, red, ncols):
    out = []
    for fc in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pc, r in zip(pivots, red):
            v[pc] = -r[fc]
        den = math.lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = math.gcd(*ints)
        out.append([x // g for x in ints])
    return out


def _oracle_solve(rows, rhs, ncols):
    pivots, red = _rref([list(r) + [b] for r, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for pc, r in zip(pivots, red):
        x[pc] = r[ncols]
    return x


def _random_matrices():
    """Seeded sparse and dense, integer and Fraction, tall and wide matrices,
    some with zero rows, duplicate rows and all-zero columns."""
    rng = random.Random(29)
    out = []
    for trial in range(60):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.choice((0.15, 0.4, 1.0))

        def entry():
            if rng.random() > density:
                return 0
            if trial % 2:
                return Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            return rng.randint(-3, 3)

        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        if trial % 3 == 0:
            rows.append([0] * ncols)
        if trial % 4 == 0:
            rows.append(list(rng.choice(rows)))
        if trial % 5 == 0:
            dead = rng.randrange(ncols)
            for r in rows:
                r[dead] = 0
        out.append(RationalMatrix(rows, ncols))
    return out


def _coproduct_matrix(comp):
    """The reduced coproduct rows of a component as a matrix, and their
    transpose: the per-column images, keyed by row number, that
    ``kernel_of`` stacks into the same matrix up to the order of rows."""
    from treehopf import primitives as Pr
    rows = Pr.reduced_coproduct_rows(comp)
    columns = [{} for _ in comp.basis]
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns[j][i] = x
    return RationalMatrix._of_sparse(rows, comp.dim), [LinComb(c) for c in columns]


def _coproduct_components():
    from treehopf import primitives as Pr
    return ([Pr.component("mag", multilinear=n) for n in range(2, 5)]
            + [Pr.component("magw", multilinear=n) for n in range(2, 4)]
            + [Pr.component("mag", degree=d) for d in range(2, 8)]
            + [Pr.component("magw", degree=d) for d in range(2, 7)])


class TestEliminationOracle:
    """rank, kernel_basis and solve_exact against a Fraction Gauss-Jordan."""

    def _check(self, m, rng):
        """Returns the oracle's pivots, a consistent right-hand side and the
        checked kernel as dense vectors."""
        rows = m.rows
        pivots, red = _rref(rows, m.ncols)
        assert L.rank(m) == len(pivots)
        sparse = L.kernel_basis(m)
        _check_sparse(sparse, m.ncols)
        kernel = _dense(sparse, m.ncols)
        assert kernel == _oracle_kernel(pivots, red, m.ncols)
        for _ in range(3):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert _dense(L.kernel_basis(RationalMatrix(shuffled, m.ncols)),
                          m.ncols) == kernel
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m.ncols)]
        return pivots, [sum(a * b for a, b in zip(r, x)) for r in rows], kernel

    def test_random_matrices(self):
        rng = random.Random(31)
        for m in _random_matrices():
            _, consistent, _ = self._check(m, rng)
            arbitrary = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m.nrows)]
            for rhs in (consistent, arbitrary):
                assert L.solve_exact(m, rhs) == _oracle_solve(m.rows, rhs, m.ncols)

    def test_coproduct_matrices(self):
        # the Gauss-Jordan solution is the one solution that is zero at every
        # free column, which is checked here without a second elimination;
        # kernel_of gives the oracle kernel's combinations, terms in basis order
        rng = random.Random(37)
        for comp in _coproduct_components():
            m, images = _coproduct_matrix(comp)
            pivots, rhs, kernel = self._check(m, rng)
            sol = L.solve_exact(m, rhs)
            assert [sum(a * b for a, b in zip(r, sol)) for r in m.rows] == rhs
            assert all(not v for j, v in enumerate(sol) if j not in pivots)
            want = [[(b, x) for b, x in zip(comp.basis, v) if x] for v in kernel]
            for block in (images, m):
                assert [list(p.items()) for p in L.kernel_of(comp.basis, block)] == want

    def test_free_columns_are_the_kernel_vectors_own_columns(self):
        # each kernel_basis vector is positive at its own free column and
        # nonzero only at pivot columns left of it
        for comp in _coproduct_components():
            m, images = _coproduct_matrix(comp)
            kernel = L.kernel_basis(m)
            assert L.free_columns_of(comp.basis, images) == [max(v) for v in kernel]
            assert L.free_columns_of(comp.basis, m) == [max(v) for v in kernel]
        assert L.free_columns_of([T.leaf(1), T.leaf(2)]) == [0, 1]

    def test_row_listed_twice_in_a_column_is_combined_once(self, monkeypatch):
        # row 3 gets an entry in column 3 by fill-in from the pivot at 0, loses
        # it to the pivot at 1 and gets it again from the pivot at 2, so the
        # column index lists it twice at 3; row 5 cancels to zero at 1 and
        # stays listed at 3.  Each row is combined at most once per column.
        rows = [[1, 0, 0, 1, 0, 0],
                [0, 1, 0, -1, 0, 0],
                [0, 0, 1, 1, 0, 2],
                [1, 1, 1, 0, 1, 1],
                [0, 0, 0, 1, 0, 0],
                [1, 1, 0, 0, 0, 0]]
        m = RationalMatrix(rows, 6)
        combined = []
        combine = L._combine

        def spy(row, prow, c, i=None, at=None):
            if at is not None:
                combined.append((c, i))
            return combine(row, prow, c, i, at)

        monkeypatch.setattr(L, "_combine", spy)
        assert [c for c, _ in L._echelon(m.sparse, m.ncols)] == [0, 1, 2, 3, 4]
        assert combined == [(0, 3), (0, 5), (1, 3), (1, 5), (2, 3), (3, 3)]
        monkeypatch.undo()
        rng = random.Random(41)
        _, consistent, kernel = self._check(m, rng)
        assert kernel == [[0, 0, -2, 0, 1, 1]]
        for rhs in (consistent, [1, 0, 2, -1, 0, 3]):
            assert L.solve_exact(m, rhs) == _oracle_solve(rows, rhs, m.ncols)

    def test_elimination_never_writes_the_matrix(self):
        # _echelon copies each row before scaling it: an all-int row (with
        # gcd 1 or not), a Fraction row and an int-valued Fraction, and the
        # rows of a coproduct matrix, are left as they were, types included
        from treehopf import primitives as Pr
        odd = RationalMatrix([[2, 4, 0, 6], [0, 1, -1, 3], [Fraction(1, 2), 0, 3, 1],
                              [Fraction(4, 1), 2, 0, 0]], 4)
        matrices = [odd, Pr._coproduct_matrix(Pr.component("mag", degree=6))]
        for m in matrices:
            before = [list(r.items()) for r in m.sparse]
            types = [[type(x) for x in r.values()] for r in m.sparse]
            L.rank(m)
            L.kernel_basis(m)
            L.kernel_sample(m, 2)
            L.free_columns_of(range(m.ncols), m)
            assert [list(r.items()) for r in m.sparse] == before
            assert [[type(x) for x in r.values()] for r in m.sparse] == types
        # an int-valued Fraction is scaled by the lcm pass, into ints
        row = L._integral({0: Fraction(4, 1), 1: 2})
        assert row == {0: 2, 1: 1} and all(type(x) is int for x in row.values())

    def test_sparse_rows_read_back_dense(self):
        m = RationalMatrix([[0, Fraction(1, 2), 0], [0, 0, 0]], 3)
        assert m.nrows == 2 and m.ncols == 3
        assert m.sparse == [{1: Fraction(1, 2)}, {}]
        assert m.rows == [[0, Fraction(1, 2), 0], [0, 0, 0]]
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3]], 2)


class TestSampledKernel:
    """kernel_sample against kernel_basis as the oracle: the nullity and the
    first ``count`` vectors, entries and key order included."""

    def _check(self, m):
        full = L.kernel_basis(m)
        for count in range(len(full) + 2):
            nullity, vecs = L.kernel_sample(m, count)
            assert nullity == len(full)
            assert [list(v.items()) for v in vecs] == \
                [list(v.items()) for v in full[:count]], count

    def test_random_matrices(self):
        for m in _random_matrices():
            self._check(m)

    def test_edge_shapes(self):
        zero = RationalMatrix([[0] * 4] * 3, 4)
        identity = RationalMatrix([[int(i == j) for j in range(4)] for i in range(4)])
        square = RationalMatrix([[1, 2, 3], [0, 1, 4], [5, 6, 0]])
        wide = RationalMatrix([[2, 0, 3, 1], [0, -3, 1, 5]], 4)
        dead_column = RationalMatrix([[0, 1, 2], [0, 3, Fraction(1, 2)]], 3)
        empty = RationalMatrix([], 3)
        for m in (zero, identity, square, wide, dead_column, empty):
            self._check(m)
        assert L.kernel_sample(zero, 2) == (4, [{0: 1}, {1: 1}])
        assert L.kernel_sample(identity, 0) == (0, [])
        assert L.kernel_sample(square, 5) == (0, [])
        assert L.kernel_sample(wide, 0) == (2, [])
        assert L.kernel_sample(dead_column, 7) == (1, [{0: 1}])
        assert L.kernel_sample(empty, 1) == (3, [{0: 1}])

    def test_coproduct_matrices(self):
        for comp in _coproduct_components():
            m, images = _coproduct_matrix(comp)
            self._check(m)
            full = L.kernel_of(comp.basis, images)
            for block in (images, m):
                nullity, sample = L.kernel_sample_of(comp.basis, block, count=3)
                assert nullity == len(full)
                assert [list(p.items()) for p in sample] == \
                    [list(p.items()) for p in full[:3]]
