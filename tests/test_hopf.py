import itertools
import random
from fractions import Fraction

import pytest

from treehopf import hopf as H
from treehopf import linear as L
from treehopf import magma as M
from treehopf import trees as T
from treehopf.linear import LinComb, UnitTermError, pairing, tensor


def P(text):
    return L.parse_poly(text)


class TestCoadd:
    def test_generator(self):
        assert H.coadd(P("x1")) == P("x1 (x) 1 + 1 (x) x1")

    def test_unit(self):
        assert H.coadd(P("1")) == P("1 (x) 1")

    def test_four_term(self):
        assert H.coadd(P("(x1 x2)")) == P(
            "(x1 x2) (x) 1 + 1 (x) (x1 x2) + x1 (x) x2 + x2 (x) x1")

    def test_eight_term(self):
        assert H.coadd(P("((x1 x2) x3)")) == P(
            "((x1 x2) x3) (x) 1 + 1 (x) ((x1 x2) x3) + (x1 x2) (x) x3"
            " + x1 (x) (x2 x3) + x2 (x) (x1 x3) + x3 (x) (x1 x2)"
            " + (x2 x3) (x) x1 + (x1 x3) (x) x2")

    def test_cocommutative(self):
        for n in range(1, 7):
            for t in T.enumerate_trees(n):
                d = H.coadd(LinComb.of(t))
                assert LinComb({(b, a): c for (a, b), c in d.items()}) == d

    def test_algebra_morphism(self):
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randint(2, 3)
            fs = []
            for _ in range(n):
                k = rng.randint(1, 2)
                shape = rng.choice(T.enumerate_trees(k))
                fs.append(LinComb.of(T.relabel(shape, [rng.randint(1, 2)
                                                       for _ in range(k)])))
            lhs = H.coadd(M.vee(*fs))
            rhs = _tensor_vee([H.coadd(f) for f in fs])
            assert lhs == rhs

    def test_coassociative(self):
        ok, bad = H.check_coassociative("coadd", 4)
        assert ok, bad


def _tensor_vee(deltas):
    # the n-ary grafting on the tensor square: componentwise, with the unit
    # coherence of each leg
    out = LinComb()
    for combo in itertools.product(*(d.items() for d in deltas)):
        c = Fraction(1)
        firsts, seconds = [], []
        for (a1, a2), ci in combo:
            c *= ci
            firsts.append(LinComb.of(a1))
            seconds.append(LinComb.of(a2))
        out = out + c * tensor(M.vee(*firsts), M.vee(*seconds))
    return out


class TestReducedCoproduct:
    def test_primitive_gives_zero(self):
        comm = M.commutator(P("x1"), P("x2"))
        assert H.reduced_coproduct("coadd", comm).is_zero()

    def test_coadd_pair(self):
        assert H.reduced_coproduct("coadd", P("(x1 x2)")) == P(
            "x1 (x) x2 + x2 (x) x1")

    def test_unit_term_rejected(self):
        with pytest.raises(UnitTermError):
            H.reduced_coproduct("coadd", P("1 + x1"))
        with pytest.raises(UnitTermError):
            H.reduced_coproduct("lr", P("o"))


class TestShuffle:
    def test_small(self):
        assert H.shuffle(P("x1"), P("x1")) == P("2*(x1 x1)")
        assert H.shuffle(P("x1"), P("x2")) == P("(x1 x2) + (x2 x1)")
        assert H.shuffle(P("1"), P("x1 + 2*(x1 x1)")) == P("x1 + 2*(x1 x1)")

    def test_twelve_term(self):
        got = H.shuffle(P("(x1 x2 x3)"), P("x4"))
        assert len(got) == 12
        assert got.coeff(T.parse_tree("(x1 (x2 x4) x3)")) == 1
        assert got.coeff(T.parse_tree("(x4 (x1 x2 x3))")) == 1

    def test_all_trees_formula(self):
        got = H.shuffle(H.shuffle(P("x1"), P("x2")), P("x3"))
        want = LinComb()
        for shape in T.enumerate_trees(3):
            for perm in itertools.permutations((1, 2, 3)):
                want = want + LinComb.of(T.relabel(shape, perm))
        assert got == want

    def test_commutator_shuffle_formula(self):
        f = M.commutator(P("x2"), P("x1"))
        got = H.shuffle(f, P("x3"))
        want = LinComb()
        for shape in T.enumerate_trees(3):
            for perm, sign in (((3, 2, 1), 1), ((2, 3, 1), 1), ((2, 1, 3), 1),
                               ((1, 2, 3), -1), ((1, 3, 2), -1), ((3, 1, 2), -1)):
                want = want + sign * LinComb.of(T.relabel(shape, perm))
        assert got == want

    def test_associative_commutative(self):
        rng = random.Random(43)
        polys = []
        for _ in range(6):
            n = rng.randint(1, 2)
            shape = rng.choice(T.enumerate_trees(n))
            polys.append(LinComb.of(
                T.relabel(shape, [rng.randint(1, 2) for _ in range(n)]),
                rng.randint(1, 2)))
        for a, b, c in itertools.combinations(polys, 3):
            assert H.shuffle(a, b) == H.shuffle(b, a)
            assert H.shuffle(H.shuffle(a, b), c) == H.shuffle(a, H.shuffle(b, c))

    def test_binary_projection(self):
        full = H.shuffle(P("x1"), P("(x1 x1)"))
        proj = H.shuffle(P("x1"), P("(x1 x1)"), "mag")
        assert proj == LinComb((t, c) for t, c in full.items() if t.is_binary)
        assert all(t.is_binary for t in proj.support())

    def test_adjunction(self):
        for n1, n2 in ((1, 2), (2, 2), (1, 3)):
            for a in T.enumerate_trees(n1, labels=[1] * n1):
                for b in T.enumerate_trees(n2, labels=[1] * n2):
                    prod = H.shuffle(LinComb.of(a), LinComb.of(b))
                    for h in T.enumerate_trees(n1 + n2, labels=[1] * (n1 + n2)):
                        lhs = prod.coeff(h)
                        rhs = pairing(tensor(LinComb.of(a), LinComb.of(b)),
                                      H.coadd(LinComb.of(h)))
                        assert lhs == rhs


class TestNabla2:
    def test_values(self):
        assert H.nabla2(P("(x1 x2)")) == P(
            "(x1 x2) (x) 1 + 1 (x) (x1 x2) + x1 (x) x2")
        assert H.nabla2(P("(x1 x2 x3)")) == P(
            "(x1 x2 x3) (x) 1 + 1 (x) (x1 x2 x3)")
        assert H.nabla2(P("1")) == P("1 (x) 1")

    def test_multiplicative_for_shuffle(self):
        rng = random.Random(47)
        for _ in range(12):
            n1, n2 = rng.randint(1, 2), rng.randint(1, 2)
            a = LinComb.of(T.relabel(rng.choice(T.enumerate_trees(n1)),
                                     [rng.randint(1, 2) for _ in range(n1)]))
            b = LinComb.of(T.relabel(rng.choice(T.enumerate_trees(n2)),
                                     [rng.randint(1, 2) for _ in range(n2)]))
            lhs = H.nabla2(H.shuffle(a, b))
            rhs = LinComb()
            for (a1, a2), ca in H.nabla2(a).items():
                for (b1, b2), cb in H.nabla2(b).items():
                    rhs = rhs + ca * cb * tensor(
                        H.shuffle(LinComb.of(a1), LinComb.of(b1)),
                        H.shuffle(LinComb.of(a2), LinComb.of(b2)))
            assert lhs == rhs


class TestAntipodes:
    def test_golden_values(self):
        assert H.antipode_left(P("(x1 (x1 x1))")) == P(
            "2*(x1 (x1 x1)) - 3*((x1 x1) x1)")
        assert H.antipode_left(P("((x1 x1) x1)")) == P(
            "3*(x1 (x1 x1)) - 4*((x1 x1) x1)")
        assert H.antipode_right(P("(x1 (x1 x1))")) == P(
            "3*((x1 x1) x1) - 4*(x1 (x1 x1))")
        assert H.antipode_right(P("((x1 x1) x1)")) == P(
            "2*((x1 x1) x1) - 3*(x1 (x1 x1))")

    def test_low_degrees(self):
        assert H.antipode_left(P("x1")) == P("-x1")
        assert H.antipode_left(P("(x1 x1)")) == P("(x1 x1)")

    def test_unit_composites_vanish(self):
        def sigma_hat(side, t):
            return LinComb.of(T.EMPTY) if t.is_empty else side(LinComb.of(t))

        for n in range(1, 6):
            for t in T.enumerate_trees(n, binary=True, labels=[1] * n):
                d = H.coadd(LinComb.of(t))
                left = LinComb()
                right = LinComb()
                for (a, b), c in d.items():
                    left = left + c * M.dot(sigma_hat(H.antipode_left, a),
                                            LinComb.of(b))
                    right = right + c * M.dot(LinComb.of(a),
                                              sigma_hat(H.antipode_right, b))
                assert left.is_zero() and right.is_zero()

    def test_mirror_conjugation(self):
        for n in range(1, 6):
            for t in T.enumerate_trees(n, binary=True, labels=[1] * n):
                f = LinComb.of(t)
                assert H.antipode_right_by_mirror(f) == H.antipode_right(f)

    def test_negates_primitives(self):
        from treehopf import primitives as Pr
        for name, f in Pr.named_primitives().items():
            if name.startswith("degree4"):
                continue
            assert H.antipode_left(f) == -1 * f

    def test_unit_rejected(self):
        with pytest.raises(UnitTermError):
            H.antipode_left(P("1"))


class TestPrimitivity:
    def test_commutator(self):
        assert H.is_primitive("coadd", M.commutator(P("x2"), P("x1")))

    def test_non_primitive(self):
        assert not H.is_primitive("coadd", P("(x1 x2)"))

    def test_half_degree_agrees_with_full_kernel(self):
        from treehopf import primitives as Pr
        for operad in ("mag", "magw"):
            for n in range(1, 6):
                comp = Pr.component(operad, degree=n)
                fast = Pr.prim_basis(comp)
                full = L.kernel_of(comp.basis,
                                   [H.reduced_coproduct("coadd", LinComb.of(b))
                                    for b in comp.basis])
                assert [sorted(p.items(), key=str) for p in fast] == \
                    [sorted(p.items(), key=str) for p in full]

    def test_is_primitive_agrees_with_reduced_coproduct(self):
        from treehopf import primitives as Pr
        for operad in ("mag", "magw"):
            for md in ((2, 1), (2, 2), (3, 1)):
                comp = Pr.component(operad, multidegree=md)
                prims = Pr.prim_basis(comp)
                assert prims
                monos = [LinComb.of(b) for b in comp.basis]
                for f in prims + monos:
                    assert H.is_primitive("coadd", f) == \
                        H.reduced_coproduct("coadd", f).is_zero(), (md, f)

    @pytest.mark.parametrize("kind", list(H.STRUCTURES))
    def test_a_multiple_of_the_unit_is_not_primitive(self, kind):
        one = LinComb.of(H.STRUCTURES[kind]["unit"])
        assert not H.is_primitive(kind, one)
        assert not H.is_primitive(kind, Fraction(-2, 3) * one)
        assert H.is_primitive(kind, LinComb())

    def test_coassociativity_all_kinds(self):
        for kind in ("coadd", "lr", "ck", "bf"):
            ok, bad = H.check_coassociative(kind, 4)
            assert ok, (kind, bad)


class TestStructures:
    def test_kinds(self):
        assert list(H.STRUCTURES) == ["coadd", "lr", "ck", "bf"]
        with pytest.raises(ValueError):
            H.coproduct("dual", P("x1"))

    @pytest.mark.parametrize("kind", list(H.STRUCTURES))
    def test_degree_zero_basis_is_the_unit(self, kind):
        st = H.STRUCTURES[kind]
        assert st["basis"](0) == [st["unit"]]
        one = LinComb.of(st["unit"])
        assert H.coproduct(kind, one) == tensor(one, one)

    @pytest.mark.parametrize("kind", list(H.STRUCTURES))
    def test_every_basis_element_passes_the_basis_check(self, kind):
        # coadd: super-Catalan many trees of n >= 1 leaves; the others:
        # Catalan many binary trees with n internal vertices, or forests
        # with n vertices
        seq = T.sequence("super-catalan" if kind == "coadd" else "catalan", 5)
        dims = [1] + seq[:4] if kind == "coadd" else seq
        for n in range(5):
            basis = H.basis_elements(kind, n)
            assert len(basis) == dims[n], (kind, n)
            H.check_basis(kind, LinComb((b, 1) for b in basis))

    @pytest.mark.parametrize("kind, text", [
        ("coadd", "((x1 x2))"), ("coadd", "[x1]"), ("coadd", "x1 (x) x1"),
        ("lr", "(x1 x2)"), ("lr", "1"), ("bf", "(o o o)"), ("ck", "(o o)"),
        ("ck", "[x1]"),
    ])
    def test_outside_the_basis(self, kind, text):
        with pytest.raises(ValueError, match="basis is"):
            H.check_basis(kind, P(text))


class TestCoassociativityCheck:
    """``check_coassociative`` applies each kind's cached ``table`` to the
    legs directly; these pin that it still checks, reads the same values as
    the linear extension and leaves the shared tables untouched."""

    @pytest.mark.parametrize("kind", list(H.STRUCTURES))
    def test_a_dropped_term_is_caught(self, kind, monkeypatch):
        st = H.STRUCTURES[kind]
        table, unit = st["table"], st["unit"]
        b = H.basis_elements(kind, 3)[-1]
        dropped = next(pair for pair in table(b).support() if unit not in pair)
        tampered = LinComb((pair, c) for pair, c in table(b).items() if pair != dropped)
        monkeypatch.setitem(st, "table", lambda x: tampered if x == b else table(x))
        assert H.check_coassociative(kind, 3) == (False, b)
        monkeypatch.undo()
        assert H.check_coassociative(kind, 3) == (True, None)

    @pytest.mark.parametrize("kind", list(H.STRUCTURES))
    def test_the_table_route_matches_the_linear_extension(self, kind):
        table = H.STRUCTURES[kind]["table"]

        def extended(x):
            return H.coproduct(kind, LinComb.of(x))

        for n in range(5):
            for b in H.basis_elements(kind, n):
                d = table(b)
                assert d == extended(b), (kind, b)
                for leg in (0, 1):
                    assert L.apply_leg(d, leg, table) == \
                        L.apply_leg(extended(b), leg, extended), (kind, b, leg)

    def test_no_cached_table_is_written(self):
        from treehopf import verify as V
        snapshots = [(st["table"], b, dict(st["table"](b).terms))
                     for kind, st in H.STRUCTURES.items()
                     for n in range(5) for b in H.basis_elements(kind, n)]
        assert V.check_coassociativity(4)["ok"]
        assert V.check_isomorphisms()["ok"]
        for table, b, snapshot in snapshots:
            assert table(b).terms == snapshot, b

    def test_no_cached_derivation_is_written(self):
        from treehopf import primitives as Pr
        from treehopf import verify as V
        trees = [t for op in ("mag", "magw")
                 for t in Pr.component(op, multidegree=(3, 1)).basis]
        maps = [(k, image) for k in (1, 2) for image in (T.EMPTY, T.leaf(1), T.leaf(2))]
        snapshots = [(k, image, t, dict(M._partial_k_monomial(k, t, image)))
                     for k, image in maps for t in trees]
        assert V.check_taylor()["ok"]
        assert Pr.highest_weight_basis((3, 1))
        for k, image, t, snapshot in snapshots:
            assert dict(M._partial_k_monomial(k, t, image)) == snapshot, (k, image, t)
