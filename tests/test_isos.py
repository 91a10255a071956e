import itertools

from treehopf import dendriform as D
from treehopf import hopf as H
from treehopf import isos as I
from treehopf import linear as L
from treehopf import trees as T
from treehopf.linear import LinComb


def P(text):
    return L.parse_poly(text)


def flc(*trees):
    return LinComb.of(T.Forest(trees))


class TestXi:
    def test_values(self):
        assert I.xi(flc(T.leaf())) == P("(o o)")
        assert I.xi(flc(T.parse_tree("(o)"))) == P("(o (o o))")
        assert I.xi(flc(T.leaf(), T.leaf())) == \
            D.star(P("(o o)"), P("(o o)"))

    def test_multiplicative(self):
        for n1 in range(0, 3):
            for n2 in range(0, 3):
                for f1 in T.enumerate_forests(n1):
                    for f2 in T.enumerate_forests(n2):
                        lhs = I.xi(LinComb.of(f1 + f2))
                        rhs = D.star(I.xi(LinComb.of(f1)), I.xi(LinComb.of(f2)))
                        assert lhs == rhs

    def test_degree_preserving(self):
        for n in range(0, 5):
            for f in T.enumerate_forests(n):
                img = I.xi(LinComb.of(f))
                assert all(D.ydegree(t) == n for t in img.support())


def _theta_by_elimination(t):
    """The inverse of xi by one exact solve on the degree-n xi matrix: the
    oracle for the recursion of theta."""
    forests, ytrees, m = I._xi_matrix(D.ydegree(t))
    rhs = [0] * len(ytrees)
    rhs[ytrees.index(t)] = 1
    return LinComb(zip(forests, L.solve_exact(m, rhs)))


class TestTheta:
    def test_values(self):
        assert I.theta(P("(o o)")) == flc(T.leaf())
        assert I.theta(P("(o (o o))")) == flc(T.parse_tree("(o)"))

    def test_primitive_image(self):
        f = P("2*(o (o o))") - D.star(P("(o o)"), P("(o o)"))
        img = I.theta(f)
        assert img == 2 * flc(T.parse_tree("(o)")) - flc(T.leaf(), T.leaf())
        assert H.reduced_coproduct("ck", img).is_zero()

    def test_h_image(self):
        h = P("(o ((o o) o))") - P("((o (o o)) o)")
        img = I.theta(h)
        want = (2 * flc(T.parse_tree("(o o)")) - flc(T.parse_tree("((o))"))
                - flc(T.parse_tree("(o)"), T.leaf()))
        assert img == want

    def test_inverse_pair(self):
        for n in range(0, 8):
            for f in T.enumerate_forests(n):
                fp = LinComb.of(f)
                assert I.theta(I.xi(fp)) == fp
            for t in H.basis_elements("lr", n):
                tp = LinComb.of(t)
                assert I.xi(I.theta(tp)) == tp

    def test_equals_the_elimination_route(self):
        for n in range(0, 7):
            for t in H.basis_elements("lr", n):
                assert I.theta(LinComb.of(t)) == _theta_by_elimination(t), t

    def test_builds_no_matrix(self):
        I._xi_matrix.cache_clear()
        I._theta_mono.cache_clear()
        for n in range(0, 7):
            for t in H.basis_elements("lr", n):
                I.theta(LinComb.of(t))
        assert I._theta_mono.cache_info().currsize > 0
        assert I._xi_matrix.cache_info().currsize == 0

    def test_defining_recursion(self):
        # the inverse satisfies: image of a left-leaf lift is the graft of
        # the image
        for n in range(0, 4):
            for t in H.basis_elements("lr", n):
                lifted = I.theta(LinComb.of(D.vee_leaf(t)))
                base = I.theta(LinComb.of(t))
                want = base.map_basis(lambda fo: T.Forest((T.graft(fo.trees),)))
                assert lifted == want

    def test_matrices_invertible(self):
        from treehopf.linear import rank
        for n in range(1, 6):
            _, _, m = I._xi_matrix(n)
            assert m.nrows == m.ncols == len(T.enumerate_forests(n))
            assert rank(m) == m.ncols


class TestPsi:
    def test_values(self):
        assert I.psi(P("o")) == P("o")
        assert I.psi(P("(o o)")) == P("(o o)")
        assert I.psi(P("(o (o o))")) == P("(o (o o)) - ((o o) o)")

    def test_multiplicative(self):
        basis = [D.YLEAF] + [t for n in range(1, 3)
                             for t in T.enumerate_trees(n + 1, binary=True)]
        for a, b in itertools.product(basis, repeat=2):
            if D.ydegree(a) + D.ydegree(b) > 4:
                continue
            lhs = I.psi(LinComb.of(D.circ_alpha(a, b)))
            rhs = D.star(I.psi(LinComb.of(a)), I.psi(LinComb.of(b)))
            assert lhs == rhs

    def test_right_combs_map_to_primitives(self):
        for n in range(1, 5):
            comb = LinComb.of(T.comb_graft((D.YLEAF,) * n))
            assert H.reduced_coproduct("lr", I.psi(comb)).is_zero()


class TestVerifier:
    def test_theta_passes(self):
        rep = I.verify_hopf_morphism("theta", 6)
        assert rep["ok"], rep["failures"][:3]

    def test_psi_passes(self):
        rep = I.verify_hopf_morphism("psi", 4)
        assert rep["ok"], rep["failures"][:3]

    def test_xi_passes(self):
        rep = I.verify_hopf_morphism("xi", 4)
        assert rep["ok"], rep["failures"][:3]
