import itertools

import pytest

from treehopf import hopf as H
from treehopf import linear as L
from treehopf import magma as M
from treehopf import primitives as Pr
from treehopf import trees as T
from treehopf.linear import LinComb, pairing

from test_magma import _columns, _half_table


def P(text):
    return L.parse_poly(text)


@pytest.fixture
def cold_rank_cache():
    """An empty ``multilinear_prim_rank`` cache, emptied again afterwards so
    that no count or tampered rank reaches another test."""
    Pr.multilinear_prim_rank.cache_clear()
    yield
    Pr.multilinear_prim_rank.cache_clear()


@pytest.mark.parametrize("call", [
    lambda op: M.monomial_basis((4,), op),
    lambda op: M.constants_basis(op, degree=4),
    lambda op: Pr.ambient_dim(op, (4,)),
    lambda op: Pr.prim_dim_formula(op, 4),
    lambda op: Pr.component(op, degree=4),
    lambda op: H.shuffle(P("x1"), P("x2"), op),
    lambda op: Pr.highest_weight_basis((2, 1), "primitive", op),
    lambda op: Pr.shuffle_monomials(op, (1,)),
], ids=["monomial_basis", "constants_basis", "ambient_dim", "prim_dim_formula",
        "component", "shuffle", "highest_weight_basis", "shuffle_monomials"])
def test_unknown_operad_is_refused(call):
    # a near miss of a name in magma.OPERADS, not a silent default
    with pytest.raises(ValueError, match="Mag"):
        call("Mag")


class TestComponents:
    def test_multilinear_dims(self):
        cat = T.sequence("catalan", 5)
        sup = T.sequence("super-catalan", 4)
        fact = [1, 1, 2, 6, 24, 120]
        for n in range(1, 5):
            assert Pr.component("mag", multilinear=n).dim == cat[n - 1] * fact[n]
            assert Pr.component("magw", multilinear=n).dim == sup[n - 1] * fact[n]

    def test_one_var_dims(self):
        for n in range(1, 6):
            assert Pr.component("mag", degree=n).dim == T.sequence("catalan", n)[-1]
            assert Pr.component("magw", degree=n).dim == \
                T.sequence("super-catalan", n)[-1]

    def test_ambient_dim_is_the_basis_size(self):
        mds = ([(d,) for d in range(1, 9)] + [(1,) * n for n in range(1, 6)]
               + [(2, 1), (1, 0, 2), (0, 3), (2, 2), (2, 1, 1), (3, 2), (3, 3)])
        for operad in ("mag", "magw"):
            for md in mds:
                assert Pr.ambient_dim(operad, md) == \
                    Pr.component(operad, multidegree=md).dim, (operad, md)

    def test_dendriform_components(self):
        # both sides of the forest bijection have Catalan dimensions
        assert Pr.component("lr", degree=3).dim == 5
        assert Pr.component("ck", degree=3).dim == 5
        assert Pr.component("bf", degree=0).dim == 1

    @pytest.mark.parametrize("kind, kwargs, named", [
        ("mag", {}, "none"),
        ("magw", {}, "none"),
        ("mag", {"degree": 2, "multilinear": 3}, "degree, multilinear"),
        ("mag", {"multidegree": (2, 1), "multilinear": 2}, "multidegree, multilinear"),
        ("magw", {"degree": 3, "multidegree": (3,)}, "degree, multidegree"),
        ("lr", {"multidegree": (3,)}, "multidegree"),
        ("ck", {"multilinear": 3}, "multilinear"),
        ("bf", {"degree": 2, "multilinear": 2}, "degree, multilinear"),
        ("lr", {}, "none"),
    ])
    def test_keywords_are_checked(self, kind, kwargs, named):
        with pytest.raises(ValueError, match="got %s$" % named):
            Pr.component(kind, **kwargs)


class TestPrimBasis:
    def test_multilinear_three(self):
        assert len(Pr.prim_basis(Pr.component("mag", multilinear=3))) == 8
        assert len(Pr.prim_basis(Pr.component("magw", multilinear=3))) == 14

    def test_one_var_degree_two(self):
        assert Pr.prim_basis(Pr.component("mag", degree=2)) == []

    def test_basis_elements_are_primitive(self):
        for kind in ("mag", "magw"):
            for f in Pr.prim_basis(Pr.component(kind, multilinear=3)):
                assert H.is_primitive("coadd", f)
        for kind, deg in (("lr", 3), ("ck", 3), ("bf", 3)):
            for f in Pr.prim_basis(Pr.component(kind, degree=deg)):
                assert H.reduced_coproduct(kind, f).is_zero()

    def test_lr_catalog(self):
        # the classical degree-2 and degree-3 dendriform primitives lie in
        # the computed bases; the non-primitive degree-3 combination does not
        f = P("(o (o o)) - ((o o) o)")
        comp2 = Pr.component("lr", degree=2)
        assert Pr.in_span(f, Pr.prim_basis(comp2), comp2)
        g = P("(o (o (o o))) + (((o o) o) o) - ((o o) (o o))")
        comp3 = Pr.component("lr", degree=3)
        basis3 = Pr.prim_basis(comp3)
        assert Pr.in_span(g, basis3, comp3)
        h = P("(o ((o o) o)) - ((o (o o)) o)")
        assert not Pr.in_span(h, basis3, comp3)

    def test_bracket_closure(self):
        for kind in ("mag", "magw"):
            basis = Pr.prim_basis(Pr.component(kind, multilinear=2))
            comp4 = Pr.component(kind, multidegree=(1, 1, 1, 1))
            prim4 = Pr.prim_basis(comp4)
            for f, g in itertools.product(basis, repeat=2):
                g2 = g.map_basis(lambda t: T.relabel(
                    t, [l + 2 for l in t.labels()]))
                bracket = M.dot(f, g2) - M.dot(g2, f)
                assert H.is_primitive("coadd", bracket)
                assert Pr.in_span(bracket, prim4, comp4)

    def test_bracket_closure_other_coproducts(self):
        # the coproducts are algebra morphisms, so primitives close under the
        # commutator of the respective product
        from treehopf import dendriform as D

        def products():
            yield "lr", lambda a, b: D.star(a, b)
            yield "bf", lambda a, b: D.circ_alpha_poly(a, b)
            yield "ck", lambda a, b: _concat(a, b)

        def _concat(a, b):
            out = LinComb()
            for fa, ca in a.items():
                for fb, cb in b.items():
                    out = out + LinComb.of(fa + fb, ca * cb)
            return out

        for kind, mul in products():
            prims = {n: Pr.prim_basis(Pr.component(kind, degree=n))
                     for n in (1, 2, 3)}
            for n1, n2 in ((1, 1), (1, 2), (1, 3), (2, 2)):
                comp = Pr.component(kind, degree=n1 + n2)
                target = Pr.prim_basis(comp)
                for f in prims[n1]:
                    for g in prims[n2]:
                        bracket = mul(f, g) - mul(g, f)
                        assert H.reduced_coproduct(kind, bracket).is_zero()
                        if not bracket.is_zero():
                            assert Pr.in_span(bracket, target, comp)


class TestPrimDims:
    def test_formula_values(self):
        assert [Pr.prim_dim_formula("mag", n) for n in range(1, 6)] == \
            [1, 1, 8, 78, 1104]
        assert [Pr.prim_dim_formula("magw", n) for n in range(1, 5)] == \
            [1, 1, 14, 198]

    def test_kernel_matches_formula(self):
        for n in range(1, 5):
            assert Pr.prim_dim("mag", n)["match"]
        for n in range(1, 5):
            assert Pr.prim_dim("magw", n)["match"]

    def test_one_var_mag_degree_nine_is_the_inverse_euler_transform(self):
        # Mag = S^c(Prim) as graded coalgebras, so the one-variable primitive
        # dims p_n satisfy prod_n (1 - t^n)^(-p_n) = 1 + sum_n C_{n-1} t^n
        a = T.sequence("catalan", 9)
        c = []
        for n in range(1, 10):
            c.append(n * a[n - 1] - sum(c[k - 1] * a[n - k - 1] for k in range(1, n)))

        def mobius(n):
            primes = [q for q in range(2, n + 1)
                      if n % q == 0 and all(q % r for r in range(2, q))]
            return 0 if any(n % (q * q) == 0 for q in primes) else (-1) ** len(primes)

        p9 = sum(mobius(9 // d) * c[d - 1] for d in range(1, 10) if 9 % d == 0)
        assert p9 % 9 == 0 and p9 // 9 == 946
        assert Pr.prim_rank(Pr.component("mag", degree=9)) == 946

    def test_each_multilinear_rank_is_computed_once(self, cold_rank_cache, monkeypatch):
        from treehopf import verify as V
        calls = []
        inner = Pr.rank

        def counted(m):
            calls.append(m.ncols)
            return inner(m)

        monkeypatch.setattr(Pr, "rank", counted)
        assert V.check_prim_dims()["ok"]
        # one rank per (operad, n), each on the full multilinear component
        assert calls == [Pr.ambient_dim(operad, (1,) * n)
                         for operad, cap in (("mag", 5), ("magw", 4))
                         for n in range(1, cap + 1)]
        calls.clear()
        assert Pr.exp_series_identity("mag", 5)
        assert Pr.exp_series_identity("magw", 4)
        assert calls == []

    def test_a_wrong_cached_rank_fails_the_series_identity(self, cold_rank_cache,
                                                            monkeypatch):
        # the series identity reads the computed kernel dims, so a wrong rank
        # left in the cache must make it fail, not the formula pass it
        inner = Pr.rank
        monkeypatch.setattr(Pr, "rank", lambda m: inner(m) + 1)
        assert Pr.multilinear_prim_rank("mag", 3) == 7
        monkeypatch.undo()
        assert not Pr.exp_series_identity("mag", 5)
        assert not Pr.prim_dim("mag", 3)["match"]
        assert Pr.exp_series_identity("magw", 4)

    def test_report_shape(self):
        rep = Pr.component_report(Pr.component("mag", multilinear=3))
        assert rep["ambientDim"] == 12 and rep["primDim"] == 8
        assert rep["match"] and rep["formulaDim"] == 8
        assert len(rep["basisSample"]) == 3

    def test_report_back_substitutes_only_the_sample(self, monkeypatch):
        comp = Pr.component("mag", multilinear=4)
        want = Pr.prim_basis(comp)

        def refuse(m):
            raise AssertionError("the whole kernel was back-substituted")

        built = []

        class Counted(LinComb):
            __slots__ = ()

            def __init__(self, terms=None):
                built.append(1)
                super().__init__(terms)

        monkeypatch.setattr(L, "kernel_basis", refuse)
        monkeypatch.setattr(L, "LinComb", Counted)
        rep = Pr.component_report(comp)
        assert rep["primDim"] == 78 == len(want)
        assert rep["basisSample"] == [L.format_poly(p) for p in want[:3]]
        assert len(built) == 3


def _uncut_rows(comp):
    """The oracle rows: every pair of the co-addition table whose first
    leg has 1 to n // 2 leaves, uncut by the legs."""
    return [LinComb(_half_table(b)) for b in comp.basis]


def _cut_tables(comp):
    """The cut oracle of ``reduced_coproduct_rows``, per basis tree: the
    uncut rows with A among the first legs, B among its block's second
    legs, and in the middle layer A not after B."""
    n = sum(comp.multidegree)
    legs = Pr._first_legs(comp.kind, comp.multidegree)
    assert all(2 * a.leaf_count <= n for a in legs)
    return [{(a, b): c for (a, b), c in full.items()
             if a in legs and b in legs[a]
             and (2 * a.leaf_count < n or not b < a)}
            for full in _uncut_rows(comp)]


def _items(polys):
    return [list(p.items()) for p in polys]


class TestPrimitiveCoordinates:
    """The kernel rows cut to the primitive coordinates as first legs,
    against the uncut half-degree table as the oracle."""

    COMPONENTS = ([(op, (d,)) for op, cap in (("mag", 9), ("magw", 7))
                   for d in range(1, cap + 1)]
                  + [(op, (1,) * n) for op, cap in (("mag", 5), ("magw", 4))
                     for n in range(1, cap + 1)]
                  + [(op, md) for op in ("mag", "magw")
                     for md in ((2, 1), (3, 1), (2, 2), (2, 1, 1), (2, 2, 1))])

    def test_cut_rows_keep_the_kernel_and_the_rank(self):
        for operad, md in self.COMPONENTS:
            comp = Pr.component(operad, multidegree=md)
            uncut = _uncut_rows(comp)
            cut = _columns(Pr.reduced_coproduct_rows(comp),
                           [full.terms for full in uncut])
            for row, full in zip(cut, uncut):
                assert all(full.terms.get(pair) == c for pair, c in row.items())
            want = L.kernel_of(comp.basis, uncut)
            assert _items(Pr.prim_basis(comp)) == _items(want), (operad, md)
            # prim_rank is comp.dim less the rank of the cut rows
            assert Pr.prim_rank(comp) == len(want), (operad, md)

    def test_cut_rows_keep_the_highest_weights(self):
        # with one variable there is nothing to lower: the kernel above
        for operad, md in [(op, md) for op, md in self.COMPONENTS if len(md) > 1]:
            comp = Pr.component(operad, multidegree=md)
            lowered = [[M.partial_kj(i, i - 1, LinComb.of(t)) for t in comp.basis]
                       for i in range(2, len(md) + 1)]
            want = L.kernel_of(comp.basis, *lowered, _uncut_rows(comp))
            got = Pr.highest_weight_basis(md, "primitive", operad)
            assert _items(got) == _items(want), (operad, md)

    def test_each_shape_keeps_exactly_its_primitive_dimension(self):
        dims = {"mag": [1, 0, 1, 3, 9, 27], "magw": [1, 0, 2, 8, 34, 149]}
        shapes = [(d,) for d in range(1, 7)] + [(1, 1), (1, 1, 1), (2, 1), (2, 2)]
        for operad in ("mag", "magw"):
            for shape in shapes:
                comp = Pr.component(operad, multidegree=shape)
                uncut = _uncut_rows(comp)
                coords = Pr._primitive_coordinates(operad, shape)
                # the free columns are a function of the kernel alone
                assert list(coords) == [comp.basis[j] for j in
                                        L.free_columns_of(comp.basis, uncut)]
                assert len(coords) == len(L.kernel_of(comp.basis, uncut))
                if len(shape) == 1:
                    assert len(coords) == dims[operad][shape[0] - 1]

    CUTS = (("mag", (6,)), ("magw", (5,)), ("mag", (7,)), ("mag", (1,) * 4),
            ("mag", (1,) * 5), ("magw", (2, 2)), ("mag", (2, 1, 1)),
            ("magw", (2, 2, 1)))

    def test_rows_are_the_half_degree_table_cut_to_the_legs(self):
        # every row read back to its pair (A, B) and every pair's row found:
        # A among the first legs, B among its block's second legs, and in
        # the middle layer A not after B
        for operad, md in self.COMPONENTS:
            comp = Pr.component(operad, multidegree=md)
            want = _cut_tables(comp)
            got = _columns(Pr.reduced_coproduct_rows(comp), want)
            for t, row, table in zip(comp.basis, got, want):
                assert row == table, (operad, md, t)

    def test_leg_index_keys_graft_back_to_their_legs(self):
        # each completions key, lefts + (r,) (r = EMPTY adds nothing),
        # grafts back to its first leg A, each re-keyed piece tuple to its
        # second leg B, and every piece tuple of a kept A has its prefixes
        for operad, md in self.CUTS:
            legs = Pr._first_legs(operad, md)
            slot_a = list(legs)
            completions, prefixes, slots = M.leg_index(legs)
            reached, want_prefixes = set(), set()
            for lefts, ends in completions.items():
                for r, (keyed, slot) in ends.items():
                    a = slot_a[slot]
                    pieces = lefts + (r,) if r is not T.EMPTY else lefts
                    assert M._leg(pieces) is a, (operad, md, pieces)
                    assert set(keyed.values()) == legs[a], (operad, md, a)
                    for key, b in keyed.items():
                        assert M._leg(key) is b, (operad, md, key)
                    reached.add(a)
                    want_prefixes.update(pieces[:i] for i in range(len(pieces) + 1))
            # one slot per kept first leg
            assert reached == set(legs), (operad, md)
            assert slots == len(legs), (operad, md)
            assert prefixes == want_prefixes, (operad, md)

    def test_prefix_fold_is_the_fold_cut_to_the_prefixes(self):
        # the fold given the prefixes of the kept first legs keeps exactly
        # the unfiltered fold's states whose left pieces are a prefix, with
        # their multiplicities, on the children the rows fold and on all
        for operad, md in self.CUTS:
            _, prefixes, _ = M.leg_index(Pr._first_legs(operad, md))
            for t in Pr.component(operad, multidegree=md).basis:
                for kids in (t.children[:-1], t.children):
                    want = {key: m for key, m in M._graft_tables(kids).items()
                            if key[0] in prefixes}
                    got = M._graft_tables(kids, prefixes)
                    assert got == want, (operad, md, t, kids)

    def test_rows_never_graft(self, monkeypatch):
        # with every table and leg warmed, the rows of multilinear mag n=5
        # graft no leg: each first leg is completed and each second leg
        # found by its pieces, also in the block of x5, which keeps every
        # second leg (1,440 grafts when that block grafted its second legs)
        comp = Pr.component("mag", multilinear=5)
        rows = Pr.reduced_coproduct_rows(comp)
        tables = _cut_tables(comp)
        assert _columns(rows, tables) == tables
        calls = []
        graft = M._graft

        def counted(ts):
            calls.append(ts)
            return graft(ts)

        monkeypatch.setattr(M, "_graft", counted)
        assert Pr.reduced_coproduct_rows(comp) == rows
        assert calls == []

    @staticmethod
    def _second_legs_oracle(operad, md):
        """Per first leg A: A's block a, b = md - a, b's component, and
        the free columns of b's uncut rows cut only to the first legs
        c <= b before a (by size, then tuple) with fewer than half of b's
        leaves, or to every first leg in the middle layer."""
        n = sum(md)

        def multidegree(tree):
            counts = [0] * len(md)
            for lab in tree.labels():
                counts[lab - 1] += 1
            return tuple(counts)

        free_of = {}
        for a in Pr._first_legs(operad, md):
            blk = multidegree(a)
            if blk not in free_of:
                b = tuple(m - x for m, x in zip(md, blk))
                comp = Pr.component(operad, multidegree=b)
                rows = []
                for full in _uncut_rows(comp):
                    row = LinComb()
                    row.terms = {(c, d): x for (c, d), x in full.items()
                                 if 2 * sum(blk) == n or (
                                     2 * c.leaf_count < sum(b)
                                     and (c.leaf_count, multidegree(c))
                                     < (sum(blk), blk))}
                    rows.append(row)
                free = [comp.basis[j]
                        for j in L.free_columns_of(comp.basis, rows)]
                free_of[blk] = (b, comp, rows, free)
            yield (a, blk) + free_of[blk]

    def test_second_legs_are_the_free_columns_of_the_blocks_before(self):
        # each first leg's second legs are the free columns of its block's
        # cut rows of b; in the middle layer, those not before A
        for operad, md in self.CUTS:
            n = sum(md)
            legs = Pr._first_legs(operad, md)
            for a, blk, b, comp, rows, free in self._second_legs_oracle(operad, md):
                if 2 * sum(blk) == n:
                    free = [t for t in free if not t < a]
                assert legs[a] == frozenset(free), (operad, md, a)
                if any(row.terms for row in rows):
                    assert len(legs[a]) < comp.dim, (operad, md, a)

    def test_every_first_leg_keeps_a_concrete_set(self):
        # no kept set is None; a block with no block before it keeps the
        # whole basis of b, and a middle-layer A keeps exactly b's
        # primitive coordinates (the free columns of b's uncut rows) not
        # before A
        for operad, md in self.CUTS:
            n = sum(md)
            legs = Pr._first_legs(operad, md)
            assert all(type(kept) is frozenset for kept in legs.values())
            whole = middle = 0
            for a, blk, b, comp, rows, free in self._second_legs_oracle(operad, md):
                if 2 * sum(blk) == n:
                    assert legs[a] == {t for t in free if not t < a}, \
                        (operad, md, a)
                    middle += 1
                elif not any(row.terms for row in rows):
                    assert legs[a] == set(M.monomial_basis(b, operad)), \
                        (operad, md, a)
                    whole += 1
            assert whole > 0, (operad, md)
            assert middle > 0 or n % 2, (operad, md)

    def test_legs_are_relabelled_onto_the_variables(self):
        legs = Pr._first_legs("mag", (2, 0, 3))
        # shapes (1,), (2,), (1, 1) with their 1, 0 and 1 coordinates, on the
        # sub-multidegrees (1,0,0), (0,0,1), (0,0,2), (1,0,1) and (2,0,0)
        assert sorted(L.format_poly(LinComb.of(t)) for t in legs) == \
            sorted(["x1", "x3", "(x3 x1)"])
        # second legs on the variables of b: x3 comes first and keeps all
        # 30 trees of (2,0,2); before x1 comes x3 <= (1,0,3), one of 4 leaves
        assert legs[T.leaf(3)] == set(M.monomial_basis((2, 0, 2)))
        assert len(legs[T.leaf(3)]) == 30
        for a, labels in ((T.leaf(1), (1, 3, 3, 3)), (T.parse_tree("(x3 x1)"), (1, 3, 3))):
            assert legs[a] and all(tuple(sorted(b.labels())) == labels for b in legs[a])


class TestJacobi:
    def test_identity(self):
        rep = Pr.jacobi_check()
        assert all(rep.values()), rep


class TestNamedPrimitives:
    def test_all_primitive(self):
        for name, f in Pr.named_primitives().items():
            assert H.is_primitive("coadd", f), name

    def test_degree4_diagonal(self):
        p = Pr.degree4_right_substituted(*(M.var(1),) * 4)
        assert not p.is_zero()
        assert p.coeff(T.parse_tree("((x1 x1) (x1 x1))")) != 0

    def test_degree4_from_taylor(self):
        # the right-expansion element is the constant term of the square
        f = P("((x1 x2) (x3 x4))")
        tay = M.taylor_expand(f, 4)
        assert tay.constant_term() == Pr.named_primitives()["degree4_right"]


def _two_rank_oracle(operad, n, multilinear=False):
    """``pbw_check`` with the second elimination it proves unneeded: the
    rank of the monomials and the primitives together, checked against the
    report's shuffleRank + primDim and ambientDim."""
    rep = Pr.pbw_check(operad, n, multilinear=multilinear)
    comp = Pr.component(operad, multidegree=(1,) * n if multilinear else (n,))
    monos = Pr.shuffle_monomials(operad, comp.descriptor["multidegree"])
    prims = Pr.prim_basis(comp)
    coords = comp.coords()
    shuffle_rank = L.rank(L.matrix_from_columns(monos, coords))
    total_rank = L.rank(L.matrix_from_columns(monos + prims, coords))
    assert (rep["shuffleRank"], rep["primDim"]) == (shuffle_rank, len(prims)), rep
    assert total_rank == shuffle_rank + len(prims) == rep["ambientDim"], rep
    return rep


class TestPBW:
    def test_one_var(self):
        for n in range(2, 7):
            rep = _two_rank_oracle("mag", n)
            assert rep["ok"], rep

    def test_one_var_magw(self):
        for n in range(2, 5):
            rep = _two_rank_oracle("magw", n)
            assert rep["ok"], rep

    def test_multilinear(self):
        for n in range(2, 5):
            assert _two_rank_oracle("mag", n, multilinear=True)["ok"]
        for n in range(2, 4):
            assert _two_rank_oracle("magw", n, multilinear=True)["ok"]

    @staticmethod
    def _tampered(monkeypatch, tamper):
        """``pbw_check("mag", 4)`` with its shuffle monomials replaced by
        ``tamper(monos, prims)``."""
        comp = Pr.component("mag", degree=4)
        prims = Pr.prim_basis(comp)
        monos = Pr.shuffle_monomials("mag", (4,))
        monkeypatch.setattr(Pr, "shuffle_monomials",
                            lambda operad, md: tamper(list(monos), prims))
        return Pr.pbw_check("mag", 4)

    def test_appended_primitive_is_not_orthogonal(self, monkeypatch):
        rep = self._tampered(monkeypatch, lambda monos, prims: monos + prims[:1])
        assert not rep["orthogonal"] and not rep["ok"], rep
        assert rep["independent"], rep

    def test_duplicated_monomial_is_not_independent(self, monkeypatch):
        rep = self._tampered(monkeypatch, lambda monos, prims: monos + monos[:1])
        assert not rep["independent"] and not rep["ok"], rep
        assert rep["orthogonal"] and rep["complement"], rep

    def test_dropped_monomial_is_not_a_complement(self, monkeypatch):
        rep = self._tampered(monkeypatch, lambda monos, prims: monos[1:])
        assert not rep["complement"] and not rep["ok"], rep
        assert rep["independent"] and rep["orthogonal"], rep

    def test_one_rank_per_check(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m.ncols)
            return L.rank(m)

        monkeypatch.setattr(Pr, "rank", counted)
        for operad, n, multilinear in (("mag", 4, False), ("magw", 3, False),
                                       ("mag", 3, True)):
            calls.clear()
            assert Pr.pbw_check(operad, n, multilinear=multilinear)["ok"]
            assert len(calls) == 1, (operad, n, multilinear, calls)

    def test_expected_counts_degree_four(self):
        rep = Pr.pbw_check("mag", 4, multilinear=True)
        assert rep["ambientDim"] == 120
        assert rep["primDim"] == 78 and rep["shuffleCount"] == 42

    def test_series_identity(self):
        assert Pr.exp_series_identity("mag", 5)
        assert Pr.exp_series_identity("magw", 4)

    def test_orthogonality(self):
        comp = Pr.component("mag", degree=4)
        prims = Pr.prim_basis(comp)
        for mono in Pr.shuffle_monomials_one_var("mag", 4):
            for p in prims:
                assert pairing(p, mono) == 0

    def test_mixed_multidegrees(self):
        # repeated variables together with zero entries
        dims = {}
        for operad, mds in (("mag", ((2, 1), (2, 2), (3, 1), (1, 0, 2), (1, 2, 1))),
                            ("magw", ((2, 1), (2, 2), (3, 1), (1, 2, 1)))):
            for md in mds:
                comp = Pr.component(operad, multidegree=md)
                prims = Pr.prim_basis(comp)
                monos = Pr.shuffle_monomials(operad, md)
                coords = comp.coords()
                assert L.rank(L.matrix_from_columns(monos, coords)) == len(monos)
                assert L.rank(L.matrix_from_columns(monos + prims, coords)) == comp.dim
                assert all(pairing(p, m) == 0 for p in prims for m in monos)
                dims[operad, md] = (comp.dim, len(prims), len(monos))
        assert dims["mag", (1, 2, 1)] == (60, 39, 21)
        assert dims["magw", (2, 2)] == (66, 49, 17)


def _all_operator_hw(md, constraint, operad):
    # the reference: every lowering substitution D_{i->j} (j < i) and, for
    # the constants, every derivation d_1..d_m, stacked
    comp = Pr.component(operad, multidegree=md)
    m = len(md)
    lowered = [[M.partial_kj(i, j, LinComb.of(t)) for t in comp.basis]
               for i in range(2, m + 1) for j in range(1, i)]
    killed = ([Pr._coproduct_matrix(comp)] if constraint == "primitive"
              else M.derivation_images(comp.basis, m))
    return L.kernel_of(comp.basis, *lowered, *killed)


def _compositions(total, parts):
    return [c for c in itertools.product(range(1, total), repeat=parts)
            if sum(c) == total]


class TestHighestWeights:
    def test_dims(self):
        assert len(Pr.highest_weight_basis((4,), "primitive")) == 3
        assert len(Pr.highest_weight_basis((3, 1), "primitive")) == 10

    def test_one_var_hw_equals_prim(self):
        hw = Pr.highest_weight_basis((4,), "primitive")
        comp = Pr.component("mag", degree=4)
        prim = Pr.prim_basis(comp)
        for f in hw:
            assert Pr.in_span(f, prim, comp)
        for f in prim:
            assert Pr.in_span(f, hw, comp)

    def test_f1_membership(self):
        f1 = P("(x2 (x1 (x1 x1))) - 3*(x1 (x2 (x1 x1)))"
               " + 3*(x1 (x1 (x2 x1))) - (x1 (x1 (x1 x2)))")
        hw = Pr.highest_weight_basis((3, 1), "primitive")
        comp = Pr.component("mag", multidegree=(3, 1))
        assert Pr.in_span(f1, hw, comp)

    def test_members_killed_by_lowering(self):
        for f in Pr.highest_weight_basis((3, 1), "primitive"):
            assert M.partial_kj(2, 1, f).is_zero()
            assert H.is_primitive("coadd", f)

    def test_constant_constraint(self):
        hw = Pr.highest_weight_basis((3, 1), "constant")
        for f in hw:
            assert M.partial_kj(2, 1, f).is_zero()
            assert M.partial_k(1, f).is_zero()
            assert M.partial_k(2, f).is_zero()
        # primitives of this degree are constants but not conversely
        assert len(hw) >= 10

    def test_two_row_weight_space_identity(self):
        # the primitives and the constants are GL_2-modules, so the vectors
        # of weight (a, b) killed by the lowering substitution x_2 -> x_1
        # number dim W(a, b) - dim W(a + 1, b - 1)
        def weight_dim(operad, md, constraint):
            if constraint == "primitive":
                return len(Pr.prim_basis(Pr.component(operad, multidegree=md)))
            return len(M.constants_basis(operad, multidegree=md))

        for operad, cap in (("mag", 5), ("magw", 4)):
            for constraint in ("primitive", "constant"):
                for n in range(2, cap + 1):
                    for b in range(1, n // 2 + 1):
                        a = n - b
                        hw = Pr.highest_weight_basis((a, b), constraint, operad)
                        want = (weight_dim(operad, (a, b), constraint)
                                - weight_dim(operad, (a + 1, b - 1), constraint))
                        assert len(hw) == want, (operad, constraint, a, b)

    def test_adjacent_substitutions_match_every_operator(self):
        # magw stops at total 4: its total-5 components (up to 2,700
        # columns) would add about 20 s to the suite
        for operad, cap in (("mag", 5), ("magw", 4)):
            for md in (c for total in range(2, cap + 1) for parts in (2, 3, 4)
                       for c in _compositions(total, parts)):
                for constraint in ("primitive", "constant"):
                    assert (Pr.highest_weight_basis(md, constraint, operad)
                            == _all_operator_hw(md, constraint, operad)), \
                        (md, constraint, operad)

    def test_sample_is_the_basis_cut_without_back_substituting_it(self, monkeypatch):
        want = {(md, constraint): Pr.highest_weight_basis(md, constraint)
                for md in ((3, 1), (2, 1, 1)) for constraint in ("primitive", "constant")}

        def refuse(m):
            raise AssertionError("the whole kernel was back-substituted")

        monkeypatch.setattr(L, "kernel_basis", refuse)
        for (md, constraint), basis in want.items():
            for k in (0, 2, len(basis), len(basis) + 1):
                assert Pr.highest_weight_sample(md, constraint, k) == \
                    (len(basis), basis[:k]), (md, constraint, k)

    def test_one_block_per_variable(self, monkeypatch):
        seen = []
        kernel_of = Pr.kernel_of

        def counted(basis, *blocks):
            seen.append(len(blocks))
            return kernel_of(basis, *blocks)

        monkeypatch.setattr(Pr, "kernel_of", counted)
        for md in ((3,), (2, 1), (1, 2, 1), (2, 1, 1, 1)):
            for constraint in ("primitive", "constant"):
                seen.clear()
                Pr.highest_weight_basis(md, constraint)
                assert seen == [len(md)], (md, constraint)


class TestConstantsHilbert:
    def test_multigraded_relation(self):
        const_dim = {(0, 0): 1}
        full_dim = {(0, 0): 1}
        for d in range(1, 5):
            for d1 in range(d + 1):
                md = (d1, d - d1)
                full_dim[md] = Pr.component("mag", multidegree=md).dim
                const_dim[md] = len(M.constants_basis("mag", multidegree=md))
        for (d1, d2), dim in full_dim.items():
            pred = sum(const_dim.get((j1, j2), 0)
                       for j1 in range(d1 + 1) for j2 in range(d2 + 1))
            assert pred == dim, (d1, d2)
