import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from treehopf import trees as T
from treehopf.linear import LinComb, parse_poly
from treehopf.trees import (EMPTY, BadPositionError, EmptyArgumentError,
                            EmptyTreeError, Forest, LabelCountMismatchError,
                            NotBinaryError, NotReducedError, ParseError,
                            leaf, node, parse_tree)


def t(text):
    return parse_tree(text)


class TestGrammar:
    def test_basic_forms(self):
        assert t("1") is EMPTY
        assert t("o") is leaf()
        assert t("x3") is leaf(3)
        assert t("(x1 (x2 x3))") is node((leaf(1), node((leaf(2), leaf(3)))))
        assert t("((o))").vertex_count == 3

    def test_pipe_synonym(self):
        assert t("(| |)") is t("(o o)")

    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(100):
            n = rng.randint(1, 6)
            shape = rng.choice(T.enumerate_trees(n))
            tree = T.relabel(shape, [rng.randint(0, 3) for _ in range(n)])
            assert parse_tree(T.format_tree(tree)) is tree

    def test_forest_round_trip(self):
        f = Forest((t("o"), t("(x1 x2)")))
        assert T.parse_forest(T.format_forest(f)) == f
        assert T.parse_forest("[]") == Forest(())

    def test_malcev_form(self):
        assert T.format_malcev(t("(x2 x3)")) == "cx2x3"
        assert T.format_malcev(t("(x1 ((x2 x3) x4))")) == "cx1ccx2x3x4"
        with pytest.raises(NotBinaryError):
            T.format_malcev(t("(o o o)"))

    def test_errors_carry_offset(self):
        with pytest.raises(ParseError) as e:
            parse_tree("(x1")
        assert e.value.offset == 3
        with pytest.raises(ParseError):
            parse_tree("(x1 1)")
        with pytest.raises(ParseError):
            parse_tree("x")
        with pytest.raises(ParseError):
            parse_tree("(x1 x2) trailing")

    TREE = "expected a tree ('1', 'o', 'x<k>' or '(')"

    @pytest.mark.parametrize("parse, text, message, offset", [
        (parse_tree, "", TREE, 0),
        (parse_tree, "x", "expected digits after 'x'", 1),
        # a run of digits gives up only its leading 1 to a tree
        (parse_tree, "12", "expected end of input", 1),
        (parse_tree, "(12)", "empty tree not allowed as a child", 1),
        (parse_tree, "o)", "expected end of input", 1),
        (T.parse_forest, "", "expected '['", 0),
        (T.parse_forest, "o", "expected '['", 0),
        (T.parse_forest, "[", "expected ')'", 1),
        (T.parse_forest, "[;]", TREE, 1),
        (T.parse_forest, "[o;;o]", TREE, 3),
        (T.parse_forest, "[o] x", "expected end of input", 4),
    ])
    def test_error_message_and_offset(self, parse, text, message, offset):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert (e.value.message, e.value.offset) == (message, offset)

    def test_deep_input_is_read_without_recursion(self):
        depth = 5000
        comb_text = "(x1 " * depth + "x2" + ")" * depth
        chain_text = "(" * depth + "o" + ")" * depth
        comb = parse_tree(comb_text)
        assert comb.leaf_count == depth + 1
        assert len(T.right_comb_presentation(comb)) == depth
        chain = parse_tree(chain_text)
        assert (chain.leaf_count, chain.vertex_count) == (1, depth + 1)
        assert T.parse_forest("[%s; %s]" % (comb_text, chain_text)) == \
            Forest((comb, chain))
        assert parse_poly("2*%s - x1" % comb_text) == \
            LinComb({comb: 2, leaf(1): -1})
        assert parse_poly(chain_text + " (x) x1") == LinComb.of((chain, leaf(1)))


class TestGraftDegraft:
    def test_corolla(self):
        assert T.graft([leaf(), leaf()]) is t("(o o)")

    def test_empty_forest_gives_single_vertex(self):
        assert T.graft([]) is leaf()

    def test_nested(self):
        assert T.graft([leaf(1), t("(x2 x3)")]) is t("(x1 (x2 x3))")

    def test_degraft(self):
        assert T.degraft(t("(o o)")) == Forest((leaf(), leaf()))
        assert T.degraft(leaf()) == Forest(())
        assert T.degraft(t("((o) o)")) == Forest((t("(o)"), leaf()))
        with pytest.raises(EmptyTreeError):
            T.degraft(EMPTY)

    def test_mutually_inverse(self):
        for n in range(1, 6):
            for tree in T.enumerate_ptrees(n):
                assert T.graft(T.degraft(tree)) is tree


class TestSubstitute:
    def test_examples(self):
        assert T.substitute_at_leaf(t("(o o)"), 2, t("(o o)")) is t("(o (o o))")
        assert T.substitute_at_leaf(t("(x1 x2)"), 1, t("(x3 x4)")) is t("((x3 x4) x2)")

    def test_identity_leaf(self):
        tree = t("(x1 (x2 x3))")
        for i in range(1, 4):
            got = T.substitute_at_leaf(tree, i, leaf(tree.labels()[i - 1]))
            assert got is tree

    def test_leaf_count(self):
        tree = T.substitute_at_leaf(t("(o o o)"), 2, t("(o o)"))
        assert tree.leaf_count == 4

    def test_errors(self):
        with pytest.raises(BadPositionError):
            T.substitute_at_leaf(t("(o o)"), 3, leaf())
        with pytest.raises(EmptyArgumentError):
            T.substitute_at_leaf(t("(o o)"), 1, EMPTY)


class TestMirror:
    def test_examples(self):
        assert T.mirror(t("(x1 (x2 x3))")) is t("((x3 x2) x1)")
        assert T.mirror(leaf()) is leaf()
        assert T.mirror(EMPTY) is EMPTY

    def test_involution_and_invariants(self):
        for n in range(1, 7):
            for tree in T.enumerate_ptrees(n):
                m = T.mirror(tree)
                assert T.mirror(m) is tree
                assert m.leaf_count == tree.leaf_count
                assert m.vertex_count == tree.vertex_count
                assert m.is_reduced == tree.is_reduced
                assert m.is_binary == tree.is_binary


class TestReduce:
    def test_ladder(self):
        assert T.reduced(t("((o))")) is leaf()

    def test_mu_chain_example(self):
        # two arity-1 vertices below the root and inside disappear
        tree = node((node((leaf(1),)), node((leaf(2),)),
                     node((leaf(3), leaf(4)))))
        chained = node((tree,))
        got = T.reduced(chained)
        assert got is node((leaf(1), leaf(2), node((leaf(3), leaf(4)))))

    def test_idempotent_and_preserves_labels(self):
        rng = random.Random(2)
        for _ in range(50):
            base = rng.choice(T.enumerate_ptrees(rng.randint(1, 6)))
            labs = [rng.randint(1, 3) for _ in range(base.leaf_count)]
            tree = T.relabel(base, labs)
            r = T.reduced(tree)
            assert T.reduced(r) is r
            assert r.labels() == tree.labels()
            assert r.is_reduced


class TestLeafRestrict:
    def test_paper_example(self):
        tree = node((leaf(1), node((leaf(2),)), node((leaf(3), leaf(4)))))
        assert T.leaf_restrict(tree, {1, 3}) is node((leaf(1), node((leaf(3),))))

    def test_full_and_empty(self):
        tree = t("(x1 (x2 x3))")
        assert T.leaf_restrict(tree, {1, 2, 3}) is tree
        assert T.leaf_restrict(tree, set()) is EMPTY

    def test_bad_position(self):
        with pytest.raises(BadPositionError):
            T.leaf_restrict(t("(o o)"), {3})

    def test_arities_never_increase(self):
        rng = random.Random(3)
        for _ in range(50):
            tree = rng.choice(T.enumerate_trees(rng.randint(2, 6)))
            keep = {p for p in range(1, tree.leaf_count + 1) if rng.random() < 0.5}
            r = T.leaf_restrict(tree, keep)
            assert r.leaf_count == len(keep)


class TestLeafSplit:
    def test_two_leaves(self):
        assert T.leaf_split(t("(x1 x2)"), {1}) == (leaf(1), leaf(2))

    def test_full_set(self):
        tree = t("(o (o o))")
        assert T.leaf_split(tree, {1, 2, 3}) == (tree, EMPTY)

    def test_five_leaf_example(self):
        # restrictions of a 5-leaf shuffle to {1,3,4} and the complement
        tree = node((leaf(4), leaf(1), node((leaf(2), leaf(2))), leaf(1)))
        l, r = T.leaf_split(tree, {1, 3, 4})
        assert l is node((leaf(4), node((leaf(2), leaf(2)))))
        assert r is node((leaf(1), leaf(1)))

    def test_complement_symmetry(self):
        rng = random.Random(4)
        for _ in range(60):
            tree = rng.choice(T.enumerate_trees(rng.randint(1, 6)))
            keep = {p for p in range(1, tree.leaf_count + 1) if rng.random() < 0.5}
            comp = set(range(1, tree.leaf_count + 1)) - keep
            assert T.leaf_split(tree, keep) == tuple(reversed(T.leaf_split(tree, comp)))

    def test_not_reduced(self):
        with pytest.raises(NotReducedError):
            T.leaf_split(t("((o))"), {1})


class TestShuffles:
    def test_trivial_pairs(self):
        assert T.enumerate_shuffles(leaf(1), leaf(2)) == [
            (t("(x1 x2)"), 1), (t("(x2 x1)"), 1)]
        assert T.enumerate_shuffles(leaf(1), leaf(1)) == [(t("(x1 x1)"), 2)]

    def test_corolla_times_leaf(self):
        res = T.enumerate_shuffles(t("(x1 x2 x3)"), leaf(4))
        assert len(res) == 12
        assert all(m == 1 for _, m in res)

    def test_merge_equals_brute_force(self):
        rng = random.Random(5)
        for _ in range(40):
            n1, n2 = rng.randint(1, 3), rng.randint(1, 4 - 0)
            if n1 + n2 > 7:
                continue
            t1 = T.relabel(rng.choice(T.enumerate_trees(n1)),
                           [rng.randint(1, 2) for _ in range(n1)])
            t2 = T.relabel(rng.choice(T.enumerate_trees(n2)),
                           [rng.randint(1, 2) for _ in range(n2)])
            assert T.enumerate_shuffles(t1, t2) == T.enumerate_shuffles_brute(t1, t2)

    def test_every_small_pair_equals_brute_force(self):
        pairs = _small_pairs()
        assert len(pairs) == 152
        for t1, t2 in pairs:
            assert T.enumerate_shuffles(t1, t2) == T.enumerate_shuffles_brute(t1, t2)

    def test_binary_shuffle_keeps_exactly_the_binary_trees(self):
        from treehopf import hopf
        from treehopf.linear import LinComb
        # the unit pairs keep the empty tree, which is binary
        for t1, t2 in _small_pairs() + [(EMPTY, EMPTY), (EMPTY, t("(x1 x2)"))]:
            f, g = LinComb.of(t1), LinComb.of(t2)
            full = hopf.shuffle(f, g)
            kept = hopf.shuffle(f, g, "mag")
            assert kept == LinComb((x, c) for x, c in full.items() if x.is_binary)

    def test_multiplicity_counts_subsets(self):
        t1, t2 = t("(x1 x1)"), leaf(1)
        for tree, mult in T.enumerate_shuffles(t1, t2):
            witnesses = 0
            for keep in _subsets(tree.leaf_count, 2):
                if T.leaf_split(tree, keep) == (t1, t2):
                    witnesses += 1
            assert witnesses == mult


def _small_pairs():
    """Every ordered pair of trees with at most 5 leaves in total, each tree
    anonymous or labelled x1, x2, x1, ..."""
    def trees(n):
        for shape in T.enumerate_trees(n):
            yield shape
            yield T.relabel(shape, [1 + i % 2 for i in range(n)])

    return [(t1, t2) for n1 in range(1, 5) for n2 in range(1, 6 - n1)
            for t1 in trees(n1) for t2 in trees(n2)]


def _subsets(n, k):
    import itertools
    return [set(c) for c in itertools.combinations(range(1, n + 1), k)]


class TestAdmissibleCuts:
    def test_empty_and_full(self):
        tree = t("(o (o o))")
        cuts = T.admissible_cuts(tree)
        assert (Forest(()), tree) in cuts
        assert (Forest((tree,)), EMPTY) in cuts

    def test_ladder_count(self):
        tree = t("(((o)))")
        assert len(T.admissible_cuts(tree)) == 5

    def test_four_vertex_example(self):
        # cutting everything above the root leaves the bare root
        tree = node((t("(o)"), leaf()))
        cuts = T.admissible_cuts(tree)
        assert (Forest((t("(o)"), leaf())), leaf()) in cuts

    def test_count_matches_edge_antichains(self):
        for n in range(1, 8):
            for tree in T.enumerate_ptrees(n):
                assert len(T.admissible_cuts(tree)) == _antichain_count(tree) + 2

    def test_error(self):
        with pytest.raises(EmptyTreeError):
            T.admissible_cuts(EMPTY)


def _antichain_count(tree):
    # nonempty sets of inner edges with no edge above another; an edge is
    # identified with the child vertex below it
    def count_all(t):
        # number of (possibly empty) antichains in the subtree of t,
        # where selecting the root edge of t excludes everything below
        if t.is_leaf:
            return 2  # select the edge to t or not
        prod = 1
        for c in t.children:
            prod *= count_all(c)
        return prod + 1

    if tree.is_leaf:
        return 0
    prod = 1
    for c in tree.children:
        prod *= count_all(c)
    return prod - 1


class TestCombPresentation:
    def test_right_comb(self):
        comb3 = t("(o (o (o o)))")
        assert T.right_comb_presentation(comb3) == [leaf(), leaf(), leaf()]

    def test_y(self):
        assert T.right_comb_presentation(t("(o o)")) == [leaf()]

    def test_ten_vertex_example(self):
        inner = T.comb_graft((leaf(), T.comb_graft((leaf(),) * 3)))
        tree = T.comb_graft((inner, T.comb_graft((leaf(),) * 3)))
        assert tree.vertex_count == 21  # 10 internal vertices
        assert T.right_comb_presentation(tree) == [
            inner, T.comb_graft((leaf(),) * 3)]

    def test_round_trip(self):
        # internal degree up to 8
        for n in range(1, 10):
            for tree in T.enumerate_trees(n, binary=True):
                assert T.comb_graft(T.right_comb_presentation(tree)) is tree

    def test_not_binary(self):
        with pytest.raises(NotBinaryError):
            T.right_comb_presentation(t("(o o o)"))


class TestForestBijection:
    def test_leaf_and_y(self):
        assert T.binary_to_forest(leaf()) == Forest(())
        assert T.binary_to_forest(t("(o o)")) == Forest((leaf(),))

    def test_ten_vertex_example(self):
        inner = T.comb_graft((leaf(), T.comb_graft((leaf(),) * 3)))
        tree = T.comb_graft((inner, T.comb_graft((leaf(),) * 3)))
        f = T.binary_to_forest(tree)
        assert f.degree == 10
        assert len(f) == 2
        assert T.forest_to_binary(f) is tree

    def test_bijective_per_degree(self):
        cat = T.sequence("catalan", 8)
        for n in range(1, 8):
            binaries = T.enumerate_trees(n + 1, binary=True)
            images = {T.binary_to_forest(b) for b in binaries}
            assert len(images) == len(binaries) == cat[n]
            assert images == set(T.enumerate_forests(n))


class TestSortedChildren:
    def test_mirror_invariant(self):
        for n in range(1, 7):
            for tree in T.enumerate_ptrees(n):
                assert T.sorted_children(T.mirror(tree)) is T.sorted_children(tree)

    def test_counts_abstract_classes(self):
        # 1, 1, 2, 4, 9, 20 unordered rooted trees with n vertices
        expected = [1, 1, 2, 4, 9, 20]
        for n, want in enumerate(expected, start=1):
            classes = {T.sorted_children(t) for t in T.enumerate_ptrees(n)}
            assert len(classes) == want


class TestEnumeration:
    def test_counts(self):
        assert len(T.enumerate_trees(4, binary=True)) == 5
        assert len(T.enumerate_trees(4)) == 11
        assert T.enumerate_trees(1) == [leaf()]

    def test_label_mismatch(self):
        with pytest.raises(LabelCountMismatchError):
            T.enumerate_trees(3, labels=[1, 2])

    def test_canonical_order_is_strict(self):
        ts = T.enumerate_trees(5)
        keys = [x.sort_key() for x in ts]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_ptree_counts_follow_catalan(self):
        cat = T.sequence("catalan", 7)
        for n in range(1, 8):
            assert len(T.enumerate_ptrees(n)) == cat[n - 1]



def _relabel_by_closure(tree, labels):
    """The relabelling as one closure over the label offsets, without a
    memo: the oracle of ``relabel``."""
    labels = tuple(labels)
    if len(labels) != tree.leaf_count:
        raise LabelCountMismatchError(
            "%d labels for %d leaves" % (len(labels), tree.leaf_count))

    def go(tree, offset):
        if tree.is_leaf:
            return leaf(labels[offset])
        out = []
        for c in tree.children:
            out.append(go(c, offset))
            offset += c.leaf_count
        return node(out)

    return go(tree, 0) if not tree.is_empty else EMPTY


class TestRelabel:
    def test_matches_the_closure_on_every_shape_and_arrangement(self):
        unreduced = node([node([leaf()]), node([leaf(), leaf()]), leaf()])
        for labels, binary in (((1, 2, 3, 4, 5), True), ((1, 1, 2, 3), False),
                               ((1,) * 6, False), ((1, 1, 2, 2, 3), True)):
            shapes = T.enumerate_trees(len(labels), binary=binary)
            for arr in sorted(set(itertools.permutations(labels))):
                want = [_relabel_by_closure(shape, arr) for shape in shapes]
                assert [T.relabel(shape, arr) for shape in shapes] == want, arr
                # enumerate_trees relabels every shape through one memo
                assert T.enumerate_trees(len(arr), binary, arr) == want, arr
                if len(arr) == 4:
                    assert T.relabel(unreduced, arr) is \
                        _relabel_by_closure(unreduced, arr), arr

    def test_label_count_mismatch_and_the_empty_tree(self):
        for tree, labels in ((t("(o o)"), [1]), (t("(o (o o))"), [1, 2, 3, 4]),
                             (EMPTY, [1]), (t("o"), [])):
            with pytest.raises(LabelCountMismatchError) as got:
                T.relabel(tree, labels)
            with pytest.raises(LabelCountMismatchError) as want:
                _relabel_by_closure(tree, labels)
            assert str(got.value) == str(want.value)
        assert T.relabel(EMPTY, ()) is EMPTY
        with pytest.raises(T.TreeError, match="label must be >= 0"):
            T.relabel(t("(o o)"), [1, -1])

class TestSequences:
    def test_catalan(self):
        assert T.sequence("catalan", 9) == [1, 1, 2, 5, 14, 42, 132, 429, 1430]

    def test_super_catalan(self):
        assert T.sequence("super-catalan", 10) == [
            1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049]

    def test_convolution_identities_hold(self):
        # coefficientwise c = t + c^2 and s = t - t*s + 2*s^2, the
        # generating-function identities behind the two closed forms
        n = 300
        c = T.sequence("catalan", n)
        s = T.sequence("super-catalan", n)

        def square(a, k):
            return sum(a[j - 1] * a[k - j - 1] for j in range(1, k))

        for k in range(1, n + 1):
            assert c[k - 1] == (k == 1) + square(c, k)
            assert s[k - 1] == (k == 1) - (s[k - 2] if k > 1 else 0) + 2 * square(s, k)

    def test_log_catalan(self):
        assert T.sequence("log-catalan", 10) == [
            1, 1, 4, 13, 46, 166, 610, 2269, 8518, 32206]

    def test_log_derivative_of_integers_is_integers(self):
        for kind, log_kind in (("catalan", "log-catalan"),
                               ("super-catalan", "log-super-catalan")):
            counts = T.sequence(kind, 60)
            logs = T.sequence(log_kind, 60)
            assert all(type(b) is int for b in logs)
            assert T.inverse_log_derivative(logs) == counts

    def test_log_derivative_reads_the_identity(self):
        # coefficient k of (1 + A) * B = t * A', checked directly
        a = [Fraction(3, 2), -2, Fraction(-1, 3), 5, Fraction(7, 4)]
        b = T.log_derivative(a)
        for k in range(1, len(a) + 1):
            lhs = b[k - 1] + sum(b[j - 1] * a[k - j - 1] for j in range(1, k))
            assert lhs == k * a[k - 1]

    def test_exp_of_log_is_the_identity(self):
        rng = random.Random(20261018)
        for _ in range(50):
            a = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                 for _ in range(rng.randint(1, 12))]
            assert T.inverse_log_derivative(T.log_derivative(a)) == a
            assert T.log_derivative(T.inverse_log_derivative(a)) == a

    def test_log_super_catalan(self):
        assert T.sequence("log-super-catalan", 7) == [1, 1, 7, 33, 171, 901, 4831]

    def test_one_var_constants(self):
        assert T.sequence("one-var-constants", 5) == [0, 0, 1, 3, 9]

    def test_even_arity_census(self):
        logcat = T.sequence("log-catalan", 7)
        odd = T.sequence("odd-arity", 7)
        for n in range(1, 8):
            evens = sum(T.arity_census(x)[0] for x in T.enumerate_ptrees(n))
            odds = sum(T.arity_census(x)[1] for x in T.enumerate_ptrees(n))
            assert evens == logcat[n - 1]
            assert odds == odd[n - 1]


class TestPickleAndCopy:
    """Copies of a tree must be the interned tree, or identity checks and
    every cache keyed on trees silently disagree with the original."""

    COPIES = (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy)

    def test_trees_are_reinterned(self):
        for x in (EMPTY, leaf(), leaf(3), t("(x1 (x2 x1) o)"), t("((o o) o)")):
            for dup in self.COPIES:
                assert dup(x) is x

    def test_forests_survive(self):
        for f in (Forest(()), Forest((t("(o (o o))"), leaf())),
                  Forest((t("(x1 x2)"), t("((o))"), leaf(3)))):
            for dup in self.COPIES:
                assert dup(f) is f

    def test_trusted_graft_is_node(self):
        # rebuilt bottom-up on fresh labels, so every _graft call misses the
        # intern table and computes the counts itself
        def rebuild(x, labels):
            if x.is_leaf:
                return leaf(next(labels))
            return T._graft(tuple(rebuild(c, labels) for c in x.children))

        for n in range(1, 7):
            for shape in T.enumerate_trees(n):
                if shape.is_node:
                    assert T._graft(shape.children) is node(shape.children) is shape
                fresh = rebuild(shape, iter(range(9001, 9001 + n)))
                assert fresh is T.relabel(shape, range(9001, 9001 + n))
                # one "(" per internal vertex in the text form
                assert (fresh.leaf_count, fresh.vertex_count) == \
                    (n, n + T.format_tree(fresh).count("("))
                for dup in self.COPIES:
                    assert dup(fresh) is fresh

    def test_node_still_checks(self):
        with pytest.raises(EmptyArgumentError):
            node((leaf(1), EMPTY))
        with pytest.raises(T.TreeError):
            node(())

    def test_tensor_lincomb_survives(self):
        from treehopf import hopf
        from treehopf.linear import LinComb
        x = t("(x1 (x2 x1))")
        d = hopf.coadd(LinComb.of(x))
        for dup in self.COPIES:
            e = dup(d)
            assert e == d
            assert hopf.coadd(dup(LinComb.of(x))) == d


class TestForestInterning:
    """Forests are interned like trees: equality and hashing are identity,
    so every constructor must hand back the one instance."""

    def test_one_instance_per_tuple_of_trees(self):
        ts = (t("(o (o o))"), leaf(), t("(x1 x2)"))
        assert Forest(ts) is Forest(list(ts)) is Forest(iter(ts))
        assert Forest() is Forest(()) is Forest([])
        assert Forest(ts[:2]) + Forest(ts[2:]) is Forest(ts)
        assert Forest(ts) is not Forest(ts[::-1])
        assert "__eq__" not in vars(Forest) and "__hash__" not in vars(Forest)

    def test_parse_round_trip_is_the_forest(self):
        for n in range(0, 5):
            for f in T.enumerate_forests(n):
                assert T.parse_forest(T.format_forest(f)) is f

    def test_degraft_and_bijection_give_the_interned_forest(self):
        for n in range(1, 6):
            for tree in T.enumerate_ptrees(n):
                assert T.degraft(tree) is Forest(tree.children or ())
            for tree in T.enumerate_trees(n, binary=True):
                f = T.binary_to_forest(tree)
                assert f is Forest(tuple(f))
                assert f in T.enumerate_forests(f.degree)

    def test_empty_member_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(EmptyArgumentError):
                Forest((EMPTY,))
            with pytest.raises(EmptyArgumentError):
                Forest((leaf(), EMPTY))

    @pytest.mark.parametrize("member", ["x1", None, 3, ("o",), ["o"]])
    def test_member_that_is_not_a_tree_raises_tree_error(self, member):
        for _ in range(2):
            with pytest.raises(T.TreeError, match="must be a planar tree"):
                Forest([member])
            with pytest.raises(T.TreeError, match="must be a planar tree"):
                Forest([leaf(), member])


def _oracle_reduced(x):
    # the recursive definition the interned flag must agree with
    if x.children is None:
        return True
    return len(x.children) != 1 and all(_oracle_reduced(c) for c in x.children)


def _oracle_binary(x):
    if x.children is None:
        return True
    return len(x.children) == 2 and all(_oracle_binary(c) for c in x.children)


class TestShapeFlags:
    """``is_reduced`` and ``is_binary`` are set once, when a tree is
    interned, from its children's flags; they must agree with the recursive
    definitions on every tree, however it was built."""

    @staticmethod
    def _small_trees():
        out = [EMPTY] + [leaf(k) for k in range(4)]
        for n in range(1, 8):
            out += T.enumerate_ptrees(n)
        for n in range(1, 7):
            out += T.enumerate_trees(n) + T.enumerate_trees(n, binary=True)
        return out

    def assert_flags(self, x):
        assert x.is_reduced is _oracle_reduced(x), x
        assert x.is_binary is _oracle_binary(x), x

    def test_enumerated_trees(self):
        trees = self._small_trees()
        assert any(not x.is_reduced for x in trees)
        assert any(x.is_reduced and not x.is_binary for x in trees)
        for x in trees:
            self.assert_flags(x)

    def test_trees_built_every_way(self):
        rng = random.Random(5)
        for x in self._small_trees():
            if x.is_empty:
                continue
            n = x.leaf_count
            # fresh labels, so node misses the intern table on every vertex
            fresh = T.relabel(x, range(7001, 7001 + n))
            self.assert_flags(fresh)
            self.assert_flags(T.mirror(fresh))
            self.assert_flags(parse_tree(T.format_tree(fresh)))
            if x.is_node:
                self.assert_flags(node(x.children + (leaf(7000),)))
            p = rng.randint(1, n)
            self.assert_flags(T.substitute_at_leaf(fresh, p, t("(x1 (x2))")))
            self.assert_flags(T.substitute_at_leaf(fresh, p, t("(x1 x2)")))
            keep = [q for q in range(1, n + 1) if rng.random() < 0.5]
            self.assert_flags(T.leaf_restrict(fresh, keep))

    def test_identity_of_interned_trees(self):
        for k in range(4):
            assert leaf(k) is leaf(k)
        for x in self._small_trees():
            if x.is_node:
                ts = x.children
                assert node(ts) is node(list(ts)) is x

    def test_unary_vertex_is_not_its_child(self):
        u = node((leaf(1),))
        assert u is not leaf(1) and u.is_node and u.children == (leaf(1),)
        assert (u.leaf_count, u.vertex_count) == (1, 2)
        assert not u.is_reduced and not u.is_binary
        assert T.reduced(u) is leaf(1)
        for dup in TestPickleAndCopy.COPIES:
            assert dup(u) is u
            assert dup(node((u, leaf(2)))) is node((u, leaf(2)))

    def test_flags_are_read_without_recursion(self):
        # a right comb far deeper than the recursion limit, built bottom-up
        depth = 5000
        comb = leaf(1)
        for _ in range(depth):
            comb = T._graft((leaf(1), comb))
        assert comb.is_binary and comb.is_reduced
        assert len(T.right_comb_presentation(comb)) == depth
        assert T.binary_to_forest(comb).degree == depth

    def test_forest_degree(self):
        for n in range(0, 7):
            for f in T.enumerate_forests(n):
                assert f.degree == sum(x.vertex_count for x in f) == n
        assert Forest((t("(x1 (x2 x3))"), leaf(4))).degree == 6


# -- the walks, against the recursive bodies they replaced ------------------

def _old_sort_key(x):
    if x.is_empty:
        return (0, 0, -1, 0, ())
    if x.is_leaf:
        return (1, 1, 0, x.var, ())
    return (x.leaf_count, x.vertex_count, 1, len(x.children),
            tuple(_old_sort_key(c) for c in x.children))


def _old_labels(x):
    if x.is_empty:
        return ()
    if x.is_leaf:
        return (x.var,)
    out = []
    for c in x.children:
        out.extend(_old_labels(c))
    return tuple(out)


def _old_format_tree(x):
    if x.is_empty:
        return "1"
    if x.is_leaf:
        return "o" if x.var == T.ANON else "x%d" % x.var
    return "(" + " ".join(_old_format_tree(c) for c in x.children) + ")"


def _old_format_malcev(x):
    if x.is_leaf:
        return "o" if x.var == T.ANON else "x%d" % x.var
    return "c" + _old_format_malcev(x.children[0]) + _old_format_malcev(x.children[1])


def _old_substitute_at_leaf(t1, position, t2):
    def go(x, pos):
        if x.is_leaf:
            return t2 if pos == 1 else x
        out = []
        for c in x.children:
            if 1 <= pos <= c.leaf_count:
                out.append(go(c, pos))
            else:
                out.append(c)
            pos -= c.leaf_count
        return node(out)

    return go(t1, position)


def _fold_substitute_at_leaf(t1, position, t2):
    return T._fold(t1, lambda v, rs: T._graft(tuple(rs)),
                   lambda i, s: t2 if i == position else s)


def _old_mirror(x):
    if x.is_node:
        return node(tuple(_old_mirror(c) for c in reversed(x.children)))
    return x


def _old_reduced(x):
    if x.is_node:
        if len(x.children) == 1:
            return _old_reduced(x.children[0])
        return node(tuple(_old_reduced(c) for c in x.children))
    return x


def _old_sorted_children(x):
    if x.is_node:
        kids = sorted((_old_sorted_children(c) for c in x.children),
                      key=T.PlanarTree.sort_key)
        return node(tuple(kids))
    return x


def _old_leaf_restrict(x, keepset):
    if x.is_empty:
        return EMPTY

    def go(x, offset):
        if x.is_leaf:
            return x if (offset + 1) in keepset else EMPTY
        kept = []
        for c in x.children:
            r = go(c, offset)
            if not r.is_empty:
                kept.append(r)
            offset += c.leaf_count
        return node(kept) if kept else EMPTY

    return go(x, 0)


def _old_admissible_cuts(x):
    out = [(Forest((x,)), EMPTY)]
    if x.is_leaf:
        out.append((Forest(()), x))
        return out
    for parts in itertools.product(*(_old_admissible_cuts(c) for c in x.children)):
        branches = Forest(())
        kept = []
        for bf, trunk in parts:
            branches = branches + bf
            if not trunk.is_empty:
                kept.append(trunk)
        out.append((branches, T.graft(kept)))
    return out


def _old_comb_graft(ts):
    ts = tuple(ts)
    if not ts:
        return leaf(T.ANON)
    return node((ts[0], _old_comb_graft(ts[1:])))


def _old_binary_to_forest(x):
    return Forest(tuple(T.graft(_old_binary_to_forest(s))
                        for s in T.right_comb_presentation(x)))


def _old_forest_to_binary(f):
    return _old_comb_graft(tuple(_old_forest_to_binary(T.degraft(x)) for x in f))


def _old_arity_census(x):
    if x.is_empty:
        return (0, 0)
    if x.is_leaf:
        return (1, 0)
    even = 1 if len(x.children) % 2 == 0 else 0
    odd = 1 - even
    for c in x.children:
        e, o = _old_arity_census(c)
        even += e
        odd += o
    return (even, odd)


class TestWalks:
    """The structural maps walk a tree through ``trees._walk``/``_fold``
    and read the order key stored at interning; they must agree with the
    recursive bodies they replaced, and work at any depth."""

    @staticmethod
    def _trees():
        out = [EMPTY, leaf(0), leaf(3)]
        for n in range(1, 8):
            out += T.enumerate_ptrees(n)
        for n in range(1, 7):
            for shape in T.enumerate_trees(n):
                out.append(T.relabel(shape, range(1, n + 1)))
                out.append(T.relabel(shape, [1 + i % 2 for i in range(n)]))
        return out

    def test_maps_equal_the_recursions(self):
        for x in self._trees():
            assert x.sort_key() == _old_sort_key(x), x
            assert x.labels() == _old_labels(x), x
            assert T.format_tree(x) == _old_format_tree(x), x
            assert T.mirror(x) is _old_mirror(x), x
            assert T.reduced(x) is _old_reduced(x), x
            assert T.sorted_children(x) is _old_sorted_children(x), x
            assert T.arity_census(x) == _old_arity_census(x), x
            if not x.is_empty:
                assert T.admissible_cuts(x) == _old_admissible_cuts(x), x
            if x.is_binary and not x.is_empty:
                assert T.format_malcev(x) == _old_format_malcev(x), x
                assert T.binary_to_forest(x) is _old_binary_to_forest(x), x
                seq = T.right_comb_presentation(x)
                assert T.comb_graft(seq) is _old_comb_graft(seq), x

    def test_forests(self):
        for n in range(0, 7):
            for f in T.enumerate_forests(n):
                assert f.sort_key() == (n, len(f), tuple(_old_sort_key(x) for x in f))
                assert T.forest_to_binary(f) is _old_forest_to_binary(f), f

    def test_leaf_restrict_to_every_subset(self):
        for x in self._trees():
            n = x.leaf_count
            for k in range(n + 1):
                for keep in itertools.combinations(range(1, n + 1), k):
                    assert T.leaf_restrict(x, keep) is \
                        _old_leaf_restrict(x, set(keep)), (x, keep)

    def test_substitute_at_every_position(self):
        for x in self._trees():
            for p in range(1, x.leaf_count + 1):
                for t2 in (leaf(4), t("(x1 (x2))")):
                    assert T.substitute_at_leaf(x, p, t2) is \
                        _old_substitute_at_leaf(x, p, t2), (x, p)

    def test_substitute_regrafts_what_the_fold_rebuilt(self):
        # the path descent against the fold over every vertex it replaced
        trees = [leaf(0), leaf(3)]
        for n in range(1, 9):
            trees += T.enumerate_ptrees(n)
        for n in range(1, 7):
            for shape in T.enumerate_trees(n):
                trees.append(T.relabel(shape, range(1, n + 1)))
                trees.append(T.relabel(shape, [1 + i % 2 for i in range(n)]))
        for x in trees:
            for p in range(1, x.leaf_count + 1):
                for t2 in (leaf(4), t("(x1 (x2))")):
                    assert T.substitute_at_leaf(x, p, t2) is \
                        _fold_substitute_at_leaf(x, p, t2), (x, p)
        depth = 5000
        comb = parse_tree("(x1 " * depth + "x2" + ")" * depth)
        for p in (1, 2, depth // 2, depth, depth + 1):
            got = T.substitute_at_leaf(comb, p, t("(x3 x4)"))
            assert got is _fold_substitute_at_leaf(comb, p, t("(x3 x4)")), p
            assert got.labels()[p - 1:p + 1] == (3, 4), p

    def test_every_interned_key_is_its_childrens(self):
        # one step of the recursive formula on every tree interned so far,
        # so, by induction on depth, the formula itself on each of them
        self._trees()
        for x in list(T._interned.values()) + [EMPTY]:
            if x.is_node:
                assert x._key == (x.leaf_count, x.vertex_count, 1, len(x.children),
                                  tuple(c._key for c in x.children)), x
            else:
                assert x._key == _old_sort_key(x), x

    def test_deep_trees(self):
        depth = 5000
        comb = parse_tree("(x1 " * depth + "x2" + ")" * depth)
        chain = parse_tree("(" * depth + "x2" + ")" * depth)
        for x in (comb, chain):
            assert parse_tree(T.format_tree(x)) is x
            assert T.mirror(T.mirror(x)) is x
            assert T.leaf_restrict(x, [x.leaf_count]) is chain
            assert T.substitute_at_leaf(x, x.leaf_count, leaf(3)).labels()[-2:] == \
                x.labels()[-2:-1] + (3,)
        assert T.mirror(comb).children[1] is leaf(1)
        assert comb.labels() == (1,) * depth + (2,)
        assert chain.labels() == (2,)
        assert T.reduced(comb) is comb and T.reduced(chain) is leaf(2)
        assert T.sorted_children(comb).children[0] is leaf(1)
        assert T.arity_census(comb) == (2 * depth + 1, 0)
        assert T.arity_census(chain) == (1, depth)
        assert T.format_malcev(comb) == "cx1" * depth + "x2"
        # the forest bijection both ways, on a right and a left comb
        anon = T.comb_graft([leaf()] * depth)
        left = leaf()
        for _ in range(depth):
            left = node((left, leaf()))
        for x in (anon, left):
            assert T.forest_to_binary(T.binary_to_forest(x)) is x
        assert T.binary_to_forest(left).trees[0].vertex_count == depth

    def test_cuts_of_a_chain_past_the_recursion_limit(self):
        # a chain of d vertices over a leaf has d + 2 cuts, built in time
        # quadratic in d, so the depth stays near the recursion limit
        depth = 1000
        chain = parse_tree("(" * depth + "o" + ")" * depth)
        cuts = T.admissible_cuts(chain)
        assert len(cuts) == depth + 2
        assert cuts[:2] == [(Forest((chain,)), EMPTY),
                            (Forest((chain.children[0],)), leaf())]
        assert cuts[-1] == (Forest(()), chain)
