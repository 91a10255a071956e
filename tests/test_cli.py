import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treehopf import cli
from treehopf import linear as L


def run(argv, stdin=None, capsys=None):
    return cli.main(argv)


def test_seq_log_catalan(capsys):
    assert cli.main(["seq", "log-catalan", "--count", "7"]) == 0
    assert capsys.readouterr().out.strip() == "1 1 4 13 46 166 610"


def test_parser_is_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["seq", "catalan", "--count", "3"]) == 0
    assert cli.main(["seq", "catalan", "--nope"]) == 2
    assert cli.main(["seq", "catalan", "--count", "2"]) == 0
    assert capsys.readouterr().out.split("\n")[:2] == ["1 1 2", "1 1"]


def test_seq_json_schema(capsys):
    assert cli.main(["seq", "catalan", "--count", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["values"] == [1, 1, 2]


def test_seq_above_the_count_cap_exit_2_before_computing(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a sequence was computed above the cap")

    monkeypatch.setattr(cli, "sequence", refuse)
    for count in (cli.SEQ_CAP + 1, 20000):
        assert cli.main(["seq", "catalan", "--count", str(count)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--count must be <= %d, got %d" % (cli.SEQ_CAP, count) in captured.err


def test_seq_at_the_count_cap_runs(capsys):
    import math
    n = cli.SEQ_CAP
    assert cli.main(["seq", "catalan", "--count", str(n), "--format", "json"]) == 0
    vals = json.loads(capsys.readouterr().out)["values"]
    # C_{n-1} = binomial(2n - 2, n - 1) / n, independently of the convolution
    assert len(vals) == n and vals[-1] == math.comb(2 * n - 2, n - 1) // n


def test_coproduct(capsys):
    assert cli.main(["coproduct", "--kind", "coadd", "(x1 x2)"]) == 0
    out = capsys.readouterr().out.strip()
    assert L.parse_poly(out) == L.parse_poly(
        "(x1 x2) (x) 1 + 1 (x) (x1 x2) + x1 (x) x2 + x2 (x) x1")


def test_coproduct_kinds(capsys):
    for kind, arg in (("lr", "(o o)"), ("bf", "(o o)"), ("ck", "[o]")):
        assert cli.main(["coproduct", "--kind", kind, arg]) == 0
        out = capsys.readouterr().out.strip()
        assert L.parse_poly(out) == L.parse_poly(out)


def _balanced(lo, hi):
    if lo == hi:
        return "x%d" % lo
    mid = (lo + hi) // 2
    return "(%s %s)" % (_balanced(lo, mid), _balanced(mid + 1, hi))


def test_coproduct_above_the_cap_exit_2(capsys):
    # the printed vertices: 2^16 terms of about 30 vertices for 16 distinct
    # labels, and 2 (d + 1)^2 for a right comb of d levels, the cap at 255
    def comb(depth):
        return "(x1 " * depth + "x1" + ")" * depth

    for arg, count in ((_balanced(1, 16), 1966082), (comb(256), 132098),
                       (comb(300), 181202)):
        assert cli.main(["coproduct", arg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("the coproduct's printed vertices must be <= %d, got %d"
                % (cli.COPRODUCT_CAP, count)) in captured.err
    for arg in (_balanced(1, 12), comb(255)):
        assert cli.main(["coproduct", arg]) == 0
        assert capsys.readouterr().out.count(" + ") > 200
    from test_golden_outputs import GOLDEN
    coproducts = [argv for argv, _ in GOLDEN if argv[0] == "coproduct"]
    assert len(coproducts) >= 8
    for argv in coproducts:
        assert cli.main(list(argv)) == 0
        capsys.readouterr()


def test_shuffle(capsys):
    assert cli.main(["shuffle", "x1", "x1"]) == 0
    assert capsys.readouterr().out.strip() == "2*(x1 x1)"


def test_derive(capsys):
    assert cli.main(["derive", "--var", "2", "(x1 ((x1 x2) x2))"]) == 0
    assert capsys.readouterr().out.strip() == "2*(x1 (x1 x2))"
    assert cli.main(["derive", "--var", "1", "--to", "2", "x1"]) == 0
    assert capsys.readouterr().out.strip() == "x2"


def test_dtree(capsys):
    assert cli.main(["dtree", "x1", "(x1 x1)"]) == 0
    assert capsys.readouterr().out.strip() == "2*x1"


def test_taylor(capsys):
    assert cli.main(["taylor", "--vars", "1", "(x1 (x1 x1))"]) == 0
    out = capsys.readouterr().out
    assert "[0]:" in out and "[3]: 1" in out


def test_taylor_above_the_vars_cap_exit_2_before_expanding(monkeypatch, capsys):
    from treehopf import magma

    def refuse(*args):
        raise AssertionError("a Taylor expansion ran above the cap")

    monkeypatch.setattr(magma, "taylor_expand", refuse)
    for nvars in (cli.VARS_CAP + 1, 5000000, 99999999999):
        assert cli.main(["taylor", "--vars", str(nvars), "o"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --vars must be <= %d, got %d"
                                       % (cli.VARS_CAP, nvars))


def test_taylor_at_the_vars_cap_runs(capsys):
    n = cli.VARS_CAP
    assert cli.main(["taylor", "--vars", str(n), "--format", "json",
                     "(x1 x%d)" % n]) == 0
    coeffs = json.loads(capsys.readouterr().out)["coefficients"]
    # (x1 xn) = [1] x1 xn: one coefficient, with exponent 1 at x1 and at xn
    assert [len(c["exponents"]) for c in coeffs] == [n]
    assert coeffs[0]["exponents"] == [1] + [0] * (n - 2) + [1]
    assert coeffs[0]["value"] == "1"


def test_prim_dim_json(capsys):
    rc = cli.main(["prim-dim", "--operad", "magw", "--degree", "3",
                   "--multilinear", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["primDim"] == 14 and payload["match"]


def test_hw_dim(capsys):
    assert cli.main(["hw-dim", "--multidegree", "3,1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "10"


def test_hw_dim_json_names_its_operad(capsys):
    for operad, dim in (("mag", 10), ("magw", 25)):
        assert cli.main(["hw-dim", "--operad", operad, "--multidegree", "3,1",
                         "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1 and payload["operad"] == operad
        assert payload["dim"] == dim


def test_verify_jacobi(capsys):
    assert cli.main(["verify", "jacobi"]) == 0
    out = capsys.readouterr().out
    assert "PASS jacobi" in out


def test_verify_json(capsys):
    assert cli.main(["verify", "sequences", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1 and payload["ok"]


def test_iso(capsys):
    assert cli.main(["iso", "xi", "[o]"]) == 0
    assert capsys.readouterr().out.strip() == "(o o)"
    assert cli.main(["iso", "theta", "(o o)"]) == 0
    assert capsys.readouterr().out.strip() == "[o]"
    assert cli.main(["iso", "psi", "(o (o o))"]) == 0
    assert capsys.readouterr().out.strip() == "(o (o o)) - ((o o) o)"


def test_trees(capsys):
    assert cli.main(["trees", "4", "--binary", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 5


def test_trees_above_the_cap_exit_2_before_enumerating(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("trees were enumerated above the cap")

    monkeypatch.setattr(cli, "enumerate_trees", refuse)
    for argv, count in ((["trees", "13"], "13648869"),
                        (["trees", "16", "--binary"], "9694845"),
                        (["trees", "13", "--vars", "2", "--format", "json"], "13648869"),
                        (["trees", "40"], "more than 10^15"),
                        (["trees", "40", "--binary"], "more than 10^15")):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("the enumeration has %s trees" % count in captured.err
                and "cap of 3000000" in captured.err)
        assert "treehopf.trees.enumerate_trees" in captured.err


def test_trees_at_or_below_the_cap_run(monkeypatch, capsys):
    # enumeration is stubbed at the real cap; a lowered cap runs it for real
    ran = []
    monkeypatch.setattr(cli, "enumerate_trees",
                        lambda n, binary, labels: ran.append((n, binary)) or [])
    for argv in (["trees", "12"], ["trees", "15", "--binary"]):
        assert cli.main(argv) == 0, argv
    assert ran == [(12, False), (15, True)]
    monkeypatch.undo()
    monkeypatch.setattr(cli, "TREES_CAP", 11)
    assert cli.main(["trees", "4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 11
    assert cli.main(["trees", "5"]) == 2
    assert "the enumeration has 45 trees" in capsys.readouterr().err


def test_usage_error_exit_2(capsys):
    assert cli.main(["coproduct", "--kind", "nope", "x1"]) == 2
    assert cli.main(["derive", "--var", "1", "(x1"]) == 2
    assert cli.main(["nonsense"]) == 2


def test_non_positive_variable_indices_exit_2(capsys):
    for argv in (["derive", "--var", "-1", "(x1 x2)"],
                 ["derive", "--var", "0", "(x1 x2)"],
                 ["derive", "--var", "1", "--to", "0", "(x1 x1)"],
                 ["taylor", "--vars", "0", "(x1 x1)"],
                 ["taylor", "--vars", "-2", "(x1 x1)"],
                 ["trees", "3", "--vars", "-1"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "must be >=" in captured.err


def test_negative_multidegree_exit_2(capsys):
    assert cli.main(["hw-dim", "--multidegree=2,-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be >= 0" in captured.err


def _left_comb(n):
    # the binary tree with n internal vertices on its left spine
    text = "o"
    for _ in range(n):
        text = "(%s o)" % text
    return text


def _forest_of_vertices(n):
    return "[" + "; ".join(["o"] * n) + "]"


def test_iso_above_the_cap_exit_2_before_the_map(monkeypatch, capsys):
    from treehopf import isos

    def refuse(f):
        raise AssertionError("an isomorphism ran above the cap")

    for name in isos._MAPS:
        monkeypatch.setitem(isos._MAPS[name], "apply", refuse)
    for argv, dim in ((["iso", "xi", _forest_of_vertices(12)], "208012"),
                      (["iso", "theta", _left_comb(12)], "208012"),
                      (["iso", "psi", _left_comb(12)], "208012"),
                      (["iso", "theta", "(o o) + " + _left_comb(13)], "742900"),
                      (["iso", "xi", _forest_of_vertices(40)], "more than 10^15"),
                      (["iso", "psi", _left_comb(30)], "more than 10^15")):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert dim in captured.err and "cap of 60000" in captured.err
        assert "treehopf.isos." + argv[1] in captured.err


def test_iso_at_or_below_the_cap_runs(monkeypatch, capsys):
    # the maps are stubbed: only the side of the cap is checked here
    from treehopf import isos
    ran = []
    for name in isos._MAPS:
        monkeypatch.setitem(isos._MAPS[name], "apply",
                            lambda f, name=name: ran.append(name) or L.LinComb())
    for argv in (["iso", "xi", _forest_of_vertices(11)],
                 ["iso", "theta", _left_comb(11)],
                 ["iso", "psi", "(o o) + " + _left_comb(11)],
                 ["iso", "xi", "0"]):
        assert cli.main(argv) == 0, argv
    assert ran == ["xi", "theta", "psi", "xi"]


def test_iso_at_a_lowered_cap(monkeypatch, capsys):
    # C_5 = 42 forests of 5 vertices and binary trees of 5 internal vertices
    for argv in (["iso", "xi", _forest_of_vertices(5)],
                 ["iso", "theta", _left_comb(5)]):
        monkeypatch.setattr(cli, "AMBIENT_CAP", 41)
        assert cli.main(argv) == 2
        assert "the component has 42 basis elements" in capsys.readouterr().err
        monkeypatch.setattr(cli, "AMBIENT_CAP", 42)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.strip()


def test_components_above_the_cap_exit_2_before_any_basis(monkeypatch, capsys):
    from treehopf import magma

    def refuse(*args):
        raise AssertionError("a basis was built above the cap")

    monkeypatch.setattr(magma, "monomial_basis", refuse)
    for argv, dim in ((["prim-dim", "--degree", "7", "--multilinear"], "665280"),
                      (["hw-dim", "--multidegree", "3,3,3"], "2402400"),
                      (["prim-dim", "--operad", "magw", "--degree", "10"], "103049"),
                      (["prim-dim", "--degree", "1000000"], "more than 10^15"),
                      (["prim-dim", "--degree", str(10 ** 12), "--multilinear"],
                       "more than 10^15")):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert dim in captured.err and "cap of 60000" in captured.err
        assert "primitives.component" in captured.err


def test_components_at_or_below_the_cap_run(monkeypatch, capsys):
    # the computations are stubbed: only the side of the cap is checked here
    from treehopf import primitives
    ran = []
    monkeypatch.setattr(primitives, "component",
                        lambda operad, **desc: ran.append(desc))
    monkeypatch.setattr(primitives, "component_report",
                        lambda comp: {"ambientDim": 0, "primDim": 0, "basisSample": []})
    monkeypatch.setattr(primitives, "highest_weight_sample",
                        lambda md, constraint, sample, operad: ran.append(md) or (0, []))
    assert primitives.ambient_dim("mag", (1,) * 6) == 30240
    assert primitives.ambient_dim("mag", (12,)) == 58786
    for argv in (["prim-dim", "--degree", "6", "--multilinear"],
                 ["prim-dim", "--degree", "12"],
                 ["hw-dim", "--multidegree", "2,2,2"]):
        assert cli.main(argv) == 0, argv
    assert ran == [{"multilinear": 6}, {"degree": 12}, (2, 2, 2)]


def test_component_at_a_lowered_cap(monkeypatch, capsys):
    argv = ["prim-dim", "--degree", "4", "--multilinear"]
    monkeypatch.setattr(cli, "AMBIENT_CAP", 119)
    assert cli.main(argv) == 2
    assert "the component has 120 basis elements" in capsys.readouterr().err
    monkeypatch.setattr(cli, "AMBIENT_CAP", 120)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("ambient 120, primitive 78\n")


def test_empty_verify_sweep_exit_2(capsys):
    for argv in (["verify", "coassoc", "--max-degree", "0"],
                 ["verify", "antipodes", "--max-degree", "-3"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "--max-degree must be >= 1" in captured.err


def test_verify_degree_cap_refuses_before_any_check(monkeypatch, capsys):
    from treehopf import verify
    ran = []

    def failing(max_degree):
        ran.append(max_degree)
        return {"ok": False}

    monkeypatch.setitem(verify.CHECKS, "coassoc", failing)
    cap = cli.VERIFY_DEGREE_CAP
    assert cap == 9
    for argv in (["verify", "coassoc", "--max-degree", str(cap + 1)],
                 ["verify", "all", "--max-degree", "30"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and ran == []
        assert "--max-degree must be <= 9, got %s" % argv[-1] in captured.err
        assert "verify.run_checks" in captured.err
    assert cli.main(["verify", "coassoc", "--max-degree", str(cap)]) == 1
    assert ran == [cap]
    assert capsys.readouterr().out.startswith("FAIL coassoc")


def test_malformed_multidegree_exit_2(capsys):
    for text in ("", "1,,2", "2,x", "3,1,"):
        assert cli.main(["hw-dim", "--multidegree", text]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("--multidegree takes comma-separated integers, got %r" % text
                in captured.err)


def test_negative_sample_exit_2(capsys):
    assert cli.main(["hw-dim", "--multidegree", "3,1", "--sample", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--sample must be >= 0" in captured.err
    assert cli.main(["hw-dim", "--multidegree", "3,1", "--sample", "0"]) == 0
    assert capsys.readouterr().out.strip() == "10"


@pytest.mark.parametrize("argv, expected", [
    (["coproduct", "--kind", "ck", "(o o)"], "forests"),
    (["coproduct", "--kind", "lr", "[o; o]"], "binary trees"),
    (["coproduct", "--kind", "coadd", "[o; o]"], "trees"),
    (["coproduct", "--kind", "lr", "(x1 x2)"], "anonymous leaves"),
    (["coproduct", "--kind", "bf", "(x1 x2)"], "anonymous leaves"),
    (["iso", "theta", "[o]"], "binary trees"),
    (["iso", "xi", "(o o)"], "forests"),
    (["iso", "psi", "(x1 x2)"], "anonymous leaves"),
    (["shuffle", "[o]", "x1"], "reduced trees"),
    (["derive", "--var", "1", "[x1]"], "reduced trees"),
    (["taylor", "--vars", "1", "[x1]"], "reduced trees"),
    (["derive", "--var", "1", "x1 (x) x1"], "reduced trees"),
    (["dtree", "[x1]", "(x1 x2)"], "reduced trees"),
    (["shuffle", "x1 (x) x1", "x1"], "reduced trees"),
    (["coproduct", "--kind", "coadd", "((x1 x2))"], "reduced trees"),
    (["shuffle", "--operad", "mag", "(x1 x2 x3)", "x1"], "binary reduced trees"),
    (["shuffle", "--operad", "mag", "x1", "((x1 x2) x1 x2)"], "binary reduced trees"),
    (["iso", "xi", "[x1]"], "forests"),
    (["coproduct", "--kind", "ck", "[(x1 o)]"], "forests"),
])
def test_basis_of_the_wrong_kind_exit_2(capsys, argv, expected):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "basis is" in captured.err
    assert expected in captured.err


_NESTED = "error: input nested too deeply\n"
_COADD = "error: the coadd basis is reduced trees, got {}\n"
_LR = "error: the lr basis is non-empty binary trees with anonymous leaves, got {}\n"
_CAPPED = ("error: the component has more than 10^15 basis elements, above the cap "
           "of 60000; treehopf.isos.theta computes it uncapped\n")

# every command that parses a polynomial argument, with the leaf its basis
# takes and its error on a unary chain and on a right comb ({} is the input)
_DEEP_COMMANDS = [
    (["derive", "--var", "1"], "x1", _COADD, _NESTED),
    (["coproduct", "--kind", "coadd"], "x1", _COADD, _NESTED),
    (["coproduct", "--kind", "lr"], "o", _LR, _NESTED),
    (["shuffle", "x1"], "x1", _COADD, _NESTED),
    (["dtree", "x1"], "x1", _COADD, _NESTED),
    (["taylor", "--vars", "1"], "x1", _COADD, _NESTED),
    (["iso", "theta"], "o", _LR, _CAPPED),
]


def test_deep_nesting_exit_2(capsys):
    # the basis checks and their messages walk the input without recursion,
    # so a unary chain gets its real diagnosis
    for argv, leaf, chain_error, comb_error in _DEEP_COMMANDS:
        for opener, expected in (("(", chain_error), ("(%s " % leaf, comb_error)):
            deep = opener * 3000 + leaf + ")" * 3000
            assert cli.main(argv + [deep]) == 2, (argv, opener)
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == expected.format(deep), \
                (argv, opener)


def test_deep_right_comb_is_derived(capsys):
    # the derivation recursion takes one Python frame per nesting level, so
    # a comb the parser accepts stays within the recursion limit
    depth = 300
    comb = "(x1 " * depth + "x1" + ")" * depth
    assert cli.main(["derive", "--var", "1", comb]) == 0
    shorter = "(x1 " * (depth - 1) + "x1" + ")" * (depth - 1)
    assert capsys.readouterr().out.strip() == "%d*%s" % (depth + 1, shorter)
    assert cli.main(["derive", "--var", "1", "--to", "2", comb]) == 0
    assert capsys.readouterr().out.count("x2") == depth + 1


def test_right_comb_deeper_than_printing_recursed_is_derived(capsys):
    depth = 400
    comb = "(x1 " * depth + "x1" + ")" * depth
    assert cli.main(["derive", "--var", "1", comb]) == 0
    shorter = "(x1 " * (depth - 1) + "x1" + ")" * (depth - 1)
    assert capsys.readouterr().out == "%d*%s\n" % (depth + 1, shorter)


def test_trees_vars_zero_is_unlabeled(capsys):
    assert cli.main(["trees", "3", "--vars", "0"]) == 0
    assert capsys.readouterr().out.split("\n")[0] == "(o o o)"


def test_round_trip_of_printed_output(capsys):
    for argv in (["coproduct", "--kind", "lr", "((o o) o)"],
                 ["shuffle", "(x1 x2)", "x1"],
                 ["iso", "theta", "((o o) (o o))"]):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out.strip()
        assert L.format_poly(L.parse_poly(out)) == out


def test_stdin_dash(monkeypatch, capsys):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO("(x1 x1)"))
    assert cli.main(["derive", "--var", "1", "-"]) == 0
    assert capsys.readouterr().out.strip() == "2*x1"


def _src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_python_dash_m():
    proc = subprocess.run([sys.executable, "-m", "treehopf", "seq", "catalan",
                           "--count", "3"], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 1 2"


def test_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, a large share of the start-up time
    code = ("import sys, treehopf.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_closed_stdout_exits_1_without_traceback():
    # 110 KB of output, more than the pipe holds, so the write after the
    # reader has gone fails with EPIPE
    for fmt in ("text", "json"):
        proc = subprocess.Popen([sys.executable, "-m", "treehopf", "trees", "8",
                                 "--format", fmt],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=_src_env())
        assert proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_installed_entry_point():
    proc = subprocess.run(["treehopf", "seq", "catalan", "--count", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 1 2 5"
