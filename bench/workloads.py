"""The benchmark's workloads: job lists made from a seed, and the checks of
every answer.

A job is a JSON list the worker knows how to run:
``["prim_rank", operad, degree]`` is
``primitives.prim_rank(primitives.component(operad, degree=degree))``;
``["cli", arg, ...]`` is ``cli.main([arg, ...])`` with its stdout captured
and parsed as JSON.
"""

from __future__ import annotations

import random

# One-variable primitive dimensions (source paper's co-addition kernel).
ONEVAR_DIMS = {"mag": [1, 0, 1, 3, 9, 27, 87, 282],
               "magw": [1, 0, 2, 8, 34, 149, 690]}
# Multilinear primitive dimensions: the paper's 1, 1, 8, 78, 1104 and
# 1, 1, 14, 198.
MULTILINEAR_DIMS = {"mag": [1, 1, 8, 78, 1104], "magw": [1, 1, 14, 198]}
VERIFY_CHECKS = ("sequences", "census", "coproducts", "coassoc", "derivatives",
                 "antipodes", "taylor", "prim-dims", "jacobi", "pbw",
                 "highest-weights", "isos", "shuffles", "constants")
# Component dimensions the oracle inverts: trees.sequence(kind, n).
ORACLE_SEQUENCES = {"mag": "catalan", "magw": "super-catalan"}

WORKLOADS = ("onevar-census", "multilinear-kernel", "verify-all-d6")


def jobs(workload: str, seed: int) -> list:
    """The workload's jobs in the order the seed picks."""
    if workload == "onevar-census":
        out = [["prim_rank", op, d] for op, dims in ONEVAR_DIMS.items()
               for d in range(1, len(dims) + 1)]
    elif workload == "multilinear-kernel":
        out = [["cli", "prim-dim", "--operad", op, "--degree", str(n),
                "--multilinear", "--format", "json"]
               for op, dims in MULTILINEAR_DIMS.items()
               for n in range(1, len(dims) + 1)]
    elif workload == "verify-all-d6":
        out = [["cli", "verify", "all", "--max-degree", "6", "--format", "json"]]
    else:
        raise ValueError("unknown workload %r" % workload)
    random.Random(seed).shuffle(out)
    return out


def inverse_euler(a: list) -> list:
    """b with prod_k (1 - x^k)^(-b_k) = 1 + sum_n a_n x^n (a, b from n = 1)."""
    n_max = len(a)
    c = []
    for n in range(1, n_max + 1):
        c.append(n * a[n - 1] - sum(c[k - 1] * a[n - k - 1] for k in range(1, n)))
    b = []
    for n in range(1, n_max + 1):
        total = sum(_mobius(n // d) * c[d - 1] for d in range(1, n + 1)
                    if n % d == 0)
        if total % n:
            raise ArithmeticError("inverse Euler transform is not integral")
        b.append(total // n)
    return b


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def oracle_dims(sequence) -> dict:
    """One-variable primitive dimensions from the component dimensions
    alone; ``sequence`` is ``treehopf.trees.sequence``."""
    return {op: inverse_euler(sequence(ORACLE_SEQUENCES[op], len(dims)))
            for op, dims in ONEVAR_DIMS.items()}


def check(job: list, reply: dict, oracle: dict) -> str:
    """Empty string when the worker's reply to ``job`` is right, else why not."""
    if "error" in reply:
        return reply["error"]
    if job[0] == "prim_rank":
        op, d = job[1], job[2]
        got = reply.get("value")
        if got != ONEVAR_DIMS[op][d - 1]:
            return "%s degree %d: %r, paper %r" % (op, d, got, ONEVAR_DIMS[op][d - 1])
        if got != oracle[op][d - 1]:
            return "%s degree %d: %r, oracle %r" % (op, d, got, oracle[op][d - 1])
        return ""
    if reply.get("exit") != 0:
        return "exit code %r" % reply.get("exit")
    doc = reply.get("json") or {}
    if job[1] == "prim-dim":
        op, n = job[3], int(job[5])
        want = MULTILINEAR_DIMS[op][n - 1]
        if doc.get("primDim") != want or doc.get("match") is not True:
            return "%s n=%d: primDim %r match %r, paper %r" % (
                op, n, doc.get("primDim"), doc.get("match"), want)
        return ""
    checks = doc.get("checks") or {}
    bad = [c for c in VERIFY_CHECKS if checks.get(c) is not True]
    if doc.get("ok") is not True or bad or len(checks) != len(VERIFY_CHECKS):
        return "verify: ok %r, failing or missing %s" % (doc.get("ok"), bad)
    return ""
