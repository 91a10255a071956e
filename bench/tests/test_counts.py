"""The traced run's counts repeat exactly: across two traced runs and two
seeds (job orders), in fresh traced workers.

The job lists are small versions of the three workloads, so the test runs
in seconds; the full workloads are compared the same way by running
``bench/run.py --trace 1`` with two seeds.
"""

import os
import random
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

JOBS = ([["prim_rank", op, d] for op, top in (("mag", 6), ("magw", 5))
         for d in range(1, top + 1)]
        + [["cli", "prim-dim", "--operad", op, "--degree", str(n),
            "--multilinear", "--format", "json"]
           for op, top in (("mag", 4), ("magw", 3)) for n in range(1, top + 1)]
        + [["cli", "verify", check, "--max-degree", "3", "--format", "json"]
           for check in ("coassoc", "antipodes", "isos", "shuffles")])


def traced_counts(seed, tmp_path):
    jobs = list(JOBS)
    random.Random(seed).shuffle(jobs)
    w = run.Worker(str(tmp_path / ("spans-%d.json" % seed)))
    try:
        for job in jobs:
            w.send({"job": job})
            reply = w.recv()
            assert "error" not in reply and reply.get("exit", 0) == 0, (job, reply)
        done = w.finish(wall_s=1.0, overhead_s=0.0)
    finally:
        w.close()
    return {name: done["layers"][name] for name in layers.COUNTS}


def test_counts_repeat_across_runs_and_seeds(tmp_path):
    runs = [traced_counts(seed, tmp_path) for seed in (1, 2, 1, 2)]
    assert runs[0]["trees.restrict_calls"] > 0
    assert runs[0]["linear.rank_total"] > 0
    assert runs[0]["dendriform.coproduct_calls"] > 0
    for other in runs[1:]:
        assert other == runs[0]


def test_answers_are_checked():
    oracle = {"mag": [1, 0, 1], "magw": [1, 0, 2]}
    assert workloads.check(["prim_rank", "mag", 3], {"value": 1}, oracle) == ""
    assert workloads.check(["prim_rank", "mag", 3], {"value": 2}, oracle)
    assert workloads.check(["prim_rank", "mag", 3], {"error": "boom"}, oracle)
    # the paper's table and the oracle are checked separately
    assert workloads.check(["prim_rank", "mag", 3], {"value": 2},
                           {"mag": [1, 0, 2]})
    prim = workloads.jobs("multilinear-kernel", 0)[0]
    op, n = prim[3], int(prim[5])
    good = {"exit": 0, "json": {"primDim": workloads.MULTILINEAR_DIMS[op][n - 1],
                                "match": True}}
    assert workloads.check(prim, good, oracle) == ""
    assert workloads.check(prim, dict(good, exit=1), oracle)
    ver = workloads.jobs("verify-all-d6", 0)[0]
    checks = {c: True for c in workloads.VERIFY_CHECKS}
    assert workloads.check(ver, {"exit": 0, "json": {"ok": True, "checks": checks}},
                           oracle) == ""
    checks["isos"] = False
    assert workloads.check(ver, {"exit": 0, "json": {"ok": True, "checks": checks}},
                           oracle)


def test_oracle_agrees_with_the_paper_table():
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
    from treehopf.trees import sequence
    assert workloads.oracle_dims(sequence) == workloads.ONEVAR_DIMS


def test_seed_permutes_jobs_only():
    for w in workloads.WORKLOADS:
        a, b = workloads.jobs(w, 1), workloads.jobs(w, 2)
        assert sorted(a) == sorted(b)
        assert workloads.jobs(w, 1) == a
