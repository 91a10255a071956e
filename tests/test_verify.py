"""``verify.run_checks``: the pool of forked workers gives the reports the
checks give in process, in request order, and leaves no worker behind."""

import multiprocessing
import os
import random
import subprocess
import sys

import pytest

from treehopf import verify

NAMES = list(verify.CHECKS)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the pool forks its workers")


@pytest.fixture
def two_workers(monkeypatch):
    """Make ``run_checks`` use a pool of two workers, on one CPU if need be."""
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)


def _without_seconds(rep: dict) -> dict:
    return {k: v for k, v in rep.items() if k != "seconds"}


def _plain_types(o, path="report"):
    """The paths in ``o`` holding anything but builtin plain data."""
    if type(o) is dict:
        return ([path + " key %r" % k for k in o if type(k) is not str]
                + [p for k, v in o.items() for p in _plain_types(v, "%s.%s" % (path, k))])
    if type(o) in (list, tuple):
        return [p for i, v in enumerate(o) for p in _plain_types(v, "%s[%d]" % (path, i))]
    return [] if type(o) in (str, int, float, bool, type(None)) else [
        "%s: %s" % (path, type(o).__name__)]


@needs_fork
def test_pool_reports_equal_in_process_reports_in_request_order(two_workers):
    reports = list(verify.run_checks(NAMES))
    assert [r["name"] for r in reports] == NAMES
    assert all(r["ok"] and r["seconds"] >= 0 for r in reports)
    assert [_without_seconds(r) for r in reports] == [
        _without_seconds(verify._run_one(name)) for name in NAMES]
    assert [p for r in reports for p in _plain_types(r)] == []
    assert multiprocessing.active_children() == []


@needs_fork
def test_pool_passes_the_degree_cap_to_coassoc_and_antipodes_only(two_workers):
    names = random.Random(36).sample(NAMES, 7)
    names += [n for n in ("coassoc", "antipodes") if n not in names]
    random.Random(37).shuffle(names)
    reports = list(verify.run_checks(names, max_degree=4))
    assert [r["name"] for r in reports] == names
    assert [_without_seconds(r) for r in reports] == [
        _without_seconds(verify._run_one(name, 4)) for name in names]
    coassoc = next(r for r in reports if r["name"] == "coassoc")
    assert coassoc["max_degree"] == 4
    assert verify._run_one("coassoc")["max_degree"] == 5


@needs_fork
def test_exception_in_a_worker_reaches_the_caller_with_its_type(monkeypatch, two_workers):
    def broken():
        raise LookupError("no such tree")

    monkeypatch.setitem(verify.CHECKS, "census", broken)
    reports = verify.run_checks(["sequences", "census", "jacobi"])
    assert next(reports)["name"] == "sequences"
    with pytest.raises(LookupError, match="no such tree"):
        next(reports)
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_dead_worker_breaks_the_pool_and_leaves_no_child(monkeypatch, two_workers):
    from concurrent.futures.process import BrokenProcessPool
    monkeypatch.setitem(verify.CHECKS, "census", lambda: os._exit(70))
    with pytest.raises(BrokenProcessPool):
        list(verify.run_checks(["sequences", "census", "jacobi"]))
    assert multiprocessing.active_children() == []


@needs_fork
def test_no_worker_outlives_an_exhausted_or_closed_generator(two_workers):
    list(verify.run_checks(["sequences", "census", "jacobi"]))
    assert multiprocessing.active_children() == []
    reports = verify.run_checks(["sequences", "coassoc", "taylor", "pbw"])
    assert next(reports)["name"] == "sequences"
    reports.close()
    assert multiprocessing.active_children() == []


def test_one_cpu_or_one_check_runs_in_process(monkeypatch):
    seen = []

    def record():
        seen.append(os.getpid())
        return {"ok": True}

    monkeypatch.setitem(verify.CHECKS, "sequences", record)
    monkeypatch.setitem(verify.CHECKS, "census", record)
    assert [r["name"] for r in verify.run_checks(["census"])] == ["census"]
    assert seen == [os.getpid()]
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    reports = list(verify.run_checks(["sequences", "census"]))
    assert [r["name"] for r in reports] == ["sequences", "census"]
    assert seen == [os.getpid()] * 3


def test_importing_the_cli_loads_no_pool_machinery():
    code = ("import sys, treehopf.cli; print(sorted(m for m in sys.modules"
            " if m.startswith(('multiprocessing', 'concurrent'))))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
