"""End-to-end benchmark of treehopf.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client and one worker: each pass spawns a fresh worker
(``bench/worker.py``), sends the workload's jobs one at a time, checks every
answer, and stops the worker.  A run makes two passes, and more while
another pass as long as the longest so far still ends within ``--seconds``;
it reports medians over passes.  ``setup_s`` is the median over every worker
started in the run, including a few that are started only to time the
set-up.  Times are rescaled to a nominal machine speed measured by the
worker's speed probes (see bench/README.md).  With ``--trace 1`` the run
then makes one more pass in a traced worker and reports the per-layer
metrics instead.

The last line of stdout is the result:
``{"correct": .., "attempted": .., "failed": .., "metrics": {..}}``.
Progress and failures go to stderr.  Workloads, metrics and the predictions
behind them are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_PASSES = 2
SETUP_PROBES = 5
# The reference unit's time (worker.reference_unit) at the speed that the
# reported times are rescaled to; about its time on an idle machine.
NOMINAL_PROBE_S = 0.0002
# A job with fewer probes than this is rescaled by its pass's mean probe.
MIN_JOB_PROBES = 20


class WorkerError(RuntimeError):
    pass


class Worker:
    """One worker process; ``setup_s`` is spawn-to-ready time."""

    def __init__(self, spans_file=None):
        cmd = [sys.executable, os.path.join(HERE, "worker.py")]
        if spans_file:
            cmd += ["--trace", spans_file]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        try:
            if not self.recv().get("ready"):
                raise WorkerError("worker did not report ready")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def send(self, obj):
        try:
            self.proc.stdin.write(json.dumps(obj) + "\n")
            self.proc.stdin.flush()
        except OSError as e:
            raise WorkerError("worker gone: %s" % e) from e

    def recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError("worker exited with code %s" % self.proc.wait())
        return json.loads(line)

    def finish(self, **extra) -> dict:
        self.send(dict(finish=True, **extra))
        return self.recv()

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def rescale(seconds, probe_count, probe_s, fallback_mean=None):
    """``seconds`` without the probes' own time, at the nominal speed."""
    mean = probe_s / probe_count if probe_count else fallback_mean
    return (seconds - probe_s) * (NOMINAL_PROBE_S / mean if mean else 1.0)


def run_pass(jobs, oracle, spans_file=None, untraced_wall=None) -> dict:
    """Run every job in one fresh worker; never raises on a wrong answer."""
    w = Worker(spans_file)
    try:
        ready = time.perf_counter()
        job_s, probes, failures = [], [], []
        for job in jobs:
            t = time.perf_counter()
            try:
                w.send({"job": job})
                reply = w.recv()
            except WorkerError as e:
                reply = {"error": str(e)}
            why = workloads.check(job, reply, oracle)
            job_s.append(time.perf_counter() - t)
            probes.append(reply.get("probe", [0, 0.0]))
            if why:
                failures.append("%s: %s" % (" ".join(map(str, job)), why))
        raw_wall = time.perf_counter() - ready
        count = sum(c for c, _ in probes)
        total = sum(p for _, p in probes)
        mean = total / count if count else None
        wall = rescale(raw_wall, count, total)
        extra = {}
        if spans_file:
            extra = {"wall_s": raw_wall - total,
                     "overhead_s": wall - untraced_wall}
        try:
            done = w.finish(**extra)
        except WorkerError as e:
            failures.append("finish: %s" % e)
            done = {}
    finally:
        w.close()
    return {"setup_s": w.setup_s, "wall_s": wall, "raw_wall_s": raw_wall,
            "max_job_s": max(rescale(t, c if c >= MIN_JOB_PROBES else 0, p, mean)
                             for t, (c, p) in zip(job_s, probes)),
            "speed": mean / NOMINAL_PROBE_S if mean else 1.0,
            "rss_mb": done.get("rss_kb", 0) / 1024.0, "layers": done.get("layers"),
            "attempted": len(jobs), "failures": failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "treehopf", "cli.py")):
        print("error: no treehopf sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from treehopf.trees import sequence
    oracle = workloads.oracle_dims(sequence)
    jobs = workloads.jobs(args.workload, args.seed)

    try:
        Worker().close()  # compiles bytecode once; not timed
        setups = []
        for _ in range(SETUP_PROBES):
            w = Worker()
            w.close()
            setups.append(w.setup_s)
    except WorkerError as e:
        print("error: the worker does not start: %s" % e, file=sys.stderr)
        return 2

    passes = []
    t0 = time.perf_counter()
    longest = 0.0
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - t0 + longest <= args.seconds):
        t = time.perf_counter()
        p = run_pass(jobs, oracle)
        longest = max(longest, time.perf_counter() - t)
        passes.append(p)
        print("pass %d: setup %.3fs wall %.3fs (raw %.3fs, speed %.2f) "
              "max job %.3fs rss %.1fMB, %d/%d ok"
              % (len(passes), p["setup_s"], p["wall_s"], p["raw_wall_s"],
                 p["speed"], p["max_job_s"], p["rss_mb"],
                 p["attempted"] - len(p["failures"]), p["attempted"]),
              file=sys.stderr)
    wall = statistics.median(p["wall_s"] for p in passes)

    if args.trace:
        import layers
        spans_file = os.path.join(HERE, "out", "trace-%s-seed%d.json"
                                  % (args.workload, args.seed))
        traced = run_pass(jobs, oracle, spans_file=spans_file, untraced_wall=wall)
        passes.append(traced)
        values = traced["layers"] or {}
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in layers.PER_LAYER}
        print("traced pass: wall %.3fs (raw %.3fs; untraced median %.3fs); "
              "spans in %s" % (traced["wall_s"], traced["raw_wall_s"], wall,
                               spans_file), file=sys.stderr)
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "max_job_s": (statistics.median(p["max_job_s"] for p in passes), "s"),
            # set-up is too short to probe; the passes' speed stands for it
            "setup_s": (statistics.median(setups + [p["setup_s"] for p in passes])
                        / statistics.median(p["speed"] for p in passes), "s"),
            "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if not args.trace:
        metrics["ok_ratio"] = {"value": (attempted - len(failures)) / attempted,
                               "unit": "ratio"}
    for f in failures:
        print("FAIL %s" % f, file=sys.stderr)
    print("%d passes, %d jobs, fail_ratio %.4f"
          % (len(passes), attempted, len(failures) / attempted), file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
