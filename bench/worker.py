"""Benchmark worker: one fresh interpreter per pass, so every pass pays cold
``lru_cache``s and a cold tree-intern table, as each ``treehopf`` command does.

Protocol (one JSON object per line): the worker imports ``treehopf.cli``
and writes ``{"ready": true}``; then for each ``{"job": [...]}`` on stdin it
runs the job and writes the reply; on ``{"finish": true}`` it writes its
peak resident memory (and, when traced, the per-layer metrics) and exits.

While a job runs, a ``SpeedProbe`` times a fixed reference loop every
``PERIOD_S`` seconds of wall time; each reply carries the number of probes
and their total time, so that the client can take the probes out of the
job's time and rescale it to the machine's nominal speed.

    python3 bench/worker.py [--trace SPANS_FILE]

Only a traced worker imports the tracer.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


PERIOD_S = 0.05


def reference_unit():
    """A fixed slice of interpreter work like the program's own: tuples,
    dict updates, big integers and a few Fractions.  About 0.2 ms."""
    d = {}
    acc = Fraction(0)
    t = ()
    for i in range(200):
        k = (i & 31, i % 5)
        d[k] = d.get(k, 0) + i * 12345678901
        t = (t, i) if i % 7 else ()
        if i % 10 == 0:
            acc += Fraction(i + 1, 7)
    return acc


class SpeedProbe:
    """Times ``reference_unit`` from a SIGALRM handler while armed.

    The collector is paused inside a probe so that a collection of the
    program's heap is never charged to the probe.
    """

    def __init__(self):
        self.count = 0
        self.total_s = 0.0
        signal.signal(signal.SIGALRM, self._probe)

    def _probe(self, signum, frame):
        was_enabled = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        reference_unit()
        self.total_s += time.perf_counter() - t
        self.count += 1
        if was_enabled:
            gc.enable()

    def __enter__(self):
        self.count, self.total_s = 0, 0.0
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def _summary(doc: dict) -> dict:
    """The scalar fields of a CLI JSON reply, and each check's ok flag."""
    out = {k: v for k, v in doc.items() if isinstance(v, (bool, int, str))}
    if "checks" in doc:
        out["checks"] = {c["name"]: c["ok"] for c in doc["checks"]}
    return out


def run_job(job: list) -> dict:
    from treehopf import cli, primitives
    if job[0] == "prim_rank":
        comp = primitives.component(job[1], degree=job[2])
        return {"value": primitives.prim_rank(comp)}
    if job[0] == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(job[1:])
        return {"exit": code, "json": _summary(json.loads(buf.getvalue()))}
    raise ValueError("unknown job %r" % (job,))


def main(argv) -> int:
    spans_file = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    proto = sys.stdout
    sys.stdout = sys.stderr   # stray prints must not corrupt the protocol

    def send(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    import treehopf.cli  # noqa: F401  (the set-up the benchmark times)
    tracer = None
    if spans_file:
        import layers
        tracer = layers.install()
    probe = SpeedProbe()
    send({"ready": True})
    msg = {}
    for line in sys.stdin:
        msg = json.loads(line)
        if "finish" in msg:
            break
        with probe:
            try:
                reply = run_job(msg["job"])
            except (Exception, SystemExit) as e:  # a failed job is an answer too
                reply = {"error": "%s: %s" % (type(e).__name__, e)}
        reply["probe"] = [probe.count, probe.total_s]
        send(reply)
    done = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.restore()
        done["layers"] = layers.metrics(tracer, msg["wall_s"], msg["overhead_s"])
        done["spans"] = len(tracer.spans)
        os.makedirs(os.path.dirname(spans_file), exist_ok=True)
        with open(spans_file, "w") as fh:
            json.dump({"fields": ["id", "parent", "label", "start", "end"],
                       "spans": tracer.spans}, fh)
    send(done)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
