"""Time the larger components that tier-1 leaves out.

    python3 scripts/reach.py [--src DIR]

Runs each command of ``COMMANDS`` in a fresh ``python -m treehopf`` process,
with ``PYTHONPATH`` set to ``DIR`` (default: this checkout's ``src``), and
prints one line per command: the wall time, the peak RSS, the sha256 of its
stdout and the command.  The peak is ``os.wait4``'s ``ru_maxrss``, the
maximum over the process and the descendants it reaped, not their sum: for
``verify all``, whose checks run in forked workers, it is the peak of the
largest single process (a forked grandchild holding 200 MB read 210 MB).
JSON stdout is digested with every ``"seconds"`` entry removed and its keys
sorted, so that two checkouts print the same digest for the same answers.
To compare two checkouts, run it alternately with each one's ``--src``.  A
command that exits non-zero is reported with its exit status, and the
script then exits 1.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMMANDS = (
    ("prim-dim", "--operad", "mag", "--degree", "6", "--multilinear"),
    ("prim-dim", "--operad", "mag", "--degree", "11"),
    ("prim-dim", "--operad", "mag", "--degree", "12"),
    ("prim-dim", "--operad", "magw", "--degree", "8"),
    ("hw-dim", "--operad", "magw", "--multidegree", "3,2,1",
     "--constraint", "primitive"),
    ("verify", "all", "--max-degree", "8", "--format", "json"),
)


def _without_seconds(o):
    if isinstance(o, dict):
        return {k: _without_seconds(v) for k, v in o.items() if k != "seconds"}
    if isinstance(o, list):
        return [_without_seconds(v) for v in o]
    return o


def run(args, src: str):
    """(wall seconds, peak RSS in MB, sha256 of stdout, exit status) of one
    ``python -m treehopf`` process."""
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryFile() as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "treehopf", *args],
                                stdout=out, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    if "json" in args and proc.returncode == 0:
        text = json.dumps(_without_seconds(json.loads(text)), sort_keys=True).encode()
    digest = hashlib.sha256(text).hexdigest()
    # ru_maxrss is in kilobytes on Linux
    return wall, usage.ru_maxrss / 1024, digest, proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    opts = parser.parse_args(argv)
    failed = False
    print("wall_s  peak_mb  stdout_sha256     command")
    for args in COMMANDS:
        wall, peak, digest, code = run(args, os.path.abspath(opts.src))
        status = "" if code == 0 else "  exit %d" % code
        failed = failed or code != 0
        print("%6.2f  %7.1f  %s  %s%s" % (wall, peak, digest[:16],
                                         " ".join(args), status), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
