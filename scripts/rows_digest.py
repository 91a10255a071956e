"""Print one sha256 over the co-addition kernel rows of a fixed set of
components, to check that a change to the rows keeps them list-equal.

    python3 scripts/rows_digest.py [--src DIR]

Imports ``treehopf`` from ``DIR`` (default: this checkout's ``src``) and
hashes, component by component in ``COMPONENTS`` order, every row of
``primitives.reduced_coproduct_rows``, in order, as the list of its
``(column, count)`` items in order.  Two checkouts give the same digest
exactly when their rows, their columns and both orders agree.  Standard
library only; a few seconds on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the components of tests/test_primitives.py's TestPrimitiveCoordinates,
# then three larger ones
COMPONENTS = ([(op, (d,)) for op, cap in (("mag", 9), ("magw", 7))
               for d in range(1, cap + 1)]
              + [(op, (1,) * n) for op, cap in (("mag", 5), ("magw", 4))
                 for n in range(1, cap + 1)]
              + [(op, md) for op in ("mag", "magw")
                 for md in ((2, 1), (3, 1), (2, 2), (2, 1, 1), (2, 2, 1))]
              + [("mag", (10,)), ("mag", (1,) * 6), ("magw", (3, 2, 1))])


def rows_digest() -> str:
    """The sha256 of the rows of every component of ``COMPONENTS``."""
    from treehopf import primitives

    h = hashlib.sha256()
    for operad, md in COMPONENTS:
        h.update(("%s %r\n" % (operad, md)).encode())
        comp = primitives.component(operad, multidegree=md)
        for row in primitives.reduced_coproduct_rows(comp):
            h.update(("%r\n" % (list(row.items()),)).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    opts = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(opts.src))
    print(rows_digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
