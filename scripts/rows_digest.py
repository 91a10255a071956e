"""Print one sha256 over the co-addition kernel rows of a fixed set of
components, to check that a change to the rows keeps them list-equal, and a
second over what the elimination reads off those rows.

    python3 scripts/rows_digest.py [--src DIR]

Imports ``treehopf`` from ``DIR`` (default: this checkout's ``src``).  The
first line hashes, component by component in ``COMPONENTS`` order, every row
of ``primitives.reduced_coproduct_rows``, in order, as the list of its
``(column, count)`` items in order.  Two checkouts give the same digest
exactly when their rows, their columns and both orders agree.  The second
line hashes each component's ``linear.rank`` of those rows and its
``linear.kernel_sample_of(basis, rows, count=3)``: the kernel's dimension
and its first three combinations, each as its ``(tree, coefficient)``
items in order.  Standard library only; under ten seconds on one core.
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


def digests() -> tuple:
    """The sha256 of the rows of every component of ``COMPONENTS``, and the
    sha256 of their ranks and kernel samples."""
    from treehopf import linear, primitives

    rows_h, kernel_h = hashlib.sha256(), hashlib.sha256()
    for operad, md in COMPONENTS:
        name = ("%s %r\n" % (operad, md)).encode()
        rows_h.update(name)
        kernel_h.update(name)
        comp = primitives.component(operad, multidegree=md)
        rows = primitives.reduced_coproduct_rows(comp)
        for row in rows:
            rows_h.update(("%r\n" % (list(row.items()),)).encode())
        m = linear.RationalMatrix._of_sparse(rows, comp.dim)
        nullity, sample = linear.kernel_sample_of(comp.basis, m, count=3)
        kernel_h.update(("%d %d\n" % (linear.rank(m), nullity)).encode())
        for p in sample:
            kernel_h.update(("%r\n" % (list(p.items()),)).encode())
    return rows_h.hexdigest(), kernel_h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    opts = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(opts.src))
    print("\n".join(digests()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
