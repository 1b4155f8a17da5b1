"""One measured process: time a reference loop and ``import shiftadd``,
then run one workload and time the reference loop again.

Usage: python3 -s child.py SRC_DIR CPU SPEC_JSON

SPEC_JSON is the string ``"import"`` for an import-only sample, or the
workload spec built by run.py.  The process pins itself to CPU.  Only
``os``, ``sys`` and ``time`` are loaded before the timed import, so the
standard modules shiftadd pulls in (argparse, csv, json, random,
dataclasses, ...) are charged to it, as they are for a user.  Prints one
JSON object on stdout.
"""

import os  # loaded by the interpreter at start-up in any case
import sys
import time

REFERENCE_ITERATIONS = 80_000


class _Cell:
    __slots__ = ("value", "width")

    def __init__(self, value: int, width: int) -> None:
        self.value = value & ((1 << width) - 1)
        self.width = width


def reference_s() -> float:
    """Host time of a fixed pure-Python loop (small objects, shifts, bit
    counts: the simulator's kind of work, but none of its code).  A
    sample's times divided by it cancel how fast the shared host happened
    to be at that moment."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        x = _Cell(i, 8).value
        for _ in range(4):
            acc += (x ^ (x >> 1)).bit_count()
            x >>= 1
    return time.perf_counter() - start


def main() -> None:
    src, cpu, spec = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    os.sched_setaffinity(0, {cpu})
    # Twice before the import and once after the workload, so that the mean
    # spans the sample.  The loop touches only its own objects.
    refs = [reference_s(), reference_s()] if spec != "import" else []
    sys.path.insert(0, src)
    start = time.perf_counter()
    import shiftadd.cli  # noqa: F401  (the import being timed)

    setup_s = time.perf_counter() - start

    import json

    if spec == "import":
        print(json.dumps({"setup_s": setup_s}))
        return
    import measure

    sample = measure.run(json.loads(spec), setup_s, src)
    refs.append(reference_s())
    print(json.dumps({**sample, "ref_s": sum(refs) / len(refs)}))


if __name__ == "__main__":
    main()
