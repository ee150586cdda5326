"""The reference child: a fresh interpreter that imports the standard modules
eulerlp uses, and nothing of eulerlp.

    python3 perfbench/reference.py T0_NS

T0_NS is the parent's ``time.monotonic_ns()`` just before it started this
process.  Prints the seconds from then until the imports are done.  run.py
starts one before every repetition and scales the run's timings by how fast
these children ran (see ``REFERENCE_NOMINAL_S`` there): eulerlp cannot change
their speed, the host can.  This file must stay as it is, or figures taken
before and after the change cannot be compared.
"""

import sys
import time


def main() -> None:
    t0_ns = int(sys.argv[1])
    import argparse  # noqa: F401
    import concurrent.futures  # noqa: F401
    import csv  # noqa: F401
    import dataclasses  # noqa: F401
    import fractions  # noqa: F401
    import json  # noqa: F401

    print((time.monotonic_ns() - t0_ns) / 1e9)


if __name__ == "__main__":
    main()
