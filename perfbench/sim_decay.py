"""Subprocess simulator for the ``joint-cv-subprocess`` workload.

    y = a * exp(-k * x1) + c * x2 + 0.5 * x1 * x2

Speaks gpcal's subprocess protocol: ``sim_decay.py <input.csv> <output.csv>``
with input columns x1, x2, a, k, c (header first) and output header ``y``.
Standard library only, so one call costs one interpreter start and no
third-party imports.
"""

import csv
import math
import sys


def main(in_path, out_path):
    with open(in_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    with open(out_path, "w", newline="") as fh:
        fh.write("y\n")
        for row in rows:
            x1, x2, a, k, c = (float(v) for v in row)
            fh.write(repr(a * math.exp(-k * x1) + c * x2 + 0.5 * x1 * x2) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
