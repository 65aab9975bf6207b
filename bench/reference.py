"""Fixed reference job: the yardstick of machine speed for end-to-end runs.

    python3 bench/reference.py

One short process shaped like a small bsfan job: interpreter start-up, the
same standard-library imports, a JSON round trip and a scan of exact chi-like
sums over a fixed table of Fractions.  It imports nothing from bsfan and
nothing else in this directory, and it never changes with the code under
test, so the time it takes moves only with the machine.  run.py spawns it
after every job and divides each job's time by the local median of these
times (see run.py).  Prints one number, the scan's total, and exits 0.
"""

import argparse
import json
from fractions import Fraction

COLS, DEGS = range(-5, 5), range(-12, 12)


def main():
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    table = {f"{i},{j}": str(Fraction(7 * i + 3 * j + 1, j + 40))
             for i in COLS for j in DEGS}
    entries = {tuple(map(int, key.split(","))): Fraction(value)
               for key, value in json.loads(json.dumps(table)).items()}
    total = Fraction(0)
    for i in range(COLS.start - 1, COLS.stop, 2):
        for j in range(DEGS.start - 1, DEGS.stop, 4):
            for (c, d), v in entries.items():
                if (c == i and d <= j) or c >= i + 2:
                    total += v if (c - i) % 2 == 0 else -v
                elif c == i + 1 and d <= j + 1:
                    total -= v
    print(total)


if __name__ == "__main__":
    main()
