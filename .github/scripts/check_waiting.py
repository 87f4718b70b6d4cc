"""Check a `poolqueue waiting` CSV: usage check_waiting.py FILE ALPHA [ALPHA ...].

Each listed alpha must have a column, in the order given, and every
customer's transform must be finite, in [0, 1] and nonincreasing from one
alpha to the next (the alphas listed in increasing order).
"""

import csv
import math
import sys

path, alphas = sys.argv[1], sys.argv[2:]
rows = [r for r in csv.reader(open(path)) if r[0] != "config"]
columns = [f"lst_alpha_{a}" for a in alphas]
assert rows[0] == ["j", "mean"] + columns, rows[0]
for row in rows[1:]:
    lsts = [float(x) for x in row[2:]]
    if not all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in lsts):
        sys.exit(f"customer {row[0]}: waiting LST {lsts} not finite or outside [0, 1]")
    if any(b > a for a, b in zip(lsts, lsts[1:])):
        sys.exit(f"customer {row[0]}: waiting LST {lsts} increases with alpha")
print(f"{len(rows) - 1} customers: every LST finite, in [0, 1] and nonincreasing in alpha")
