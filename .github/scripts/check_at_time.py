"""Check a `poolqueue at-time` CSV: usage check_at_time.py FILE T [T ...].

Every listed t must appear, each (t, level) row only once, no printed
probability may be negative, and each t's probabilities must sum to 1
within 1e-12, beyond the rounding of the 12 printed significant digits of
each value (cli.format_number): half a unit in the 12th digit of each.
"""

import csv
import sys
from collections import defaultdict
from decimal import Decimal

path, times = sys.argv[1], sys.argv[2:]
rows = [r for r in csv.reader(open(path)) if r[0] != "config"]
assert rows[0] == ["t", "level", "probability"], rows[0]
mass, slack, seen = defaultdict(Decimal), defaultdict(Decimal), set()
for t, level, p in rows[1:]:
    if (t, level) in seen:
        sys.exit(f"at-time printed t={t}, level {level} twice")
    seen.add((t, level))
    if Decimal(p) < 0:
        sys.exit(f"at-time printed a negative probability {p} at t={t}, level {level}")
    mass[t] += Decimal(p)
    if Decimal(p):  # a printed 0 is an exact zero, not a rounded value
        slack[t] += Decimal(5).scaleb(Decimal(p).adjusted() - 12)
for t in times:
    print(f"t={t}: mass - 1 = {mass[t] - 1:.3e}, print rounding <= {slack[t]:.3e}")
    if abs(mass[t] - 1) > Decimal("1e-12") + slack[t]:
        sys.exit(f"at-time probabilities at t={t} do not sum to 1 within 1e-12")
