"""Check `poolqueue workload` against `poolqueue simulate` on the same model:
usage check_workload.py WORKLOAD_CSV SIMULATE_CSV.

Every alpha of the workload CSV must have a Monte Carlo row, and the exact
E[e^{-alpha W(T)}] must lie within 4 standard errors of its estimate.
"""

import csv
import sys

exact_path, simulated_path = sys.argv[1], sys.argv[2]
exact = [r for r in csv.reader(open(exact_path)) if r[0] != "config"]
assert exact[0] == ["alpha", "workload_lst"], exact[0]
simulated = [r for r in csv.reader(open(simulated_path)) if r[0] != "config"]
assert simulated[0] == ["quantity", "key", "estimate", "stderr"], simulated[0]
estimates = {key: (float(v), float(se)) for q, key, v, se in simulated[1:] if q == "workload_lst"}
for alpha, value in exact[1:]:
    if alpha not in estimates:
        sys.exit(f"simulate printed no workload_lst row for alpha={alpha}")
    mean, se = estimates[alpha]
    z = (float(value) - mean) / se
    print(f"alpha={alpha}: exact {value}, Monte Carlo {mean} +- {se}, z = {z:.2f}")
    if abs(z) > 4:
        sys.exit(f"workload LST at alpha={alpha} is {z:.2f} standard errors from Monte Carlo")
