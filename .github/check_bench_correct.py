"""Pass ``bench/run.py`` output through, and fail unless every result it printed is correct.

Usage: ``python3 bench/run.py ... | python3 .github/check_bench_correct.py``

The harness prints one JSON line per workload and exits 0 even when every
operation failed, so a CI step needs this check to fail on a wrong curve or
on a layer missing from the trace.  Run the pipe under ``bash -o pipefail``
so that a harness crash fails the step too.
"""

import json
import sys

results = []
for line in sys.stdin:
    sys.stdout.write(line)
    if line.startswith("{"):
        results.append(json.loads(line))
wrong = [r for r in results if r.get("correct") is not True]
if wrong or not results:
    print(f"error: {len(wrong)} of {len(results)} benchmark results are not correct", file=sys.stderr)
    sys.exit(1)
