#!/usr/bin/env python3
"""CI smoke check for the persistent trace cache.

Usage:
  check_trace_cache_smoke.py COLD_BENCH.json WARM_BENCH.json \
      COLD_CACHE.json WARM_CACHE.json

Asserts, after running the same bench binary twice against one cache dir:
  1. the cold run populated the cache (misses > 0),
  2. the warm run was served entirely from it (hits > 0, misses == 0),
  3. the figure rows (miss ratios etc.) are bit-identical cold vs warm.

Exits non-zero with a diagnostic on any violation.
"""

import json
import sys


def fail(msg):
    print(f"trace-cache smoke FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def main(argv):
    if len(argv) != 5:
        fail(f"expected 4 arguments, got {len(argv) - 1} (see module docstring)")
    cold_bench, warm_bench, cold_cache, warm_cache = (
        json.load(open(p)) for p in argv[1:5]
    )

    cold_summary = cold_cache["summary"]
    if cold_summary.get("misses", 0) == 0:
        fail(f"cold run recorded no cache misses: {cold_summary}")

    warm_summary = warm_cache["summary"]
    if warm_summary.get("misses", 1) != 0:
        fail(f"warm run regenerated traces (misses != 0): {warm_summary}")
    if warm_summary.get("hits", 0) == 0:
        fail(f"warm run recorded no cache hits: {warm_summary}")

    if cold_bench["rows"] != warm_bench["rows"]:
        for c, w in zip(cold_bench["rows"], warm_bench["rows"]):
            if c != w:
                fail(f"figure rows differ cold vs warm:\n  cold: {c}\n  warm: {w}")
        fail(
            f"figure row counts differ: {len(cold_bench['rows'])} cold "
            f"vs {len(warm_bench['rows'])} warm"
        )

    print(
        f"trace-cache smoke OK: {warm_summary['hits']} warm hits, 0 misses, "
        f"{len(warm_bench['rows'])} identical figure rows"
    )


if __name__ == "__main__":
    main(sys.argv)
