"""Median and spread of benchmark results, one JSON result per line.

    mkdir -p perfbench/out
    for s in $(seq 1 10); do
        python3 perfbench/run.py --workload caida_windows --seed $s \\
            --seconds 30 --trace 0 | tail -1
    done > perfbench/out/caida.jsonl
    python3 perfbench/spread.py perfbench/out/caida.jsonl

Spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.
"""

import json
import statistics
import sys


def summarize(lines):
    results = [json.loads(line) for line in lines if line.strip()]
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"{len(results)} runs, {failed} of {attempted} operations "
          f"failed, all correct: {all(r['correct'] for r in results)}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"  {name:26s} median {median:<12.6g} {first['unit']:11s} "
              f"spread {spread:.3f}")


if __name__ == "__main__":
    for path in sys.argv[1:]:
        print(path)
        with open(path) as handle:
            summarize(handle)
