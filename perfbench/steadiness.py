#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py --seeds 10 [--workloads pair_stream,...]

Runs perfbench/run.py once per (seed, workload), seeds 1..N, interleaving
the workloads, and prints for every end-to-end metric the median, the
quartiles (statistics.quantiles(n=4)) and the interquartile spread as a
share of the median next to the metric's bound in BENCHMARK.json. Raw
results are appended to --out as JSON lines.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed,
                                        "result": result}) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{'workload':14} {'metric':18} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        for name, v in values[w].items():
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{w:14} {name:18} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.3f} {bounds[name]:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
