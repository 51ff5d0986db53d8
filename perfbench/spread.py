"""Run-to-run spread of the end-to-end metrics, raw and host-normalised.

Runs ``run.py`` once per seed for each workload, one run at a time, and
prints for every end-to-end metric its median and its spread -- the
distance between the first and third quartile over the median, as
``statistics.quantiles(values, n=4)`` gives them -- for the normalised
value the benchmark reports and for the raw value it keeps as a
diagnostic.  Run from the root of a source checkout::

    python3 perfbench/spread.py --seeds 1-10 --seconds 10 [--workload rpc-read ...]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def spread(values) -> float:
    """Interquartile distance over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    """One benchmark run; returns ``(diagnostics, result)``."""
    completed = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def parse_seeds(text: str) -> list:
    """``"1-10"`` or ``"1,4,7"`` to a list of seeds."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--json", help="also write every run's output to this file")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    workloads = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    runs = {}
    ok = True
    for workload in workloads:
        runs[workload] = [run_once(workload, seed, args.seconds) for seed in seeds]
        print(f"\n{workload}  ({len(seeds)} seeds, {args.seconds} s)")
        print(f"  {'metric':<12} {'median':>12} {'spread':>8} {'raw median':>12} "
              f"{'raw spread':>10} {'bound':>6}")
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for _, result in runs[workload]]
            raw = [diag["raw"].get(name) for diag, _ in runs[workload]]
            line = f"  {name:<12} {statistics.median(values):>12.5g} {spread(values):>8.3f}"
            if None not in raw:
                line += f" {statistics.median(raw):>12.5g} {spread(raw):>10.3f}"
            else:
                line += f" {'':>12} {'':>10}"
            flag = ""
            if name != "setup_s" and spread(values) > bound / 3:
                flag = "  <-- over a third of the bound"
                ok = False
            print(line + f" {bound:>6}" + flag)
        cal = [diag["host"]["cal_ms"] for diag, _ in runs[workload]]
        print(f"  host.cal_ms median {statistics.median(cal):.4f} spread {spread(cal):.3f}"
              f"; all correct: {all(r['correct'] for _, r in runs[workload])}")
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(runs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
