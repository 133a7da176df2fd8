"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root:

    python3 replaybench/spread.py WORKLOAD [--seeds 1-10] [--repeat N] [--seconds S] [--trace 0|1]

For each metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json. --repeat runs each
seed N times, which separates host noise from input variance.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in [s for s in seeds(args.seeds) for _ in range(args.repeat)]:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        res = json.loads(last)
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: {last}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        steal = [l.split(":")[1].split("%")[0].strip() for l in out.stdout.splitlines() if l.startswith("cpu steal:")]
        print(f"seed {seed} (steal {steal[0] if steal else '?'}%): "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)

    print(f"{'metric':34} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:34} {med:14.5g} {spread:11.4f} {bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
