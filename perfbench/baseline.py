"""Run the benchmark several times per workload and summarise the spread.

Run from the checkout root:

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each workload runs ten times untraced, seeds 1 to 10 (a fresh process each),
then once traced with seed 7. For every end-to-end metric the summary
gives the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, next to the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SEEDS = range(1, 11)
TRACED_SEED = 7


def _run(command, workload, seed, seconds, trace):
    proc = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        + ["--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["details"]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        config = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    command = [sys.executable] + config["command"][1:]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary = {"run_seconds": config["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        runs = []
        for seed in SEEDS:
            start = time.perf_counter()
            result, details = _run(command, workload, seed, config["run_seconds"], 0)
            runs.append(result)
            print(
                f"{workload} seed {seed}: {time.perf_counter() - start:.1f}s "
                f"correct={result['correct']} "
                + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True,
            )
        entry = {
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {
                name: dict(summarise([r["metrics"][name]["value"] for r in runs]), bound=bound)
                for name, bound in bounds.items()
            },
            "environment": details["environment"],
        }
        result, _ = _run(command, workload, TRACED_SEED, config["run_seconds"], 1)
        entry["traced_correct"] = result["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        summary["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.4g} spread {s['spread']:.2%} "
                  f"(bound {s['bound']:.0%})", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
