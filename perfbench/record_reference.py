"""Record reference.json: the arrays the benchmark compares outputs with.

Run from the checkout root, once, at the commit that defines the benchmark:

    python3 perfbench/record_reference.py

It records the gap report of every theory_graphs layout, the theory of the
paper workload, and the Monte Carlo arrays of paper and mc_long_horizon for
each seed in SEEDS, all at the workloads' default sizes. Later commits must
reproduce these numbers to 1e-9 relative, so they are not re-recorded to
follow a change in results.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

import workloads  # noqa: E402
from filterlab import harness  # noqa: E402

SEEDS = range(16)


def _run(name: str, seed: int, out: str):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(seed, workloads.DEFAULT_SIZES[name], out)
    returns = {}
    for label, call in workload.calls(inputs, out):
        returns[label] = call(returns)
    return inputs, returns


def _read(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main() -> None:
    reference = {"gap": {}, "mc": {"paper": {}, "mc_long_horizon": {}}}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        inputs, _ = _run("theory_graphs", 7, tmp)
        for layout in inputs["scenarios"]:
            report = _read(os.path.join(tmp, str(layout), "gap_report.json"))
            reference["gap"][str(layout)] = workloads.gap_arrays(report)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        _run("paper", 7, tmp)
        records = _read(os.path.join(tmp, "results.json"))["runs"]
        paper_gap = workloads.gap_arrays(_read(os.path.join(tmp, "gap_report.json")))
        reference["paper_theory"] = workloads.theory_arrays(records)
        paper_mc_7 = workloads.mc_arrays(records)
    if json.dumps(paper_gap) != json.dumps(reference["gap"][str(workloads.BENCH_GRAPH_SEED)]):
        raise SystemExit("paper and theory_graphs disagree on the benchmark layout")

    trials = workloads.DEFAULT_SIZES["paper"]["trials"]
    for seed in SEEDS:
        # The paper command's Monte Carlo arrays without its theory solves.
        scenario = harness.benchmark_scenario(trials=trials, seed=seed)
        results = harness.run_monte_carlo(scenario, with_theory=False)
        reference["mc"]["paper"][str(seed)] = workloads.mc_arrays(workloads.run_records(results))
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            _, returns = _run("mc_long_horizon", seed, tmp)
        records = workloads.run_records(returns["harness.run_monte_carlo"])
        reference["mc"]["mc_long_horizon"][str(seed)] = workloads.mc_arrays(records)
        print(f"seed {seed} recorded", flush=True)
    if json.dumps(reference["mc"]["paper"].get("7")) != json.dumps(paper_mc_7):
        raise SystemExit("paper Monte Carlo arrays differ from the paper command's")

    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, allow_nan=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
