"""The benchmark's workloads: inputs built from a seed, the timed calls into
filterlab, and the checks on what those calls produce.

Every call looks its filterlab function up on the module at call time
(``cli.main``, ``harness.run_monte_carlo``), so a traced run sees the calls
under the same names the program's own callers resolve.
"""

import dataclasses
import json
import math
import os
from typing import Callable

import numpy as np

import filterlab
from filterlab import cli, harness

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Acceptance criterion 10 bounds each node's steady MSE at 5% of theory for
# 1500 trials averaged over one period. The Monte Carlo standard error falls
# as 1/sqrt(samples), so the bound is scaled by sqrt(1500 / samples), where a
# sample is one trial over one period: the check keeps the criterion's
# statistical strength at every size.
CRITERION_10_REL = 0.05
CRITERION_10_SAMPLES = 1500
# Arrays recorded in reference.json must be reproduced to this relative
# tolerance: wrong numbers fail, reordered floating-point sums pass.
REFERENCE_RTOL = 1e-9
# avg_perf >= centralized_avg holds exactly in theory; allow for rounding.
ROUNDING_RTOL = 1e-9

BENCH_GRAPH_SEED = 12
# The built-in benchmark plant's sensor count and the default fusion sweep.
SENSORS = 20
DEFAULT_SWEEP = 9

DEFAULT_SIZES = {
    # `filterlab paper` at its defaults except the trial count: 1500 trials
    # take about 80 s, which the run budget cannot hold. Theory is unchanged
    # (200 distinct cells, 380 DPLE solves).
    "paper": {"trials": 300, "fusion_steps": None},
    # Graph seeds 12, 5, 2: diameters 4, 6, 3; sigma2 0.926, 0.968, 0.843.
    "theory_graphs": {"layouts": [12, 5, 2], "sweep": 9},
    # Per-step work dominates and barely depends on the trial count. One
    # call takes about 6.5 s, so a run times several and reports the median.
    # Steps 120..299 are six whole periods of the 30-step plant, as the
    # per-period theory they are compared with requires.
    "mc_long_horizon": {
        "trials": 24,
        "horizon": 300,
        "L_offsets": [0, 4, 8],
        "steady_from": 120,
    },
}

def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _mse_bound(samples: float) -> float:
    return CRITERION_10_REL * math.sqrt(CRITERION_10_SAMPLES / samples)


def _compare(label: str, got, want, problems: list) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{label}: shape {got.shape} != reference {want.shape}")
        return
    bad = ~(np.abs(got - want) <= REFERENCE_RTOL * np.abs(want))
    if bad.any():
        idx = int(np.flatnonzero(bad)[0])
        problems.append(
            f"{label}: {int(bad.sum())} values differ from the reference beyond "
            f"{REFERENCE_RTOL:g} (first at {idx}: {got.flat[idx]!r} vs {want.flat[idx]!r})"
        )


def _compare_tree(label: str, got: dict, want: dict, problems: list) -> None:
    if sorted(got) != sorted(want):
        problems.append(f"{label}: keys {sorted(got)} != reference {sorted(want)}")
        return
    for key in want:
        if isinstance(want[key], dict):
            _compare_tree(f"{label}.{key}", got[key], want[key], problems)
        else:
            _compare(f"{label}.{key}", got[key], want[key], problems)


# --- arrays extracted from outputs (also what reference.json records) ------


def run_records(results) -> list[dict]:
    """In-memory FilterRuns in the layout `export_results` writes to JSON."""
    return [
        {
            "filter": r.label,
            "mse_steady": r.mse_steady,
            "mse_per_step": r.mse_per_step,
            "theory_steady": r.theory_steady,
            "theory_per_step": r.theory_per_step,
            "diverged_trials": list(r.diverged),
        }
        for r in results.runs
    ]


def mc_arrays(records: list[dict]) -> dict:
    """Per run: per-node steady MSE and the total of the per-step MSE curve."""
    return {
        rec["filter"]: {
            "steady": np.asarray(rec["mse_steady"], dtype=float).tolist(),
            "per_step_total": float(np.sum(np.asarray(rec["mse_per_step"], dtype=float))),
        }
        for rec in records
    }


def theory_arrays(records: list[dict]) -> dict:
    return {
        rec["filter"]: {
            "steady": np.asarray(rec["theory_steady"], dtype=float).tolist(),
            "per_step_total": float(
                np.sum(np.asarray(rec["theory_per_step"], dtype=float))
            ),
        }
        for rec in records
        if rec.get("theory_steady") is not None
    }


def gap_arrays(report: dict) -> dict:
    """The numbers of one gap_report.json; a NaN rate is written as null."""
    cells = report["cells"]
    return {
        "centralized_avg": report["centralized_avg"],
        "sigma2": report["sigma2"],
        "sensor": [c["sensor"] for c in cells],
        "L": [c["L"] for c in cells],
        "gap_ric": [c["gap_ric"] for c in cells],
        "gap_cov": [c["gap_cov"] for c in cells],
        "avg_perf": [c["avg_perf"] for c in cells],
        "rate": [math.nan if c["rate"] is None else c["rate"] for c in cells],
    }


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# --- checks shared by workloads --------------------------------------------


def _check_gap(label: str, gap: dict, expected_cells: int, problems: list) -> None:
    central = gap["centralized_avg"]
    perf = np.asarray(gap["avg_perf"], dtype=float)
    rate = np.asarray(gap["rate"], dtype=float)
    if perf.size != expected_cells:
        problems.append(f"{label}: {perf.size} cells, expected {expected_cells}")
    below = perf < central - ROUNDING_RTOL * abs(central)
    if below.any():
        problems.append(
            f"{label}: {int(below.sum())} cells have avg_perf below the "
            f"centralized average {central!r}"
        )
    if not np.isfinite(rate).all():
        problems.append(f"{label}: {int((~np.isfinite(rate)).sum())} rates are not finite")


def _check_no_divergence(label: str, records: list[dict], problems: list) -> None:
    for rec in records:
        if rec["diverged_trials"]:
            problems.append(
                f"{label}: {rec['filter']} diverged in trials {rec['diverged_trials'][:10]}"
            )
        if not np.isfinite(np.asarray(rec["mse_per_step"], dtype=float)).all():
            problems.append(f"{label}: {rec['filter']} has non-finite MSE")


# --- workloads ---------------------------------------------------------------


@dataclasses.dataclass
class Workload:
    """One workload: `setup` builds inputs, `calls` lists the timed calls
    (each a label and a thunk taking the dict of earlier returns), `check`
    maps each call label to the problems found in its outputs."""

    setup: Callable
    calls: Callable
    check: Callable


def _paper_setup(seed: int, size: dict, workdir: str) -> dict:
    argv = ["paper", "--seed", str(seed), "--trials", str(size["trials"])]
    if size["fusion_steps"] is not None:
        argv += ["--fusion-steps", ",".join(str(L) for L in size["fusion_steps"])]
    return {"argv": argv}


def _paper_calls(inputs: dict, out: str):
    return [("cli.main paper", lambda returns: cli.main(inputs["argv"] + ["--out", out]))]


def _paper_check(inputs, out, returns, seed, size, reference) -> dict:
    label = "cli.main paper"
    problems = []
    if label not in returns:
        return {}
    if returns[label] != 0:
        return {label: [f"exit code {returns[label]}"]}
    results = _read_json(os.path.join(out, "results.json"))
    gap = gap_arrays(_read_json(os.path.join(out, "gap_report.json")))
    records = results["runs"]
    _check_no_divergence(label, records, problems)
    bound = _mse_bound(results["trials"])
    for rec in records:
        if rec["theory_steady"] is None:
            continue
        mse = np.asarray(rec["mse_steady"], dtype=float)
        theory = np.asarray(rec["theory_steady"], dtype=float)
        worst = float(np.max(np.abs(mse - theory) / theory))
        if not worst <= bound:
            problems.append(
                f"{label}: {rec['filter']} steady MSE {worst:.2%} from theory "
                f"(bound {bound:.2%} at {results['trials']} trials)"
            )
    sweep = len(size["fusion_steps"]) if size["fusion_steps"] else DEFAULT_SWEEP
    _check_gap(label, gap, SENSORS * sweep, problems)
    for name in ("rates.csv", "cidf_comparison.csv", "results_per_step.csv"):
        if not os.path.isfile(os.path.join(out, name)):
            problems.append(f"{label}: {name} missing")
    if reference is not None:
        _compare_tree(f"{label} theory", theory_arrays(records), reference["paper_theory"], problems)
        _compare_tree(f"{label} gap", gap, reference["gap"][str(BENCH_GRAPH_SEED)], problems)
        mc = reference["mc"]["paper"].get(str(seed))
        if mc is not None:
            _compare_tree(f"{label} mc", mc_arrays(records), mc, problems)
    return {label: problems}


def _theory_setup(seed: int, size: dict, workdir: str) -> dict:
    scenarios = {}
    for layout in size["layouts"]:
        scenario = harness.benchmark_scenario(trials=1, seed=seed, graph_seed=layout)
        d = filterlab.diameter(scenario.graph)
        scenario = dataclasses.replace(scenario, L_values=tuple(range(d, d + size["sweep"])))
        path = os.path.join(workdir, f"scenario_{layout}.json")
        with open(path, "w") as fh:
            json.dump(harness.scenario_to_dict(scenario), fh)
        scenarios[layout] = path
    return {"seed": seed, "scenarios": scenarios}


def _theory_label(layout: int) -> str:
    return f"cli.main gap layout {layout}"


def _theory_calls(inputs: dict, out: str):
    def gap(path, layout):
        argv = ["gap", "--scenario", path, "--out", os.path.join(out, str(layout))]
        return lambda returns: cli.main(argv + ["--seed", str(inputs["seed"])])

    return [
        (_theory_label(layout), gap(path, layout))
        for layout, path in inputs["scenarios"].items()
    ]


def _theory_check(inputs, out, returns, seed, size, reference) -> dict:
    found = {}
    for layout in inputs["scenarios"]:
        label = _theory_label(layout)
        if label not in returns:
            continue
        if returns[label] != 0:
            found[label] = [f"exit code {returns[label]}"]
            continue
        problems = []
        gap = gap_arrays(_read_json(os.path.join(out, str(layout), "gap_report.json")))
        _check_gap(label, gap, SENSORS * size["sweep"], problems)
        if reference is not None:
            _compare_tree(label, gap, reference["gap"][str(layout)], problems)
        found[label] = problems
    return found


def _long_setup(seed: int, size: dict, workdir: str) -> dict:
    scenario = harness.benchmark_scenario(
        trials=size["trials"], horizon=size["horizon"], seed=seed, graph_seed=BENCH_GRAPH_SEED
    )
    d = filterlab.diameter(scenario.graph)
    scenario = dataclasses.replace(
        scenario, L_values=tuple(d + off for off in size["L_offsets"])
    )
    return {"scenario": scenario}


def _long_calls(inputs: dict, out: str):
    return [
        (
            "harness.run_monte_carlo",
            lambda returns: harness.run_monte_carlo(inputs["scenario"], with_theory=False),
        ),
        (
            "harness.export_results",
            lambda returns: harness.export_results(returns["harness.run_monte_carlo"], out),
        ),
    ]


def _long_check(inputs, out, returns, seed, size, reference) -> dict:
    found = {}
    scenario = inputs["scenario"]
    label = "harness.run_monte_carlo"
    records = None
    if label in returns:
        problems = []
        records = run_records(returns[label])
        _check_no_divergence(label, records, problems)
        # The theory of this layout is recorded in the gap report reference;
        # steady MSE is averaged over every step from `steady_from` on.
        theory_ref = _reference_theory(reference)
        steps = scenario.horizon - size["steady_from"]
        bound = _mse_bound(scenario.trials * steps / scenario.plant.period)
        for rec in records:
            theory = theory_ref.get(rec["filter"])
            if theory is None:
                continue
            mse = np.asarray(rec["mse_per_step"], dtype=float)[:, size["steady_from"] :]
            worst = float(np.max(np.abs(mse.mean(axis=1) - theory) / theory))
            if not worst <= bound:
                problems.append(
                    f"{label}: {rec['filter']} steady MSE {worst:.2%} from theory "
                    f"(bound {bound:.2%})"
                )
        if reference is not None:
            mc = reference["mc"]["mc_long_horizon"].get(str(seed))
            if mc is not None:
                _compare_tree(f"{label} mc", mc_arrays(records), mc, problems)
        found[label] = problems
    label = "harness.export_results"
    if label in returns and records is not None:
        problems = []
        exported = _read_json(os.path.join(out, "results.json"))["runs"]
        if [r["filter"] for r in exported] != [r["filter"] for r in records]:
            problems.append(f"{label}: exported runs differ from the results")
        else:
            for got, want in zip(exported, records):
                if got["mse_steady"] != np.asarray(want["mse_steady"]).tolist():
                    problems.append(f"{label}: {got['filter']} exported MSE differs")
        with open(os.path.join(out, "results_per_step.csv")) as fh:
            rows = sum(1 for _ in fh) - 1
        expected = sum(len(r["mse_steady"]) for r in records) * scenario.horizon
        if rows != expected:
            problems.append(f"{label}: {rows} per-step rows, expected {expected}")
        found[label] = problems
    return found


def _reference_theory(reference: dict | None) -> dict:
    """Steady theory per run label of the benchmark layout, from the recorded
    gap report: cmdf_L{L} per node, and ckf for the centralized filter."""
    ref = (reference or load_reference())["gap"][str(BENCH_GRAPH_SEED)]
    theory = {"ckf": np.array([ref["centralized_avg"]])}
    for L in sorted(set(ref["L"])):
        theory[f"cmdf_L{L}"] = np.array(
            [p for p, cell_L in zip(ref["avg_perf"], ref["L"]) if cell_L == L]
        )
    return theory


WORKLOADS = {
    "paper": Workload(_paper_setup, _paper_calls, _paper_check),
    "theory_graphs": Workload(_theory_setup, _theory_calls, _theory_check),
    "mc_long_horizon": Workload(_long_setup, _long_calls, _long_check),
}
