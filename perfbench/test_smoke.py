"""Smoke test of the benchmark itself, at tiny sizes.

Run from the checkout root:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that the traced run counts the calls it should, and that a
deliberately perturbed output is reported as a failure.
"""

import glob
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402

TINY = {
    "paper": {"trials": 20, "fusion_steps": [4, 5]},
    "theory_graphs": {"layouts": [2], "sweep": 2},
    "mc_long_horizon": {"trials": 6, "horizon": 120, "L_offsets": [0], "steady_from": 60},
}
# gap.cmdf_error_dple.calls at the tiny sizes: the paper command solves each
# swept cell in the Monte Carlo theory and again, with one extra L, in the
# gap report.
TINY_DPLE_CALLS = {"paper": 20 * 2 + 20 * 3, "theory_graphs": 20 * 3, "mc_long_horizon": 0}


@pytest.fixture(scope="module")
def config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def fewer_setups(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


def _run(name, trace):
    return run.run(name, seed=3, seconds=0.1, trace=trace, root=ROOT, size=TINY[name])


def _assert_metrics(result, specs):
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in specs)
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics(name, config):
    result, details = _run(name, trace=0)
    _assert_metrics(result, config["end_to_end"])
    assert result["correct"] and result["failed"] == 0, details["problems"]
    assert result["metrics"]["success_rate"]["value"] == 1.0
    for metric in ("wall_s", "setup_s", "peak_rss_mb"):
        assert result["metrics"][metric]["value"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics(name, config):
    result, details = _run(name, trace=1)
    _assert_metrics(result, config["per_layer"])
    assert result["correct"], details["problems"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["gap.cmdf_error_dple.calls"] == TINY_DPLE_CALLS[name]
    if name == "mc_long_horizon":
        assert metrics["periodic.simulate_trajectory.calls"] == TINY[name]["trials"]
        assert 0 < metrics["harness.run_monte_carlo.self_s"] < metrics["harness.run_monte_carlo.s"]
        assert metrics["cli.main.s"] == 0
    else:
        assert metrics["spps.dple_spps.sweeps"] > metrics["spps.dple_spps.calls"] > 0
        assert 0 < metrics["gap.build_gap_report.self_s"] < metrics["gap.build_gap_report.s"]
        assert metrics["gap.build_gap_report.parallelism"] > 0
        assert 0 < metrics["cli.main.self_s"] < metrics["cli.main.s"]


def _double_mse(label, returned, out):
    path = os.path.join(out, "results.json")
    with open(path) as fh:
        results = json.load(fh)
    for rec in results["runs"]:
        rec["mse_steady"] = [2 * v for v in rec["mse_steady"]]
    with open(path, "w") as fh:
        json.dump(results, fh)
    return returned


def _halve_first_cell(label, returned, out):
    for path in glob.glob(os.path.join(out, "*", "gap_report.json")):
        with open(path) as fh:
            report = json.load(fh)
        report["cells"][0]["avg_perf"] = report["centralized_avg"] / 2
        with open(path, "w") as fh:
            json.dump(report, fh)
    return returned


def _double_results(label, returned, out):
    if label == "harness.run_monte_carlo":
        for r in returned.runs:
            r.mse_per_step *= 2
    return returned


PERTURB = {
    "paper": _double_mse,
    "theory_graphs": _halve_first_cell,
    "mc_long_horizon": _double_results,
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_perturbed_output_fails(name, config, monkeypatch):
    import workloads

    workload = workloads.WORKLOADS[name]
    real_calls = workload.calls

    def perturbed_calls(inputs, out):
        return [
            (label, lambda returns, label=label, call=call: PERTURB[name](label, call(returns), out))
            for label, call in real_calls(inputs, out)
        ]

    monkeypatch.setattr(workload, "calls", perturbed_calls)
    result, details = _run(name, trace=0)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["success_rate"]["value"] < 1.0
    assert details["problems"]


def test_raising_call_counts_as_failed(monkeypatch):
    import workloads

    def boom(returns):
        raise RuntimeError("solver exploded")

    workload = workloads.WORKLOADS["theory_graphs"]
    monkeypatch.setattr(workload, "calls", lambda inputs, out: [("boom", boom)])
    result, details = _run("theory_graphs", trace=0)
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["success_rate"]["value"] == 0.0
    assert "solver exploded" in details["problems"]["boom"][0]


def test_reference_comparison_catches_small_errors():
    import workloads

    reference = workloads.load_reference()["gap"]["12"]
    problems = []
    workloads._compare_tree("same", dict(reference), reference, problems)
    assert problems == []
    shifted = dict(reference, avg_perf=[v * (1 + 1e-8) for v in reference["avg_perf"]])
    workloads._compare_tree("shifted", shifted, reference, problems)
    assert len(problems) == 1 and "avg_perf" in problems[0]


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(open(os.path.join(ROOT, "BENCHMARK.json")).read())
    with pytest.raises(run.BenchmarkError):
        run.run("paper", seed=1, seconds=1, trace=0, root=str(tmp_path))
