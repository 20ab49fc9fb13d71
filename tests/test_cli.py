import csv
import dataclasses
import json
import re
import sys

import numpy as np
import pytest

import filterlab
import filterlab.gap
from conftest import run_python
from filterlab import harness
from filterlab.cli import main
from filterlab.harness import load_scenario, scenario_to_dict


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


@pytest.fixture
def golden_config(tmp_path):
    # Scalar plant whose steady covariance is the golden ratio.
    return write_json(
        tmp_path / "golden.json",
        {
            "plant": {
                "A": [[[1.0]]],
                "Q": [[[1.0]]],
                "sensors": [{"C": [[[1.0]]], "R": [[[1.0]]]}],
            }
        },
    )


@pytest.fixture
def alternating_config(tmp_path):
    # 2-periodic pair that is uniformly observable only across the period.
    return write_json(
        tmp_path / "alt.json",
        {
            "plant": {
                "A": [[[2.0, 0.0], [0.0, 2.0]]],
                "Q": [[[1.0, 0.0], [0.0, 1.0]]],
                "sensors": [{"C": [[[0.0, 1.0]], [[1.0, 0.0]]], "R": [[[1.0]]]}],
            }
        },
    )


@pytest.fixture
def tiny_scenario(tmp_path):
    return write_json(
        tmp_path / "scn.json",
        {
            "plant": {
                "A": [[[0.9, 0.1], [0.0, 0.7]]],
                "Q": [[[0.3, 0.0], [0.0, 0.3]]],
                "sensors": [
                    {"C": [[[1.0, 0.0]]], "R": [[[1.0]]]},
                    {"C": [[[0.0, 1.0]]], "R": [[[1.0]]]},
                    {"C": [[[0.0, 0.0]]], "R": [[[1.0]]]},
                ],
            },
            "graph": {"N": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
            "weights": "metropolis",
            "L_values": [1, 2],
            "horizon": 8,
            "trials": 5,
            "seed": 17,
            "filters": ["ckf", "cmdf", "cidf"],
        },
    )


class TestSolveDpre:
    def test_prints_golden_ratio(self, golden_config, capsys):
        assert main(["solve-dpre", "--scenario", golden_config]) == 0
        out = capsys.readouterr().out
        assert "1.6180339887" in out

    def test_writes_solution_files(self, golden_config, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert (
            main(["solve-dpre", "--scenario", golden_config, "--out", str(out_dir)])
            == 0
        )
        assert (out_dir / "dpre_solution.json").exists()
        assert (out_dir / "dpre_solution.csv").exists()

    def test_nonconvergent_system_exits_two(self, tmp_path, capsys):
        config = write_json(
            tmp_path / "bad.json",
            {
                "plant": {
                    "A": [[[2.0]]],
                    "Q": [[[1.0]]],
                    "sensors": [{"C": [[[0.0]]], "R": [[[1.0]]]}],
                }
            },
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["solve-dpre", "--scenario", config]) == 2

    @pytest.mark.parametrize(
        "a, message",
        [(2.0, "the recursion is divergent"), (1.0, "did not converge within 60 doublings")],
    )
    def test_failed_doubling_exits_two(self, a, message, tmp_path, capsys):
        # An unobserved a = 2 overflows (NumericalError); an unobserved a = 1
        # grows without end and exhausts the budget (ConvergenceError).
        config = write_json(
            tmp_path / "bad.json",
            {
                "plant": {
                    "A": [[[a]]], "Q": [[[1.0]]],
                    "sensors": [{"C": [[[0.0]]], "R": [[[1.0]]]}],
                }
            },
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["solve-dpre", "--scenario", config]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_bad_tol_rejected_before_solving(self, golden_config, tol, capsys):
        assert main(["solve-dpre", "--scenario", golden_config, "--tol", tol]) == 1
        err = capsys.readouterr().err
        assert "--tol" in err and "not a finite number > 0" in err


class TestObservability:
    def test_alternating_pair_verdict(self, alternating_config, capsys):
        assert main(["observability", "--scenario", alternating_config]) == 0
        out = capsys.readouterr().out
        assert "uniformly observable: true" in out

    def test_blind_pair_verdict(self, tmp_path, capsys):
        config = write_json(
            tmp_path / "blind.json",
            {
                "plant": {
                    "A": [[[2.0, 0.0], [0.0, 2.0]]],
                    "Q": [[[1.0, 0.0], [0.0, 1.0]]],
                    "sensors": [{"C": [[[0.0, 0.0]]], "R": [[[1.0]]]}],
                }
            },
        )
        assert main(["observability", "--scenario", config]) == 0
        out = capsys.readouterr().out
        assert "uniformly observable: false" in out

    def test_per_sensor_verdicts(self, tiny_scenario, capsys):
        assert (
            main(
                ["observability", "--scenario", tiny_scenario, "--fusion-steps", "0,1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        # Alone, sensor 1 sees only the second state and sensor 2 nothing.
        assert "sensor 0 L=0: uniformly observable: true" in out
        assert "sensor 1 L=0: uniformly observable: false" in out
        assert "sensor 2 L=0: uniformly observable: false" in out
        assert "sensor 0 L=1: uniformly observable: true" in out
        assert "sensor 2 L=1: uniformly observable: true" in out

    def test_fusion_steps_without_graph_rejected(self, alternating_config, capsys):
        argv = ["observability", "--scenario", alternating_config, "--fusion-steps", "1"]
        assert main(argv) == 1
        assert "'graph' section" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "L_values, flags",
        [([1, 2], ["--fusion-steps", "-1"]), ([1, 2], ["--fusion-steps", "1,1"]), ([1, 1], [])],
        ids=["-1", "1,1", "config-1,1"],
    )
    def test_negative_fusion_steps_rejected(
        self, tiny_scenario, tmp_path, capsys, L_values, flags
    ):
        # Depths must be >= 0 and distinct, from the flag or from the config.
        with open(tiny_scenario) as fh:
            cfg = json.load(fh)
        path = write_json(tmp_path / "steps.json", {**cfg, "L_values": L_values})
        assert main(["observability", "--scenario", path] + flags) == 1
        captured = capsys.readouterr()
        assert "sensor 0" not in captured.out
        assert "error:" in captured.err


# Doubly stochastic on the tiny scenario's triangle but for one NaN entry.
NAN_WEIGHTS = [[float("nan"), 0.5, 0.5], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]]


class TestErrorPaths:
    @pytest.mark.parametrize(
        "command, change, flags",
        [
            ("simulate", {"horizon": "abc"}, []),
            ("gap", {"horizon": "abc"}, []),
            ("simulate", None, []),
            ("simulate", {"seed": -3}, []),
            ("paper", {"seed": -3}, []),
            ("gap", {"seed": -3}, []),
            ("simulate", {}, ["--seed", "-1"]),
            ("paper", {}, ["--seed", "-1"]),
            ("simulate", {"L_values": "12"}, []),
            ("simulate", {"trials": 2.5}, []),
            ("simulate", {"noise_scale": float("nan")}, []),
            ("simulate", {"plant": "abc"}, []),
            ("simulate", {"graph": [1, 2]}, []),
            ("simulate", {"plant.sensors": 3}, []),
            ("simulate", {"x0": "ab"}, []),
            ("simulate", {"plant.A": "abc"}, []),
            ("simulate", {"weights": [["a"]]}, []),
            ("simulate", {"plant.period": "x"}, []),
            ("simulate", {"graph.edges": [[0, "a"]]}, []),
            ("simulate", {"plant.period": 1.5}, []),
            ("simulate", {"graph.N": 3.5}, []),
            ("simulate", {"graph.edges": [[0, 1.5], [1, 2], [0, 2]]}, []),
            ("simulate", {}, ["--fusion-steps", "1,1"]),
            ("simulate", {"L_values": [1, 1]}, []),
            ("simulate", {"filter": ["ckf"]}, []),
            ("simulate", {"noise_scale": 2.0}, []),
            ("simulate", {"plant.A.0.0.0": float("nan")}, []),
            ("gap", {"plant.A.0.0.0": float("nan")}, []),
            ("solve-dpre", {"plant.A.0.0.0": float("nan")}, []),
            ("observability", {"plant.A.0.0.0": float("nan")}, []),
            ("gap", {"plant.A.0.1.1": float("inf")}, []),
            ("simulate", {"plant.sensors.1.C.0.0.1": float("nan")}, []),
            ("observability", {"plant.sensors.1.C.0.0.1": float("nan")}, []),
            ("simulate", {"weights": NAN_WEIGHTS}, ["--filters", "ckf", "--fusion-steps", ","]),
            ("observability", {"weights": NAN_WEIGHTS}, []),
            ("simulate", {"graph.edges": [[0], [1, 2], [0, 2]]}, []),
            ("observability", {"graph.edges": [[0], [1, 2], [0, 2]]}, []),
            ("simulate", {"graph.edges": [[0, 1, 7], [1, 2], [0, 2]]}, []),
            ("gap", {"graph.edges": [[0, 1, 7], [1, 2], [0, 2]]}, []),
        ],
    )
    def test_malformed_scenario_values_rejected(
        self, tiny_scenario, tmp_path, capsys, command, change, flags
    ):
        with open(tiny_scenario) as fh:
            cfg = json.load(fh)
        # None stands for a config that is a JSON list instead of an object;
        # a dotted key replaces a value inside a section, list items by index.
        for key, value in (change or {}).items():
            *path, name = key.split(".")
            target = cfg
            for part in path:
                target = target[int(part) if isinstance(target, list) else part]
            target[int(name) if isinstance(target, list) else name] = value
        cfg = [cfg] if change is None else cfg
        path = write_json(tmp_path / "malformed.json", cfg)
        argv = [command, "--scenario", path]
        if command != "observability":  # the one command without --out
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv + flags) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "solve-dpre", "observability"])
    def test_unknown_config_key_named(
        self, tiny_scenario, tmp_path, monkeypatch, capsys, command
    ):
        with open(tiny_scenario) as fh:
            cfg = json.load(fh)
        cfg["weight"] = "metropolis"
        path = write_json(tmp_path / "typo.json", cfg)
        monkeypatch.chdir(tmp_path)
        assert main([command, "--scenario", path]) == 1
        assert "unknown config keys ['weight']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, section, key, named",
        [
            ("simulate", "plant", "perod", "plant: unknown config keys ['perod']"),
            ("simulate", "sensor", "Rr", "plant sensors[0]: unknown config keys ['Rr']"),
            ("simulate", "graph", "position", "graph: unknown config keys ['position']"),
            ("simulate", "builtin", "A", "plant: unknown config keys ['A']"),
            ("solve-dpre", "sensor", "Rr", "plant sensors[0]: unknown config keys ['Rr']"),
            ("observability", "graph", "position", "graph: unknown config keys ['position']"),
        ],
    )
    def test_unknown_section_key_named(
        self, tiny_scenario, tmp_path, monkeypatch, capsys, command, section, key, named
    ):
        with open(tiny_scenario) as fh:
            cfg = json.load(fh)
        if section == "builtin":
            # Inline matrices next to a builtin plant would be silently dropped.
            cfg["plant"] = {"builtin": "paper_sec5", key: cfg["plant"]["A"]}
        else:
            sections = {
                "plant": cfg["plant"],
                "sensor": cfg["plant"]["sensors"][0],
                "graph": cfg["graph"],
            }
            sections[section][key] = 7
        path = write_json(tmp_path / "typo.json", cfg)
        monkeypatch.chdir(tmp_path)
        assert main([command, "--scenario", path]) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "--trials", "5"],
            ["solve-dpre", "--seed", "1"],
            ["observability", "--out", "d"],
        ],
    )
    def test_flag_the_command_does_not_read_rejected(self, tiny_scenario, argv, capsys):
        assert main(argv[:1] + ["--scenario", tiny_scenario] + argv[1:]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("solve-dpre", {"scenario", "out", "tol"}),
            ("observability", {"scenario", "fusion-steps"}),
            ("gap", {"scenario", "out", "seed", "fusion-steps", "tol"}),
            ("rates", {"scenario", "out", "seed", "fusion-steps", "tol"}),
            ("compare-cidf", {"scenario", "out", "seed", "trials", "fusion-steps", "filters"}),
            ("simulate", {"scenario", "out", "seed", "trials", "fusion-steps", "tol", "filters"}),
            ("paper", {"scenario", "out", "seed", "trials", "fusion-steps", "tol", "filters"}),
        ],
    )
    def test_help_lists_only_the_flags_read(self, command, flags, capsys):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"--([a-z-]+)", capsys.readouterr().out))
        assert listed - {"help"} == flags

    @pytest.mark.parametrize(
        "argv",
        [[command, "--help"] for command in filterlab.cli._COMMANDS]
        + [["--help"], ["gap", "--trials", "5"], ["paper", "--tol", "0"], ["frobnicate"]],
    )
    def test_parser_of_one_command_reads_as_the_full_parser(self, argv, capsys):
        # Naming a subcommand builds only its flags; what it prints, help
        # and errors alike, is the full parser's word for word.
        code = main(argv)
        printed = capsys.readouterr()
        with pytest.raises(SystemExit) as full:
            filterlab.cli._build_parser().parse_args(argv)
        assert (code, printed) == (full.value.code, capsys.readouterr())

    def test_unknown_flag_rejected(self, capsys):
        assert main(["solve-dpre", "--scenario", "x.json", "--bogus"]) == 1

    def test_unknown_subcommand_rejected(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_file(self, capsys):
        assert main(["solve-dpre", "--scenario", "/nonexistent/f.json"]) == 1

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve-dpre", "--scenario", str(path)]) == 1

    def test_schema_violation(self, tmp_path, capsys):
        config = write_json(tmp_path / "incomplete.json", {"plant": {"A": [[[1.0]]]}})
        assert main(["solve-dpre", "--scenario", config]) == 1


class TestPipelines:
    def test_simulate_writes_outputs(self, tiny_scenario, tmp_path, capsys):
        out = tmp_path / "sim"
        assert (
            main(["simulate", "--scenario", tiny_scenario, "--out", str(out)]) == 0
        )
        assert (out / "results_per_step.csv").exists()
        assert (out / "results_steady.csv").exists()
        assert (out / "results.json").exists()
        info = json.loads((out / "run_info.json").read_text())
        # The export stage is timed apart from the Monte Carlo run.
        assert isinstance(info["runtime_s"], float) and info["runtime_s"] >= 0
        assert "export" in info["stages"] and "export_s" not in info
        # Five trials are below the split threshold.
        assert info["filter_threads"] == 1
        assert info["blas_pinned"] is (harness._openblas() is not None)

    def test_run_info_records_a_split_pass(self, tiny_scenario, tmp_path, monkeypatch):
        if harness._openblas() is None:
            pytest.skip("numpy bundles no OpenBLAS whose threads can be pinned")
        monkeypatch.setattr(harness, "SPLIT_MIN_TRIALS", 1)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        # One run a block makes four blocks of the tiny pass; the default
        # budget holds it in one, which no second thread can share.
        for block_bytes, blocks, threads in [(0, 4, 2), (harness.BLOCK_BYTES, 1, 1)]:
            monkeypatch.setattr(harness, "BLOCK_BYTES", block_bytes)
            out = tmp_path / f"split{block_bytes}"
            assert main(["simulate", "--scenario", tiny_scenario, "--out", str(out)]) == 0
            info = json.loads((out / "run_info.json").read_text())
            assert info["filter_threads"] == threads and info["blas_pinned"] is True
            assert len(info["filter_blocks"]) == blocks

    def test_run_info_records_the_estimate_blocks(self, tmp_path):
        # 384 KB hold two 20-row runs of 300 trials; the CKF row rides with
        # the first CMDF run, and the 300 trials run on one thread.
        scenario = write_json(
            tmp_path / "bench.json",
            harness.scenario_to_dict(harness.benchmark_scenario(trials=300, horizon=60)),
        )
        out = tmp_path / "bench"
        assert main(["simulate", "--scenario", scenario, "--out", str(out)]) == 0
        info = json.loads((out / "run_info.json").read_text())
        assert info["filter_threads"] == 1
        assert info["filter_blocks"] == [21] + [40] * 8 + [20]
        assert info["filter_window"] == harness.WINDOW_STEPS

    def test_one_trial_writes_no_standard_error(self, tiny_scenario, tmp_path, capsys):
        out = tmp_path / "one"
        argv = ["simulate", "--scenario", tiny_scenario, "--out", str(out), "--trials", "1"]
        assert main(argv) == 0
        # NaN is no JSON number: any non-finite constant fails the test.
        text = (out / "results.json").read_text()
        runs = json.loads(text, parse_constant=pytest.fail)["runs"]
        for run in runs:
            assert run["steady_se"] == [None] * len(run["mse_steady"])

    def test_simulate_honors_overrides(self, tiny_scenario, tmp_path, capsys):
        out = tmp_path / "sim2"
        assert (
            main(
                [
                    "simulate", "--scenario", tiny_scenario, "--out", str(out),
                    "--trials", "3", "--filters", "ckf",
                ]
            )
            == 0
        )
        with open(out / "results.json") as fh:
            data = json.load(fh)
        assert data["trials"] == 3
        assert [r["filter"] for r in data["runs"]] == ["ckf"]

    def test_gap_and_rates(self, tiny_scenario, tmp_path, capsys):
        out = tmp_path / "gap"
        assert main(["gap", "--scenario", tiny_scenario, "--out", str(out)]) == 0
        assert (out / "gap_report.csv").exists()
        # A sweep with holes: each swept L solves its own L + 1.
        argv = ["rates", "--scenario", tiny_scenario, "--out", str(out)]
        assert main(argv + ["--fusion-steps", "1,3"]) == 0
        with open(out / "rates.csv") as fh:
            assert [row["L"] for row in csv.DictReader(fh)] == ["1", "3"] * 3

    def test_empty_sweep(self, tiny_scenario, tmp_path, capsys):
        with open(tiny_scenario) as fh:
            cfg = json.load(fh)
        del cfg["L_values"]
        cfg["filters"] = ["ckf"]
        path = write_json(tmp_path / "ckf_only.json", cfg)
        out = str(tmp_path / "out")
        assert main(["simulate", "--scenario", path, "--out", out]) == 0
        with open(tmp_path / "out" / "results.json") as fh:
            assert json.load(fh)["centralized_avg"] > 0
        assert main(["gap", "--scenario", path, "--out", out]) == 1
        assert main(["rates", "--scenario", path, "--out", out]) == 1
        assert "at least one L value" in capsys.readouterr().err

    def test_simulate_theory_uses_tol(self, tiny_scenario, tmp_path, monkeypatch):
        stacks = []
        riccati, lyapunov = filterlab.gap._information_riccati, filterlab.gap._lyapunov_stack

        def recording_riccati(A, Q, S, tol, *lyapunov):
            stacks.append(("riccati", S.shape[1], tol))
            return riccati(A, Q, S, tol, *lyapunov)

        def recording_lyapunov(loops, noise, tol, *period_map):
            stacks.append(("lyapunov", loops.shape[1], tol))
            return lyapunov(loops, noise, tol, *period_map)

        monkeypatch.setattr(filterlab.gap, "_information_riccati", recording_riccati)
        monkeypatch.setattr(filterlab.gap, "_lyapunov_stack", recording_lyapunov)
        node_calls = []
        fused_solve = filterlab.gap._fused_solve

        def recording_fused(model, weights, L_values, tol, reduce, stages):
            node_calls.append((list(L_values), tol))
            return fused_solve(model, weights, L_values, tol, reduce, stages)

        monkeypatch.setattr(filterlab.gap, "_fused_solve", recording_fused)
        argv = ["simulate", "--scenario", tiny_scenario, "--out", str(tmp_path)]
        assert main(argv + ["--tol", "1e-7"]) == 0
        # One stacked solve carrying L = 1, 2 and the rate's 3: the Riccati
        # of the 3 nodes per depth plus the centralized cell, then the
        # Lyapunov of the node cells.
        assert node_calls == [([1, 2, 3], 1e-7)]
        assert stacks == [("riccati", 3 * 3 + 1, 1e-7), ("lyapunov", 3 * 3, 1e-7)]

    def test_run_info_records_theory_stages(self, tiny_scenario, tmp_path, capsys):
        # Wall and CPU seconds of the report's observability checks, Riccati
        # stack and Lyapunov stack, and how many support checks met how many
        # distinct masks: 3 nodes at each of L = 1, 2, 3, 4 on the complete
        # graph, all fusing every sensor. The timings are not checked.
        for command in ("gap", "rates", "simulate", "paper"):
            out = tmp_path / command
            argv = [command, "--scenario", tiny_scenario, "--out", str(out)]
            assert main(argv + ["--fusion-steps", "1,3"]) == 0
            stages = json.loads((out / "run_info.json").read_text())["theory_stages"]
            assert list(stages) == ["observability", "riccati", "lyapunov"]
            checks = stages["observability"]
            assert sorted(checks) == ["cpu_s", "masks", "observable_support", "wall_s"]
            assert (checks["observable_support"], checks["masks"]) == (12, 1)
            for stage in stages.values():
                assert all(isinstance(stage[key], float) for key in ("wall_s", "cpu_s"))

    def test_run_info_records_solver(self, tiny_scenario, tmp_path, capsys):
        # Per solved L (the sweep and each rate's L + 1), the most doublings
        # and the largest fixed-point defect of both stacks; the centralized
        # cell's;
        # and the slots solved as pure prediction, none for this plant of
        # period 1 with two measuring sensors. The data files do not carry
        # them.
        for command in ("gap", "rates", "simulate"):
            out = tmp_path / command
            argv = [command, "--scenario", tiny_scenario, "--out", str(out)]
            assert main(argv + ["--fusion-steps", "1,3", "--tol", "1e-9"]) == 0
            solver = json.loads((out / "run_info.json").read_text())["solver"]
            assert sorted(solver) == ["L", "centralized", "silent_slots"]
            assert solver["silent_slots"] == 0
            central = solver["centralized"]
            assert sorted(central) == ["riccati_defect", "riccati_doublings"]
            assert central["riccati_doublings"] >= 1
            assert 0 <= central["riccati_defect"] <= 1e-12
            assert [row["L"] for row in solver["L"]] == [1, 2, 3, 4]
            for row in solver["L"]:
                assert sorted(row) == [
                    "L", "lyapunov_defect", "lyapunov_doublings",
                    "riccati_defect", "riccati_doublings",
                ]
                for stack in ("riccati", "lyapunov"):
                    assert isinstance(row[f"{stack}_doublings"], int)
                    assert row[f"{stack}_doublings"] >= 1
                    assert 0 <= row[f"{stack}_defect"] <= 1e-12
        for path in tmp_path.glob("*/*"):
            if path.name != "run_info.json":
                assert "doublings" not in path.read_text(), path

    def test_run_info_records_stages(self, tiny_scenario, tmp_path, monkeypatch, capsys):
        # Wall and CPU seconds of each stage, and the process's peak RSS
        # where the resource module exists; the timings are not checked.
        out = tmp_path / "sim"
        argv = ["simulate", "--scenario", tiny_scenario, "--out", str(out)]
        assert main(argv) == 0
        info = json.loads((out / "run_info.json").read_text())
        stages = info["stages"]
        assert list(stages) == ["simulate", "filter", "theory", "export"]
        for stage in stages.values():
            assert sorted(stage) == ["cpu_s", "wall_s"]
            assert all(isinstance(v, float) and v >= 0 for v in stage.values())
        assert isinstance(info["peak_rss_mb"], float) and info["peak_rss_mb"] > 0
        monkeypatch.setitem(sys.modules, "resource", None)  # import fails
        assert main(argv) == 0
        assert "peak_rss_mb" not in json.loads((out / "run_info.json").read_text())

    def test_run_info_records_diverged_trials(self, tiny_scenario, tmp_path, monkeypatch):
        # One spiked measurement blows trial 0 up in every run; 1 of 100
        # trials is within the budget, and each run lists it.
        def spiked(*args, **kwargs):
            X, Y = filterlab.simulate_trials(*args, **kwargs)
            Y[0, 3, 0] = 1e12
            return X, Y

        monkeypatch.setattr(harness, "simulate_trials", spiked)
        out = tmp_path / "sim"
        argv = ["simulate", "--scenario", tiny_scenario, "--out", str(out), "--trials", "100"]
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv) == 0
        diverged = json.loads((out / "run_info.json").read_text())["diverged"]
        labels = ["ckf", "cmdf_L1", "cmdf_L2", "cidf_L1", "cidf_L2"]
        assert diverged == {label: [0] for label in labels}
        runs = json.loads((out / "results.json").read_text())["runs"]
        assert [r["diverged_trials"] for r in runs] == [[0]] * 5

    def test_run_info_records_the_centralized_solve_without_a_sweep(
        self, tiny_scenario, tmp_path, capsys
    ):
        with open(tiny_scenario) as fh:
            cfg = json.load(fh)
        del cfg["L_values"]
        cfg["filters"] = ["ckf"]
        path = write_json(tmp_path / "ckf_only.json", cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", path, "--out", str(out), "--tol", "1e-9"]) == 0
        info = json.loads((out / "run_info.json").read_text())
        assert info["diverged"] == {"ckf": []}
        solver = info["solver"]
        assert sorted(solver) == ["centralized", "silent_slots"]
        assert solver["silent_slots"] == 0
        central = solver["centralized"]
        assert sorted(central) == ["riccati_defect", "riccati_doublings"]
        assert isinstance(central["riccati_doublings"], int) and central["riccati_doublings"] >= 1
        assert 0 <= central["riccati_defect"] <= 1e-12

    @pytest.fixture
    def growing_gap(self, tmp_path):
        # Two scalar sensors, the second nearly blind, with strong mixing:
        # node 0's gap grows from L = 0 to L = 3, which the report warns of.
        return write_json(
            tmp_path / "growing.json",
            {
                "plant": {
                    "A": [[[0.9]]],
                    "Q": [[[1.0]]],
                    "sensors": [{"C": [[[1.0]]], "R": [[[1.0]]]}, {"C": [[[0.1]]], "R": [[[1.0]]]}],
                },
                "graph": {"N": 2, "edges": [[0, 1]]},
                "weights": [[0.1, 0.9], [0.9, 0.1]],
                "L_values": [0, 3],
                "horizon": 8,
                "trials": 2,
                "seed": 1,
            },
        )

    def test_gap_growth_warning_reaches_stderr(self, growing_gap, tmp_path):
        # Without any logging set up, Python's last-resort handler prints
        # the package's warnings; a fresh process keeps pytest's capture out.
        out = run_python("-m", "filterlab", "gap", "--scenario", growing_gap, "--out", str(tmp_path))
        assert out.returncode == 0, out.stderr
        assert "gap at sensor 0 grew from L=0 to L=3" in out.stderr

    def test_compare_cidf(self, tiny_scenario, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert (
            main(["compare-cidf", "--scenario", tiny_scenario, "--out", str(out)])
            == 0
        )
        assert (out / "cidf_comparison.csv").exists()
        assert (out / "cidf_crossover.json").exists()

    def test_byte_identical_reruns(self, tiny_scenario, tmp_path, capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--scenario", tiny_scenario, "--out", str(out1)]) == 0
        assert main(["simulate", "--scenario", tiny_scenario, "--out", str(out2)]) == 0
        for name in ("results_per_step.csv", "results_steady.csv", "results.json"):
            with open(out1 / name, "rb") as fa, open(out2 / name, "rb") as fb:
                assert fa.read() == fb.read()


class TestPaperPipeline:
    def test_smoke_run_emits_all_csvs(self, tmp_path, capsys, monkeypatch):
        calls, rows = [], []
        solver = filterlab.gap._fused_solve

        def counting(model, weights, L_values, tol, reduce, stages):
            calls.append(list(L_values))

            def reducing(riccati):
                rows.append(("riccati", riccati[0].shape[:2]))
                return reduce(riccati)

            kept, lyapunov = solver(model, weights, L_values, tol, reducing, stages)
            rows.append(("lyapunov", lyapunov[0].shape[:2]))
            return kept, lyapunov

        monkeypatch.setattr(filterlab.gap, "_fused_solve", counting)
        # Small trial count and a short sweep keep the smoke test brisk.
        out = tmp_path / "paper"
        code = main(
            [
                "paper", "--out", str(out), "--trials", "10",
                "--fusion-steps", "4,5",
            ]
        )
        assert code == 0
        expected = [
            "scenario.json",
            "results_per_step.csv",
            "results_steady.csv",
            "results.json",
            "gap_report.csv",
            "gap_report.json",
            "rates.csv",
            "cidf_comparison.csv",
            "run_info.json",
        ]
        for name in expected:
            assert (out / name).exists(), name
        with open(out / "scenario.json") as fh:
            scn = json.load(fh)
        assert scn["trials"] == 10
        assert scn["horizon"] == 100
        with open(out / "run_info.json") as fh:
            info = json.load(fh)
        assert info["command"] == "paper"
        assert info["stages"]["export"]["wall_s"] >= 0
        # One theory solve per cell: one stacked call carrying L = 4, 5 and
        # the rate's 6, with the 20 sensors of each over the 30-step period;
        # the Riccati stack adds the centralized cell.
        assert calls == [[4, 5, 6]]
        assert rows == [("riccati", (30, 61)), ("lyapunov", (30, 60))]
        assert [row["L"] for row in info["solver"]["L"]] == [4, 5, 6]
        # No sensor measures on the period's 15 even slots.
        assert info["solver"]["silent_slots"] == 15

        def column(name, key, field):
            with open(out / name) as fh:
                return {key(row): row[field] for row in csv.DictReader(fh)}

        steady = column(
            "results_steady.csv",
            lambda r: (r["sensor"], r["L"]) if r["filter"].startswith("cmdf") else None,
            "rate_q",
        )
        steady.pop(None)
        assert len(steady) == 40 and all(steady.values())
        assert steady == column("rates.csv", lambda r: (r["sensor"], r["L"]), "rate_q")
        assert steady == column("gap_report.csv", lambda r: (r["sensor"], r["L"]), "rate")

    def test_paper_honours_scenario(self, tiny_scenario, tmp_path, capsys):
        out = tmp_path / "paper"
        argv = ["paper", "--scenario", tiny_scenario, "--trials", "3", "--out", str(out)]
        assert main(argv) == 0
        tiny = dataclasses.replace(load_scenario(tiny_scenario), trials=3)
        expected = json.loads(json.dumps(scenario_to_dict(tiny)))
        with open(out / "scenario.json") as fh:
            assert json.load(fh) == expected
        with open(out / "results.json") as fh:
            assert json.load(fh)["trials"] == 3

        # compare-cidf on the written scenario reproduces paper's CIDF files.
        again = tmp_path / "again"
        argv = ["compare-cidf", "--scenario", str(out / "scenario.json"), "--out", str(again)]
        assert main(argv) == 0
        for name in ("cidf_comparison.csv", "cidf_crossover.json"):
            assert (again / name).read_bytes() == (out / name).read_bytes(), name

    def test_paper_without_sweep_writes_results_only(self, tmp_path, capsys):
        out = tmp_path / "ckf"
        argv = ["paper", "--out", str(out), "--trials", "3", "--filters", "ckf"]
        assert main(argv + ["--fusion-steps", ""]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "results.json",
            "results_per_step.csv",
            "results_steady.csv",
            "run_info.json",
            "scenario.json",
        ]
