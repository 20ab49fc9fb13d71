"""Command-line entry point.

Subcommands bind scenario files to the solvers and the Monte Carlo harness:

  solve-dpre    steady centralized covariance of a plant
  observability observability verdicts for the plant and per-node fused pairs
  simulate      Monte Carlo MSE curves vs theory
  gap           per (sensor, L) steady performance gap report
  rates         per-sensor gap decay-rate table
  compare-cidf  consensus-on-measurement vs consensus-on-information table
  paper         full built-in benchmark pipeline with default settings

Exit codes: 0 success, 1 validation/config error, 2 numerical failure.
"""

import argparse
import datetime
import json
import math
import os
import sys

from . import gap as gap_mod
from . import harness
from .errors import NumericalError, ValidationError
from .network import diameter, second_largest_eigenvalue, weight_power
from .periodic import PlantModel
from .spps import DEFAULT_TOL


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; config errors are 1 here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}")


def _positive_float(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"not a finite number > 0: {text!r}")
    return value


def _str_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip() != ""]


def _build_parser() -> _Parser:
    parser = _Parser(prog="filterlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_required=True):
        p.add_argument(
            "--scenario", required=scenario_required, help="scenario JSON path"
        )
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--trials", type=int, default=None, help="trial count override")
        p.add_argument(
            "--fusion-steps",
            type=_int_list,
            default=None,
            help="comma list of fusion depths L",
        )
        p.add_argument(
            "--tol", type=_positive_float, default=DEFAULT_TOL, help="solver tolerance"
        )
        p.add_argument(
            "--filters",
            type=_str_list,
            default=None,
            help="comma list from {ckf,cmdf,cidf}",
        )

    common(sub.add_parser("solve-dpre", help="solve the centralized steady covariance"))
    common(sub.add_parser("observability", help="print observability verdicts"))
    common(sub.add_parser("simulate", help="run the Monte Carlo experiment"))
    common(sub.add_parser("gap", help="write the steady performance gap report"))
    common(sub.add_parser("rates", help="write the gap decay-rate table"))
    common(sub.add_parser("compare-cidf", help="compare against the information baseline"))
    common(
        sub.add_parser(
            "paper", help="run the built-in benchmark pipeline end to end"
        ),
        scenario_required=False,
    )
    return parser


def _read_config(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None


def _plant_from_config(cfg: dict) -> PlantModel:
    if "plant" not in cfg:
        raise ValidationError("config has no 'plant' section")
    return PlantModel.from_dict(cfg["plant"])


def _ensure_out(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_run_info(out: str, extra: dict | None = None) -> None:
    # The only timestamped artifact; data files stay byte-identical per seed.
    info = {"generated": datetime.datetime.now().isoformat()}
    if extra:
        info.update(extra)
    with open(os.path.join(out, "run_info.json"), "w") as fh:
        json.dump(info, fh, indent=2)


def _scenario_with_overrides(scenario: harness.Scenario, args) -> harness.Scenario:
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.trials is not None:
        changes["trials"] = args.trials
    if args.fusion_steps is not None:
        changes["L_values"] = tuple(args.fusion_steps)
    if args.filters is not None:
        changes["filters"] = tuple(args.filters)
    if not changes:
        return scenario
    import dataclasses

    return dataclasses.replace(scenario, **changes)


def _cmd_solve_dpre(args) -> int:
    cfg = _read_config(args.scenario)
    plant = _plant_from_config(cfg)
    solution = gap_mod.centralized_dpre(plant, tol=args.tol)
    avg = gap_mod.average_performance(solution)
    print(
        f"period {solution.period}, sweeps {solution.iterations}, "
        f"residual {solution.residual:.3e}"
    )
    print(f"steady average trace: {avg:.10f}")
    if args.out:
        out = _ensure_out(args)
        solution.to_json(os.path.join(out, "dpre_solution.json"))
        solution.to_csv(os.path.join(out, "dpre_solution.csv"))
        _write_run_info(out, {"command": "solve-dpre"})
        print(f"wrote dpre_solution.{{json,csv}} to {out}")
    return 0


def _cmd_observability(args) -> int:
    cfg = _read_config(args.scenario)
    plant = _plant_from_config(cfg)
    graph, weights = harness.network_from_dict(cfg) if "graph" in cfg else (None, None)
    verdicts = {}
    verdict = gap_mod.observable_support(plant, [True] * plant.N, verdicts)
    print(f"pair (A, C): uniformly observable: {str(verdict).lower()}")
    if weights is not None:
        if args.fusion_steps is not None:
            L_list = args.fusion_steps
        else:
            d = diameter(graph)
            L_list = list(cfg.get("L_values", range(d, d + 3)))
        if any(L < 0 for L in L_list):
            raise ValidationError("fusion steps must be >= 0")
        for L in L_list:
            _, mask = weight_power(weights, L)
            for i in range(plant.N):
                ok = gap_mod.observable_support(plant, mask[i], verdicts)
                print(
                    f"sensor {i} L={L}: uniformly observable: {str(ok).lower()}"
                )
    return 0


def _cmd_simulate(args) -> int:
    scenario = _scenario_with_overrides(harness.load_scenario(args.scenario), args)
    results = harness.run_monte_carlo(scenario, tol=args.tol)
    out = _ensure_out(args)
    paths = harness.export_results(results, out)
    _write_run_info(out, {"command": "simulate", "runtime_s": results.runtime_seconds})
    print(
        f"simulated {results.trials} trials x {results.horizon} steps "
        f"({len(results.runs)} filter runs) in {results.runtime_seconds:.1f}s"
    )
    for p in paths:
        print(f"wrote {p}")
    return 0


def _gap_report(args) -> gap_mod.GapReport:
    scenario = _scenario_with_overrides(harness.load_scenario(args.scenario), args)
    return gap_mod.build_gap_report(
        scenario.plant,
        scenario.weights,
        scenario.L_values,
        tol=args.tol,
        graph=scenario.graph,
        seed=scenario.seed,
    )


def _cmd_gap(args) -> int:
    report = _gap_report(args)
    out = _ensure_out(args)
    report.to_csv(os.path.join(out, "gap_report.csv"))
    report.to_json(os.path.join(out, "gap_report.json"))
    _write_run_info(out, {"command": "gap"})
    print(
        f"gap report over {len(report.cells)} cells "
        f"(sigma2 {report.sigma2:.4f}); wrote gap_report.{{csv,json}} to {out}"
    )
    return 0


def _cmd_rates(args) -> int:
    report = _gap_report(args)
    out = _ensure_out(args)
    path = os.path.join(out, "rates.csv")
    report.rates_to_csv(path)
    _write_run_info(out, {"command": "rates"})
    finite = [c.rate for c in report.cells if c.rate == c.rate]
    if finite:
        print(
            f"rates: {len(finite)} finite ratios, max {max(finite):.4f}, "
            f"sigma2 {report.sigma2:.4f}"
        )
    print(f"wrote {path}")
    return 0


def _cmd_compare_cidf(args) -> int:
    scenario = _scenario_with_overrides(harness.load_scenario(args.scenario), args)
    comparison = harness.compare_cidf(scenario)
    out = _ensure_out(args)
    path = os.path.join(out, "cidf_comparison.csv")
    comparison.to_csv(path)
    with open(os.path.join(out, "cidf_crossover.json"), "w") as fh:
        json.dump({str(k): v for k, v in comparison.crossover.items()}, fh, indent=2)
    _write_run_info(out, {"command": "compare-cidf"})
    print(f"wrote {path}")
    return 0


def _cmd_paper(args) -> int:
    scenario = harness.benchmark_scenario()
    scenario = _scenario_with_overrides(scenario, args)
    if not scenario.L_values:
        raise ValidationError("the gap report needs at least one L value")
    out = _ensure_out(args)
    with open(os.path.join(out, "scenario.json"), "w") as fh:
        json.dump(harness.scenario_to_dict(scenario), fh, indent=2)
    d = diameter(scenario.graph)
    print(
        f"benchmark: N={scenario.plant.N}, period={scenario.plant.period}, "
        f"diameter={d}, sigma2={second_largest_eigenvalue(scenario.weights):.4f}"
    )

    results = harness.run_monte_carlo(scenario, tol=args.tol)
    harness.export_results(results, out)
    print(f"monte carlo done in {results.runtime_seconds:.1f}s")

    report = results.gap_report
    report.to_csv(os.path.join(out, "gap_report.csv"))
    report.to_json(os.path.join(out, "gap_report.json"))
    report.rates_to_csv(os.path.join(out, "rates.csv"))
    if "cidf" in scenario.filters and "cmdf" in scenario.filters:
        comparison = harness.CidfComparison.from_results(results)
        comparison.to_csv(os.path.join(out, "cidf_comparison.csv"))

    _write_run_info(
        out, {"command": "paper", "runtime_s": results.runtime_seconds}
    )
    print(f"wrote benchmark outputs to {out}: {', '.join(sorted(os.listdir(out)))}")
    return 0


_COMMANDS = {
    "solve-dpre": _cmd_solve_dpre,
    "observability": _cmd_observability,
    "simulate": _cmd_simulate,
    "gap": _cmd_gap,
    "rates": _cmd_rates,
    "compare-cidf": _cmd_compare_cidf,
    "paper": _cmd_paper,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
