"""Command-line entry point.

Subcommands bind scenario files to the solvers and the Monte Carlo harness:

  solve-dpre    steady centralized covariance of a plant
  observability observability verdicts for the plant and per-node fused pairs
  simulate      Monte Carlo MSE curves vs theory, gap report and CIDF comparison
  gap           per (sensor, L) steady performance gap report
  rates         per-sensor gap decay-rate table
  compare-cidf  consensus-on-measurement vs consensus-on-information table
  paper         simulate, on the built-in benchmark unless --scenario is given

Each subcommand accepts only the flags it reads. Exit codes: 0 success,
1 validation/config error, 2 numerical failure.
"""

import argparse
import dataclasses
import datetime
import math
import os
import sys

from . import gap as gap_mod
from . import harness
from ._artifacts import timed, write_json
from .errors import NumericalError, ValidationError
from .network import check_fusion_steps, diameter, weight_power
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


def _plant(cfg: dict) -> PlantModel:
    if "plant" not in cfg:
        raise ValidationError("config has no 'plant' section")
    return PlantModel.from_dict(cfg["plant"])


def _scenario(args) -> harness.Scenario:
    """The scenario file (for `paper` by default the built-in benchmark) with
    the command's overrides applied and validated."""
    if args.scenario is None:
        scenario = harness.benchmark_scenario()
    else:
        scenario = harness.load_scenario(args.scenario)
    fields = ("seed", "trials", "L_values", "filters")
    changes = {f: getattr(args, f) for f in fields if getattr(args, f, None) is not None}
    return dataclasses.replace(scenario, **changes)


def _cmd_solve_dpre(args) -> dict:
    plant = _plant(harness.read_config(args.scenario))
    solution = gap_mod.centralized_dpre(plant, tol=args.tol)
    print(f"period {solution.period}, doublings {solution.doublings}, defect {solution.defect:.3e}")
    print(f"steady average trace: {gap_mod.average_performance(solution):.10f}")
    if args.out is not None:
        solution.to_json(os.path.join(args.out, "dpre_solution.json"))
        solution.to_csv(os.path.join(args.out, "dpre_solution.csv"))
        print(f"wrote dpre_solution.{{json,csv}} to {args.out}")
    return {}


def _cmd_observability(args) -> dict:
    cfg = harness.read_config(args.scenario)
    plant = _plant(cfg)
    verdicts = {}
    verdict = gap_mod.observable_support(plant, [True] * plant.N, verdicts)
    print(f"pair (A, C): uniformly observable: {str(verdict).lower()}")
    if "graph" not in cfg:
        if args.L_values is not None:
            raise ValidationError("--fusion-steps needs the config's 'graph' section")
        return {}
    graph, weights = harness.network_from_dict(cfg)
    L_list = args.L_values
    if L_list is None:
        d = diameter(graph)
        L_list = harness.config_ints(cfg, "L_values", range(d, d + 3))
    for L in check_fusion_steps(L_list):
        _, mask = weight_power(weights, L)
        for i in range(plant.N):
            ok = gap_mod.observable_support(plant, mask[i], verdicts)
            print(f"sensor {i} L={L}: uniformly observable: {str(ok).lower()}")
    return {}


def _write_comparison(comparison: harness.CidfComparison, out: str) -> None:
    comparison.to_csv(os.path.join(out, "cidf_comparison.csv"))
    comparison.crossover_to_json(os.path.join(out, "cidf_crossover.json"))


def _cmd_simulate(args) -> dict:
    """`simulate` and `paper`: one run, and every artifact it holds."""
    scenario = _scenario(args)
    out = args.out
    write_json(os.path.join(out, "scenario.json"), harness.scenario_to_dict(scenario))
    results = harness.run_monte_carlo(scenario, tol=args.tol)
    stages = results.stages
    written = ["scenario.json", "results_{per_step,steady}.csv", "results.json"]
    with timed(stages, "export"):
        harness.export_results(results, out)
        report = results.gap_report
        if report is not None:
            report.to_csv(os.path.join(out, "gap_report.csv"))
            report.to_json(os.path.join(out, "gap_report.json"))
            report.rates_to_csv(os.path.join(out, "rates.csv"))
            written += ["gap_report.{csv,json}", "rates.csv"]
        if {"cmdf", "cidf"} <= set(scenario.filters):
            _write_comparison(harness.CidfComparison.from_results(results), out)
            written += ["cidf_comparison.csv", "cidf_crossover.json"]
    print(
        f"simulated {results.trials} trials x {results.horizon} steps "
        f"({len(results.runs)} filter runs; N={scenario.plant.N}, "
        f"diameter={results.graph_diameter}, sigma2={results.sigma2:.4f}) "
        f"in {results.runtime_seconds:.1f}s"
    )
    print(f"wrote {', '.join(written)} to {out}")
    info = {
        "runtime_s": results.runtime_seconds,
        "filter_threads": results.filter_threads,
        "filter_blocks": results.filter_blocks,
        "filter_window": results.filter_window,
        "blas_pinned": results.blas_pinned,
        "stages": stages,
        "diverged": {r.label: list(r.diverged) for r in results.runs},
    }
    if report is not None:
        info["theory_stages"] = report.stages
    peak = _peak_rss_mb()
    if peak is not None:
        info["peak_rss_mb"] = peak
    return info if results.solver is None else {**info, "solver": results.solver}


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size in MB, or None where the
    ``resource`` module is missing."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts bytes on macOS and kilobytes elsewhere.
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def _cmd_gap(args) -> dict:
    """`gap` writes the steady gap report, `rates` its decay-rate table."""
    scenario = _scenario(args)
    report = gap_mod.build_gap_report(
        scenario.plant, scenario.weights, scenario.L_values, tol=args.tol,
        graph=scenario.graph, seed=scenario.seed,
    )
    if args.command == "gap":
        report.to_csv(os.path.join(args.out, "gap_report.csv"))
        report.to_json(os.path.join(args.out, "gap_report.json"))
        written = "gap_report.{csv,json}"
    else:
        report.rates_to_csv(os.path.join(args.out, "rates.csv"))
        written = "rates.csv"
    finite = [c.rate for c in report.cells if c.rate == c.rate]
    print(
        f"{len(report.cells)} cells, {len(finite)} finite rates, "
        f"sigma2 {report.sigma2:.4f}; wrote {written} to {args.out}"
    )
    return {"solver": report.solver, "theory_stages": report.stages}


def _cmd_compare_cidf(args) -> dict:
    _write_comparison(harness.compare_cidf(_scenario(args)), args.out)
    print(f"wrote cidf_comparison.csv, cidf_crossover.json to {args.out}")
    return {}


_FLAGS = {
    "scenario": dict(required=True, help="scenario JSON path"),
    "out": dict(default=".", help="output directory"),
    "seed": dict(type=int, help="master seed override"),
    "trials": dict(type=int, help="trial count override"),
    "fusion-steps": dict(type=_int_list, dest="L_values", help="comma list of fusion depths L"),
    "tol": dict(type=_positive_float, default=DEFAULT_TOL,
                help="relative change below which the doubling stops"),
    "filters": dict(type=_str_list, help="comma list from {ckf,cmdf,cidf}"),
}
_ALL = " ".join(_FLAGS)
_GAP = "scenario out seed fusion-steps tol"

# name: (command, help, the flags it reads)
_COMMANDS = {
    "solve-dpre": (_cmd_solve_dpre, "solve the centralized steady covariance", "scenario out tol"),
    "observability": (_cmd_observability, "print observability verdicts", "scenario fusion-steps"),
    "simulate": (_cmd_simulate, "run the Monte Carlo experiment", _ALL),
    "gap": (_cmd_gap, "write the steady performance gap report", _GAP),
    "rates": (_cmd_gap, "write the gap decay-rate table", _GAP),
    "compare-cidf": (
        _cmd_compare_cidf,
        "compare against the information baseline",
        "scenario out seed trials fusion-steps filters",
    ),
    "paper": (_cmd_simulate, "simulate on the built-in benchmark (or --scenario)", _ALL),
}
_SETTINGS = {
    ("solve-dpre", "out"): dict(default=None, help="output directory (default: print only)"),
    ("paper", "scenario"): dict(required=False, help="scenario JSON path (default: benchmark)"),
}


def _build_parser(argv=()) -> _Parser:
    """Every subcommand, with its flags; where ``argv`` starts with a
    subcommand's name, only that one's, since parsing reads no other."""
    parser = _Parser(prog="filterlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (run, text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, description=text)
        p.set_defaults(run=run)
        for flag in flags.split() if only in (None, name) else ():
            p.add_argument(f"--{flag}", **{**_FLAGS[flag], **_SETTINGS.get((name, flag), {})})
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = getattr(args, "out", None)
    try:
        if out is not None:
            os.makedirs(out, exist_ok=True)
        info = args.run(args)
        if out is not None:
            # The only timestamped artifact; data files stay byte-identical per seed.
            stamp = {"generated": datetime.datetime.now().isoformat(), "command": args.command}
            write_json(os.path.join(out, "run_info.json"), {**stamp, **info})
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
