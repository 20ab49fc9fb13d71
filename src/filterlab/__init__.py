"""Consensus-based distributed Kalman filtering on periodic systems.

The package ties together four layers: periodic plant models and batched
trajectory simulation (`periodic`), sensor graphs and doubly stochastic
consensus weights (`network`), steady-state periodic Riccati/Lyapunov
solvers and the observability test (`spps`), and the gap theory plus the
Monte Carlo harness, whose batched engine is the one filter implementation
(`gap`, `harness`).
"""

from .errors import ConvergenceError, FilterlabError, NumericalError, ValidationError
from .periodic import (
    PeriodicSequence,
    PlantModel,
    benchmark_plant,
    normalize_period,
    simulate_trials,
)
from .network import (
    ConsensusWeights,
    SensorGraph,
    diameter,
    graph_from_positions,
    is_strongly_connected,
    metropolis_weights,
    random_geometric_graph,
    second_largest_eigenvalue,
    weight_power,
)
from .spps import (
    SppsSolution,
    dple_spps,
    dpre_spps,
    uniform_observability,
)
from .gap import (
    GapReport,
    average_performance,
    build_gap_report,
    centralized_dpre,
    cmdf_spps,
)
from .harness import (
    Scenario,
    TrialResults,
    benchmark_scenario,
    compare_cidf,
    export_results,
    load_scenario,
    run_monte_carlo,
)

__version__ = "0.1.0"
