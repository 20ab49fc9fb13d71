"""Consensus-based distributed Kalman filtering on periodic systems.

The package ties together four layers: periodic plant models and trajectory
simulation (`periodic`), sensor graphs and doubly stochastic consensus
weights (`network`), steady-state periodic Riccati/Lyapunov solvers and
their spectral analysis (`spps`), and the filters themselves plus the gap
theory and Monte Carlo harness (`filters`, `gap`, `harness`).
"""

from .errors import ConvergenceError, FilterlabError, NumericalError, ValidationError
from .periodic import (
    PeriodicSequence,
    PlantModel,
    Trajectory,
    benchmark_plant,
    normalize_period,
    simulate_trajectory,
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
    spectral_diagnostics,
    weight_power,
)
from .spps import (
    MonodromyReport,
    SppsSolution,
    dple_spps,
    dpre_spps,
    dpre_monotonicity_probe,
    monodromy,
    monodromy_bounds,
    power_norm_bound,
    transition_product,
    uniform_observability,
)
from .filters import (
    FusionProducts,
    NodeState,
    ckf_step,
    cidf_step,
    cmdf_step,
    default_states,
    fusion_rounds,
)
from .gap import (
    GapReport,
    GapSeries,
    average_performance,
    build_gap_report,
    centralized_dpre,
    cmdf_spps,
    gap_series_cov,
    gap_series_ric,
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
