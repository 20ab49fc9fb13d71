"""The package keeps one filter implementation, the batched engine in
``harness``. The step-wise filters and their one-trial simulator live in
``tests/reference_filters.py`` as the oracle the engine is checked against,
and the lemma checks and the series forms of the gap, which no command runs,
in ``tests/theory_checks.py``; neither may grow back into the package."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "filterlab"
TEST_ONLY_NAMES = {
    "ckf_step", "cmdf_step", "cidf_step", "NodeState", "simulate_trajectory",
    "MonodromyReport", "transition_product", "monodromy", "monodromy_bounds",
    "_solution_loops", "solution_monodromy", "power_norm_bound",
    "dpre_monotonicity_probe", "fixed_point_defect", "spectral_diagnostics",
    "_support_connected", "spectral_radius", "min_eig_sym", "weights_to_csv",
    "GapSeries", "_series_parts", "_series", "gap_series_ric", "gap_series_cov",
    "SERIES_TOL", "SERIES_TERM_TOL", "spectral_norm",
}


def _bound_names(node) -> set:
    """Names a definition, import or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {alias.name for alias in node.names} | {alias.asname for alias in node.names}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return {node.id}
    return set()


def test_no_second_filter_in_the_package():
    assert not (SRC / "filters.py").exists()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            found = _bound_names(node) & TEST_ONLY_NAMES
            assert not found, f"{path.name}:{node.lineno} binds {sorted(found)}"
