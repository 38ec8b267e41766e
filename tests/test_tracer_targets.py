import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"

# names the benchmark tracer wraps that the program no longer has; a
# benchmark change that points them at the current names shrinks this set
KNOWN_STALE = {
    "occutime.fourier.simulate_paths",
    "occutime.processes.path_rng",
    "occutime.limits.path_rng",
    "occutime.experiments.conditional_variances",
    "occutime.experiments.compute_F1",
    "occutime.experiments.compute_F2",
    "occutime.seminorms._numeric_fourier",
}


def _tracer_tables() -> dict:
    """The tracer's module-level target tables, read without importing it."""
    wanted = {"SPAN_TARGETS", "FUNCTION_FACTORIES", "TRANSFORM_FACTORIES"}
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in wanted:
                tables[name] = ast.literal_eval(node.value)
    assert set(tables) == wanted
    return tables


def test_tracer_targets_resolve():
    # a renamed function silently drops out of the benchmark's layer metrics
    unresolved = set()
    for rows in _tracer_tables().values():
        for module, attr, *_ in rows:
            if not hasattr(importlib.import_module(module), attr):
                unresolved.add(f"{module}.{attr}")
    assert unresolved <= KNOWN_STALE, sorted(unresolved - KNOWN_STALE)
