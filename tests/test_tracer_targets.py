import ast
import importlib
from pathlib import Path

import numpy as np

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


def test_diagnostics_calls_the_traced_module_globals(monkeypatch):
    # the tracer's processes.simulate and fourier.g_decay spans replace
    # these names in occutime.experiments, so the decay probe must be called,
    # and must simulate, through them
    from occutime import BrownianMotion, StudyConfig, gaussian_bump
    experiments = importlib.import_module("occutime.experiments")
    events = []
    for name in ("simulate_paths", "g_decay_probe"):
        def counted(*args, _real=getattr(experiments, name), _name=name,
                    **kwargs):
            events.append(_name)
            result = _real(*args, **kwargs)
            events.append(f"/{_name}")
            return result
        monkeypatch.setattr(experiments, name, counted)
    experiments.diagnostics_study(StudyConfig(
        spec=BrownianMotion(), function=gaussian_bump(), n_list=(4, 8),
        refine=2, paths=100, master_seed=1, kind="diagnostics",
        u_list=(1.0,)))
    assert events == ["g_decay_probe", "simulate_paths", "/simulate_paths",
                      "/g_decay_probe", "simulate_paths", "/simulate_paths"]


def test_tracer_wraps_a_test_function(monkeypatch):
    # Recorder.wrap_function wraps f.value and f.gradient, and rebuilds f
    # with dataclasses.replace; the fused value_and_gradient is left as is
    from occutime import gaussian_bump, hat, tensor_product
    monkeypatch.syspath_prepend(str(TRACER.parent))
    tracer = importlib.import_module("tracer")
    f = tensor_product([gaussian_bump(), hat()])
    traced = tracer.Recorder().wrap_function(f)
    x = np.random.default_rng(2).normal(size=(4, 2))
    assert np.array_equal(traced.value(x), f.value(x))
    assert np.array_equal(traced.gradient(x), f.gradient(x))
    assert traced.value_and_gradient is f.value_and_gradient
