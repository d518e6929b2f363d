"""Every function the benchmark's tracer (perfbench/spans.py) reads by name
is still a function of its module, so a rename cannot silently zero a
per-layer metric."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import cmpartitions.cli  # noqa: F401  (the tracer wraps every layer)
from cmpartitions import modpoly, recognize
from cmpartitions.precision import PrecisionConfig, run_adaptive

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# (module, public function) pairs that spans.layer_metrics looks up
LOOKED_UP = [
    ("evaluate", "eval_P"), ("evaluate", "eval_A"), ("evaluate", "eval_B"),
    ("evaluate", "eval_C"), ("evaluate", "eval_Aprime"), ("evaluate", "eval_j"),
    ("evaluate", "eval_theta_j"),
    ("modpoly", "beta_product"), ("modpoly", "beta_norm"),
    ("modpoly", "fixing_class"), ("modpoly", "taylor_coeffs"),
    ("recognize", "orbit_product"), ("recognize", "sharpness_divisor"),
    ("quadforms", "enumerate_qn"), ("quadforms", "cm_point"),
    ("resolvent", "tabulated_deviations"),
    ("series", "fp_series"), ("series", "hypothesis_check"),
    ("precision", "run_adaptive"),
]


def _private():
    """(module, name) of each entry of spans.PRIVATE, read from the source
    rather than imported."""
    for node in ast.parse(SPANS.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "PRIVATE" for t in node.targets)):
            return [(layer, name) for layer, name, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no PRIVATE in {SPANS}")


@pytest.mark.parametrize("layer, name", LOOKED_UP)
def test_looked_up_name_is_a_function_of_its_module(layer, name):
    assert f'"{name}"' in SPANS.read_text()
    fn = getattr(importlib.import_module(f"cmpartitions.{layer}"), name, None)
    # the tracer wraps only functions defined in the module itself
    assert inspect.isfunction(fn) and fn.__module__ == f"cmpartitions.{layer}"


@pytest.mark.parametrize("layer, name", _private())
def test_private_name_is_a_function_of_its_module(layer, name):
    fn = getattr(importlib.import_module(f"cmpartitions.{layer}"), name, None)
    assert inspect.isfunction(fn)


def _spans():
    """perfbench/spans.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_adaptive_takes_the_task_first():
    # the tracer wraps the first argument of run_adaptive as each rung
    assert list(inspect.signature(run_adaptive).parameters)[:2] == ["task", "cfg"]


@pytest.mark.parametrize("module, name", [(recognize, "compute_pn"), (modpoly, "j_norm")])
def test_precision_metrics_read_the_rungs(module, name):
    spans = _spans()
    recorder = spans.Recorder("test")
    with spans.tracing(recorder):
        getattr(module, name)(1, PrecisionConfig())
    metrics = spans.layer_metrics(recorder.spans, 1.0)
    assert metrics["precision.ladders"] >= 1 and metrics["precision.rungs"] >= 1

