"""The traced benchmark's list of wrapped functions still fits the program.

``perfbench/layers.py`` wraps every entry of its ``TARGETS`` by name, so a
renamed or deleted function, or a method that changes kind, breaks
``perfbench/run.py --trace 1``.  The list is read with ``ast``: nothing
under ``perfbench/`` is imported or executed.
"""
import ast
import functools
import importlib
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _targets() -> tuple:
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{LAYERS} defines no TARGETS")


TARGETS = _targets()

# the methods that install() wraps by their kind rather than by setattr
KINDS = {"SamplePath.cumulative": functools.cached_property,
         "TimeGrid.dt": functools.cached_property,
         "LevyPath.coords": functools.cached_property,
         "MomentAccumulator.from_samples": classmethod}


@pytest.mark.parametrize("module, attr, group", TARGETS,
                         ids=[f"{m}.{a}" for m, a, _ in TARGETS])
def test_benchmark_target_resolves(module, attr, group):
    mod = importlib.import_module(f"levyint.{module}")
    if "." not in attr:
        assert inspect.isfunction(getattr(mod, attr))
        return
    cls_name, name = attr.split(".")
    raw = getattr(mod, cls_name).__dict__[name]
    kind = KINDS.get(attr)
    if kind is None:
        assert inspect.isfunction(raw)
    else:
        assert isinstance(raw, kind)


def test_every_special_kind_is_a_target():
    assert set(KINDS) <= {attr for _, attr, _ in TARGETS}


def test_wrapped_call_shapes():
    # the per-path wrappers replace the second positional argument
    from levyint import checks, stats

    assert list(inspect.signature(stats.accumulate_paths).parameters)[:2] == [
        "n_paths", "stat_fn"]
    assert list(inspect.signature(checks._exact_loop).parameters) == [
        "spec", "per_path"]
    assert list(inspect.signature(checks.run_suite).parameters) == [
        "specs", "parallelism"]
