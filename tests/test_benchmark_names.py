"""The benchmark's tracer wraps hatkit functions by name from outside the
program.  These tests read its table from the source, without running or
changing it, and fail when a name it wraps or reads no longer exists."""

import ast
import importlib
from pathlib import Path

import pytest

from hatkit.perm import GroupByGenerators

SPANS = Path(__file__).resolve().parents[1] / "hatbench" / "spans.py"


def wrapped():
    """The literal ``WRAPPED`` table of spans.py."""
    (table,) = [node.value for node in ast.parse(SPANS.read_text()).body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "WRAPPED"]
    return ast.literal_eval(table)


@pytest.mark.parametrize("module, name", [
    (module, name) for module, name, _metric, _calls in wrapped()])
def test_wrapped_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("module, name", [
    ("hatkit.harness", "certify_hat"), ("hatkit.quotients", "action_kernel")])
def test_name_read_by_the_tracing_test_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def test_element_listing_the_tracer_wraps_exists():
    group = GroupByGenerators.trivial(1)
    assert callable(GroupByGenerators.elements)
    assert group._elements is None
