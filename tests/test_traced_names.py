"""The benchmark's tracer replaces package attributes by name; every name it
replaces must exist, or the benchmark breaks while the package tests pass."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_an_attribute_of_its_owner(tracer):
    missing = [name for name, owner, attr in tracer.TRACED if attr not in owner.__dict__]
    assert not missing


def test_every_round_mark_name_is_an_attribute_of_its_owner(tracer):
    replacements = tracer.RoundMarks().replacements()
    assert replacements
    missing = [(owner.__name__, attr) for owner, attr, _ in replacements
               if attr not in owner.__dict__]
    assert not missing
