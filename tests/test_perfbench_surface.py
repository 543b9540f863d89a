"""The names the benchmark's tracer patches must exist.

``perfbench/tracer.py`` wraps a list of library functions and methods
(``BOUNDARIES``) from outside ``src/``, and counts steps by one of them
(``STEP_MARKER``). A refactor that renames or moves one of them breaks
``perfbench/run.py --trace 1`` without failing any library test, so this
test imports the tracer, read-only, and resolves every name.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH_DIR))


def test_every_boundary_resolves(tracer):
    for layer, owner, attr in tracer.BOUNDARIES:
        assert callable(getattr(owner, attr, None)), (layer, owner, attr)
        if isinstance(owner, type):
            # the tracer swaps the class's own attribute, so it must not
            # be inherited
            assert attr in vars(owner), f"{owner.__name__}.{attr} is inherited"


def test_step_marker_is_a_boundary_method(tracer):
    cls_name, _, method = tracer.STEP_MARKER.partition(".")
    owners = [owner for _, owner, attr in tracer.BOUNDARIES
              if attr == method and isinstance(owner, type) and owner.__name__ == cls_name]
    assert len(owners) == 1
    assert callable(vars(owners[0])[method])


def test_tracer_builds_without_patching(tracer):
    t = tracer.Tracer()
    assert t.is_clean()
    assert len(t.names) == len(tracer.BOUNDARIES)
