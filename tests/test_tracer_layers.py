"""The benchmark's tracer wraps qflat functions by name; each must exist.

``bench/tracer.py`` is loaded by path and only read, so a deleted or
renamed traced function fails here, not only in the benchmark's own
self-tests.
"""

import importlib
from pathlib import Path

import qflat.cli  # noqa: F401  (the tracer wraps cli.main as well)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_layers():
    # compiled from its text, so no bytecode cache is written next to it
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_layer_resolves():
    layers = traced_layers()
    assert layers
    for module, attr in layers:
        owner = importlib.import_module("qflat." + module)
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name)
            assert callable(vars(owner).get(fn_name)), f"{module}.{attr}"
        else:
            assert callable(getattr(owner, fn_name, None)), f"{module}.{attr}"
