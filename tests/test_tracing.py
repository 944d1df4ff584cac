"""The benchmark tracer wraps finspace callables by name; a rename must
fail here rather than leave a traced benchmark silently unwrapped."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = tracing  # its dataclass looks itself up there
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("layer", sorted(tracing.LAYERS))
def test_traced_name_resolves(layer):
    modname, path = tracing.LAYERS[layer]
    owner = importlib.import_module(modname)
    # resolved the way Tracer.install reads it
    if "." in path:
        cls_name, attr = path.split(".")
        assert callable(getattr(owner, cls_name).__dict__[attr])
    else:
        assert callable(getattr(owner, path))
