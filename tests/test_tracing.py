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


def _stage_cases():
    """(stage, status, reason prefix, f, g): one pair of maps per way a
    `homotopic` stage can decide; the stage is the tracer's name for it,
    None where the tracer has none."""
    from finspace.homotopy import core
    from finspace.space import (
        OrderMap,
        build_space,
        constant_map,
        identity_map,
        khalimsky_circle,
        khalimsky_interval,
    )

    S2, S3 = khalimsky_circle(2).space, khalimsky_circle(3).space
    I = khalimsky_interval(0, 2).space
    pt = core(I).old_ids[0]
    # S1_2 with a point w (id 4) below b0 (id 1): w retracts onto b0
    Sw = build_space(["a0", "b0", "a1", "b1", "w"], [(0, 1), (2, 1), (2, 3), (0, 3), (4, 1)])
    two = build_space(["p", "q"], [])
    K32 = build_space(list("abcde"), [(i, j) for i in range(3) for j in (3, 4)])
    return [
        ("equal", "homotopic", "maps equal", identity_map(S2), identity_map(S2)),
        ("core_agree", "homotopic", "maps agree on the domain core",
         identity_map(I), constant_map(I, I, pt)),
        ("core_agree", "homotopic", "maps agree on the domain core once the target retracts",
         constant_map(S2, Sw, 4), constant_map(S2, Sw, 1)),
        ("point_core", "homotopic", "domain core is a point",
         constant_map(I, I, 0), constant_map(I, I, 2)),
        # the component stage, which bench/tracing.py does not name yet:
        # it is traced as "other" until the tracer learns its reason
        (None, "not_homotopic", "point 0 of the domain goes to 0 and 1, in different components",
         constant_map(I, two, 0), constant_map(I, two, 1)),
        ("circle", "not_homotopic", "circle classification: cycle with distinct windings",
         identity_map(S2), constant_map(S2, S2, 0)),
        ("circle", "homotopic", "circle classification: both maps lift to the digital line",
         constant_map(S3, S2, 0), OrderMap(S3, S2, [0, 1, 2, 1, 0, 0])),
        ("circle", "homotopic", "circle classification: both maps have degree 1",
         OrderMap(S3, S2, [0, 1, 2, 3, 0, 0]), OrderMap(S3, S2, [2, 3, 0, 1, 2, 2])),
        ("fence", "homotopic", "fence-bfs reached g",
         constant_map(two, K32, 0), OrderMap(two, K32, [0, 1])),
        # S1_2 onto a 4-cycle of K(3,2), minimals to a, b and maximals to
        # d, e: no other map is comparable to it
        ("fence", "not_homotopic", "comparability component of f exhausted (1 maps",
         OrderMap(S2, K32, [0, 3, 1, 4]), constant_map(S2, K32, 0)),
    ]


@pytest.mark.parametrize("stage,status,prefix,f,g", _stage_cases())
def test_each_homotopic_stage_is_traced_as_itself(stage, status, prefix, f, g):
    from finspace.homotopy import homotopic

    v = homotopic(f, g)
    assert v.status == status and v.reason.startswith(prefix), v.reason
    assert tracing.homotopic_stage(v) == stage
