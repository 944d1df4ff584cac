"""Exact homotopy invariants of finite T0-spaces and Khalimsky circles.

``__all__`` is the public API, with ``format_cover`` to write the cover
files that ``finspace cat/tc --witness`` read.  The invariants, the
colorings and the witness live in ``finspace.invariants`` and
``finspace.witness``.
"""

from .space import (
    DownSet,
    FiniteSpace,
    KhalimskyCircle,
    KhalimskyInterval,
    OrderMap,
    build_space,
    check_continuous,
    constant_map,
    identity_map,
    khalimsky_circle,
    khalimsky_interval,
    product,
    projections,
)
from .homotopy import (
    HomotopyVerdict,
    comparable,
    core,
    fence_bfs,
    hom_components,
    homotopic,
    nullhomotopic_in,
)
from .circles import (
    CircleMap,
    classify_homotopic,
    degree,
    lift,
    recognize_circle,
)
from .complexes import (
    SimplicialComplex,
    order_complex,
)
from .invariants import format_cover

__version__ = "0.1.0"

__all__ = [
    "DownSet",
    "FiniteSpace",
    "KhalimskyCircle",
    "KhalimskyInterval",
    "OrderMap",
    "build_space",
    "check_continuous",
    "constant_map",
    "identity_map",
    "khalimsky_circle",
    "khalimsky_interval",
    "product",
    "projections",
    "HomotopyVerdict",
    "comparable",
    "core",
    "fence_bfs",
    "hom_components",
    "homotopic",
    "nullhomotopic_in",
    "CircleMap",
    "classify_homotopic",
    "degree",
    "lift",
    "recognize_circle",
    "SimplicialComplex",
    "order_complex",
    "format_cover",
]
