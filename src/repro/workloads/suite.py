"""Workload registry: the nine SPEC95 models the paper evaluates, plus two
extra kernels (dotprod, stencil)."""

from __future__ import annotations

from typing import Dict, List, Type

from .base import Workload
from .dotprod import DotprodWorkload
from .spec_go import GoWorkload
from .spec_hydro2d import Hydro2dWorkload
from .spec_ijpeg import IjpegWorkload
from .spec_li import LiWorkload
from .spec_m88ksim import M88ksimWorkload
from .spec_mgrid import MgridWorkload
from .spec_perl import PerlWorkload
from .spec_su2cor import Su2corWorkload
from .spec_turb3d import Turb3dWorkload
from .stencil import StencilWorkload

#: The paper's program order (Figures 3-8): C SPEC first, then F SPEC —
#: followed by the extra kernels (not part of the paper's figures, but
#: first-class citizens of every runner and pass).
WORKLOAD_CLASSES: Dict[str, Type[Workload]] = {
    "go": GoWorkload,
    "ijpeg": IjpegWorkload,
    "li": LiWorkload,
    "m88ksim": M88ksimWorkload,
    "perl": PerlWorkload,
    "hydro2d": Hydro2dWorkload,
    "mgrid": MgridWorkload,
    "su2cor": Su2corWorkload,
    "turb3d": Turb3dWorkload,
    "dotprod": DotprodWorkload,
    "stencil": StencilWorkload,
}

C_SPEC = ("go", "ijpeg", "li", "m88ksim", "perl")
F_SPEC = ("hydro2d", "mgrid", "su2cor", "turb3d")

#: The nine SPEC95 programs the paper measures: the paper-shape checks in
#: ``benchmarks/`` assert their claims over these alone.
PAPER_WORKLOADS = C_SPEC + F_SPEC


def make_workload(name: str, scale: float = 1.0) -> Workload:
    """Instantiate a workload by benchmark name."""
    try:
        cls = WORKLOAD_CLASSES[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOAD_CLASSES)}") from None
    return cls(scale=scale)


def all_workloads(scale: float = 1.0) -> List[Workload]:
    """All registered workloads: the paper's nine in figure order, then the
    extra kernels."""
    return [make_workload(name, scale=scale) for name in WORKLOAD_CLASSES]
