"""Sarkisov links from toric weighted blowups of a point in P^3 and P^4."""

from .classify import ClassificationRun, classify, classify_stable, shape_of
from .link import (
    DivContraction,
    Fibration,
    FlipStep,
    Link,
    Rejected,
    build_link,
    end_model,
    interior_walls,
    display_orientation,
)
from .singularity import (
    is_terminal_blowup,
    is_terminal_cqs,
    is_terminal_wps,
    singularity_indices,
)
from .toric import (
    FANO,
    NOT_WEAK_FANO,
    WEAK_NOT_FANO,
    BlowupVariety,
    antik_degree,
    antik_in_interior_mov,
    is_weak_fano,
)

__all__ = [
    "BlowupVariety",
    "ClassificationRun",
    "DivContraction",
    "FANO",
    "Fibration",
    "FlipStep",
    "Link",
    "NOT_WEAK_FANO",
    "Rejected",
    "WEAK_NOT_FANO",
    "antik_degree",
    "antik_in_interior_mov",
    "build_link",
    "classify",
    "classify_stable",
    "end_model",
    "interior_walls",
    "is_terminal_blowup",
    "is_terminal_cqs",
    "is_terminal_wps",
    "is_weak_fano",
    "display_orientation",
    "shape_of",
    "singularity_indices",
]

__version__ = "0.1.0"
