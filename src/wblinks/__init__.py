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
    wall_flip_weights,
)
from .singularity import (
    CyclicQuotient,
    exceptional_patch_types,
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
    DivisorClass,
    MoriStructure,
    antik_degree,
    antik_in_interior_mov,
    anticanonical_class,
    is_weak_fano,
    mori_structure,
    verify_degree_inequalities,
)

__all__ = [
    "BlowupVariety",
    "ClassificationRun",
    "CyclicQuotient",
    "DivContraction",
    "DivisorClass",
    "FANO",
    "Fibration",
    "FlipStep",
    "Link",
    "MoriStructure",
    "NOT_WEAK_FANO",
    "Rejected",
    "WEAK_NOT_FANO",
    "antik_degree",
    "antik_in_interior_mov",
    "anticanonical_class",
    "build_link",
    "classify",
    "classify_stable",
    "end_model",
    "exceptional_patch_types",
    "interior_walls",
    "is_terminal_blowup",
    "is_terminal_cqs",
    "is_terminal_wps",
    "is_weak_fano",
    "mori_structure",
    "display_orientation",
    "shape_of",
    "singularity_indices",
    "verify_degree_inequalities",
    "wall_flip_weights",
]

__version__ = "0.1.0"
