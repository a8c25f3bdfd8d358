"""The names that ``wblinks`` exports."""

import ast
import typing
from pathlib import Path

import pytest

import wblinks

PUBLIC = {
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
    "display_orientation",
    "end_model",
    "interior_walls",
    "is_terminal_blowup",
    "is_terminal_cqs",
    "is_terminal_wps",
    "is_weak_fano",
    "shape_of",
    "singularity_indices",
}


def test_all_lists_exactly_the_public_names_and_each_resolves():
    """Each name resolves, and so do the annotations of each function and class.

    ``typing.get_type_hints`` evaluates them in their module's namespace.
    """
    assert set(wblinks.__all__) == PUBLIC
    assert len(wblinks.__all__) == len(PUBLIC)
    for name in PUBLIC:
        obj = getattr(wblinks, name)
        assert obj is not None, name
        if callable(obj):
            typing.get_type_hints(obj)


# Reference forms that no command runs; they live in tests/reference.py.
MOVED = (
    "DivisorClass",
    "H",
    "E",
    "MoriStructure",
    "anticanonical_class",
    "mori_structure",
    "CyclicQuotient",
    "exceptional_patch_types",
    "wall_flip_weights",
    "verify_degree_inequalities",
    "packed_walls_terminal",
)
SRC = Path(wblinks.__file__).parent


def _bound_names(tree):
    """Names a module binds at top level, and the names its ``__all__`` lists."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
                if isinstance(target, ast.Name) and target.id == "__all__":
                    names.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


@pytest.mark.parametrize("name", MOVED)
def test_no_module_of_the_package_defines_or_exports_a_reference_form(name):
    for path in sorted(SRC.glob("*.py")):
        assert name not in _bound_names(ast.parse(path.read_text())), path.name
    assert not hasattr(wblinks, name)
