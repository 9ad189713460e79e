import ast
import importlib
from pathlib import Path

import diffmon

# Public entry points that were deleted; none may come back as a stale export.
DELETED = {
    "linalg": ("classify", "MatrixFlags"),
    "reps": ("mrep_trep", "custom_efficiency_mrep"),
    "errors": ("InvalidEfficientPartError",),
    "dynamics": ("backaction_apply",),
    "sme": ("Trajectory",),
}


def _bound_names() -> set:
    """Public names the package's __init__ binds by import or assignment."""
    tree = ast.parse(Path(diffmon.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {n for n in names if n != "__all__" and (n.startswith("__") or not n.startswith("_"))}


def test_all_is_exactly_the_bound_public_names():
    assert len(diffmon.__all__) == len(set(diffmon.__all__))
    for name in diffmon.__all__:
        assert hasattr(diffmon, name), name
    assert set(diffmon.__all__) == _bound_names()


def test_deleted_names_are_gone():
    for module, names in DELETED.items():
        home = importlib.import_module(f"diffmon.{module}")
        for name in names:
            assert not hasattr(diffmon, name), name
            assert not hasattr(home, name), f"{module}.{name}"
    assert not hasattr(diffmon.Ensemble, "trajectory")
    assert not hasattr(diffmon.Ensemble, "trajectories")
