import ast
import importlib
import inspect
from pathlib import Path

import diffmon

# Public entry points that were deleted; none may come back as a stale export.
DELETED = {
    "linalg": ("classify", "MatrixFlags"),
    "reps": ("mrep_trep", "custom_efficiency_mrep"),
    "errors": ("InvalidEfficientPartError",),
    "dynamics": ("backaction_apply", "_backaction", "_traceless", "_square"),
    "sme": ("Trajectory", "_first_row", "_check_trace"),
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
    assert not hasattr(diffmon.dynamics._Engine, "current")


def test_deleted_fields_and_options_are_gone():
    from dataclasses import fields

    from diffmon import checks

    assert not {"hbar", "model_fingerprint", "rep_fingerprint"} & {
        f.name for f in fields(diffmon.Ensemble)
    }
    assert not hasattr(diffmon.LindbladModel, "fingerprint")
    gone = [
        (diffmon.me_integrate, "positivity_tol"),
        (diffmon.diffusion_matrix, "basis"),
        (diffmon.linear_nonlinear_consistency, "threshold"),
        (checks._decay_model, "gamma"),
        (checks._decay_model, "hbar"),
        (diffmon.SimulationConfig, "log_weight_floor"),
    ]
    # A sweep's registered check wraps its generator of defects, which took the samples.
    sweeps = [inspect.getclosurevars(check).nonlocals.get("defects") for _, check in checks.CHECKS]
    gone += [(sweep, "samples") for sweep in sweeps if sweep is not None]
    for func, option in gone:
        assert option not in inspect.signature(func).parameters, (func.__name__, option)


def _imported_modules(path: Path) -> set:
    """The diffmon modules a source file imports, at module level or inside functions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("diffmon." if node.level else "") + (node.module or "")
            dotted = [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            continue
        names.update(name.split(".")[1] for name in dotted if name.startswith("diffmon."))
    return names


def test_only_the_cli_imports_the_file_layer():
    # Documents and their fingerprints belong to serialize and to the CLI that writes the
    # manifest; the paper's layers never import either, not even at call time.
    src = Path(diffmon.__file__).parent
    imports = {path.stem: _imported_modules(path) for path in sorted(src.glob("*.py"))}

    def importers(module: str) -> set:
        return {name for name, imported in imports.items() if module in imported}

    assert importers("serialize") == {"cli"}
    assert importers("checks") <= {"cli"}  # the check command runs the suite
    assert importers("cli") == set()
