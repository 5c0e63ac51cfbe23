"""Export lists stay honest: the package's export table is each layer's
__all__, each layer defines what its entry names, and the package root
re-exports only those names, loading a layer only when one of its names is
read."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gshift

SRC = Path(__file__).resolve().parent.parent / "src" / "gshift"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"gshift.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("layer", list(gshift._EXPORTS))
def test_each_layer_lists_its_export_table_entry(layer):
    assert importlib.import_module(f"gshift.{layer}").__all__ == list(gshift._EXPORTS[layer])


def _top_level_definitions(path: Path) -> set[str]:
    """Names a module binds at top level by class, def or assignment, not by import."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("layer", list(gshift._EXPORTS))
def test_every_root_name_is_defined_in_its_home_layer(layer):
    defined = _top_level_definitions(SRC / f"{layer}.py")
    assert [n for n in gshift._EXPORTS[layer] if n not in defined] == []


def test_the_package_re_exports_only_listed_names():
    assert gshift.__all__ == [name for names in gshift._EXPORTS.values() for name in names]
    for layer, names in gshift._EXPORTS.items():
        module = importlib.import_module(f"gshift.{layer}")
        assert [n for n in names if n not in module.__all__] == [], layer
        assert [n for n in names if getattr(gshift, n) is not getattr(module, n)] == [], layer
    assert set(gshift.__all__) <= set(dir(gshift))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gshift.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from gshift import no_such_name  # noqa: F401


def _loaded_after(statement: str, watched: set[str]) -> list[str]:
    # pytest and hypothesis load everything, so only a fresh interpreter can tell
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    code = (f"import json, sys; {statement}; "
            f"print(json.dumps(sorted(set({sorted(watched)!r}) & set(sys.modules))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_classifying_a_map_loads_no_construction_layer():
    watched = {"gshift.constructions", "gshift.stats", "gshift.cli", "fractions"}
    assert _loaded_after("from gshift import map_profile, predict, table_map", watched) == []


def test_entering_the_weave_loads_neither_statistics_nor_predictions():
    statement = ("from gshift import (ScrambledFamilySpec, almost_disjoint_family, "
                 "block_lengths, default_alphabet, full_shift_transitive_point, in_cylinder, "
                 "pattern_enumeration, shifted, successor, transitive_weave_family, "
                 "weave_entry_exponent)")
    watched = {"gshift.stats", "gshift.theorems", "gshift.cli", "fractions"}
    assert _loaded_after(statement, watched) == []


def test_the_cli_loads_every_layer():
    layers = {f"gshift.{name}" for name in MODULES}
    assert _loaded_after("import gshift.cli", layers) == sorted(layers)
