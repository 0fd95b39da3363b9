"""Layout rules of the package, checked on the parsed source of every module
in ``src/twinwalk``: which module may name a complex dtype, which must not
import numpy, and which may use ``json.dumps``."""

import ast
from pathlib import Path

import twinwalk

MODULES = {path.stem: path for path in sorted(Path(twinwalk.__file__).parent.glob("*.py"))}

#: numpy's complex dtypes and their aliases, by name
COMPLEX_DTYPES = {
    "complex64", "complex128", "complex256", "complex_", "complexfloating",
    "csingle", "cdouble", "clongdouble", "cfloat", "clongfloat",
}


def parsed(name: str) -> ast.Module:
    return ast.parse(MODULES[name].read_text(encoding="utf-8"))


def complex_dtype_names(tree: ast.Module) -> list[str]:
    """Complex dtypes a module names: as an attribute or bare name, as a
    string, or as the builtin ``complex`` passed for ``dtype``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in COMPLEX_DTYPES:
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id in COMPLEX_DTYPES:
            found.append(node.id)
        elif isinstance(node, ast.Constant) and node.value in COMPLEX_DTYPES:
            found.append(node.value)
        elif (
            isinstance(node, ast.keyword)
            and node.arg == "dtype"
            and isinstance(node.value, ast.Name)
            and node.value.id == "complex"
        ):
            found.append("dtype=complex")
    return found


def imports_numpy(tree: ast.Module) -> bool:
    """Whether a module imports numpy or any of its submodules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            return True
    return False


def uses_json_dumps(tree: ast.Module) -> bool:
    """Whether a module names ``json.dumps``: as an attribute of ``json`` or
    imported from it."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "dumps"
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        ):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "json" and not node.level:
            if any(alias.name == "dumps" for alias in node.names):
                return True
    return False


def test_only_the_oracle_names_a_complex_dtype():
    # one state representation: the engine, the measurement and every check
    # read the one real run; only the independent references go complex
    assert complex_dtype_names(parsed("oracle"))
    for name in MODULES:
        if name != "oracle":
            found = complex_dtype_names(parsed(name))
            assert not found, f"{name}.py names {found}"


def test_figures_and_render_import_no_numpy():
    # they only lay out and format what experiment computes
    assert imports_numpy(parsed("experiment"))
    assert imports_numpy(ast.parse("from numpy.linalg import eigvalsh"))
    assert not imports_numpy(ast.parse("from .numpy import x\nimport numbers"))
    for name in ("figures", "render"):
        assert not imports_numpy(parsed(name)), f"{name}.py imports numpy"


def test_only_render_uses_json_dumps():
    # one JSON rule (render.json_text) for every document the program writes
    assert uses_json_dumps(parsed("render"))
    assert uses_json_dumps(ast.parse("from json import dumps as d"))
    assert not uses_json_dumps(ast.parse("import json\njson.loads('{}')\ndumps({})"))
    for name in MODULES:
        if name != "render":
            assert not uses_json_dumps(parsed(name)), f"{name}.py uses json.dumps"
