"""The imports of ``qal``, read with ``ast``: no module keeps a
module-level import that it never uses, and no module imports from a
higher layer.

A name counts as used when it is read anywhere in the module, including
inside a string annotation such as ``"CarlemanSequence | None"``.

The layers are L0, the arithmetic kernel (``errors``, ``rationals``,
``intervals``); L1, algebra (``polynomials``, ``chain``, ``algebraic``);
and L2, every other module.  A module may import from its own layer and
the ones below.  ``chain`` imports no sympy, so that the hyperbolicity
decision, which runs on it, never loads sympy.
"""

import ast
import pathlib

import pytest

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qal"


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names that the module-level imports bind, with their lines."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _read(tree: ast.Module) -> set[str]:
    """The names the module reads, also inside string annotations."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items() if name not in read)
    assert not unused, f"{path.name}: unused imports (line, name): {unused}"


_LAYERS = {"errors": 0, "rationals": 0, "intervals": 0,
           "polynomials": 1, "chain": 1, "algebraic": 1}


def _layer(module: str) -> int:
    return _LAYERS.get(module, 2)


def _imports(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The qal modules and the top-level outside packages that the module
    imports anywhere, function bodies included."""
    qal, outside = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                qal.add(node.module.split(".")[0])
            else:
                qal.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            outside.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            outside.update(alias.name.split(".")[0] for alias in node.names)
    return qal, outside


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_from_a_higher_layer(path):
    qal, outside = _imports(ast.parse(path.read_text(), filename=str(path)))
    assert "qal" not in outside, f"{path.name} imports qal by absolute name"
    above = sorted(m for m in qal if _layer(m) > _layer(path.stem))
    assert not above, f"{path.name} (L{_layer(path.stem)}) imports from above: {above}"


def test_the_layer_table_names_existing_modules():
    assert set(_LAYERS) <= {path.stem for path in _SRC.glob("*.py")}


def test_chain_imports_no_sympy():
    _, outside = _imports(ast.parse((_SRC / "chain.py").read_text()))
    assert "sympy" not in outside
