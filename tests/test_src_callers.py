"""Every function, method and class of the package is referenced in it.

A definition that only the tests call belongs in the tests (``poly_oracle``,
``dense_oracle``), and one that nothing calls belongs nowhere.  The check
reads ``src/centinv/*.py`` with ``ast``: a definition counts as used when
its name appears anywhere in the package as a name, an attribute or an
imported name.  Dunder methods are called by the language and are exempt.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "centinv"

# perfbench/spans.py traces both, and a traced layer must exist; they leave
# the package when the benchmark drops them (ROADMAP items 1 and 3)
ALLOWED = {"poisson_bracket", "evaluate"}


def test_every_definition_in_src_is_referenced_there():
    defined: dict[str, list[str]] = {}
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.update({node.name, node.asname or node.name})
    assert defined, f"no definitions found under {SRC}"
    unused = {name: where for name, where in defined.items()
              if name not in referenced and name not in ALLOWED
              and not (name.startswith("__") and name.endswith("__"))}
    assert not unused, f"defined in src/ but never referenced there: {unused}"


def test_every_traced_layer_exists(monkeypatch):
    """Each ``LAYERS`` entry of ``perfbench/spans.py`` names a key of its
    owner's ``vars()``, where ``Recorder.install`` reads it, so deleting or
    renaming a traced function fails here and not only under ``--trace``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses reads the module of LayerStats back from sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    missing = []
    for module, qualname, _, _ in spans.LAYERS:
        owner = importlib.import_module(f"{spans.PACKAGE}.{module}")
        *path_parts, attr = qualname.split(".")
        for part in path_parts:
            owner = getattr(owner, part)
        if attr not in vars(owner):
            missing.append(f"{module}.{qualname}")
    assert not missing, f"traced layers missing from src/: {missing}"
