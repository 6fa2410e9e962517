"""Every function, method and class of the package is referenced in it.

A definition that only the tests call belongs in the tests (``poly_oracle``,
``dense_oracle``), and one that nothing calls belongs nowhere.  The check
reads ``src/centinv/*.py`` with ``ast``: a definition counts as used when
its name appears anywhere in the package as a name, an attribute or an
imported name.  Dunder methods are called by the language and are exempt.
"""

import ast
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
