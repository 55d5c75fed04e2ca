"""The package holds only code that production uses."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_src_definition_has_a_production_use():
    """Every function, method and class defined in `src/cotraffic/` is
    referenced by name in `src/` code (a `Name`, an `Attribute` or an import
    alias), is named as a word in a `perfbench/` source (the tracer and the
    workloads name layers by string), or is a dunder. This is a name-level
    fence: a name defined twice, or shared with an attribute of another
    object, counts as used through either. Reference forms that only tests
    call live in tests/reference.py."""
    defined, used = [], set()
    for path in sorted((ROOT / "src" / "cotraffic").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    bench = "\n".join(p.read_text()
                      for p in sorted((ROOT / "perfbench").glob("*.py")))
    unused = [f"{module}:{name}" for module, name in defined
              if name not in used
              and not re.search(rf"\b{re.escape(name)}\b", bench)
              and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, f"no production use: {', '.join(unused)}"
