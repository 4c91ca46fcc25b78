"""Package surface: runtime dependencies, README's imports and layout."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import flowcodec

PACKAGE_DIR = Path(flowcodec.__file__).parent
README = Path(__file__).parent.parent / "README.md"


def readme_blocks(lang: str) -> list[str]:
    """Bodies of README's fenced blocks opened as ```<lang>."""
    blocks, body, open_lang = [], [], None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            if open_lang is None:
                open_lang, body = line[3:].strip(), []
            else:
                if open_lang == lang:
                    blocks.append("\n".join(body) + "\n")
                open_lang = None
        elif open_lang is not None:
            body.append(line)
    return blocks


def test_imports_load_only_numpy_beside_the_standard_library():
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import flowcodec, flowcodec.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    top_level = {name.split(".")[0] for name in json.loads(out)}
    foreign = top_level - set(sys.stdlib_module_names) - {"numpy", "flowcodec"}
    assert not foreign, f"flowcodec imports {sorted(foreign)} at import time"


def test_readme_imports_only_exported_names():
    imported = set()
    for block in readme_blocks("python"):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "flowcodec":
                imported.update(alias.name for alias in node.names)
    assert imported, "README has no `from flowcodec import ...` example"
    assert imported <= set(flowcodec.__all__), imported - set(flowcodec.__all__)


def test_readme_layout_lists_every_module():
    layout = next(b for b in readme_blocks("") if b.startswith("src/flowcodec/"))
    listed = re.findall(r"^  (\w+\.py) ", layout, re.M)
    assert len(listed) == len(set(listed))
    present = {p.name for p in PACKAGE_DIR.glob("*.py")} - {"__init__.py"}
    assert set(listed) == present


ARITHMETIC_DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                      "__truediv__", "__rtruediv__", "__neg__"}


def test_every_function_is_used_outside_the_tests():
    """Every non-dunder function, method and class in the package is named
    in src/ or perfbench/ beside its own `def` or `class`: as a name, an
    attribute, an import or a string (`__all__`, the benchmark tracer's
    dotted hook names).  A helper only the tests call does not belong in
    the package.  Nor does an arithmetic operator: package code spells
    `T.add`, `T.mul` and the rest, so an operator would serve only tests."""
    sources = [*PACKAGE_DIR.glob("*.py"), *(README.parent / "perfbench").glob("*.py")]
    used = set()
    defined = {}
    operators = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "name", None) or getattr(node, "id", None)
            if path.parent == PACKAGE_DIR and name in ARITHMETIC_DUNDERS:
                operators.append(f"{path.name}:{node.lineno} {name}")
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(node.value.split("."))  # "RangeEncoder.finish" names both
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and path.parent == PACKAGE_DIR
                  and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    unused = {name: at for name, at in defined.items() if name not in used}
    assert not unused, unused
    assert not operators, operators


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never uses: not as a name, an
    attribute's root or an `__all__` entry.  An import whose line carries
    `# noqa: F401` is exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            exempt = "# noqa: F401" in lines[node.lineno - 1]
            if exempt or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = f"{path.name}:{node.lineno}"
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{at} {name}" for name, at in imported.items() if name not in used]


def test_no_unused_imports_in_the_package():
    unused = [entry for path in sorted(PACKAGE_DIR.glob("*.py")) for entry in unused_imports(path)]
    assert not unused, unused
