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
