"""Every third-party module the package imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _declared_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert match, "pyproject.toml has no [project] dependencies list"
    requirements = re.findall(r"\"([^\"]+)\"", match.group(1))
    return {re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0] for requirement in requirements}


def _imported_top_level_modules():
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], path.relative_to(ROOT))
    return found


@pytest.mark.skipif(sys.version_info < (3, 10), reason="sys.stdlib_module_names needs Python 3.10")
def test_every_third_party_import_is_declared():
    declared = _declared_dependencies()
    undeclared = {
        module: str(where)
        for module, where in _imported_top_level_modules().items()
        if module != "repro" and module not in sys.stdlib_module_names and module not in declared
    }
    assert not undeclared, f"imported but not in pyproject.toml dependencies: {undeclared}"
