import ast
import sys
from pathlib import Path

import intervalcolor

PACKAGE = Path(intervalcolor.__file__).parent


def test_package_imports_only_the_standard_library():
    # the tests install numpy and networkx, so a stray import of either
    # would pass every other test; read the imports instead of running them
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, (path.name, node.lineno, name)
