import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mixbound"


def test_runtime_imports_only_the_standard_library():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} {name}")
    assert outside == []


def test_no_private_names_imported_across_modules():
    # an underscore name is a module's own business: another module that
    # needs it should get a public function instead
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("mixbound"):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(f"{path.name}:{node.lineno} {alias.name}")
    assert private == []
