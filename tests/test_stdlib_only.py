import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mixbound"
RECHECK = Path(__file__).resolve().parent / "recheck.py"


def test_runtime_imports_only_the_standard_library():
    outside = []
    paths = sorted(SRC.glob("*.py"))
    for path in paths:
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
    assert paths and outside == []


def test_recheck_imports_only_the_standard_library():
    # the witness re-checker stays independent of the package it checks:
    # a relative import, mixbound or anything outside the standard library
    # fails
    names = []
    for node in ast.walk(ast.parse(RECHECK.read_text(), str(RECHECK))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    outside = [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert names and outside == []


def test_no_private_names_imported_across_modules():
    # an underscore name is a module's own business: another module that
    # needs it should get a public function instead
    private = []
    paths = sorted(SRC.glob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("mixbound"):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(f"{path.name}:{node.lineno} {alias.name}")
    assert paths and private == []


def test_every_exported_name_resolves():
    import mixbound

    missing = [name for name in mixbound.__all__ if not hasattr(mixbound, name)]
    assert mixbound.__all__ and missing == []


def test_every_module_level_definition_is_used():
    # a function, class or constant that nothing in the package reads,
    # reads as an attribute or imports is dead code; dunder names such as
    # __all__ are read by Python itself
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.name, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend(
                    (path.name, node.lineno, t.id)
                    for t in targets
                    if isinstance(t, ast.Name) and not t.id.startswith("__")
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [f"{name}:{line} {ident}" for name, line, ident in defined if ident not in used]
    assert defined and unused == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every mixbound command pays for what `import mixbound.cli` loads;
    # dataclasses (and the inspect, ast and tokenize it pulls in) cost
    # more start-up than most commands spend on their work
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import mixbound.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True,
    )
    loaded = set(done.stdout.split())
    assert "mixbound.cli" in loaded
    assert loaded & {"dataclasses", "inspect"} == set()


def test_shape_test_loads_neither_render_nor_refexamples():
    # only analyze, verify-paper and render use the figure writer and the
    # reference examples; the other commands should not compile or run them
    script = (
        "import sys\n"
        "from mixbound.cli import main\n"
        "code = main(['shape-test', '--prime', '2', '--poly', '1+u1+u2',\n"
        "             '--shape', '(0,0);(1,0);(0,1)', '--kmax', '2'])\n"
        "print(code, 'mixbound.render' in sys.modules, 'mixbound.refexamples' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.split()[-3:] == ["0", "False", "False"]


def test_readme_line_counts_match_the_sources():
    # the README's start-up paragraph says how many lines of the package
    # each command compiles; count them from the modules each one loads
    def lines(path):
        return Path(path).read_bytes().count(b"\n")

    def loaded_lines(argv):
        script = (
            "import contextlib, io, sys\n"
            "from mixbound.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    main({argv!r})\n"
            "print('\\n'.join(m.__file__ for name, m in sys.modules.items()\n"
            "                 if name.split('.')[0] == 'mixbound'))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
            capture_output=True, text=True, check=True,
        )
        return sum(lines(path) for path in done.stdout.splitlines())

    poly = ["--prime", "2", "--poly", "1+u1+u2"]
    total = sum(lines(path) for path in SRC.glob("*.py"))
    assert loaded_lines(["analyze", *poly]) == total
    render_fewer = total - loaded_lines(["render", *poly])
    other_fewer = total - loaded_lines(["shape-test", *poly, "--shape", "(0,0);(1,0)"])
    readme = " ".join((SRC.parent.parent / "README.md").read_text().split())
    assert f"compile all {total} lines of `src/mixbound`" in readme
    assert f"compiles {render_fewer} lines fewer" in readme
    assert f"compile {other_fewer} lines fewer" in readme
