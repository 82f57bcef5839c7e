import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_exported_names_are_their_modules_attributes():
    # a re-export is looked up in its defining module on every access, so
    # it is that module's object, and nothing is left bound in the package
    import mixbound

    for name in mixbound.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"mixbound.{mixbound._EXPORTS[name]}")
        assert getattr(mixbound, name) is getattr(module, name), name
        assert name not in vars(mixbound), name


def test_unknown_name_raises_attribute_error():
    import mixbound

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mixbound.no_such_name
    assert not hasattr(mixbound, "no_such_name")


def _loaded_by(code):
    # the modules a fresh interpreter has loaded after running code
    script = code + "\nimport sys\nprint('\\n'.join(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True,
    )
    return set(done.stdout.split())


def test_package_import_loads_no_submodule():
    loaded = _loaded_by("import mixbound")
    assert "mixbound" in loaded
    assert [name for name in loaded if name.startswith("mixbound.")] == []


@pytest.mark.parametrize("argv", [
    ["shape-test", "--prime", "2", "--poly", "1+u1+u2", "--shape", "(0,0);(1,0);(0,1)",
     "--kmax", "2"],
    ["voloch-scan", "--mmax", "8"],
], ids=["shape-test", "voloch-scan"])
def test_shape_test_and_voloch_scan_load_no_newton_layer(argv):
    # neither command runs Newton data, a report or a rational number
    loaded = _loaded_by(
        "import contextlib, io\n"
        "from mixbound.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )
    assert "mixbound.mixing" in loaded
    assert loaded & {"mixbound.newton", "mixbound.report", "fractions"} == set()


def test_every_module_level_definition_is_used():
    # a function, class or constant that nothing in the package reads,
    # reads as an attribute or imports is dead code; dunder names such as
    # __all__ and a module's __getattr__ (PEP 562) are read by Python itself;
    # a name the package re-exports is used
    import mixbound

    defined, used = [], set(mixbound.__all__)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("__"):
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
    counts = {
        "analyze": loaded_lines(["analyze", *poly]),
        "verify-paper": loaded_lines(["verify-paper"]),
        "render": loaded_lines(["render", *poly]),
        "seq-diagnose": loaded_lines(["seq-diagnose", *poly, "--tuple", "(0,0);(1,0)"]),
        "shape-test": loaded_lines(["shape-test", *poly, "--shape", "(0,0);(1,0)"]),
        "voloch-scan": loaded_lines(["voloch-scan", "--mmax", "8"]),
    }
    assert counts["analyze"] == total
    readme = " ".join((SRC.parent.parent / "README.md").read_text().split())
    assert f"`analyze` compiles all {total} lines of `src/mixbound`" in readme
    assert f"`verify-paper` compiles {counts['verify-paper']} " in readme
    assert f"`render` {counts['render']} " in readme
    assert f"`seq-diagnose` {counts['seq-diagnose']}." in readme
    assert f"`shape-test` compiles {counts['shape-test']} " in readme
    assert f"`voloch-scan` {counts['voloch-scan']}, " in readme
    assert f"{total - counts['shape-test']} lines fewer than `analyze`" in readme
    assert counts["voloch-scan"] == counts["shape-test"]
