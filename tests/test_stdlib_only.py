"""The package runs on the standard library alone; numpy is a test extra."""

import ast
import pathlib
import subprocess
import sys
import textwrap

import twograph

PACKAGE_DIR = pathlib.Path(twograph.__file__).parent


def test_every_import_is_relative_or_stdlib():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_import_and_check_all_load_no_numpy():
    script = textwrap.dedent("""
        import contextlib, io, sys
        import twograph
        assert "numpy" not in sys.modules, "import twograph loaded numpy"
        from twograph.cli import main
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["check", "all", "--theta", "flip", "--m", "2", "--n", "2",
                         "--samples", "4", "--level", "1,1"])
        assert code == 0 and "case.modular.gram-positivity: PASS" in out.getvalue()
        assert "numpy" not in sys.modules, "check all loaded numpy"
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_error_type_is_raised_somewhere():
    # an error type that no `raise` in the package names is dead code
    types = set()
    for node in ast.parse((PACKAGE_DIR / "errors.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in types | {"TwoGraphError"}
                for base in node.bases):
            types.add(node.name)
    raised = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    assert types and not types - raised, sorted(types - raised)
