import ast
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import crystalflex as cf
from crystalflex import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"
SOURCES = sorted(p for p in (ROOT / "src" / "crystalflex").glob("*.py") if p.name != "__init__.py")


def test_all_names_resolve_to_public_api():
    assert len(cf.__all__) == len(set(cf.__all__))
    for name in cf.__all__:
        value = getattr(cf, name)
        assert not isinstance(value, types.ModuleType), name


def names_read(path):
    """Every name a module reads: loaded names and attributes, so neither a
    definition nor a mention in a docstring or a comment counts."""
    tree = ast.parse(path.read_text())
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)} | \
        {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def unread(names):
    """The names that no package module but ``__init__`` reads, no demo
    reads and README's code never shows."""
    read = set().union(*map(names_read, SOURCES + DEMOS))
    code = "\n".join(re.findall(r"```.*?```|`[^`\n]+`", README.read_text(), re.S))
    return [name for name in names
            if name not in read and not re.search(rf"\b{re.escape(name)}\b", code)]


def test_every_public_name_is_read():
    # A public helper that nothing reads only re-spells another one.
    assert unread(cf.__all__) == []


def imports(tree):
    """(enclosing function or None, names) for every import statement of a
    module: the dotted parts of the modules it names and the names it takes."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                names = {part for alias in child.names for part in alias.name.split(".")}
                if isinstance(child, ast.ImportFrom) and child.module:
                    names |= set(child.module.split("."))
                found.append((function, names))
            else:
                visit(child, function)

    visit(tree, None)
    return found


def test_frameworks_imports_no_later_layer():
    # A framework holds one set-up store that the later layers fill, so the
    # module reads none of them.
    tree = ast.parse((ROOT / "src" / "crystalflex" / "frameworks.py").read_text())
    layers = {"rigidity", "symmetry", "translations", "fileio"}
    assert [names & layers for _, names in imports(tree) if names & layers] == []


def test_modules_import_at_top_and_translations_below_symmetry():
    # Every module imports at its top, so the package imports in one order
    # with no cycle: linalg <- frameworks <- translations <- rigidity <-
    # symmetry <- fileio, catalog <- cli.  Translation detection reads the
    # isometry matcher and the orbit helpers from frameworks, so translations
    # imports neither later layer, and rigidity imports it at its top.
    found = {path.stem: imports(ast.parse(path.read_text()))
             for path in sorted((ROOT / "src" / "crystalflex").glob("*.py"))}
    assert [(module, function) for module, statements in found.items()
            for function, _ in statements if function is not None] == []
    later = {"symmetry", "rigidity"}
    assert [names & later for _, names in found["translations"] if names & later] == []
    assert any("translations" in names for _, names in found["rigidity"])


def test_translations_look_rows_up_only_through_the_row_index():
    # Group elements and conjugate characters are found by frameworks._RowIndex,
    # the package's one exact row lookup, so the module sorts and groups no rows itself.
    tree = ast.parse((ROOT / "src" / "crystalflex" / "translations.py").read_text())
    called = {node.func.attr for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)}
    assert called & {"unique", "searchsorted", "lexsort"} == set()


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def readme_blocks(language, text=None):
    return re.findall(rf"^```{language}\n(.*?)^```", text or README.read_text(), re.M | re.S)


def test_readme_python_blocks_run():
    # Names the package no longer has fail here, not in a reader's hands.
    blocks = readme_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


@pytest.fixture
def readme_framework(tmp_path, monkeypatch):
    """A scratch directory holding README's framework file as my_framework.json."""
    (framework,) = readme_blocks("json")
    (tmp_path / "my_framework.json").write_text(framework)
    monkeypatch.chdir(tmp_path)
    return tmp_path / "my_framework.json"


def test_readme_commands_run(readme_framework, capsys):
    section = README.read_text().split("## Command line\n", 1)[1]
    commands = [line for line in readme_blocks("sh", section)[0].splitlines()
                if line.startswith("crystalflex ")]
    assert len(commands) >= 6
    for line in commands:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().err == "", line


def test_readme_framework_reproduces_the_builtin(readme_framework, capsys):
    # Every report line after the header, which names the input.
    reports = []
    for source in [[str(readme_framework)], ["--builtin", "kagome"]]:
        assert cli.main(["analyze", *source]) == 0
        reports.append(capsys.readouterr().out.splitlines()[1:])
    assert any(line.startswith("symmetry r3") for line in reports[0])
    assert reports[0] == reports[1]


def test_analysis_loads_neither_scipy_nor_sympy(tmp_path):
    # numpy is the one declared dependency; scipy and sympy may be
    # installed, but an analysis must not pay for importing them.
    script = f"""
import sys
import crystalflex as cf
from crystalflex import cli
assert cli.main(["analyze", "--builtin", "kagome"]) == 0
path = {str(tmp_path / "kagome_8x8.json")!r}
cf.save_framework(cf.supercell(cf.builtin_framework("kagome"), (8, 8)), path)
assert cli.main(["analyze", path, "--json"]) == 0
print(sorted(name for name in ("scipy", "sympy") if name in sys.modules))
"""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    result = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_requests_load_only_numpy(tmp_path):
    # numpy is the one declared dependency, so a request of every command,
    # Bloch blocks included, loads no module outside the standard library
    # but numpy and the package itself.
    script = f"""
import sys
before = {{name.partition(".")[0] for name in sys.modules}}
import contextlib, io
import crystalflex
from crystalflex import cli
big = {str(tmp_path / "kagome_8x8.json")!r}
requests = [["supercell", "--builtin", "kagome", "--n", "8,8", "-o", big],
            ["analyze", big, "--json"],
            ["symmetry", "--builtin", "kagome", "--characters"],
            ["svg", "--builtin", "kagome", "--cells", "2x2", "-o", {str(tmp_path / "kagome.svg")!r}],
            ["builtins"]]
for argv in requests:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
assert "crystalflex.translations" in sys.modules
loaded = {{name.partition(".")[0] for name in sys.modules}} - before
print(sorted(loaded - set(sys.stdlib_module_names) - {{"numpy", "crystalflex"}}))
"""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    result = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
