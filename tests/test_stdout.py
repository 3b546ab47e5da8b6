"""Nothing in the package writes to stdout but the CLI's one writer."""

import ast
from pathlib import Path

import sketch_anomaly

PACKAGE = Path(sketch_anomaly.__file__).resolve().parent


def is_sys(node, name: str) -> bool:
    """Whether ``node`` is the expression ``sys.<name>``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == name
        and isinstance(node.value, ast.Name)
        and node.value.id == "sys"
    )


def stdout_writers(source: str, module: str) -> tuple[list[str], set[str]]:
    """The ``print`` calls of ``source`` that do not pass ``file=sys.stderr``
    (as ``scope:line``), and the scopes in which ``sys.stdout`` appears.

    A scope is the module name followed by its enclosing classes and
    functions, such as ``cli._emit``.
    """
    prints, stdout = [], set()

    def visit(node, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            target = next((kw.value for kw in node.keywords if kw.arg == "file"), None)
            if not is_sys(target, "stderr"):
                prints.append(f"{scope}:{node.lineno}")
        if is_sys(node, "stdout"):
            stdout.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return prints, stdout


def test_stdout_writers_finds_prints_and_stdout():
    source = (
        "import sys\n"
        "print('a')\n"
        "print('b', file=sys.stderr)\n"
        "class C:\n"
        "    def f(self):\n"
        "        print('c', file=sys.stdout)\n"
        "        return sys.stdout\n"
    )
    assert stdout_writers(source, "m") == (["m:2", "m.C.f:6"], {"m.C.f"})


def test_only_cli_emit_writes_to_stdout():
    prints, stdout = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        found_prints, found_stdout = stdout_writers(path.read_text(), path.stem)
        prints += found_prints
        stdout |= found_stdout
    assert prints == []
    assert stdout == {"cli._emit"}
