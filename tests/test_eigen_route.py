"""The package has one eigen route, ``linalg.sym_eig``, one batch scoring
loop, ``scores.score_blocks``, and the CLI runs a sketch pipeline only
through ``pipelines.run_pipeline``."""

import ast
from pathlib import Path

import sketch_anomaly
from sketch_anomaly import cli, pipelines

PACKAGE = Path(sketch_anomaly.__file__).resolve().parent

# numpy's eigen solvers, as called by attribute (``np.linalg.eigh``) or by
# an imported name.
EIGEN_SOLVERS = {"eigh", "eigvalsh", "eig", "eigvals"}


def eigen_calls(source: str, module: str, names=EIGEN_SOLVERS) -> list[str]:
    """Each call in ``source`` to a function named in ``names``, as
    ``scope:name``; a scope is the module name followed by its enclosing
    classes and functions, such as ``linalg.sym_eig``."""
    calls = []

    def visit(node, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            if name in names:
                calls.append(f"{scope}:{name}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return calls


def test_eigen_calls_finds_attribute_and_name_calls():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import eigvals\n"
        "def f(m, eig):\n"
        "    return np.linalg.eigh(m), eigvals(m), eig.values\n"
        "class C:\n"
        "    def g(self, m):\n"
        "        return np.linalg.eig(m), np.linalg.eigvalsh(m)\n"
    )
    assert eigen_calls(source, "m") == [
        "m.f:eigh", "m.f:eigvals", "m.C.g:eig", "m.C.g:eigvalsh",
    ]


def test_sym_eig_is_the_only_eigen_solver_call():
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        calls += eigen_calls(path.read_text(), path.stem)
    assert calls == ["linalg.sym_eig:eigh"]


def test_score_block_is_called_only_by_the_batch_loop_and_the_online_pass():
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        calls += eigen_calls(path.read_text(), path.stem, {"score_block"})
    assert sorted(calls) == [
        "pipelines.run_online_pipeline:score_block",
        "scores.score_blocks:score_block",
    ]


def test_cli_runs_sketches_only_through_run_pipeline():
    # ``--sketch-out`` reaches pass zero through ``pipelines.FIRST_PASSES``.
    runners = {runner.__name__ for runner in pipelines._RUNNERS.values()}
    passes = {"fd_ingest", "column_sample_plan", "row_sample"}
    names = runners | passes | {"run_pipeline"}
    calls = eigen_calls((PACKAGE / "cli.py").read_text(), "cli", names)
    assert calls == ["cli.cmd_score:run_pipeline"]
    assert not names & set(vars(cli)) - {"run_pipeline"}
