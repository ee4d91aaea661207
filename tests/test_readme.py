"""The README's Library block runs and shows the results it states."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _run_block(source: str) -> dict[str, tuple[object, str]]:
    """Run the block statement by statement; for each bare expression, its
    source text -> (its value, the comment on its line)."""
    lines = source.splitlines()
    namespace: dict = {}
    results = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            line = lines[stmt.lineno - 1]
            expr, _, comment = line.partition("#")
            results[expr.strip()] = (value, comment.strip())
        else:
            module = ast.Module(body=[stmt], type_ignores=[])
            exec(compile(module, "README", "exec"), namespace)
    return results


def test_library_block_states_its_results():
    results = _run_block(_library_block())

    value, comment = results["gg_index(g)"]
    assert comment.endswith("...")
    assert repr(value).startswith(comment[: -len("...")])

    (best, witnesses), comment = results["res.value, res.exact_witnesses"]
    assert comment.startswith(f"{best!r}, {witnesses!r} ")

    value, comment = results['exact_index_value(cycle_hook(15), "ngg")']
    assert comment == repr(value)

    for expr in (
        "spec", "construct(spec) == cycle_hook(15)", "ngg_closed(spec)", "ngg_closed_exact(spec)"
    ):
        value, comment = results[expr]
        assert comment == repr(value), expr

    value, comment = results["sum(1 for _ in trees)"]
    assert comment == repr(value)

    value, comment = results["sum(1 for _ in enumerate_trees(12, max_degree=3))"]
    assert comment.startswith(f"{value!r}, ")

    (passed, row), comment = results["report.passed, report.rows[0]"]
    assert comment.endswith(", ...)")
    assert f"{passed!r}, {row!r}".startswith(comment[: -len("...)")])
