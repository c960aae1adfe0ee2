from __future__ import annotations

import ast
from pathlib import Path

import rescert


def test_every_exported_name_resolves_once():
    names = rescert.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(rescert, name)]
    assert missing == []


# Parameters that no body reads but that stay in the signature.  perfbench's
# crosscheck-small calls diagonal_sum(toy, n, x, table) with the table fourth
# and positional, so the parameter keeps its place.
UNREAD_ALLOWED = {"moments.diagonal_sum.table"}


def _unread_parameters(path: Path) -> list[str]:
    """module.function.parameter for every parameter of a function in `path`
    whose body never loads it; method receivers (self, cls) are skipped."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        out += [f"{path.stem}.{node.name}.{p}" for p in params
                if p not in read and p not in ("self", "cls")]
    return out


def test_every_parameter_is_read():
    src = Path(rescert.__file__).parent
    unread = [name for path in sorted(src.glob("*.py")) for name in _unread_parameters(path)]
    assert sorted(set(unread) - UNREAD_ALLOWED) == []
    assert UNREAD_ALLOWED <= set(unread)  # an entry that is read again leaves the list
