"""Checks over the source text of ``src/fwdcal``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fwdcal"


def test_no_match_statement_binds_a_field_by_position():
    # A positional class pattern (``case Send(x, f, p, c):``) goes through
    # ``__match_args__`` for every field, and a cascade of them tries each
    # class in turn.  On Python 3.11.7 (2-core VM), an 11-class cascade over
    # the process constructors took 0.40-1.0 us a dispatch, a dict lookup by
    # ``type(p)`` 0.06 us; the per-node hot paths (``syntax.scope``, the
    # checkers' and compat's rule tables) dispatch by table instead.  Cold code
    # may still match a class by a bare pattern or by keyword.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.MatchClass) and node.patterns:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
