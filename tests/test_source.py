"""Checks over the source text of ``src/fwdcal``."""

import ast
from pathlib import Path

from fwdcal import syntax as S

SRC = Path(__file__).resolve().parent.parent / "src" / "fwdcal"


def test_no_match_statement_binds_a_field_by_position():
    # A positional class pattern (``case Send(x, f, p, c):``) goes through
    # ``__match_args__`` for every field, and a cascade of them tries each
    # class in turn.  On Python 3.11.7 (2-core VM), an 11-class cascade over
    # the process constructors took 0.40-1.0 us a dispatch, a dict lookup by
    # ``type(p)`` 0.06 us; the per-node hot paths (``syntax.scope``, the
    # checkers' rule tables and compat's moves) dispatch by table instead.  Cold code
    # may still match a class by a bare pattern or by keyword.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.MatchClass) and node.patterns:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# The modules that own the classes of the syntax and of contexts, where the
# tables that relate them (``CONNECTIVES``, ``ACTS``, ``QUEUES``) are written.
OWNERS = ("syntax.py", "contexts.py")


def _owned_classes() -> set[str]:
    return {node.name for name in OWNERS
            for node in ast.walk(ast.parse((SRC / name).read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)}


def _names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_only_the_owning_modules_write_a_table_between_their_classes():
    # A dict literal elsewhere that maps classes of the syntax or of contexts
    # to such classes restates a fact the owners' tables state once: which
    # connective an action acts on, which items a rule queues, which action
    # takes an item.  Such a map is to be read off those tables instead.
    owned = _owned_classes()
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in OWNERS:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Dict) and any(
                    k is not None and _names(k) & owned for k in node.keys) and any(
                    _names(v) & owned for v in node.values):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_rule_modules_key_a_table_by_connective():
    # A dict literal keyed by connectives outside the modules that hold the
    # syntax, the contexts and the rules restates a rule: what a connective's
    # rule moves or checks.  Compat's moves and synthesis call the rule
    # bodies of ``checker.CONNECTIVE_RULES`` instead.
    connectives = {cls.__name__ for cls in S.CONNECTIVES}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in OWNERS + ("checker.py",):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Dict) and any(
                    k is not None and _names(k) & connectives for k in node.keys):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
