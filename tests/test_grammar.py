"""``grammar.ebnf`` says what the tables say.

The reference grammar is written by hand, and the parser and printer read
six tables: ``syntax.CONNECTIVES`` for types, and the forms of processes,
queue items, declarations, and a ``sim``'s parts and pending processes.
These tests read the grammar as it ships with the package and check it
against each table, so neither can change alone.
"""

import itertools
import re
from importlib import resources
from string import Formatter

import pytest

from fwdcal import contexts as C
from fwdcal import parsing as P
from fwdcal import syntax as S
from fwdcal.records import fields

_EBNF_TOKEN = re.compile(
    r'\s+|\(\*.*?\*\)|"(?P<lit>[^"]*)"|(?P<name>[A-Za-z]\w*)|(?P<sym>[=|()\[\]{};])', re.S)


def _ebnf_tokens(text: str) -> list[tuple[str, str]]:
    """(kind, text) pairs, kind "lit", "name" or "sym"; comments dropped."""
    out, pos = [], 0
    while pos < len(text):
        m = _EBNF_TOKEN.match(text, pos)
        assert m, f"grammar.ebnf: cannot read {text[pos:pos + 20]!r}"
        if m.lastgroup:
            out.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    return out


# A rule's right side: a list of alternatives, each a list of items.  An
# item is ("lit", text), ("name", rule) or (bracket, alternatives) for a
# "(" group, "[" option or "{" repetition.
_CLOSE = {"(": ")", "[": "]", "{": "}"}


def _alternatives(toks, i):
    alts, seq = [], []
    while True:
        kind, text = toks[i]
        if kind != "sym":
            seq.append((kind, text))
            i += 1
        elif text in _CLOSE:
            inner, i = _alternatives(toks, i + 1)
            assert toks[i] == ("sym", _CLOSE[text])
            seq.append((text, inner))
            i += 1
        elif text == "|":
            alts.append(seq)
            seq, i = [], i + 1
        else:  # a closing bracket or the rule's ";"
            return alts + [seq], i


def grammar() -> dict[str, list]:
    text = resources.files("fwdcal").joinpath("grammar.ebnf").read_text(encoding="utf-8")
    toks, rules, i = _ebnf_tokens(text), {}, 0
    while i < len(toks):
        (_, name), eq = toks[i], toks[i + 1]
        assert eq == ("sym", "="), name
        rules[name], i = _alternatives(toks, i + 2)
        assert toks[i] == ("sym", ";"), name
        i += 1
    return rules


def _literal_runs(alts) -> set[tuple[str, ...]]:
    """The sequences of literal tokens the alternatives can spell, taking
    an option or a repetition zero times or once; a rule named adds none."""
    out = set()
    for seq in alts:
        runs = {()}
        for kind, x in seq:
            if kind == "lit":
                step = {tuple(t.text for t in P.tokenize(x)[:-1])}
            elif kind == "name":
                step = {()}
            else:
                step = _literal_runs(x) | ({()} if kind in "[{" else set())
            runs = {a + b for a, b in itertools.product(runs, step)}
        out |= runs
    return out


def _form_literals(cls: type, text: str) -> tuple[str, ...]:
    """The literal tokens of a form, without the "(" ")" that is only
    printed around a lone process slot."""
    for f in fields(cls):
        if f.type == "Process":
            text = text.replace("({" + f.name + "})", "{" + f.name + "}")
    lits = "".join(lit + " " for lit, _, _, _ in Formatter().parse(text))
    return tuple(t.text for t in P.tokenize(lits)[:-1])


def _slotted(alts) -> dict[str, tuple[str, tuple]]:
    """The alternatives that are a symbol and an optional annotation slot:
    each symbol's slot rule, and what follows the slot."""
    out = {}
    for seq in alts:
        match seq:
            case [("lit", symbol), ("[", [[("name", "targets" | "target" as rule)]]), *rest]:
                out[symbol] = (rule, tuple(rest))
    return out


def _slot_rule(row: S.Connective) -> str:
    return "targets" if row.multi else "target"


def test_binop_lists_the_infix_connectives():
    alts = grammar()["binop"]
    want = {row.symbol: (_slot_rule(row), ())
            for row in S.CONNECTIVES.values() if row.arity == 2}
    assert _slotted(alts) == want
    assert len(alts) == len(want)


def test_unary_lists_the_prefixes_and_units():
    # a prefix's operand is a unary: it binds tightest
    want = {row.symbol: (_slot_rule(row), (("name", "unary"),) * row.arity)
            for row in S.CONNECTIVES.values() if row.arity < 2}
    assert _slotted(grammar()["unary"]) == want


@pytest.mark.parametrize("forms,rules", [
    (S.PROCESSES, ("process",)),
    (C.QUEUE_ITEMS, ("item",)),
    (P.DECLARATIONS, None),  # each declaration's own rule
    (P.SIM_PARTS, ("part",)),
    (P.PENDING, ("pend",)),
], ids=["processes", "queue-items", "declarations", "sim-parts", "pending"])
def test_every_form_has_its_production(forms, rules):
    g = grammar()
    if rules is None:
        rules = tuple(name for ((_, name),) in g["declaration"])
    spelled = set().union(*(_literal_runs(g[r]) for r in rules))
    for cls, text in forms.texts.items():
        assert _form_literals(cls, text) in spelled, (cls.__name__, text)


@pytest.mark.parametrize("empty,bare", [
    ("bot{}", "bot"), ("a |{} b", "a | b"), ("a +{} b", "a + b"), ("?{} a", "? a"),
])
def test_an_empty_single_target_slot_is_no_target(empty, bare):
    # the grammar states it, and the parser reads it as an omitted slot
    assert grammar()["target"] == [[("lit", "{"), ("[", [[("name", "NAME")]]), ("lit", "}")]]
    assert P.parse_type(empty) == P.parse_type(bare)
