"""The rules do what ``syntax.ACTS`` and ``contexts.QUEUES`` say.

Each test is keyed by ``syntax.CONNECTIVES``, as ``test_grammar.py`` keys
the grammar: for every connective, each action on it (``ACTS``) fires its
rule in ``forwarder_step`` at a one-target judgement, and the premise queues
exactly the items ``QUEUES`` lists for the connective, or takes the item
``TAKEN_BY`` gives the action and refuses every other kind of item.
Compat's moves, by the same rule bodies (``checker.CONNECTIVE_RULES``),
push and take the same kinds.
"""

import pytest

from fwdcal import checker as K
from fwdcal import compat as CM
from fwdcal import syntax as S
from fwdcal.checker import CheckError, forwarder_step
from fwdcal.contexts import QUEUES, TAKEN_BY, Context, Entry, MsgBox, first_destined, msgbox
from fwdcal.syntax import Atom, Cut, Link, OfCourse, One, WhyNot

CONNECTIVES = list(S.CONNECTIVES)
IDS = [row.symbol for row in S.CONNECTIVES.values()]
ITEMS = sorted({it for its in QUEUES.values() for it in its}, key=lambda c: c.__name__)


def _typed(cls: type) -> S.Type:
    """``cls`` over atoms, aimed at ``z``."""
    return cls(*(Atom("a"),) * S.CONNECTIVES[cls].arity, ("z",))


def _item(kind: type, target: str):
    return msgbox(target, "m", Atom("a")) if kind is MsgBox else kind(target)


def _judgement(action: type, item: type | None) -> tuple[S.Process, Context]:
    """``action`` on ``x`` at type ``_typed``, with ``z`` holding ``item``
    for ``x``: terminated beside a 1, ?-typed beside a !."""
    cls = S.ACTS[action][0]
    z = None if cls is One else WhyNot(Atom("a"), ("x",)) if cls is OfCourse else Atom("a")
    queue = () if item is None else (_item(item, "x"),)
    return (S.head_term(action, ("x",), "f"),
            Context((Entry("x", (), _typed(cls)), Entry("z", queue, z))))


def _taken(action: type) -> list[type]:
    return [it for it, a in TAKEN_BY.items() if a is action]


def test_every_forwarder_rule_but_link_and_cut_acts_on_a_connective():
    assert set(K.FORWARDER_RULES) - {Link, Cut} == set(S.ACTS)
    assert list(K.CONNECTIVE_RULES) == CONNECTIVES
    assert set().union(*map(set, S.ACTIONS.values())) == set(S.ACTS)


@pytest.mark.parametrize("cls", CONNECTIVES, ids=IDS)
def test_the_rule_queues_the_tables_items_or_takes_its_item(cls):
    dual = S.CONNECTIVES[cls].dual
    assert (cls in QUEUES) != (dual in QUEUES)
    assert S.ACTIONS[cls]
    for action in S.ACTIONS[cls]:
        if cls in QUEUES:
            assert _taken(action) == []
            p, g = _judgement(action, None)
            _, prem = forwarder_step(p, g)
            assert len(prem) == len(QUEUES[cls])
            for (_, g2), kind in zip(prem, QUEUES[cls]):
                # the actor's entry, renamed to its binder by !
                (e,) = (e for e in g2.entries if e.endpoint != "z")
                assert [(type(it), it.target) for it in e.queue] == [(kind, "z")]
            continue
        (item,) = _taken(action)
        assert item in QUEUES[dual]
        p, g = _judgement(action, item)
        _, prem = forwarder_step(p, g)
        # the item is gone from z: a premise has z empty, or there is none (1)
        assert all(g2.get("z") is None or g2.get("z").queue == () for _, g2 in prem)
        for other in ITEMS:
            if other is not item:
                with pytest.raises(CheckError):
                    forwarder_step(*_judgement(action, other))


@pytest.mark.parametrize("cls", CONNECTIVES, ids=IDS)
def test_compat_moves_push_and_take_the_same_kinds(cls):
    # compat's moves of x, by the rule bodies the checker's rules call
    dual = S.CONNECTIVES[cls].dual
    if cls in QUEUES:
        c = _judgement(S.ACTIONS[cls][0], None)[1]
        moves = [(step, c2) for step, c2 in CM.transitions(c) if step.x == "x"]
        pushed = [[(type(it), it.target) for it in c2.get("x").queue] for _, c2 in moves]
        assert pushed == [[(kind, "z")] for kind in QUEUES[cls]]
        assert {step.act for step, _ in moves} == set(S.ACTIONS[cls])
        return
    for item in QUEUES[dual]:
        c = _judgement(TAKEN_BY[item], item)[1]
        (move,) = [(step, c2) for step, c2 in CM.transitions(c) if step.x == "x"]
        assert move[0].act is TAKEN_BY[item]
        z = move[1].get("z")  # none once it is terminated and drained
        assert z is None or first_destined(z.queue, "x") is None
