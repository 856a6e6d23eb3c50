import pytest
from hypothesis import given, settings, strategies as st

from fwdcal import parsing as P
from fwdcal import syntax as S
from fwdcal.contexts import (
    Config, Context, Entry, LeftTok, MsgBox, Query, RightTok, Star, config_of_context,
    ctx, erase_context, msgbox, normalize_queue, translate_config,
)
from fwdcal.syntax import Atom, Bot, DualAtom, One, Tensor

A = Atom("a")
NA = DualAtom("a")

names = st.sampled_from(["x", "y", "z", "u", "v"])
items = st.one_of(
    names.map(Star),
    names.map(Query),
    names.map(LeftTok),
    names.map(RightTok),
    st.builds(msgbox, names, st.sampled_from(["p", "q", "r"]), st.just(A)),
)
queues = st.lists(items, max_size=6).map(tuple)


@settings(max_examples=200, deadline=None)
@given(queues)
def test_normalize_idempotent(q):
    assert normalize_queue(normalize_queue(q)) == normalize_queue(q)


@settings(max_examples=200, deadline=None)
@given(queues)
def test_normalize_preserves_per_target_order(q):
    nq = normalize_queue(q)
    for t in {it.target for it in q}:
        assert [i for i in q if i.target == t] == [i for i in nq if i.target == t]


def test_normalize_sorts_independent():
    q = (msgbox("y", "p", A), msgbox("x", "q", A))
    assert normalize_queue(q) == (msgbox("x", "q", A), msgbox("y", "p", A))


def test_normalize_empty():
    assert normalize_queue(()) == ()


def test_same_target_order_fixed():
    q = (msgbox("x", "p", A), msgbox("x", "q", NA))
    assert normalize_queue(q) == q


def test_equivalent_swap():
    q1 = (msgbox("x", "p", A), msgbox("y", "q", A))
    q2 = (msgbox("y", "q", A), msgbox("x", "p", A))
    assert normalize_queue(q1) == normalize_queue(q2)


def test_not_equivalent_same_target():
    q1 = (msgbox("x", "p", A), msgbox("x", "q", NA))
    q2 = (msgbox("x", "q", NA), msgbox("x", "p", A))
    assert normalize_queue(q1) != normalize_queue(q2)


@settings(max_examples=100, deadline=None)
@given(queues)
def test_equivalence_reflexive(q):
    assert normalize_queue(q) == normalize_queue(q)


@settings(max_examples=100, deadline=None)
@given(queues, queues)
def test_equivalence_symmetric(q1, q2):
    n1, n2 = normalize_queue(q1), normalize_queue(q2)
    assert (n1 == n2) == (n2 == n1)


def test_erase_context_crisscross_intermediate():
    g = ctx(
        Entry("x", (msgbox("y", "u", DualAtom("name")),),
              P.parse_type("~cost *{y} bot{y}")),
    )
    assert erase_context(g) == (
        ("u", DualAtom("name")),
        ("x", P.parse_type("~cost * bot")),
    )


def test_erase_context_plain():
    g = ctx(Entry("x", (), A), Entry("y", (), NA))
    assert erase_context(g) == (("x", A), ("y", NA))


def test_erase_context_tokens_vanish():
    g = ctx(Entry("x", (Star("y"),), None))
    assert erase_context(g) == ()


def test_translate_empty():
    assert translate_config(Config.make(())) == Context(())


def test_translate_single():
    c = Config.make((("x", A),))
    assert translate_config(c) == ctx(Entry("x", (), A))


def test_translate_one_box():
    b = msgbox("y", "m", A)
    c = Config.make((("x", Tensor(A, One(("y",)), ("y",))), ("y", NA)),
                    (((("y", "x")), (b,)),))
    g = translate_config(c)
    assert g.get("x").queue == (b,)
    assert g.get("y").queue == ()


def test_translate_groups_by_label_name_order():
    b1, b2, s = msgbox("y", "m", A), msgbox("z", "n", A), Star("a")
    c = Config.make(
        (("x", A), ("y", NA), ("z", NA), ("a", One(("x",)))),
        ((("z", "x"), (b2,)), (("y", "x"), (b1,)), (("a", "x"), (s,))),
    )
    assert translate_config(c).get("x").queue == (s, b1, b2)


def test_translate_terminated_holder():
    c = Config.make((("y", NA),), ((("y", "x"), (msgbox("y", "m", A),)),))
    g = translate_config(c)
    assert g.get("x").typing is None and len(g.get("x").queue) == 1


def test_translate_rejects_self_queue():
    c = Config.make((("x", A),), ((("x", "x"), (Star("x"),)),))
    with pytest.raises(ValueError):
        translate_config(c)


def test_translate_roundtrip():
    b = msgbox("y", "m", A)
    c = Config.make((("x", Bot("y")), ("y", One(("x",)))), ((("y", "x"), (b,)),))
    assert config_of_context(translate_config(c)) == c


def test_erase_of_translation_lists_boxes_once():
    b = msgbox("y", "m", NA)
    c = Config.make((("x", A), ("y", NA)), ((("y", "x"), (b,)),))
    e = erase_context(translate_config(c))
    assert sorted(e) == [("m", NA), ("x", A), ("y", NA)]
