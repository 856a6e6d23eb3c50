from hypothesis import given, settings, strategies as st

from genutil import erase_context, rename_targets_by_slots
from fwdcal import parsing as P
from fwdcal import syntax as S
from fwdcal.contexts import (
    Context, Entry, LeftTok, Query, RightTok, Star, context_fully_annotated,
    context_types, ctx, endpoint_names, map_context, msgbox, normalize_queue,
    normalize_context, rename_context, rename_context_targets,
)
from fwdcal.syntax import Atom, DualAtom, One, Tensor
from test_parsing import contexts as parsed_contexts

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


def test_erase_context_lists_boxes_once():
    g = ctx(Entry("x", (msgbox("y", "m", NA),), A), Entry("y", (), NA))
    assert sorted(erase_context(g)) == [("m", NA), ("x", A), ("y", NA)]


# A state holds each queued item at its holder, in one queue per entry; the
# canonical state orders that queue by target, keeping each target's order.

def test_translate_one_box():
    b = msgbox("y", "m", A)
    g = normalize_context(ctx(Entry("y", (), NA),
                              Entry("x", (b,), Tensor(A, One(("y",)), ("y",)))))
    assert g.get("x").queue == (b,)
    assert g.get("y").queue == ()


def test_translate_groups_by_label_name_order():
    b1, b2, s = msgbox("y", "m", A), msgbox("z", "n", A), Star("a")
    g = normalize_context(ctx(Entry("x", (b2, b1, s), A), Entry("y", (), NA),
                              Entry("z", (), NA), Entry("a", (), One(("x",)))))
    assert g.get("x").queue == (s, b1, b2)


# The context walks that are plain loops, each against its ``map_context``
# definition over the same draws.

renamings = st.dictionaries(st.sampled_from(["x", "y", "z", "u", "v", "p", "m#1"]),
                            st.sampled_from(["x", "y", "f", "p", "m#2"]), max_size=3)


def _outcome(f):
    try:
        return f()
    except ValueError as e:  # a renaming that binds a name twice
        return str(e)


@settings(max_examples=100, deadline=None)
@given(parsed_contexts, renamings)
def test_context_renamers_are_their_definitions(g, m):
    def by_walk(name):
        return map_context(g, typ=lambda t: rename_targets_by_slots(t, m),
                           target=lambda u: m.get(u, u), name=name)

    want = by_walk(None)
    got = rename_context_targets(g, m)
    assert got == want
    assert (got is g) == (want is g)
    want = _outcome(lambda: by_walk(lambda n: m.get(n, n)))
    got = _outcome(lambda: rename_context(g, m))
    assert got == want
    if isinstance(want, Context):
        assert (got is g) == (want is g)


@settings(max_examples=100, deadline=None)
@given(parsed_contexts, st.booleans())
def test_context_fully_annotated_is_its_definition(g, fill):
    if fill:  # most drawn types leave a slot empty
        g = map_context(g, typ=lambda t: S.map_slots(t, lambda _, ts: ts or ("x",)))
    want = all(S.is_fully_annotated(t) for t in context_types(g))
    assert context_fully_annotated(g) == want


@settings(max_examples=100, deadline=None)
@given(parsed_contexts, st.sampled_from(["x", "y", "z", "u", "p", "q", "r'", "m#1", "p0"]))
def test_binds_is_membership_in_endpoint_names(g, n):
    assert g.binds(n) == (n in endpoint_names(g))


@settings(max_examples=100, deadline=None)
@given(parsed_contexts, st.sampled_from(["x", "y", "z", "u", "p", "q", "r'", "m#1", "p0"]))
def test_get_is_the_entry_of_that_name_or_none(g, n):
    assert g.get(n) == next((e for e in g.entries if e.endpoint == n), None)


@settings(max_examples=100, deadline=None)
@given(parsed_contexts, st.data())
def test_replace_puts_each_entry_in_place(g, data):
    xs = data.draw(st.lists(st.sampled_from(g.endpoints()), unique=True))
    new = {x: Entry(data.draw(st.sampled_from([x, "f"])), (), None) for x in xs}
    want = _outcome(lambda: Context(tuple(new.get(e.endpoint, e) for e in g.entries)))
    assert _outcome(lambda: g.replace(new)) == want
