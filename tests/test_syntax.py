import random
import typing

import pytest
from hypothesis import given, settings, strategies as st

from fwdcal import parsing as P
from fwdcal import syntax as S
from fwdcal.records import Record, fields
from fwdcal.syntax import (
    Atom, Bot, Case, Client, Close, Cut, DualAtom, Inl, Inr, Link, OfCourse, One, Par,
    Plus, Recv, Send, Server, Tensor, Wait, WhyNot, With, dual, erase, free_endpoints,
    print_process, print_type, rename_free, size,
)

names = st.sampled_from(["x", "y", "z", "u", "v", "w'", "cost", "b1'"])
opt_target = st.one_of(st.just(()), names.map(lambda n: (n,)))
targets = st.lists(names, max_size=3, unique=True).map(tuple)


# Tree sizes are bounded inside the strategies (``max_leaves``), so the
# example counts below buy distinct small trees rather than time spent
# generating a few huge ones; ``test_strategies_reach_every_constructor``
# pins that every constructor is drawn.
def type_strategy(targets, opt_target):
    """Types whose multi-target slots draw from ``targets`` and whose
    single-target slots draw from ``opt_target``."""
    return st.recursive(
        st.one_of(names.map(Atom), names.map(DualAtom), targets.map(One), opt_target.map(Bot)),
        lambda sub: st.one_of(
            st.builds(Tensor, sub, sub, targets),
            st.builds(Par, sub, sub, opt_target),
            st.builds(Plus, sub, sub, opt_target),
            st.builds(With, sub, sub, targets),
            st.builds(OfCourse, sub, targets),
            st.builds(WhyNot, sub, opt_target),
        ),
        max_leaves=12,
    )


types = type_strategy(targets, opt_target)
# every slot set, some of them to an annotation hole
slot_names = st.one_of(names, st.sampled_from([S.HOLE_PREFIX + "1", S.HOLE_PREFIX + "2"]))
set_types = type_strategy(st.lists(slot_names, min_size=1, max_size=2, unique=True).map(tuple),
                          slot_names.map(lambda n: (n,)))

proc_leaves = st.one_of(st.builds(Link, names, names), names.map(Close))

# A cut states the plain type of its first endpoint; a few leaves suffice.
formulas = st.recursive(
    st.one_of(names.map(Atom), names.map(DualAtom), st.just(One()), st.just(Bot())),
    lambda sub: st.one_of(*(st.builds(c, sub, sub) for c in (Tensor, Par, Plus, With)),
                          *(st.builds(c, sub) for c in (OfCourse, WhyNot))),
    max_leaves=4,
)

# Every process constructor, for the roundtrips and the scope laws.
scoped_procs = st.recursive(
    proc_leaves,
    lambda sub: st.one_of(
        st.builds(Wait, names, sub),
        st.builds(Send, names, names, sub, sub),
        st.builds(Recv, names, names, sub),
        st.builds(Inl, names, sub),
        st.builds(Inr, names, sub),
        st.builds(Case, names, sub, sub),
        st.builds(Server, names, names, sub),
        st.builds(Client, names, names, sub),
        st.builds(Cut, names, names, formulas, sub, sub),
    ),
    max_leaves=12,
)


def _constructors(x) -> set[type]:
    if isinstance(x, tuple):
        return set().union(*map(_constructors, x))
    if not isinstance(x, Record):
        return set()
    return {type(x)}.union(*(_constructors(getattr(x, f.name)) for f in fields(x)))


_TYPE_CONSTRUCTORS = {Atom, DualAtom, One, Bot, Tensor, Par, Plus, With, OfCourse, WhyNot}


# ``procs``: the formulas that process cuts state reach every type
# constructor, so the process roundtrip prints and parses each connective
# inside a cut.
@pytest.mark.parametrize("strategy,sort,constructors", [
    (types, S.Type, _TYPE_CONSTRUCTORS),
    (formulas, S.Type, _TYPE_CONSTRUCTORS),
    (scoped_procs, S.Process,
     {Link, Close, Wait, Send, Recv, Inl, Inr, Case, Server, Client, Cut}),
], ids=["types", "procs", "scoped_procs"])
def test_strategies_reach_every_constructor(strategy, sort, constructors):
    seen: set[type] = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(strategy)
    def draw(t):
        seen.update(_constructors(t))

    draw()
    # a cut's formula is a type: count only the constructors of ``sort``
    assert seen & set(typing.get_args(sort)) == constructors


@settings(max_examples=300, deadline=None)
@given(types)
def test_type_roundtrip(t):
    assert P.parse_type(print_type(t)) == t


@settings(max_examples=300, deadline=None)
@given(scoped_procs)
def test_process_roundtrip(p):
    assert P.parse_process(print_process(p)) == p


def test_parse_type_crisscross():
    t = P.parse_type("~name |{y} ~cost *{y} bot{y}")
    assert t == Par(DualAtom("name"), Tensor(DualAtom("cost"), Bot(("y",)), ("y",)), ("y",))


def test_parse_type_atomic():
    assert P.parse_type("a") == Atom("a")


def test_parse_type_additive_crisscross():
    t = P.parse_type("(name +{y} name) &{y} (cost +{y} cost)")
    assert t == With(
        Plus(Atom("name"), Atom("name"), ("y",)),
        Plus(Atom("cost"), Atom("cost"), ("y",)),
        ("y",),
    )


def test_parse_process_crisscross():
    p = P.parse_process("x(u). y(v). y[u'].(u<->u' | x[v'].(v'<->v | wait x; close y))")
    assert p == Recv(
        "x", "u",
        Recv("y", "v",
             Send("y", "u'", Link("u", "u'"),
                  Send("x", "v'", Link("v'", "v"), Wait("x", Close("y"))))),
    )


def test_parse_process_link():
    assert P.parse_process("x<->y") == Link("x", "y")


def test_sim_with_two_pending_processes_roundtrips():
    # a pending process's environment ends before the "," that starts the
    # next pending process, NAME "<-"
    decl = P.SimDecl(
        P.parse_process("x<->y"), P.parse_context("x : ~a, y : a"),
        (P.SimPart(Link("y", "e"), (("e", Atom("a")), ("y", DualAtom("a"))), "y"),),
        (P.SimPending("m", Link("u", "m"), (("u", Atom("a")), ("m", DualAtom("a")))),
         P.SimPending("n", Link("v", "n"), (("v", Atom("a")), ("n", DualAtom("a"))))))
    (back,) = P.parse_file(P.print_declaration(decl)).decls
    assert back == decl


def test_print_one_targets():
    assert print_type(One(("a", "b"))) == "1{a,b}"


def test_print_link():
    assert print_process(Link("x", "y")) == "x<->y"


def test_parse_error_position():
    with pytest.raises(P.ParseError) as e:
        P.parse_type("a *{} *")
    assert e.value.line == 1 and e.value.expected


def test_dual_atoms():
    assert dual(Atom("a")) == DualAtom("a")


@settings(max_examples=200, deadline=None)
@given(types)
def test_dual_involution(t):
    e = erase(t)
    assert dual(dual(e)) == e


def test_dual_table():
    assert dual(Tensor(Atom("name"), One())) == Par(DualAtom("name"), Bot())


@settings(max_examples=200, deadline=None)
@given(types)
def test_size_dual_invariant(t):
    assert size(dual(erase(t))) == size(t)


def test_size_examples():
    assert size(Atom("a")) == 0
    assert size(P.parse_type("~name | ~cost * bot")) == 3
    assert size(One()) == 1


@settings(max_examples=200, deadline=None)
@given(types)
def test_erase_idempotent(t):
    assert erase(erase(t)) == erase(t)


def test_erase_crisscross():
    t = P.parse_type("~name |{y} ~cost *{y} bot{y}")
    assert erase(t) == P.parse_type("~name | ~cost * bot")
    assert erase(Bot(("y",))) == Bot()


def test_free_endpoints():
    p = P.parse_process("x(u). y[v].(u<->v | wait x; close y)")
    assert free_endpoints(p) == {"x", "y"}


def test_rename_free_capture_avoiding():
    p = P.parse_process("x(u). u<->y")
    q = rename_free(p, {"y": "u"})
    # the binder must move out of the way of the incoming name
    assert isinstance(q, Recv) and q.fresh != "u"
    assert free_endpoints(q) == {"x", "u"}


@settings(max_examples=150, deadline=None)
@given(scoped_procs)
def test_rename_identity_keeps_free(p):
    fv = free_endpoints(p)
    q = rename_free(p, {"zzz": "qqq"})
    assert free_endpoints(q) == fv


def _free_by_cases(p) -> set[str]:
    """Free names by the textbook definition, one case per constructor, so
    that it does not read the binder table it checks."""
    if isinstance(p, Link):
        return {p.x, p.y}
    if isinstance(p, Close):
        return {p.x}
    if isinstance(p, (Wait, Inl, Inr)):
        return {p.x} | _free_by_cases(p.cont)
    if isinstance(p, Send):  # the sent name is bound in the payload only
        return {p.x} | (_free_by_cases(p.payload) - {p.fresh}) | _free_by_cases(p.cont)
    if isinstance(p, (Recv, Client)):
        return {p.x} | (_free_by_cases(p.cont) - {p.fresh})
    if isinstance(p, Server):
        return {p.x} | (_free_by_cases(p.body) - {p.fresh})
    if isinstance(p, Case):
        return {p.x} | _free_by_cases(p.left) | _free_by_cases(p.right)
    if isinstance(p, Cut):
        return (_free_by_cases(p.left) - {p.x}) | (_free_by_cases(p.right) - {p.y})
    raise TypeError(p)


@settings(max_examples=300, deadline=None)
@given(scoped_procs)
def test_the_binder_table_rebuilds_every_term_and_its_free_names(p):
    heads, subs = S.scope(p)
    assert S.from_scope(p, heads, subs) == p
    assert free_endpoints(p) == _free_by_cases(p)
    assert S.head_endpoint(p) == (heads[0] if len(heads) == 1 else None)


def test_the_binder_table_has_a_row_for_each_process_form():
    assert set(S.BINDERS) == set(S.PROCESSES.texts)
    # each row names only fields of its class, every subterm field once
    for cls, (heads, subs) in S.BINDERS.items():
        names = [f.name for f in fields(cls)]
        assert set(heads) | {b for bs, _ in subs for b in bs} | {q for _, q in subs} <= set(names)
        assert [f.name for f in fields(cls) if f.type == "Process"] == [q for _, q in subs]


@pytest.mark.parametrize("bad", [object(), Atom("a"), None])
def test_scope_and_from_scope_refuse_what_is_no_process(bad):
    with pytest.raises(TypeError):
        S.scope(bad)
    with pytest.raises(TypeError):
        S.from_scope(bad, (), ())


@settings(max_examples=150, deadline=None)
@given(scoped_procs, st.dictionaries(names, names, max_size=3))
def test_rename_free_renames_exactly_the_free_names(p, m):
    assert S.from_scope(p, *S.scope(p)) == p
    assert free_endpoints(rename_free(p, m)) == {m.get(n, n) for n in free_endpoints(p)}


@settings(max_examples=200, deadline=None)
@given(types)
def test_map_slots_unchanged_is_shared(t):
    assert S.map_slots(t, lambda s, ts: ts) is t


def test_map_slots_visits_in_preorder():
    t = P.parse_type("(a *{x} 1{y}) |{z} !{u} bot{v}")
    assert S.slots(t) == [("z",), ("x",), ("y",), ("u",), ("v",)]


@pytest.mark.parametrize("cls", list(S.CONNECTIVES), ids=[r.symbol for r in S.CONNECTIVES.values()])
def test_every_connective_holds_its_slot_as_a_tuple_of_targets(cls):
    *_, last = fields(cls)
    assert (last.name, last.default) == ("targets", ())
    assert cls(*(Atom("a"),) * S.CONNECTIVES[cls].arity).targets == ()


def test_map_slots_refuses_a_second_name_in_a_single_target_slot():
    t = P.parse_type("a |{x} 1{y}")
    assert S.map_slots(t, lambda s, ts: ("u",) if isinstance(s, Par) else ts) == \
        P.parse_type("a |{u} 1{y}")
    with pytest.raises(ValueError, match="single-target"):
        S.map_slots(t, lambda s, ts: ("u", "v") if isinstance(s, Par) else ts)


def test_alpha_renaming_preserves_judgement():
    import genutil

    rng = random.Random(7)
    ctx, proc = genutil.dual_pair_judgement(rng, 3)
    from fwdcal.checker import check_forwarder

    proc2, ctx2, _ = genutil.rename_judgement(proc, ctx, "q")
    d1 = check_forwarder(proc, ctx)
    d2 = check_forwarder(proc2, ctx2)
    assert d1.rules_preorder() == d2.rules_preorder()
    assert S.size(erase(ctx.entries[0].typing)) == S.size(erase(ctx2.entries[0].typing))


# -- the type walks against their definitions over map_slots (genutil) -------


@settings(max_examples=150, deadline=None)
@given(st.one_of(types, set_types))
def test_erase_size_and_full_annotation_are_their_definitions(t):
    import genutil

    e = erase(t)
    assert e == genutil.erase_by_slots(t)
    assert erase(e) is e
    assert size(t) == genutil.size_by_slots(t)
    assert S.is_fully_annotated(t) == genutil.fully_annotated_by_slots(t)


def test_full_annotation_refuses_a_hole_or_an_empty_slot():
    assert S.is_fully_annotated(P.parse_type("a *{x} 1{y}"))
    assert not S.is_fully_annotated(P.parse_type("a *{x} 1"))
    assert not S.is_fully_annotated(Tensor(Atom("a"), One(("x",)), ("?1",)))
    assert S.is_fully_annotated(Tensor(Atom("a"), One(("x",)), ("?1", "y")))
    assert not S.is_fully_annotated(WhyNot(One(("x",)), ("?2",)))


@settings(max_examples=100, deadline=None)
@given(st.one_of(types, set_types), st.dictionaries(names, names, max_size=3))
def test_rename_targets_is_its_definition(t, m):
    import genutil

    got = S.rename_targets(t, m)
    assert got == genutil.rename_targets_by_slots(t, m)
    if not any(n in m for ts in S.slots(t) for n in ts):
        assert got is t


def _annotate(t, fill):
    """``t`` with its slots set in turn from ``fill``, a list of one-name
    or empty slots."""
    it = iter(fill * (size(t) // max(len(fill), 1) + 1))
    return S.map_slots(t, lambda _, ts: next(it, ()))


def _mutated(t, k: int):
    """Plain ``t`` with its node ``k`` (in pre-order, modulo the node count)
    changed: an atom's name or polarity, or a connective to another of its
    operand count."""
    nodes = []

    def walk(u):
        nodes.append(u)
        for c in S.children(u):
            walk(c)

    walk(t)
    target = nodes[k % len(nodes)]

    def change(u):
        if u is target:
            if isinstance(u, (Atom, DualAtom)):
                return type(u)(u.name + "'") if k % 2 else (
                    DualAtom(u.name) if isinstance(u, Atom) else Atom(u.name))
            row = S.CONNECTIVES[type(u)]
            same = [c for c, r in S.CONNECTIVES.items() if r.arity == row.arity and c is not type(u)]
            return same[k % len(same)](*S.children(u))
        kids = S.children(u)
        return type(u)(*map(change, kids)) if kids else u

    return change(t)


@settings(max_examples=100, deadline=None)
@given(types, st.lists(st.one_of(st.just(()), names.map(lambda n: (n,))), max_size=4))
def test_is_dual_holds_on_dual_pairs(t, fill):
    import genutil

    u = _annotate(dual(erase(t)), fill)
    assert S.is_dual(t, u) and S.is_dual(u, t)
    assert genutil.is_dual_by_erasure(t, u)


@settings(max_examples=100, deadline=None)
@given(types, types)
def test_is_dual_is_its_definition_on_random_pairs(t, u):
    import genutil

    assert S.is_dual(t, u) == genutil.is_dual_by_erasure(t, u)


@settings(max_examples=100, deadline=None)
@given(types, st.integers(min_value=0, max_value=1000))
def test_is_dual_refuses_a_pair_that_differs_in_one_atom_or_connective(t, k):
    import genutil

    u = _mutated(dual(erase(t)), k)
    assert not genutil.is_dual_by_erasure(t, u)
    assert not S.is_dual(t, u) and not S.is_dual(u, t)
