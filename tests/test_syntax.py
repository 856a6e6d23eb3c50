import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from fwdcal import parsing as P
from fwdcal import syntax as S
from fwdcal.syntax import (
    Atom, Bot, Case, Client, Close, Cut, DualAtom, Inl, Inr, Link, OfCourse, One, Par,
    Plus, Recv, Send, Server, Tensor, Wait, WhyNot, With, dual, erase, free_endpoints,
    print_process, print_type, rename_free, size,
)

names = st.sampled_from(["x", "y", "z", "u", "v", "w'", "cost", "b1'"])
opt_target = st.one_of(st.none(), names)
targets = st.lists(names, max_size=3, unique=True).map(tuple)


# Tree sizes are bounded inside the strategies (``max_leaves``), so the
# example counts below buy distinct small trees rather than time spent
# generating a few huge ones; ``test_strategies_reach_every_constructor``
# pins that every constructor is drawn.
types = st.recursive(
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

proc_leaves = st.one_of(st.builds(Link, names, names), names.map(Close))

procs = st.recursive(
    proc_leaves,
    lambda sub: st.one_of(
        st.builds(Wait, names, sub),
        st.builds(Send, names, names, sub, sub),
        st.builds(Recv, names, names, sub),
        st.builds(Inl, names, sub),
        st.builds(Case, names, sub, sub),
        st.builds(Server, names, names, sub),
        st.builds(Cut, names, names, sub, sub),
    ),
    max_leaves=12,
)

# Every binding form, for the scope laws; ``procs`` stays the input of the
# roundtrip tests.
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
        st.builds(Cut, names, names, sub, sub),
    ),
    max_leaves=12,
)


def _constructors(x) -> set[type]:
    if isinstance(x, tuple):
        return set().union(*map(_constructors, x))
    if not dataclasses.is_dataclass(x):
        return set()
    return {type(x)}.union(*(_constructors(getattr(x, f.name)) for f in dataclasses.fields(x)))


@pytest.mark.parametrize("strategy,constructors", [
    (types, {Atom, DualAtom, One, Bot, Tensor, Par, Plus, With, OfCourse, WhyNot}),
    (procs, {Link, Close, Wait, Send, Recv, Inl, Case, Server, Cut}),
    (scoped_procs, {Link, Close, Wait, Send, Recv, Inl, Inr, Case, Server, Client, Cut}),
], ids=["types", "procs", "scoped_procs"])
def test_strategies_reach_every_constructor(strategy, constructors):
    seen: set[type] = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(strategy)
    def draw(t):
        seen.update(_constructors(t))

    draw()
    assert seen == constructors


@settings(max_examples=300, deadline=None)
@given(types)
def test_type_roundtrip(t):
    assert P.parse_type(print_type(t)) == t


@settings(max_examples=300, deadline=None)
@given(procs)
def test_process_roundtrip(p):
    assert P.parse_process(print_process(p)) == p


def test_parse_type_crisscross():
    t = P.parse_type("~name |{y} ~cost *{y} bot{y}")
    assert t == Par(DualAtom("name"), Tensor(DualAtom("cost"), Bot("y"), ("y",)), "y")


def test_parse_type_atomic():
    assert P.parse_type("a") == Atom("a")


def test_parse_type_additive_crisscross():
    t = P.parse_type("(name +{y} name) &{y} (cost +{y} cost)")
    assert t == With(
        Plus(Atom("name"), Atom("name"), "y"),
        Plus(Atom("cost"), Atom("cost"), "y"),
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
        (("m", Link("u", "m"), (("u", Atom("a")), ("m", DualAtom("a")))),
         ("n", Link("v", "n"), (("v", Atom("a")), ("n", DualAtom("a"))))))
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
    assert erase(Bot("y")) == Bot()


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
@given(procs)
def test_rename_identity_keeps_free(p):
    fv = free_endpoints(p)
    q = rename_free(p, {"zzz": "qqq"})
    assert free_endpoints(q) == fv


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
