import json
import random
from itertools import chain, islice
from pathlib import Path

import pytest

import genutil
from fwdcal import checker as K
from fwdcal import parsing as P
from fwdcal import syntax as S
from fwdcal.checker import (
    CheckError, LeftoverQueue, NonEmptyTargetViolation, NotAnnotated, QueueHeadMismatch,
    RuleMismatch, check_cll, check_forwarder, cp_step, eta_link, forwarder_step,
    synth_forwarder, synth_with_annotations,
)
from fwdcal.contexts import (
    Context, Entry, Query, Star, context_types, ctx, first_destined, map_context, msgbox,
)
from fwdcal.syntax import Atom, Bot, DualAtom, Link, One, Par, Tensor, dual, erase


CRISS_X = "~name |{y} ~cost *{y} bot{y}"
CRISS_Y = "cost |{x} name *{x} 1{x}"
CRISS = "x(u). y(v). y[u'].(u<->u' | x[v'].(v'<->v | wait x; close y))"

ADD_X = "(name +{y} name) &{y} (cost +{y} cost)"
ADD_Y = "(~name +{x} ~cost) &{x} (~name +{x} ~cost)"
ADD = """case x {inl: case y {inl: x.inl. y.inl. y<->x; inr: x.inr. y.inl. y<->x};
                 inr: case y {inl: x.inl. y.inr. y<->x; inr: x.inr. y.inr. y<->x}}"""


def criss_judgement():
    return P.parse_process(CRISS), P.parse_context(f"x : {CRISS_X}, y : {CRISS_Y}")


def test_crisscross_accepts_with_paper_rule_order():
    p, g = criss_judgement()
    d = check_forwarder(p, g)
    assert d.rules_preorder() == (
        "Par", "Par", "Tensor", "Ax", "Tensor", "Ax", "Bot", "One")


def test_additive_crisscross_accepts():
    d = check_forwarder(P.parse_process(ADD), P.parse_context(f"x : {ADD_X}, y : {ADD_Y}"))
    assert d.rules_preorder() == (
        "With",
        "With", "PlusL", "PlusL", "Ax", "PlusR", "PlusL", "Ax",
        "With", "PlusL", "PlusR", "Ax", "PlusR", "PlusR", "Ax",
    )


def test_ax_accepts_dual_atoms():
    g = ctx(Entry("x", (), DualAtom("a")), Entry("y", (), Atom("a")))
    assert check_forwarder(Link("x", "y"), g).rule == "Ax"


def test_ax_rejects_equal_atoms():
    g = ctx(Entry("x", (), Atom("a")), Entry("y", (), Atom("a")))
    with pytest.raises(RuleMismatch):
        check_forwarder(Link("x", "y"), g)


@pytest.mark.parametrize("term", [
    "close x", "wait x; close y", "x(u). close y", "x[u].(close u | close y)", "x.inl. close y",
    "case x {inl: close y; inr: close y}", "!x(u). close y", "?x[u]. close y",
])
def test_rule_failures_print_the_typing_in_surface_syntax(term):
    # a typing no rule of the term's head accepts
    typing = "1{y} &{y} bot{y}" if term.startswith("x.inl") else "bot{y} +{y} 1{y}"
    g = P.parse_context(f"x : {typing}, y : 1{{x}}")
    with pytest.raises(RuleMismatch) as e:
        forwarder_step(P.parse_process(term), g)
    assert str(e.value).endswith(f", got {S.print_type(g.get('x').typing)}")


def test_rejects_unannotated():
    g = ctx(Entry("x", (), Par(DualAtom("a"), Bot())), Entry("y", (), Tensor(Atom("a"), One())))
    with pytest.raises(NotAnnotated):
        check_forwarder(P.parse_process("x(u). close y"), g)


def test_one_requires_nonempty_targets():
    g = ctx(Entry("x", (), One()))
    with pytest.raises(NotAnnotated):
        check_forwarder(P.parse_process("close x"), g)


def test_one_requires_star_heads():
    g = P.parse_context("u : . [to=x msg m : a] [to=x *], x : 1{u}")
    with pytest.raises(LeftoverQueue):
        check_forwarder(P.parse_process("close x"), g)


def test_tensor_queue_head_mismatch():
    g = P.parse_context("u : ~a [to=x *], x : a *{u} 1{u}")
    with pytest.raises(QueueHeadMismatch):
        check_forwarder(P.parse_process("x[w].(w<->u | close x)"), g)


def test_tensor_empty_targets_rejected():
    g = ctx(Entry("x", (), Tensor(Atom("a"), One(("y",)))), Entry("y", (), DualAtom("a")))
    with pytest.raises(CheckError):
        check_forwarder(P.parse_process("x[w].(y<->w | close x)"), g)


def test_verdicts_invariant_under_entry_reordering_and_normalization():
    p, g = criss_judgement()
    g2 = Context(tuple(reversed(g.entries)))
    assert check_forwarder(p, g2).rules_preorder() == check_forwarder(p, g).rules_preorder()


def test_check_cll_close():
    assert check_cll(P.parse_process("close x"), (("x", One()),)).rule == "One"


def test_check_cll_wait():
    d = check_cll(P.parse_process("wait x; close y"), (("x", Bot()), ("y", One())))
    assert d.rules_preorder() == ("Bot", "One")


def test_check_cll_erased_crisscross():
    p, g = criss_judgement()
    env = genutil.erase_context(g)
    d = check_cll(p, env)
    assert d.rules_preorder() == ("Par", "Par", "Tensor", "Ax", "Tensor", "Ax", "Bot", "One")


def test_check_cll_weakening_at_leaf():
    d = check_cll(P.parse_process("close x"), (("x", One()), ("u", P.parse_type("? a"))))
    assert "Weaken" in d.rules_preorder()


def test_check_cll_contraction():
    p = P.parse_process("?x[u]. ?x[v]. wait u; wait v; close e")
    env = (("e", One()), ("x", P.parse_type("? bot")))
    d = check_cll(p, env)
    assert "Contract" in d.rules_preorder()


def test_check_cll_rejects_unused_linear():
    with pytest.raises(CheckError):
        check_cll(P.parse_process("close x"), (("x", One()), ("y", Bot())))


def test_check_cll_cut_states_its_formula():
    p = P.parse_process("res a b : 1 (wait e; close a | wait b; close f)")
    env = (("e", Bot()), ("f", One()))
    d = check_cll(p, env)
    assert d.rule == "Cut"
    # the left side closes a, so a stated bot disagrees with its use of a
    with pytest.raises(CheckError, match="close a needs a:1"):
        check_cll(P.parse_process("res a b : bot (wait e; close a | wait b; close f)"), env)


def test_check_cll_cut_with_links():
    p = P.parse_process("res a b : t (e<->a | b<->f)")
    env = (("e", Atom("t")), ("f", Atom("t")))
    with pytest.raises(CheckError):
        check_cll(p, env)
    env2 = (("e", DualAtom("t")), ("f", Atom("t")))
    assert check_cll(p, env2).rule == "Cut"


def test_synth_ax():
    g = ctx(Entry("x", (), DualAtom("a")), Entry("y", (), Atom("a")))
    assert synth_forwarder(g) == Link("x", "y")


def test_synth_crisscross_recheck():
    _, g = criss_judgement()
    f = synth_forwarder(g)
    assert f is not None
    assert check_forwarder(f, g)


def test_synth_rejects_bad_atoms():
    g = ctx(Entry("x", (), Atom("a")), Entry("y", (), Atom("a")))
    assert synth_forwarder(g) is None


def test_synth_with_annotations_atoms():
    got = synth_with_annotations((("x", DualAtom("a")), ("y", Atom("a"))))
    assert got is not None and isinstance(got[1], Link)


def test_synth_with_annotations_crisscross():
    env = (("x", P.parse_type("~name | ~cost * bot")), ("y", P.parse_type("cost | name * 1")))
    got = synth_with_annotations(env)
    assert got is not None
    ctx2, proc = got
    assert check_forwarder(proc, ctx2)


def test_synth_with_annotations_two_ones_fail():
    assert synth_with_annotations((("x", One()), ("y", One()))) is None


def test_synth_lone_one_fails():
    assert synth_with_annotations((("x", One()),)) is None


def test_synthesis_soundness_random():
    rng = random.Random(11)
    for _ in range(40):
        t = genutil.random_plain_type(rng, rng.randint(1, 4))
        got = synth_with_annotations((("p", dual(t)), ("q", t)))
        assert got is not None
        c2, f = got
        check_forwarder(f, c2)


def test_invertibility_on_derivations():
    # every rule instance over a derivable conclusion has derivable premises
    rng = random.Random(5)
    for _ in range(15):
        ctx0, proc = genutil.dual_pair_judgement(rng, 3)
        d = check_forwarder(proc, ctx0)
        for node_proc, g in genutil.derivation_nodes(d):
            assert synth_forwarder(g) is not None  # the node is derivable
            _, prem = forwarder_step(node_proc, g)
            for _, h in prem:
                assert synth_forwarder(h) is not None


def test_embed_on_goldens():
    for proc_txt, ctx_txt in [
        (CRISS, f"x : {CRISS_X}, y : {CRISS_Y}"),
        (ADD, f"x : {ADD_X}, y : {ADD_Y}"),
    ]:
        p, g = P.parse_process(proc_txt), P.parse_context(ctx_txt)
        check_forwarder(p, g)
        check_cll(p, genutil.erase_context(g))


def test_embed_random_judgements():
    rng = random.Random(23)
    for proc, g in genutil.sample_derivable_judgements(rng, 60, max_size=4):
        check_cll(proc, genutil.erase_context(g))


def test_eta_link_all_connectives():
    for txt in ["a", "~a", "1", "bot", "a * 1", "~a | bot", "a + bot", "a & a",
                "! (a + a)", "? (~a & ~a)", "(a * 1) + (? ~a)"]:
        t = P.parse_type(txt)
        p = eta_link("z", "x", t)
        check_cll(p, (("z", dual(t)), ("x", t)))


def test_cp_step_matches_check():
    p = P.parse_process("x[u].(u<->e | close x)")
    env = (("e", DualAtom("a")), ("x", Tensor(Atom("a"), One())))
    tag, prem = cp_step(p, env)
    assert tag == "Tensor" and len(prem) == 2
    for q, h in prem:
        check_cll(q, h)


def test_synth_reads_queues_per_target():
    # y's branch queues a token for x ahead of one for z; z selects first, so
    # it must read the first item aimed at z, not the head of y's queue
    from fwdcal.compat import multiparty_compatible

    for order in ("x,z", "z,x"):
        g = P.parse_context(
            f"y : 1{{x,z}} &{{{order}}} 1{{x,z}}, z : (~a |{{x}} bot{{y}}) +{{y}} "
            f"(~a |{{x}} bot{{y}}), x : a *{{z}} (bot{{y}} +{{y}} bot{{y}})")
        f = synth_forwarder(g)
        assert f is not None, order
        check_forwarder(f, g)
        env = tuple((e.endpoint, erase(e.typing)) for e in g.entries)
        assert synth_with_annotations(env) is not None
        assert multiparty_compatible(tuple((x, dual(t)) for x, t in env))


def test_check_reads_queues_per_target():
    p = P.parse_process("case y {inl: z.inl. x.inl. wait x; wait z; close y; "
                        "inr: z.inr. x.inr. wait x; wait z; close y}")
    for order in ("x,z", "z,x"):
        g = P.parse_context(f"y : (1{{x,z}}) &{{{order}}} (1{{x,z}}), "
                            "x : bot{y} +{y} bot{y}, z : bot{y} +{y} bot{y}")
        assert check_forwarder(p, g).rules_preorder()[:3] == ("With", "PlusL", "PlusL")


def _hole_slots(g: Context) -> list[str]:
    """The hole of each slot of ``g`` that holds one, in walk order."""
    return [ts[0] for t in context_types(g) for ts in S.slots(t) if S.is_hole(ts)]


def _partly_annotated(rng: random.Random, n: int):
    """Contexts of derivable judgements with about half their slots emptied."""
    for _, g in genutil.sample_derivable_judgements(rng, n, max_size=4):
        yield map_context(g, typ=lambda t: S.map_slots(t, lambda _, ts: () if rng.random() < 0.5
                                                       else ts))


def test_each_hole_sits_in_one_slot_of_every_premise(monkeypatch):
    # synthesis sets a head hole in its one slot and substitutes resolutions
    # only into later sibling premises; both rest on this
    real, fired = K.forwarder_step, []

    def step(p, g):
        rule, prem = real(p, g)
        for _, h in prem:
            holes = _hole_slots(h)
            assert len(holes) == len(set(holes)), (rule, h)
        fired.append(rule)
        return rule, prem

    monkeypatch.setattr(K, "forwarder_step", step)
    rng = random.Random(31)
    for g in _partly_annotated(rng, 150):
        holes = S.holes()
        holed = map_context(g, typ=lambda t: K.annotate_with_holes(t, holes))
        made = sorted(_hole_slots(holed))
        assert made == sorted(islice(S.holes(), len(made)))
        assert next(holes) == f"{S.HOLE_PREFIX}{len(made) + 1}"
        assert K.synth_context(g) is not None
    assert {"Tensor", "With", "Bang", "Quest"} <= set(fired)


SYNTH_FIXTURE = Path(__file__).parent / "synth_fixture.json"


def _synth_fixture_envs():
    """50 compatible ``random_env`` draws of two parties, then 20 one-waiter
    choice projections of three."""
    from fwdcal.compat import multiparty_compatible

    rng, k, n = random.Random(16), 0, 0
    while n < 50:
        env = genutil.random_env(rng, 2, genutil.CONNECTIVES[k % len(genutil.CONNECTIVES)])
        k += 1
        if multiparty_compatible(env):
            n += 1
            yield env
    rng = random.Random(17)
    for _ in range(20):
        yield genutil.choice_projection_env(rng, 3, 1)


def test_synthesis_results_are_pinned():
    # the annotated context and the forwarder synthesis finds on each dual,
    # as printed by the recorded search; the benchmark's cut inputs are
    # synthesized the same way
    rows = []
    for env in _synth_fixture_envs():
        got = synth_with_annotations(tuple((x, dual(t)) for x, t in env))
        rows.append([P.print_plain_env(env), P.print_context(got[0]), S.print_process(got[1])])
    assert rows == json.loads(SYNTH_FIXTURE.read_text(encoding="utf-8"))


def test_the_rule_tables_have_a_row_for_each_process_form():
    forms = set(S.PROCESSES.texts)
    assert set(K.FORWARDER_RULES) == forms
    assert set(K.CP_RULES) == forms


def test_a_cut_and_an_unknown_object_keep_their_errors():
    ctx = P.parse_context("x : 1{y}, y : . [to=x *]")
    cut = P.parse_process("res a b : 1 (close a | wait b; close x)")
    with pytest.raises(RuleMismatch, match="^forwarders contain no cuts$"):
        K.forwarder_step(cut, ctx)
    with pytest.raises(RuleMismatch, match="^no forwarder rule for object$"):
        K.forwarder_step(object(), ctx)
    with pytest.raises(RuleMismatch, match="^no CP rule for object$"):
        K.cp_step(object(), (("x", One()),))
    with pytest.raises(RuleMismatch, match="^no forwarder rule for Atom$"):
        K.forwarder_step(Atom("a"), ctx)


# The refusals of the rules that build their premise in one pass and of the
# rules that look their endpoints up, each as ``fwdcal check`` prints it,
# with the class the checker raises.
REFUSALS = [
    ("x.inl. x<->y", "x : ~a +{x} ~a [to=x L], y : a",
     RuleMismatch, "+ target x not in context"),
    ("?x[w]. w<->y", "x : ?{x} ~a [to=x ?], y : a", RuleMismatch, "? target x not in context"),
    ("?x[w]. w<->y", "x : ?{y} ~a, y : a",
     QueueHeadMismatch, "head of y's queue must be a query for x, got nothing"),
    ("x[w].(w<->m | close x)", "x : a *{u} 1{u}, u : .",
     QueueHeadMismatch, "empty queue at u, * at x expects a box"),
    ("x(y). x<->y", "x : ~a |{y} a, y : ~a", RuleMismatch, "received name y is not fresh"),
    ("!x(y). ?y[u]. u<->y", "x : !{y} a, y : ?{x} ~a",
     RuleMismatch, "server name y is not fresh"),
    ("?x[y]. y<->z", "x : ?{z} ~a, z : a [to=x ?], y : a",
     RuleMismatch, "client name y is not fresh"),
    ("x[m].(m<->w | x<->y)", "x : ~a *{u} a, u : . [to=x msg m : a; w : ~a], y : ~a",
     RuleMismatch, "sent name m is not fresh"),
    ("!x(u). u<->v", "x : !{v} a, v : bot{x}", RuleMismatch, "! needs v to be ?-typed"),
    ("close x", "x : 1{y}, y : ~a [to=x *]", RuleMismatch, "1 needs y terminated"),
    ("x<->y", "x : ~a [to=y *], y : a", LeftoverQueue, "Ax requires empty queues"),
    ("x<->y", "x : ~a, y : a, z : bot{x}", RuleMismatch, "Ax needs exactly the endpoints x,y"),
    ("x<->y", "x : ~a, z : a", RuleMismatch, "Ax needs exactly the endpoints x,y"),
    ("x<->x", "x : ~a, y : a", RuleMismatch, "Ax needs exactly the endpoints x,x"),
    ("x<->x", "x : ~a", RuleMismatch, "Ax needs x:~a and x:a, got ~a and ~a"),
    ("close x", "x : 1{y} [to=y *], y : . [to=x *]",
     LeftoverQueue, "1 requires an empty queue at x"),
    ("close x", "x : 1{y}, y : . [to=x *] [to=x *]",
     LeftoverQueue, "y must hold exactly one star for x"),
    ("!x(u). u<->v", "x : !{y} a, v : ?{x} ~a, y : ?{x} ~a",
     RuleMismatch, "! at x must broadcast to every other endpoint"),
    ("!x(u). ?v[w]. u<->w", "x : !{v} a, v : ?{x} ~a [to=x *]",
     LeftoverQueue, "! needs an empty queue at v"),
    ("wait z; close x", "x : 1{y}, y : .", RuleMismatch, "endpoint z not in context"),
    ("wait x; close y", "x : bot{y}, y : .", RuleMismatch, "endpoint y is terminated"),
    # a target that names a boxed payload, not an endpoint
    ("x[w].(w<->m | close x)", "x : ~a *{m} 1{u}, u : . [to=x msg m : a]",
     RuleMismatch, "* target m not in context"),
    ("case x {inl: close x; inr: close x}", "x : 1{u} &{m} 1{u}, u : . [to=x msg m : a]",
     RuleMismatch, "& target m not in context"),
]


@pytest.mark.parametrize("term,context,cls,text", REFUSALS, ids=[r[3] for r in REFUSALS])
def test_forwarder_rules_refuse_with_their_text(term, context, cls, text, tmp_path, capsys):
    from fwdcal import cli

    with pytest.raises(CheckError) as e:
        check_forwarder(P.parse_process(term), P.parse_context(context))
    assert type(e.value) is cls and str(e.value) == text
    path = tmp_path / "bad.fwd"
    path.write_text(f"check {term} |- {context};\n", encoding="utf-8")
    assert cli.main(["--json", "check", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == text


def test_gathered_payload_names_clash_is_refused():
    # the parser refuses a context that binds a payload name twice, so the
    # context is built here
    g = ctx(Entry("x", (), Tensor(Atom("a"), One(("u", "v")), ("u", "v"))),
            Entry("u", (msgbox("x", "m", DualAtom("a")),), None),
            Entry("v", (msgbox("x", "m", DualAtom("a")),), None))
    with pytest.raises(RuleMismatch) as e:
        check_forwarder(P.parse_process("x[w].(w<->m | close x)"), g)
    assert type(e.value) is RuleMismatch
    assert str(e.value) == "gathered payload names clash: ['m', 'm', 'w']"


def test_with_needs_a_nonempty_target_set():
    # the parser reads ``&{}`` as no annotation, so the context is built here,
    # and ``check_forwarder`` refuses it as unannotated before any rule runs
    g = ctx(Entry("x", (), S.With(One(("y",)), One(("y",)), ())), Entry("y", (Star("x"),)))
    with pytest.raises(NonEmptyTargetViolation) as e:
        forwarder_step(P.parse_process("case x {inl: close x; inr: close x}"), g)
    assert str(e.value) == "rule & needs a nonempty target set"


def _put(g: Context, x: str, new: Entry) -> Context:
    return Context(tuple(new if e.endpoint == x else e for e in g.entries))


def _pop_for(g: Context, u: str, x: str) -> Context:
    e = g.get(u)
    i = first_destined(e.queue, x)
    return _put(g, u, Entry(u, e.queue[:i] + e.queue[i + 1:], e.typing))


def _rename_targets_by_walk(g: Context, m: dict) -> Context:
    return map_context(g, typ=lambda t: genutil.rename_targets_by_slots(t, m),
                       target=lambda u: m.get(u, u))


def _premises_in_steps(p, g: Context) -> list[Context]:
    """The premise contexts of the ⊕, ?, ! and ⊗ rules at a judgement they
    derive, built a step at a time: pop, replace, rename."""
    x, t = p.x, g.get(p.x).typing
    if isinstance(p, (S.Inl, S.Inr)):
        typ = t.left if isinstance(p, S.Inl) else t.right
        return [_put(_pop_for(g, t.targets[0], x), x, Entry(x, g.get(x).queue, typ))]
    if isinstance(p, S.Client):
        g2 = _put(_pop_for(g, t.targets[0], x), x, Entry(p.fresh, g.get(x).queue, t.body))
        return [_rename_targets_by_walk(g2, {x: p.fresh})]
    if isinstance(p, S.Server):
        g2 = _put(g, x, Entry(p.fresh, tuple(Query(u) for u in t.targets), t.body))
        return [_rename_targets_by_walk(g2, {x: p.fresh})]
    g2, payload = g, ()
    for u in t.targets:
        q = g2.get(u).queue
        payload += q[first_destined(q, x)].payloads
        g2 = _pop_for(g2, u, x)
    return [Context(tuple(Entry(n, (), a) for n, a in payload) + (Entry(p.fresh, (), t.left),)),
            _put(g2, x, Entry(x, g2.get(x).queue, t.right))]


def test_one_pass_premises_equal_the_premises_built_in_steps():
    seen = set()
    pairs = (pair for seed in range(1, 11)
             for pair in genutil.sample_cut_pairs(random.Random(seed), 40, max_formula=5))
    for p1, g1, _, p2, g2, _ in pairs:
        for p, g in chain(genutil.derivation_nodes(check_forwarder(p1, g1)),
                          genutil.derivation_nodes(check_forwarder(p2, g2))):
            if isinstance(p, (S.Inl, S.Inr, S.Client, S.Server, S.Send)):
                rule, prem = forwarder_step(p, g)
                assert [h for _, h in prem] == _premises_in_steps(p, g), (rule, g)
                seen.add(rule)
    assert {"PlusL", "PlusR", "Quest", "Bang", "Tensor"} <= seen
