import random

import pytest

import genutil
from fwdcal import parsing as P
from fwdcal import syntax as S
from fwdcal.checker import (
    CheckError, LeftoverQueue, NonEmptyTargetViolation, NotAnnotated, QueueHeadMismatch,
    RuleMismatch, check_cll, check_forwarder, cp_step, eta_link, forwarder_step,
    synth_forwarder, synth_with_annotations,
)
from fwdcal.contexts import Context, Entry, Star, ctx, erase_context, msgbox
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
    env = erase_context(g)
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


def test_check_cll_cut_inference():
    p = P.parse_process("res a b (wait e; close a | wait b; close f)")
    env = (("e", Bot()), ("f", One()))
    d = check_cll(p, env)
    assert d.rule == "Cut"


def test_check_cll_cut_with_links():
    p = P.parse_process("res a b (e<->a | b<->f)")
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
        check_cll(p, erase_context(g))


def test_embed_random_judgements():
    rng = random.Random(23)
    for proc, g in genutil.sample_derivable_judgements(rng, 60, max_size=4):
        check_cll(proc, erase_context(g))


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
