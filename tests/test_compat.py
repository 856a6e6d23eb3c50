import random

import genutil
from fwdcal import compat as CM
from fwdcal import parsing as P
from fwdcal import syntax as S
from fwdcal.checker import synth_with_annotations, forwarder_step
from fwdcal.contexts import Config, MsgBox, normalize_context, translate_config
from fwdcal.compat import (
    BangStep, BranchLStep, BranchRStep, CloseStep, LinkStep, QuestStep, RecvStep,
    SelLStep, SelRStep, SendStep, WaitStep, is_executable, multiparty_compatible,
    stuck_path, transitions,
)
from fwdcal.syntax import Atom, Bot, DualAtom, One, dual, erase


def test_transitions_dual_atoms():
    c = Config.make((("x", DualAtom("a")), ("y", Atom("a"))))
    assert transitions(c) == [(LinkStep("x", "y"), Config.make(()))]


def test_transitions_empty_config():
    assert transitions(Config.make(())) == []


def test_crisscross_first_transitions_are_the_receives():
    ann = P.parse_context(
        "x : ~name |{y} ~cost *{y} bot{y}, y : cost |{x} name *{x} 1{x}")
    c = Config.make(tuple((e.endpoint, e.typing) for e in ann.entries))
    labs = [lab for lab, _ in transitions(c)]
    assert {type(l) for l in labs} == {RecvStep}
    assert {l.x for l in labs} == {"x", "y"}


def test_executable_dual_atoms():
    assert is_executable(Config.make((("x", DualAtom("a")), ("y", Atom("a")))))


def test_not_executable_same_atoms():
    assert not is_executable(Config.make((("x", Atom("a")), ("y", Atom("a")))))


def test_executable_crisscross_annotation():
    ann = P.parse_context(
        "x : ~name |{y} ~cost *{y} bot{y}, y : cost |{x} name *{x} 1{x}")
    c = Config.make(tuple((e.endpoint, e.typing) for e in ann.entries))
    assert is_executable(c)


def test_compat_examples():
    assert multiparty_compatible((("x", Atom("a")), ("y", DualAtom("a"))))
    assert not multiparty_compatible((("x", One()),))
    assert multiparty_compatible(
        (("x", P.parse_type("name * cost | 1")), ("y", P.parse_type("~cost * ~name | bot"))))


def test_stuck_path_witness():
    got = stuck_path((("x", Atom("a")), ("y", Atom("a"))))
    assert got is not None
    _, labels, final = got
    assert not final.is_empty()


def test_annotation_variants_cover_two_endpoint_uniqueness():
    env = (("x", P.parse_type("~a | bot")), ("y", P.parse_type("a * 1")))
    vs = list(genutil.annotation_variants(env))
    assert len(vs) == 1  # all slots are forced with a single other endpoint


THREE_PARTY = ("y : 1{x,z} &{x,z} 1{x,z}, z : (~a |{x} bot{y}) +{y} (~a |{x} bot{y}), "
               "x : a *{z} (bot{y} +{y} bot{y})")


def _rule_for(label):
    return {
        LinkStep: "Ax", CloseStep: "One", WaitStep: "Bot", SendStep: "Tensor",
        RecvStep: "Par", SelLStep: "PlusL", SelRStep: "PlusR", BranchLStep: "With",
        BranchRStep: "With", BangStep: "Bang", QuestStep: "Quest",
    }[type(label)]


def _stub_term(label, c, cprime):
    stub = S.Close("stub")
    match label:
        case LinkStep(x, y):
            return S.Link(x, y), None
        case CloseStep(_, x):
            return S.Close(x), None
        case WaitStep(x, _):
            return S.Wait(x, stub), None
        case RecvStep(x, u):
            box = dict(cprime.sigma_map())[(u, x)][-1]
            return S.Recv(x, box.payload_endpoint, stub), None
        case SendStep(_, x, _):
            return S.Send(x, "w0", stub, stub), "w0"
        case SelLStep(x, _):
            return S.Inl(x, stub), None
        case SelRStep(x, _):
            return S.Inr(x, stub), None
        case BranchLStep(x, _) | BranchRStep(x, _):
            return S.Case(x, stub, stub), None
        case BangStep(_, x):
            return S.Server(x, "w0", stub), "w0"
        case QuestStep(x, _):
            return S.Client(x, "w0", stub), "w0"
    raise AssertionError(label)


def _rename_entryname(g, old, new):
    if old is None or old == new:
        return g
    from fwdcal.contexts import Context, Entry, rename_context_targets

    ents = tuple(Entry(new if e.endpoint == old else e.endpoint, e.queue, e.typing)
                 for e in g.entries)
    return rename_context_targets(Context(ents), {old: new})


def test_transitions_mirror_forwarder_rules():
    # the premise of the rule named by each label, applied to the translated
    # source, is the translation of the target (up to the fresh binder name)
    envs = [
        (("x", P.parse_type("~a | bot")), ("y", P.parse_type("a * 1"))),
        (("x", P.parse_type("~a & ~a")), ("y", P.parse_type("a + a"))),
        (("x", P.parse_type("! bot")), ("y", P.parse_type("? 1"))),
    ]
    frontier = [c0 for env in envs
                for c0 in genutil.annotation_variants(tuple((x, dual(erase(t))) for x, t in env))]
    # three parties, under one annotation: y's branch queues a token for x
    # ahead of one for z, and z's selection reads the first item aimed at z,
    # as its per-target FIFO in the configuration does
    g = P.parse_context(THREE_PARTY)
    frontier.append(Config.make(tuple((e.endpoint, e.typing) for e in g.entries)))
    seen = set()
    while frontier:
        c = frontier.pop()
        if c in seen:
            continue
        seen.add(c)
        gam = translate_config(c)
        for lab, c2 in transitions(c):
            frontier.append(c2)
            term, fresh = _stub_term(lab, c, c2)
            tag, prem = forwarder_step(term, gam)
            assert tag == _rule_for(lab), (lab, tag)
            if tag == "With":
                got = prem[0 if isinstance(lab, BranchLStep) else 1][1]
            elif tag == "Tensor":
                got = prem[1][1]
            elif tag in ("Ax", "One"):
                continue
            else:
                got = prem[0][1]
            got = _rename_entryname(got, fresh, lab.x)
            assert normalize_context(got) == normalize_context(translate_config(c2)), lab


def test_executable_invariant_under_renaming():
    rng = random.Random(9)
    for _ in range(20):
        t = genutil.random_plain_type(rng, rng.randint(1, 3))
        env = (("x", dual(t)), ("y", t))
        for c in genutil.annotation_variants(env):
            ren = {"x": "p", "y": "q"}
            c2 = Config.make(
                tuple((ren[n], S.rename_targets(tt, ren)) for n, tt in c.delta))
            assert is_executable(c) == is_executable(c2)


def test_theorem_agreement_random_sample():
    rng = random.Random(101)
    for _ in range(120):
        n = rng.choice((2, 2, 3))
        env = tuple(
            (f"e{i}", genutil.random_plain_type(rng, rng.randint(0, 2)))
            for i in range(n)
        )
        lhs = multiparty_compatible(env)
        denv = tuple((x, dual(erase(t))) for x, t in env)
        rhs = synth_with_annotations(denv) is not None
        assert lhs == rhs, env


def test_lazy_solver_agrees_with_exhaustive_oracle():
    # the oracle tries every annotation along every interleaving; random
    # environments (stratified by the first party's head connective) are
    # rarely compatible, so choice projections supply the positives
    rng = random.Random(23)
    envs = [genutil.random_env(rng, parties, head)
            for head in genutil.CONNECTIVES for parties in (2, 3)]
    for k in range(32):
        two = k % 2 == 0  # three parties get one event of one choice
        envs.append(genutil.choice_projection_env(
            rng, 2 if two else 3, (0, 1, 1, 2)[k % 4], rng.randint(1, 2) if two else 1,
            2 if two else 1))
    verdicts = [multiparty_compatible(env) for env in envs]
    assert verdicts == [genutil.exhaustively_compatible(env) for env in envs]
    assert 3 * sum(verdicts) >= len(envs)


def _relay(n: int, short: bool = False):
    sent = " * ".join("a" if i % 2 else "~a" for i in range(n))
    got = " | ".join("~a" if i % 2 else "a" for i in range(n - short))
    return P.parse_plain_env(f"x : {sent} * 1, y : {got} | bot")


def test_relay_explores_linearly_many_configurations():
    for n in (5, 10, 20, 40):
        for short in (False, True):
            chk = CM.CompatChecker()
            assert CM.multiparty_compatible(_relay(n, short), chk) is not short
            assert chk.configs <= 3 * n + 10, (n, short, chk.stats())


def test_four_parties_skip_slot_values_that_cannot_succeed():
    # trying every candidate of every slot read took thousands of
    # resolutions on each (5,048 and 17,863) and seconds of CPU
    for env, ok in (
            ("a : 1 + 1, b : 1 & 1, c : 1 + 1, d : 1 & 1", False),
            ("p0 : (1 + 1) + 1 + 1, p1 : (1 + 1) & 1, p2 : bot, "
             "p3 : (((1 & 1) & 1 & 1) & (1 & 1) & 1 & 1) + (1 & 1) & 1 & 1", True)):
        chk = CM.CompatChecker()
        assert CM.multiparty_compatible(P.parse_plain_env(env), chk) is ok
        assert chk.resolutions <= 100, chk.stats()


def test_box_names_do_not_depend_on_the_interleaving():
    ann = P.parse_context(
        "x : ~name |{y} ~cost *{y} bot{y}, y : cost |{x} name *{x} 1{x}")
    c = Config.make(tuple((e.endpoint, e.typing) for e in ann.entries))

    def step(c, x):
        (c2,) = [c2 for lab, c2 in transitions(c) if lab.x == x]
        return c2

    # each receive boxes a payload; the two orders box them in turn
    c2 = step(step(c, "x"), "y")
    assert c2 == step(step(c, "y"), "x")
    boxes = [n for _, q in c2.sigma for it in q if isinstance(it, MsgBox) for n, _ in it.payloads]
    assert boxes == ["m1", "m2"]


def test_theorem_agreement_dual_pairs_always_compatible():
    rng = random.Random(55)
    for _ in range(40):
        t = genutil.random_plain_type(rng, rng.randint(0, 3))
        env = (("x", t), ("y", dual(t)))
        assert multiparty_compatible(env)
        denv = tuple((x, dual(erase(tt))) for x, tt in env)
        assert synth_with_annotations(denv) is not None
