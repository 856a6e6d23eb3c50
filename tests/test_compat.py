import json
import random

import genutil
import pytest
from fwdcal import compat as CM
from fwdcal import parsing as P
from fwdcal import syntax as S
from fwdcal.checker import check_forwarder, forwarder_step, synth_with_annotations
from fwdcal.contexts import (
    Context, Entry, LeftTok, MsgBox, Star, msgbox, normalize_context, rename_context,
)
from fwdcal.compat import Step, is_executable, multiparty_compatible, stuck_path, transitions
from fwdcal.records import replace
from fwdcal.syntax import Atom, DualAtom, One, dual, erase


def _state(text: str) -> Context:
    """A configuration in surface syntax, put in canonical order; its boxes
    must carry their canonical names already."""
    return normalize_context(P.parse_context(text))


def test_transitions_dual_atoms():
    c = _state("x : ~a, y : a")
    assert transitions(c) == [(Step("Ax", "x"), Context(()))]


def test_transitions_empty_config():
    assert transitions(Context(())) == []


CRISSCROSS = "x : ~name |{y} ~cost *{y} bot{y}, y : cost |{x} name *{x} 1{x}"


def test_crisscross_first_transitions_are_the_receives():
    c = _state(CRISSCROSS)
    labs = [lab for lab, _ in transitions(c)]
    assert {l.rule for l in labs} == {"Par"}
    assert {l.x for l in labs} == {"x", "y"}


def test_executable_dual_atoms():
    assert is_executable(_state("x : ~a, y : a"))


def test_not_executable_same_atoms():
    assert not is_executable(_state("x : a, y : a"))


def test_executable_crisscross_annotation():
    assert is_executable(_state(CRISSCROSS))


def test_compat_examples():
    assert multiparty_compatible((("x", Atom("a")), ("y", DualAtom("a"))))
    assert not multiparty_compatible((("x", One()),))
    assert multiparty_compatible(
        (("x", P.parse_type("name * cost | 1")), ("y", P.parse_type("~cost * ~name | bot"))))


def test_stuck_path_witness():
    got = stuck_path((("x", Atom("a")), ("y", Atom("a"))))
    assert got is not None
    _, labels, final = got
    assert final.entries


def test_annotation_variants_cover_two_endpoint_uniqueness():
    env = (("x", P.parse_type("~a | bot")), ("y", P.parse_type("a * 1")))
    vs = list(genutil.annotation_variants(env))
    assert len(vs) == 1  # all slots are forced with a single other endpoint


THREE_PARTY = ("y : 1{x,z} &{x,z} 1{x,z}, z : (~a |{x} bot{y}) +{y} (~a |{x} bot{y}), "
               "x : a *{z} (bot{y} +{y} bot{y})")


def _stub_term(lab, c, cprime):
    """A term whose head fires the rule ``lab`` names, and the name it binds
    when that name is a fresh one."""
    stub = S.Close("stub")
    x = lab.x
    match lab.rule:
        case "Ax":
            (y,) = [e.endpoint for e in c.entries if e.endpoint != x]
            return S.Link(x, y), None
        case "One":
            return S.Close(x), None
        case "Bot":
            return S.Wait(x, stub), None
        case "Par":
            (u,) = c.get(x).typing.targets
            box = [it for it in cprime.get(x).queue if it.target == u][-1]
            ((f, _),) = box.payloads
            return S.Recv(x, f, stub), None
        case "Tensor":
            return S.Send(x, "w0", stub, stub), "w0"
        case "PlusL":
            return S.Inl(x, stub), None
        case "PlusR":
            return S.Inr(x, stub), None
        case "WithL" | "WithR":
            return S.Case(x, stub, stub), None
        case "Bang":
            return S.Server(x, "w0", stub), "w0"
        case "Quest":
            return S.Client(x, "w0", stub), "w0"
    raise AssertionError(lab)


def _rename_entryname(g, old, new):
    if old is None or old == new:
        return g
    from fwdcal.contexts import Context, Entry, rename_context_targets

    ents = tuple(Entry(new if e.endpoint == old else e.endpoint, e.queue, e.typing)
                 for e in g.entries)
    return rename_context_targets(Context(ents), {old: new})


def test_transitions_mirror_forwarder_rules():
    # the premise of the rule named by each label, applied to the source, is
    # the target (up to the fresh binder name and the order of entries)
    envs = [
        (("x", P.parse_type("~a | bot")), ("y", P.parse_type("a * 1"))),
        (("x", P.parse_type("~a & ~a")), ("y", P.parse_type("a + a"))),
        (("x", P.parse_type("! bot")), ("y", P.parse_type("? 1"))),
    ]
    frontier = [c0 for env in envs
                for c0 in genutil.annotation_variants(tuple((x, dual(erase(t))) for x, t in env))]
    # three parties, under one annotation: y's branch queues a token for x
    # ahead of one for z, and z's selection reads the first item aimed at z,
    # as compat's move takes the first item aimed at z
    frontier.append(_state(THREE_PARTY))
    seen = set()
    while frontier:
        c = frontier.pop()
        if c in seen:
            continue
        seen.add(c)
        for lab, c2 in transitions(c):
            assert c2 == normalize_context(c2)  # canonical: in name and target order
            assert all(e.queue or e.typing is not None for e in c2.entries)
            frontier.append(c2)
            term, fresh = _stub_term(lab, c, c2)
            tag, prem = forwarder_step(term, c)
            assert tag == ("With" if lab.rule in ("WithL", "WithR") else lab.rule), (lab, tag)
            if tag == "With":
                got = prem[lab.rule == "WithR"][1]
            elif tag == "Tensor":
                left = tuple(erase(e.typing) for e in prem[0][1].entries)
                assert left == tuple(t for _, t in lab.carried), lab
                got = prem[1][1]
            elif tag in ("Ax", "One"):
                continue
            else:
                got = prem[0][1]
            got = _rename_entryname(got, fresh, lab.x)
            assert normalize_context(got) == normalize_context(c2), lab


def test_a_move_pushes_into_its_queue_in_target_order():
    # the star for a goes behind the token x holds for a and ahead of the box
    # for z; terminated, x keeps its entry while its queue holds items
    c = _state("a : 1{x}, x : bot{a} [to=a L] [to=z msg m1 : ~a], z : a")
    (c2,) = [c2 for lab, c2 in transitions(c) if lab.x == "x"]
    assert c2.get("x") == Entry("x", (LeftTok("a"), Star("a"), msgbox("z", "m1", DualAtom("a"))))


def test_a_terminated_entry_stays_until_its_queue_is_empty():
    kept, typed = Entry("x", (Star("y"),)), Entry("y", (), One(("x",)))
    assert CM._make([Entry("w"), kept, typed]) == Context((kept, typed))
    # the 1 takes the last star: nothing is left
    assert transitions(Context((kept, typed))) == [(Step("One", "y"), Context(()))]


def test_executable_invariant_under_renaming():
    rng = random.Random(9)
    for _ in range(20):
        t = genutil.random_plain_type(rng, rng.randint(1, 3))
        env = (("x", dual(t)), ("y", t))
        for c in genutil.annotation_variants(env):
            c2 = rename_context(c, {"x": "p", "y": "q"})  # name order kept
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


@pytest.mark.xfail(strict=True, reason=(
    "compat says compatible where no forwarder exists (CHANGES.md): the boxed 1 "
    "from x is gathered alone on one branch of u's case and with y's box on the other, "
    "and one annotation slot cannot hold both"))
def test_theorem_agreement_on_a_payload_gathered_differently_by_branch():
    env = P.parse_plain_env("u : (1 | bot) + (1 | bot), x : bot * 1, y : 1 & (1 * 1)")
    denv = tuple((x, dual(erase(t))) for x, t in env)
    assert multiparty_compatible(env) == (synth_with_annotations(denv) is not None)


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
    c = _state(CRISSCROSS)

    def step(c, x):
        (c2,) = [c2 for lab, c2 in transitions(c) if lab.x == x]
        return c2

    # each receive boxes a payload; the two orders box them in turn, and
    # the boxes are named in (target, holder) order
    c2 = step(step(c, "x"), "y")
    assert c2 == step(step(c, "y"), "x")
    boxes = sorted((it.target, e.endpoint, n) for e in c2.entries for it in e.queue
                   if isinstance(it, MsgBox) for n, _ in it.payloads)
    assert boxes == [("x", "y", "m1"), ("y", "x", "m2")]


def test_theorem_agreement_dual_pairs_always_compatible():
    rng = random.Random(55)
    for _ in range(40):
        t = genutil.random_plain_type(rng, rng.randint(0, 3))
        env = (("x", t), ("y", dual(t)))
        assert multiparty_compatible(env)
        denv = tuple((x, dual(erase(tt))) for x, tt in env)
        assert synth_with_annotations(denv) is not None


def _redraw_an_operand(rng: random.Random, t: S.Type) -> S.Type:
    """``t`` with one operand of its head connective drawn again at its size."""
    kids = S.children(t)
    k = rng.randrange(len(kids))
    field = "body" if len(kids) == 1 else ("left", "right")[k]
    return replace(t, **{field: genutil.random_plain_type(rng, S.size(kids[k]))})


def test_theorem_agreement_with_payload_slots():
    # two parties that send a payload with slots of its own: dual pairs, and
    # twins of them with one operand of one side drawn again
    rng = random.Random(71)
    verdicts = []
    while len(verdicts) < 200:
        t = genutil.random_plain_type(rng, rng.randint(2, 4))
        if not _payload_slots(t):
            continue
        for u in (t, _redraw_an_operand(rng, t)):
            env = (("x", u), ("y", dual(t)))
            ok = multiparty_compatible(env)
            denv = tuple((x, dual(erase(tt))) for x, tt in env)
            assert ok == (synth_with_annotations(denv) is not None), env
            assert ok == genutil.exhaustively_compatible(env), env
            verdicts.append(ok)
    # every dual pair is compatible; the twins give both verdicts
    assert 100 < sum(verdicts) < 200, sum(verdicts)


def _stuck_path_all_endpoints(c0: Context):
    """``stuck_path``'s search from ``c0`` over every endpoint's moves."""
    chk = CM.CompatChecker()

    def search(c, seen):
        trs = transitions(c)
        if not trs:
            return (seen, c) if c.entries else None
        for lab, c2 in trs:
            if lab.carried and not chk.send_env_ok(lab.carried):
                return (seen + [lab], c)
            if not chk.is_executable(c2):
                got = search(c2, seen + [lab])
                if got is not None:
                    return got
        return None

    return search(c0, [])


def _seeded_negatives():
    """The negative compat environments of the ``relay`` (the one-message-short
    twins) and ``kparty`` workloads of seeds 1 and 2, then random ones, most
    of them negative."""
    from test_bench_inputs import load_workloads

    wl = load_workloads()
    for workload in ("relay", "kparty"):
        for seed in (1, 2):
            items = wl.generate(workload, seed)
            decls = P.parse_file(wl.workload_text(items)).decls
            yield from (d.env for it, d in zip(items, decls)
                        if it.kind == "compat" and not it.expected)
    rng = random.Random(61)
    for k in range(160):
        yield genutil.random_env(rng, 2 + k % 2, genutil.CONNECTIVES[k % len(genutil.CONNECTIVES)])


def test_stuck_path_follows_the_all_endpoint_search():
    # the first endpoint that moves has a move that fails, and its moves
    # come first among every endpoint's: one endpoint's moves give the
    # same path
    found = 0
    for env in _seeded_negatives():
        got = stuck_path(env)
        if got is None:  # compatible, or its dual has no annotation
            continue
        c0, labels, final = got
        assert (labels, final) == _stuck_path_all_endpoints(c0), env
        found += 1
    assert found >= 240


def _witness_checks(env) -> bool:
    """``compat.witness`` gives a term ``check_forwarder`` accepts at the
    context it returns, or ``env`` is not compatible."""
    chk = CM.CompatChecker()
    if not multiparty_compatible(env, chk):
        return False
    ctx, proc = CM.witness(env, chk)
    assert [e.endpoint for e in ctx.entries] == [x for x, _ in env]
    assert [erase(e.typing) for e in ctx.entries] == [dual(erase(t)) for _, t in env]
    check_forwarder(proc, ctx)
    return True


def test_witness_checks_on_random_environments():
    # positives are rare among random environments: about one in 160
    rng = random.Random(31)
    positives = [0, 0]
    for k in range(8000):
        parties = 2 + k % 2
        env = genutil.random_env(rng, parties, genutil.CONNECTIVES[k % len(genutil.CONNECTIVES)],
                                 max_size=3 if parties == 2 else 2)
        positives[parties - 2] += _witness_checks(env)
    assert positives[0] >= 30 and positives[1] >= 2, positives


def _payload_slots(t) -> bool:
    """Some payload of ``t`` carries an annotation slot."""
    return (isinstance(t, (S.Tensor, S.Par)) and S.size(t.left) > 0
            or any(map(_payload_slots, S.children(t))))


def test_witness_checks_on_dual_pairs():
    # every dual pair is compatible; payloads with payloads of their own
    rng = random.Random(41)
    compound = 0
    for _ in range(80):
        t = genutil.random_plain_type(rng, rng.randint(1, 5))
        assert _witness_checks((("x", t), ("y", dual(t))))
        compound += _payload_slots(t)
    assert compound >= 20, compound


def test_witness_checks_on_choice_projections():
    rng = random.Random(37)
    for parties in (3, 4, 5, 6):
        for _ in range(6):
            env = genutil.choice_projection_env(rng, parties, 1, rng.randint(1, 3))
            assert _witness_checks(env), env


def test_witness_checks_on_relays():
    for n in range(2, 13):
        assert _witness_checks(_relay(n))
        assert not _witness_checks(_relay(n, short=True))


def test_witness_names_a_payload_slot_set_on_two_branches_once():
    # p3's payload ~a is sent in both branches of p0's choice, and each
    # branch sends it with a binder of its own: both binders take one name
    env = P.parse_plain_env("p0 : ! a * bot, p1 : 1, p2 : 1 + 1, p3 : ? ~a | 1 & 1")
    assert _witness_checks(env)


def test_a_witness_reads_the_decided_roots_and_decides_nothing_again():
    # the verdict decides the root annotation and each carried environment
    # once; the witness reads them back, so no counter moves
    env = P.parse_plain_env("p0 : ! a * bot, p1 : 1, p2 : 1 + 1, p3 : ? ~a | 1 & 1")
    chk = CM.CompatChecker()
    assert multiparty_compatible(env, chk)
    before = chk.stats()
    assert CM.witness(env, chk) is not None
    assert chk.stats() == before


def test_run_compat_calls_no_synthesis(monkeypatch, capsys):
    from fwdcal import checker, cli

    def boom(*args):
        raise AssertionError("synthesis called")

    monkeypatch.setattr(checker, "_solutions", boom)  # every synthesis entry point's search
    for text in ("x : name * cost | 1, y : ~cost * ~name | bot",
                 "p0 : ! a * bot, p1 : 1, p2 : 1 + 1, p3 : ? ~a | 1 & 1"):
        assert cli.run_compat(P.CompatDecl(P.parse_plain_env(text)), True)
        rec = json.loads(capsys.readouterr().out)
        check_forwarder(P.parse_process(rec["witness"]), P.parse_context(rec["annotated"]))


def test_stuck_path_after_a_verdict_with_resolutions_follows_the_all_endpoint_search():
    # run_compat's order: the verdict resolves holes, then stuck_path reads
    # the same checker's memo
    from test_bench_inputs import load_workloads

    wl = load_workloads()
    items = wl.generate("kparty", 1)
    decls = P.parse_file(wl.workload_text(items)).decls
    found = 0
    for it, d in zip(items, decls):
        if it.kind != "compat" or not it.tag.endswith("-2w"):
            continue
        chk = CM.CompatChecker()
        assert not multiparty_compatible(d.env, chk)
        if not chk.resolutions:
            continue
        c0, labels, final = stuck_path(d.env, chk)
        assert (labels, final) == _stuck_path_all_endpoints(c0), d.env
        found += 1
    assert found >= 3


def test_no_witness_when_two_branches_annotate_one_payload_apart():
    # x's boxed 1 leaves with one other payload on one branch of u's case and
    # with two on the other, so its slot would gather one name on one branch
    # and two on the other; synthesis finds no forwarder either
    env = P.parse_plain_env("u : (1 | bot) + (1 | bot), x : bot * 1, y : 1 & (1 * 1)")
    assert CM.witness(env) is None
    assert synth_with_annotations(tuple((x, dual(erase(t))) for x, t in env)) is None
