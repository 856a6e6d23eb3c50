"""Multiparty composition: a part whose head acts on one of its own external
endpoints emits that action outside the composition (one continuation stays
in it) or, for a case, forks the run into one composition per branch."""

import random
from dataclasses import replace
from pathlib import Path

import pytest

import genutil
from fwdcal import cli
from fwdcal import mcut as MC
from fwdcal import parsing as P
from fwdcal import syntax as S
from fwdcal.checker import eta_link, synth_with_annotations
from fwdcal.cutelim import Judged

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

LINK = "(x<->y) |- x : ~a, y : a"
PEER_Y = "(y<->f) |- f : a, y : ~a @ y"

# the part at x acts on its external endpoint u before the axiom step joins
# it to the peer at y; the result term is the one the composition gave when
# each commuting case still had its own arm
COMMUTING = {
    "wait": ("(wait u; x<->e) |- u : bot, e : ~a, x : a @ x",
             "wait u; e<->f"),
    "recv": ("(u(v). wait v; wait u; x<->e) |- u : bot | bot, e : ~a, x : a @ x",
             "u(v). wait v; wait u; e<->f"),
    "send-bound-in-continuation": (
        "(u[v].(close v | wait u; x<->e)) |- u : 1 * bot, e : ~a, x : a @ x",
        "u[v].(close v | wait u; e<->f)"),
    "send-bound-in-payload": ("(u[v].(x<->v | close u)) |- u : ~a * 1, x : a @ x",
                              "u[v].(v<->f | close u)"),
    "inl": ("(u.inl. wait u; x<->e) |- u : bot + 1, e : ~a, x : a @ x",
            "u.inl. wait u; e<->f"),
    "inr": ("(u.inr. wait u; x<->e) |- u : 1 + bot, e : ~a, x : a @ x",
            "u.inr. wait u; e<->f"),
    "client": ("(?u[v]. wait v; x<->e) |- u : ? bot, e : ~a, x : a @ x",
               "?u[v]. wait v; e<->f"),
    "case-forks": (
        "(case u {inl: wait u; x<->e; inr: u[v].(close v | wait u; x<->e)}) "
        "|- u : bot & (1 * bot), e : ~a, x : a @ x",
        "case u {inl: wait u; e<->f; inr: u[v].(close v | wait u; e<->f)}"),
}


def run_sim(fwd: str, parts: list[str]):
    (d,) = P.parse_file(f"sim {fwd} parts {', '.join(parts)};").decls
    entries = tuple(
        MC.PartEntry(p.proc, tuple((n, t) for n, t in p.env if n != p.endpoint),
                     p.endpoint, dict(p.env)[p.endpoint])
        for p in d.parts)
    bound = tuple(e.endpoint for e in d.fwd_ctx.entries)
    term, trace = MC.run_mcut(MC.MCutConfig(bound, Judged(d.fwd, d.fwd_ctx), (), entries))
    return S.print_process(term), trace


@pytest.mark.parametrize("case", sorted(COMMUTING))
def test_part_head_on_external_endpoint_leaves_the_composition(case):
    part, want = COMMUTING[case]
    term, trace = run_sim(LINK, [part, PEER_Y])
    assert term == want
    assert trace[0] == "comm" and trace[-1] == "Ax"


def test_a_forwarder_with_a_cut_is_refused():
    fwd = "(res a b : t (x<->a | b<->y)) |- x : ~t, y : t"
    part_x = "(x<->e) |- e : ~t, x : t @ x"
    part_y = "(y<->f) |- f : t, y : ~t @ y"
    with pytest.raises(MC.McutError, match="forwarder does not check: forwarders contain no cuts"):
        run_sim(fwd, [part_x, part_y])


def test_part_server_on_external_endpoint():
    # the forwarder serves x; the part at x first serves its own external u
    fwd = "(!x(x1). ?y[y1]. wait y1; close x1) |- x : !{y} 1{y1}, y : ?{x} bot{x1}"
    part_x = "(!u(v). ?x[w]. wait w; close v) |- u : ! 1, x : ? bot @ x"
    part_y = "(!y(s). ?f[t]. wait t; close s) |- f : ? bot, y : ! 1 @ y"
    term, trace = run_sim(fwd, [part_x, part_y])
    assert term == "!u(v). ?f[t]. wait t; close v"
    assert trace == ("comm", "Quest", "Bang", "comm", "comm", "One", "Bot")


def test_a_server_is_emitted_after_actions_on_endpoints_not_queried():
    # the smallest composition that once emitted a server too early: after
    # the Par step, the part at p serves its external p_e while the part at
    # k still sends on k_e : ~a * ?a.  CP's ! rule needs the rest of the run
    # ?-typed, so k_e's send goes first
    fwd = ("(p(m). k[w].(w<->m | !p(p#1). ?k[k#2]. p#1<->k#2)) "
           "|- k : ~a *{p} ?{p} a, p : a |{k} !{k} ~a")
    parts = ["(k(u). k_e[v].(u<->v | !k(v#2). ?k_e[u#1]. u#1<->v#2)) "
             "|- k_e : ~a * ? a, k : a | ! ~a @ k",
             "(p_e(v). p[u].(v<->u | !p_e(v#2). ?p[u#1]. u#1<->v#2)) "
             "|- p_e : a | ! ~a, p : ~a * ? a @ p"]
    term, trace = run_sim(fwd, parts)
    assert term == "p_e(v#3). k_e[v].(v<->v#3 | !p_e(v#5). ?k_e[u#2]. v#5<->u#2)"
    # after Par: k_e's send, then p_e's server
    assert trace == ("comm", "Tensor", "comm", "Ax", "Par", "comm", "comm", "Quest", "Bang",
                     "comm", "Ax")


# Head connectives of the formulas the composition theorem is tested on;
# atoms and units are added.  Exponential heads and subformulas reach the
# Bang, Quest and Contract steps, and the order in which a server on an
# external endpoint is emitted.
HEADS = ("tensor", "par", "plus", "with", "ofcourse", "whynot")
# Endpoint names, some shared with the binders that synthesis (m, w) and
# eta-links (u, v) choose, so the run must rename apart.
NAMES = ("x", "y", "m", "w", "u", "v", "z")


def sample_formulas(rng: random.Random, per_shape: int = 3, max_size: int = 4):
    out = [rng.choice((S.Atom("a"), S.DualAtom("a"))) for _ in range(per_shape)]
    out += [S.One(), S.Bot()]
    for head in HEADS:
        for n in range(1, max_size + 1):
            out += [genutil.random_plain_type(rng, n, head=head) for _ in range(per_shape)]
    return out


@pytest.mark.parametrize("seed", range(5))
def test_composition_reduces_to_a_cp_process(seed):
    # the composition theorem: a synthesized dual-pair forwarder composed
    # with eta-link parts reduces to a CP process, which run_mcut checks
    rng = random.Random(seed)
    for a in sample_formulas(rng):
        x, y = rng.sample(NAMES, 2)
        ctx, fwd = synth_with_annotations(((x, a), (y, S.dual(a))))
        parts = (MC.PartEntry(eta_link(f"{x}_e", x, S.dual(a)), ((f"{x}_e", a),), x, S.dual(a)),
                 MC.PartEntry(eta_link(f"{y}_e", y, a), ((f"{y}_e", S.dual(a)),), y, a))
        MC.run_mcut(MC.MCutConfig((x, y), Judged(fwd, ctx), (), parts))


# compose.fwd with clashing names; each case fails if the run skips one half
# of the renaming apart it does when it starts
RENAMED_APART = {
    # the forwarder's binders m, w are the parts' external endpoints: the
    # forwarder is renamed apart from the parts' free names
    "forwarder-binders-are-part-externals": (
        "(y(m). x[w].(m<->w | wait y; close x)) |- x : a *{y} 1{y}, y : ~a |{x} bot{x}",
        ["(x(u). w[v].(u<->v | wait x; close w)) |- w : a * 1, x : ~a | bot @ x",
         "(m(v). y[u].(v<->u | wait m; close y)) |- m : ~a | bot, y : a * 1 @ y"],
        "m(v#1). wait m; w[v].(v#1<->v | close w)"),
    # the forwarder binds v#1, the name the second part's v would be renamed
    # to: the parts' binders are renamed apart from the forwarder's names too
    "forwarder-binder-is-a-fresh-part-binder": (
        "(y(v#1). x[w].(v#1<->w | wait y; close x)) |- x : a *{y} 1{y}, y : ~a |{x} bot{x}",
        ["(x(u). ex[v].(u<->v | wait x; close ex)) |- ex : a * 1, x : ~a | bot @ x",
         "(ey(v). y[u].(v<->u | wait ey; close y)) |- ey : ~a | bot, y : a * 1 @ y"],
        "ey(v#2). wait ey; ex[v].(v#2<->v | close ex)"),
}


@pytest.mark.parametrize("case", sorted(RENAMED_APART))
def test_forwarder_and_part_names_are_renamed_apart(case):
    fwd, parts, want = RENAMED_APART[case]
    term, _ = run_sim(fwd, parts)
    assert term == want


def compose_config() -> MC.MCutConfig:
    (d,) = P.parse_file((CORPUS / "compose.fwd").read_text(encoding="utf-8")).decls
    return cli._sim_config(d)


def test_a_run_checks_the_forwarder_once(monkeypatch):
    # every later forwarder is a premise of the derivation built at the start
    calls = []
    check_forwarder = MC.check_forwarder

    def counted(p, g):
        calls.append(p)
        return check_forwarder(p, g)

    monkeypatch.setattr(MC, "check_forwarder", counted)
    stats = MC.McutStats()
    MC.run_mcut(compose_config(), stats)
    assert len(calls) == stats.forwarder_checks == 1


# A step of compose.fwd that leaves the part at y as "close y"; the run must
# fail at that step.  The first comm emits the part's receive on ey, and the
# Tensor step leaves y : 1 with ey : bot unused.
BROKEN_STEPS = {
    "comm": ("_commute_part", "close y needs y:1"),
    "Tensor": ("_binder_step", "ey unused at One leaf"),
}


@pytest.mark.parametrize("tag", sorted(BROKEN_STEPS))
def test_a_step_that_breaks_a_part_fails_at_that_step(tag, monkeypatch):
    name, why = BROKEN_STEPS[tag]
    step = getattr(MC, name)

    def broken(c, part, *args):
        got = step(c, part, *args)
        if got is None or part.endpoint != "y":
            return got
        *head, c2, got_tag = got
        bad = replace(c2.part_at("y"), term=S.Close("y"))
        return (*head, replace(c2, parts=c2.replace_part("y", bad)), got_tag)

    monkeypatch.setattr(MC, name, broken)
    with pytest.raises(MC.McutError, match=rf"^invariant broken after {tag}: "
                       rf"part at y does not check: {why}$"):
        MC.run_mcut(compose_config())


def sim_config(fwd: str, parts: list[str]) -> MC.MCutConfig:
    (d,) = P.parse_file(f"sim {fwd} parts {', '.join(parts)};").decls
    return cli._sim_config(d)


# The first step of a configuration, in step mode, made to leave the part at
# x as "close x" in the last configuration it returns: the emitted run of
# compose.fwd, or the right branch of the fork of a part's case.
BROKEN_FIRST_STEPS = {
    "emit": (compose_config, "y", "close y needs y:1"),
    "fork": (lambda: sim_config(LINK, [COMMUTING["case-forks"][0], PEER_Y]), "x",
             "close x needs x:1"),
}


@pytest.mark.parametrize("kind", sorted(BROKEN_FIRST_STEPS))
def test_step_mode_checks_the_configurations_it_returns(kind, monkeypatch):
    config, x, why = BROKEN_FIRST_STEPS[kind]
    step = MC._commute_part

    def broken(c, part):
        *head, c2, tag = step(c, part)
        bad = replace(c2.part_at(x), term=S.Close(x))
        return (*head, replace(c2, parts=c2.replace_part(x, bad)), tag)

    monkeypatch.setattr(MC, "_commute_part", broken)
    with pytest.raises(MC.McutError, match=rf"^invariant broken after comm: "
                       rf"part at {x} does not check: {why}$"):
        MC.mcutq_step(config())
