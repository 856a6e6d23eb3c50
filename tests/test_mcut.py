"""Multiparty composition: a part whose head acts on one of its own external
endpoints emits that action outside the composition (one continuation stays
in it) or, for a case, forks the run into one composition per branch."""

import random
from pathlib import Path

import pytest

import genutil
from fwdcal import cli
from fwdcal import mcut as MC
from fwdcal import parsing as P
from fwdcal import syntax as S
from fwdcal.checker import check_cll, eta_link, synth_with_annotations
from fwdcal.cutelim import Judged
from fwdcal.records import replace

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


def eta_parts(x: str, y: str, a: S.Type) -> tuple[MC.PartEntry, MC.PartEntry]:
    """Eta-link parts at ``x : ~a`` and ``y : a``, each with one external."""
    return (MC.PartEntry(eta_link(f"{x}_e", x, S.dual(a)), ((f"{x}_e", a),), x, S.dual(a)),
            MC.PartEntry(eta_link(f"{y}_e", y, a), ((f"{y}_e", S.dual(a)),), y, a))


def sampled_parts(seed: int):
    rng = random.Random(seed)
    for a in sample_formulas(rng):
        yield from eta_parts(*rng.sample(NAMES, 2), a)


@pytest.mark.parametrize("seed", range(5))
def test_composition_reduces_to_a_cp_process(seed):
    # the composition theorem: a synthesized dual-pair forwarder composed
    # with eta-link parts reduces to a CP process, which run_mcut checks
    rng = random.Random(seed)
    for a in sample_formulas(rng):
        x, y = rng.sample(NAMES, 2)
        ctx, fwd = synth_with_annotations(((x, a), (y, S.dual(a))))
        MC.run_mcut(MC.MCutConfig((x, y), Judged(fwd, ctx), (), eta_parts(x, y, a)))


def typing(p: MC.PartEntry):
    return p.env + ((p.endpoint, p.typ),)


def names_of(d) -> frozenset[str]:
    """Every name of a CP derivation: each bound name is in a premise's
    environment."""
    return frozenset(n for _, env in genutil.derivation_nodes(d) for n, _ in env)


# CP judgements whose derivations weaken and contract, which eta-links do not
STRUCTURAL = [
    "checkcll ?k[a]. ?k[b]. wait a; wait b; x<->y |- k : ? bot, x : ~t, y : t;",
    "checkcll x[a].(?k[c]. wait c; close a | ?k[d]. wait d; close x) "
    "|- k : ? bot, x : 1 * 1, w : ? 1;",
]


@pytest.mark.parametrize("seed", range(3))
def test_renaming_a_derivation_derives_the_renamed_judgement(seed):
    # equivariance, at every node of the derivation of every sampled part:
    # renaming a free name to a fresh one gives check_cll's derivation of the
    # renamed judgement, without checking it again
    judgements = [(d.proc, d.env) for d in P.parse_file("\n".join(STRUCTURAL)).decls]
    judgements += [(part.term, typing(part)) for part in sampled_parts(seed)]
    renamed, rules = 0, set()
    for judgement in judgements:
        root = check_cll(*judgement)
        rules.update(root.rules_preorder())
        fresh = S.FreshNames(names_of(root))
        for p, env in genutil.derivation_nodes(root):
            d = check_cll(p, env)
            for n in dict(env):
                m = {n: fresh.fresh(n)}
                want = check_cll(S.rename_free(p, m), tuple((m.get(k, k), t) for k, t in env))
                assert d.rename(m) == want
                renamed += 1
    assert renamed > 100 and {"Weaken", "Contract"} <= rules


def test_renaming_a_bound_name_renames_its_binder():
    env = (("x", S.Par(S.Bot(), S.One())),)
    d = check_cll(P.parse_process("x(u). wait u; close x"), env)
    assert d.rename({"u": "v"}) == check_cll(P.parse_process("x(v). wait v; close x"), env)


def test_renaming_keeps_what_it_does_not_touch_and_renames_a_shared_premise_once():
    shared = check_cll(P.parse_process("wait z; close y"), (("y", S.One()), ("z", S.Bot())))
    # the leaf "close y" does not mention z
    assert shared.rename({"z": "u"}).premises[0] is shared.premises[0]
    case = P.parse_process("case z {inl: wait z; close y; inr: wait z; close y}")
    env = (("y", S.One()), ("z", S.With(S.Bot(), S.Bot())))
    d = check_cll(case, env)
    assert d.premises == (shared, shared)
    got = replace(d, premises=(shared, shared)).rename({"y": "v"})
    assert got.premises[0] is got.premises[1]
    assert got == check_cll(S.rename_free(case, {"y": "v"}), (("v", S.One()),) + env[1:])


@pytest.mark.parametrize("m", [
    {"x": "y"},  # a free name of the judgement
    {"x": "u"},  # a bound name: renaming every occurrence would capture it
    {"x": "w", "x_e": "w"},  # not injective
])
def test_renaming_onto_a_name_of_the_derivation_is_refused(m):
    (part, _) = eta_parts("x", "y", S.Tensor(S.Atom("a"), S.One()))
    d = check_cll(part.term, typing(part) + (("y", S.WhyNot(S.One())),))
    assert "u" in names_of(d)
    with pytest.raises(ValueError):
        d.rename(m)


def freshen_per_level(p: S.Process, supply: S.FreshNames) -> S.Process:
    """Binder freshening as one rename_free per binder level: the naming
    order ``_freshen_binders`` keeps."""
    heads, subs = S.scope(p)
    ren = {b: supply.fresh(b) for b in dict.fromkeys(b for bs, _ in subs for b in bs)}
    return S.from_scope(p, heads, tuple(
        (tuple(ren[b] for b in bs),
         freshen_per_level(S.rename_free(q, {b: ren[b] for b in bs}), supply))
        for bs, q in subs))


def binders(p: S.Process) -> list[str]:
    _, subs = S.scope(p)
    return [b for bs, q in subs for b in (*bs, *binders(q))]


# a cut binds a name on each side at one node: both are named before the
# binders of either side
CUT_PART = MC.PartEntry(
    P.parse_process("res a b : ~t | bot (a(u). wait a; x<->u | b[v].(v<->y | close b))"),
    (("x", S.Atom("t")),), "y", S.DualAtom("t"))


@pytest.mark.parametrize("seed", range(3))
def test_freshened_binders_are_distinct_and_fresh(seed):
    for part in (CUT_PART, *sampled_parts(seed)):
        avoid = S.free_endpoints(part.term) | set(binders(part.term)) | set(dict(part.env))
        supply = S.FreshNames(frozenset(avoid))
        got = MC._freshen_binders(part.term, supply)
        bs = binders(got)
        assert len(set(bs)) == len(bs) and not set(bs) & avoid
        check_cll(got, typing(part))
        assert got == freshen_per_level(part.term, S.FreshNames(frozenset(avoid)))


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


def test_a_forwarder_typing_changed_under_a_kept_part_is_caught(monkeypatch):
    # the first step of compose.fwd emits the receive of the part at y and
    # keeps the part at x and the forwarder; a changed typing at x must be
    # checked against that part all the same
    step = MC._commute_part

    def broken(c, part):
        *head, c2, tag = step(c, part)
        g = c2.fwd.context
        bad = g.replace("x", replace(g.get("x"), typing=S.One(("y",))))
        return (*head, replace(c2, fwd=replace(c2.fwd, context=bad)), tag)

    monkeypatch.setattr(MC, "_commute_part", broken)
    with pytest.raises(MC.McutError, match=r"^invariant broken after comm: "
                       r"x: forwarder and part types are not dual$"):
        MC.mcutq_step(compose_config())




# two boxes, one payload each, and a pending process for each payload and
# one more, o; the parser refuses a name in both boxes
TWO_BOXES = (
    "sim (x[w].(m<->w | x[w2].(w2<->n | wait y; wait z; close x))) "
    "|- x : a *{y} (~a *{z} 1{y,z}), y : bot{x} [to=x msg m : ~a], z : bot{x} [to=x msg n : a] "
    "parts (x(u). x(u2). wait x; ex[v].(u<->v | ex[v2].(v2<->u2 | close ex))) "
    "|- ex : a * (~a * 1), x : ~a | (a | bot) @ x "
    "pending (m <- m<->k |- m : a, k : ~a, n <- n<->j |- n : ~a, j : a, "
    "o <- o<->i |- o : a, i : ~a);")


@pytest.mark.parametrize("boxes", ["m twice", "o in none"])
def test_boxes_and_pending_processes_match_by_name(boxes):
    # built directly, the boxes may carry m twice, at types that do not
    # order; each boxed payload takes the pending process of its name, and
    # every pending process is taken
    (d,) = P.parse_file(TWO_BOXES).decls
    c = cli._sim_config(d)
    if boxes == "m twice":
        g = c.fwd.ctx
        z = g.get("z")
        (box,) = z.queue
        g = g.replace("z", replace(z, queue=(replace(box, payloads=(("m", box.payloads[0][1]),)),)))
        fwd = P.parse_process("x[w].(m<->w | x[w2].(w2<->m | wait y; wait z; close x))")
        c = replace(c, fwd=Judged(fwd, g))
    with pytest.raises(MC.McutError, match="^invalid configuration: queued messages and "
                       "pending processes disagree$"):
        MC.run_mcut(c)
