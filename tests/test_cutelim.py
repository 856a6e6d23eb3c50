import random
import re

import pytest

import genutil
from fwdcal import parsing as P
from fwdcal import syntax as S
from fwdcal import cutelim
from fwdcal.checker import CheckError, RuleMismatch, check_forwarder, forwarder_step
from fwdcal.contexts import (
    Entry, LeftTok, MsgBox, Query, Star, ctx, msgbox, normalize_context,
)
from fwdcal.cutelim import (
    AnnotationMismatch, CutError, CutSide, DanglingReference, Stuck, StructuralMismatch,
    _swap_box, cut_conclusions, distributions, reduce_cut, substitute,
)
from fwdcal.syntax import (
    Atom, Bot, Close, DualAtom, Link, OfCourse, One, Par, Plus, Tensor, WhyNot, With, erase,
)


# -- distribution -------------------------------------------------------------


def test_distr_moves_box_and_rewires_sender():
    # the displayed step: [d][b:B] leaves x's queue for c, and the tensor in
    # d's type that aimed at x now aims at c
    B = Atom("b")
    d_type = Tensor(DualAtom("b"), One(("c",)), ("x",))
    top = CutSide(ctx(Entry("d", (), d_type)), (msgbox("d", "bb", B),), "x", Atom("a"))
    bottom = CutSide(ctx(Entry("c", (), Bot(("d",)))), (), "y", DualAtom("a"))
    ((t, b),) = distributions(top, bottom)
    assert t.queue == b.queue == ()
    assert t.ctx.get("d").typing == Tensor(DualAtom("b"), One(("c",)), ("c",))
    assert b.ctx.get("c").queue == (msgbox("d", "bb", B),)


def test_distr_empty_queues_single_result():
    top = CutSide(ctx(Entry("u", (), Atom("b"))), (), "x", Atom("a"))
    bottom = CutSide(ctx(Entry("v", (), DualAtom("b"))), (), "y", DualAtom("a"))
    assert distributions(top, bottom) == [(top, bottom)]


def test_distr_two_receivers_two_results():
    B = Atom("b")
    d_type = Tensor(DualAtom("b"), One(("c1", "c2")), ("x",))
    top = CutSide(ctx(Entry("d", (), d_type)), (msgbox("d", "bb", B),), "x", Atom("a"))
    bottom = CutSide(ctx(Entry("c1", (), Bot(("d",))), Entry("c2", (), Bot(("d",)))), (), "y",
                     DualAtom("a"))
    assert len(distributions(top, bottom)) == 2


def test_distr_additive_token():
    d_type = Plus(Atom("b"), Atom("b"), ("x",))
    top = CutSide(ctx(Entry("d", (), d_type)), (LeftTok("d"),), "x", Atom("a"))
    bottom = CutSide(ctx(Entry("c", (), Bot(("d",)))), (), "y", DualAtom("a"))
    ((t, b),) = distributions(top, bottom)
    assert t.ctx.get("d").typing == Plus(Atom("b"), Atom("b"), ("c",))
    assert b.ctx.get("c").queue == (LeftTok("d"),)


def test_distr_requires_pending_reference():
    top = CutSide(ctx(Entry("d", (), Atom("b"))), (msgbox("d", "bb", Atom("c")),), "x",
                  Atom("a"))
    bottom = CutSide(ctx(Entry("c", (), Bot(("d",)))), (), "y", DualAtom("a"))
    with pytest.raises(AnnotationMismatch):
        distributions(top, bottom)


def test_distr_gathered_box_takes_one_receiver_per_payload():
    # x's box gathers two payloads for d: each payload goes to any receiver
    # opposite, as its own box, and d's tensor gathers from those receivers
    left = P.parse_context("d : ~b *{x} ~c, x : a [to=d msg p1 : b; p2 : e]")
    right = P.parse_context("c1 : c, c2 : ~e, y : ~a")
    assert [P.print_context(g) for g in cut_conclusions(left, "x", right, "y")] == [
        "d : ~b *{c2,c2} ~c, c1 : c, c2 : ~e [to=d msg p1 : b] [to=d msg p2 : e]",
        "d : ~b *{c1,c1} ~c, c1 : c [to=d msg p1 : b] [to=d msg p2 : e], c2 : ~e",
        "d : ~b *{c1,c2} ~c, c1 : c [to=d msg p1 : b], c2 : ~e [to=d msg p2 : e]",
        "d : ~b *{c2,c1} ~c, c1 : c [to=d msg p2 : e], c2 : ~e [to=d msg p1 : b]",
    ]


# Sampled cut pairs whose cut endpoints hold queues: (seed, index) of
# genutil.sample_cut_pairs(Random(seed), 10, max_formula=4), and the printed
# conclusions in order.  The last still names the cut endpoint p (the
# additive branch substitution does not peel).
QUEUED_CUTS = {
    (1, 3): ["q : ~a [to=m msg m#1 : a], m : ~a *{q} a"],
    (3, 4): ["m : a +{m#1} ~a [to=m#1 R], m#1 : a +{m} ~a [to=m L]"],
    (5, 3): ["w : a [to=q ?] [to=q msg m#1 : ~a +{w#2} ~a], q : ?{w} ((a &{m#1} a) *{w} ~a)"],
    (7, 4): ["q : (a *{w#4} ~a) +{w#4} a *{p} a, w#4 : a [to=q L] [to=q msg m : ~a]"],
}


@pytest.mark.parametrize("seed,index", sorted(QUEUED_CUTS))
def test_conclusions_of_sampled_cuts_with_queues(seed, index):
    _, g1, x, _, g2, y = genutil.sample_cut_pairs(random.Random(seed), 10, max_formula=4)[index]
    assert g1.get(x).queue or g2.get(y).queue
    assert [P.print_context(g) for g in cut_conclusions(g1, x, g2, y)] == QUEUED_CUTS[seed, index]


# -- substitution -------------------------------------------------------------


def test_subst_atoms_merges():
    g = substitute(CutSide(ctx(Entry("u", (), Atom("b"))), (), "x", DualAtom("a")),
                   CutSide(ctx(Entry("v", (), DualAtom("b"))), (), "y", Atom("a")))
    assert list(g.endpoints()) == ["u", "v"]


def test_subst_units_rewrites_stars_and_gathering():
    left = ctx(Entry("u1", (Star("x"),), None), Entry("u2", (Star("x"),), None),
               Entry("x", (), One(("u1", "u2"))))
    right = ctx(Entry("v", (), One(("y",))), Entry("y", (), Bot(("v",))))
    concl = cut_conclusions(left, "x", right, "y")
    assert len(concl) == 1
    g = concl[0]
    assert g.get("u1").queue == (Star("v"),)
    assert g.get("u2").queue == (Star("v"),)
    assert g.get("v").typing == One(("u1", "u2"))
    # the conclusion lists the positive side first, on either side of the cut
    assert cut_conclusions(right, "y", left, "x") == concl


def test_subst_tensor_box_case():
    # [x][pp:~a] in b's queue becomes [c][pp:~a]; the tensor in c aiming at y
    # re-aims at b
    left = P.parse_context("b : bot{x} [to=x msg pp : ~a], x : a *{b} 1{b}")
    right = P.parse_context("c : a *{y} 1{y}, y : ~a |{c} bot{c}")
    check_forwarder(P.parse_process("x[w].(pp<->w | wait b; close x)"), left)
    check_forwarder(P.parse_process("y(m). wait y; c[w].(m<->w | close c)"), right)
    concl = cut_conclusions(left, "x", right, "y")
    assert len(concl) == 1
    g = concl[0]
    boxes = [it for it in g.get("b").queue if isinstance(it, MsgBox)]
    assert boxes and boxes[0].target == "c"
    assert g.get("b").typing == Bot(("c",))
    assert g.get("c").typing == P.parse_type("a *{b} 1{b}")


def _bang_cut(c):
    # x : !{u1,u2} a against y : ?{c} ~a, with c's entry given
    top = CutSide(ctx(Entry("u1", (), WhyNot(Atom("b"), ("x",))),
                      Entry("u2", (), WhyNot(Atom("b"), ("x",)))), (), "x",
                  OfCourse(Atom("a"), ("u1", "u2")))
    return top, CutSide(ctx(c), (), "y", WhyNot(DualAtom("a"), ("c",)))


def test_subst_queued_query_becomes_one_per_server_partner():
    # c already relayed y's query: the query goes to each of x's partners,
    # whose pending ? aimed at x now aims at c
    g = substitute(*_bang_cut(Entry("c", (Query("y"),), DualAtom("b"))))
    assert P.print_context(g) == "u1 : ?{c} b, u2 : ?{c} b, c : ~b [to=u1 ?] [to=u2 ?]"


def _unit_cut(*spectators):
    # x : 1{u} against y : bot{c}, c : 1{y}
    top = CutSide(ctx(*spectators), (), "x", One(("u",)))
    return top, CutSide(ctx(Entry("c", (), One(("y",)))), (), "y", Bot(("c",)))


@pytest.mark.parametrize("top,bottom,want", [
    (*_bang_cut(Entry("c", (Star("y"),), DualAtom("b"))), "first item for y at c is Star"),
    (*_unit_cut(Entry("u", (LeftTok("x"),), None)), "first item for x at u is LeftTok"),
    (CutSide(ctx(Entry("u", (), Plus(Atom("b"), Atom("b"), ("x",)))), (), "x",
             With(Atom("a"), Atom("a"), ("u",))),
     CutSide(ctx(Entry("c", (Star("y"),), With(DualAtom("b"), DualAtom("b"), ("y",)))), (), "y",
             Plus(DualAtom("a"), DualAtom("a"), ("c",))),
     "first item for y at c is Star"),
], ids=["bang-single-side", "unit-gathering-side", "with-single-side"])
def test_subst_first_item_of_the_wrong_kind_is_a_structural_mismatch(top, bottom, want):
    # a holder's first item for the dying endpoint must be one its rule queues
    with pytest.raises(StructuralMismatch, match=want):
        substitute(top, bottom)


def test_a_cut_endpoint_is_an_active_endpoint_of_its_context():
    g = P.parse_context("x : 1{y}, y : . [to=x *]")
    with pytest.raises(StructuralMismatch, match="^cut endpoint z not in context$"):
        CutSide.of(g, "z")
    with pytest.raises(StructuralMismatch, match="^cut endpoint y is terminated$"):
        CutSide.of(g, "y")


@pytest.mark.parametrize("top,bottom", [
    _unit_cut(Entry("u", (), None)),
    _unit_cut(Entry("v", (Star("x"),), None)),
    _bang_cut(Entry("c")),
], ids=["terminated-gathered", "missing-gathered", "terminated-single"])
def test_subst_reference_without_a_holder_dangles(top, bottom):
    with pytest.raises(DanglingReference):
        substitute(top, bottom)


def test_an_unset_slot_on_the_negative_cut_formula_is_a_cut_error():
    # x : bot names no partner for y's 1 to redirect to
    left, right = P.parse_context("u : 1{x}, x : bot"), P.parse_context("y : 1{v}, v : bot{y}")
    with pytest.raises(CutError):
        cut_conclusions(left, "x", right, "y")


def test_subst_units_rewrite_every_bot_aimed_at_the_cut():
    # u waits on x twice: both waits now aim at c
    top, bottom = _unit_cut(Entry("u", (), Tensor(Bot(("x",)), Bot(("x",)), ("w",))))
    assert P.print_context(substitute(top, bottom)) == "u : bot{c} *{w} bot{c}, c : 1{u}"


def test_criss_cross_halves_conclusions_stable():
    A = erase(P.parse_type("~name | ~cost * bot"))
    j1, x, j2, y = genutil.fresh_cut_sides(A)
    c1 = cut_conclusions(j1.context, x, j2.context, y)
    c2 = cut_conclusions(j1.context, x, j2.context, y)
    assert c1 == c2 and len(c1) == 1
    golden = P.parse_context(
        "v : ~name |{w} ~cost *{w} bot{w}, w : name *{v} cost |{v} 1{v}")
    assert normalize_context(c1[0]) == normalize_context(golden)


# -- the reduction figure ------------------------------------------------------


def _judged(proc_txt, ctx_txt):
    return check_forwarder(P.parse_process(proc_txt), P.parse_context(ctx_txt))


def _realize(left, right):
    """``reduce_cut`` at the cut's one conclusion, checked there."""
    (g,) = cut_conclusions(left.context, "x", right.context, "y")
    term, trace = reduce_cut(left, "x", right, "y", g)
    check_forwarder(term, g)
    return term, trace


def test_beta_C1():
    # the right head waits on a spectator: the cut slides under it
    left = _judged("close x", "u0 : . [to=x *], x : 1{u0}")
    right = _judged("wait u; wait y; close v",
                    "v : 1{u,y}, u : bot{v}, y : bot{v}")
    term, trace = _realize(left, right)
    assert trace == ("C1", "B2")
    assert term == P.parse_process("wait u; close v")


def test_beta_C2():
    left = _judged("x(n). e[w'].(n<->w' | wait x; close e)",
                   "e : a *{x} 1{x}, x : ~a |{e} bot{e}")
    right = _judged("u(m). y[w].(m<->w | wait u; close y)",
                    "u : ~a |{y} bot{y}, y : a *{u} 1{u}")
    term, trace = _realize(left, right)
    assert trace == ("C2", "K", "C3", "C1", "B2")
    assert term == P.parse_process("u(m). e[w].(m<->w | wait u; close e)")


def test_beta_C3():
    left = _judged("wait x; close e", "e : 1{x}, x : bot{e}")
    right = _judged("u[w].(m<->w | wait u; close y)",
                    "u : b *{y} bot{y}, y : 1{u} [to=u msg m : ~b]")
    term, trace = _realize(left, right)
    assert trace == ("C3", "C1", "B2")
    assert term == P.parse_process("u[w].(m<->w | wait u; close e)")


def test_beta_K():
    # res xy (x[a].(P|Q) | y(c).R) steps to res xy (Q | res{a > c}(P|R)),
    # here with the inner composition spliced in place of the boxed payload
    left = _judged("x[a].(d<->a | wait u; close x)",
                   "u : bot{x} [to=x msg d : ~a], x : a *{u} 1{u}")
    right = _judged("y(c). wait y; v[w].(c<->w | close v)",
                    "y : ~a |{v} bot{v}, v : a *{y} 1{y}")
    term, trace = _realize(left, right)
    assert trace == ("K", "C1", "B2")
    assert term == P.parse_process("wait u; v[a].(d<->a | close v)")


def test_beta_K_annotation_follows_spliced_payload():
    # v's payload annotation 1{c} aims at the received name c; once d is
    # spliced in place of c, the boxed host is derivable only if it aims at d.
    # The K step alone: the whole cut's conclusion still names c, and the
    # engine cannot yet rename it to d, since no commuted receive binds d
    left = _judged("x[a].(wait d; close a | wait u; close x)",
                   "u : bot{x} [to=x msg d : bot{a}], x : 1{d} *{u} 1{u}")
    right = _judged("y(c). wait y; v[w].(wait c; close w | close v)",
                    "y : bot{w} |{v} bot{v}, v : 1{c} *{y} 1{y}")

    def no_box_cut(*cut):
        raise AssertionError("a lone boxed payload is spliced, not cut")

    host = cutelim._cut_in_box(left.premises[0], "a", right.premises[0], "c", no_box_cut)
    assert host.process == P.parse_process("wait y; v[a].(wait d; close a | close v)")
    assert host.context == P.parse_context(
        "y : bot{v} [to=v msg d : bot{a}], v : 1{d} *{y} 1{y}")


GATHERED_BOX_CUT = (
    "cut (w(m). wait w; x[w#1].(wait m; close w#1 | close x)) "
    "|- w : bot{w#1} |{x} bot{x}, x : 1{m} *{w} 1{w} "
    "with (y(m#1). wait y; z(m#6). u[w#9].(wait m#1; wait m#6; close w#9 | wait z; close u)) "
    "|- z : bot{w#9} |{u} bot{u}, u : 1{m#1,m#6} *{y,z} 1{y,z}, y : bot{w#9} |{u} bot{u};")


@pytest.mark.xfail(strict=True, raises=Stuck, reason=(
    "the conclusion still names the consumed binders w#1 and m#1 (ROADMAP item 2): "
    "trace ['C2', 'C1', 'K'], failed at K: m must hold exactly one star for w#9"))
def test_k_cuts_a_payload_against_a_message_that_gathers_several_boxes(monkeypatch):
    # u's send gathers the boxes of m#1 and m#6, so K cuts the payload
    # against that message process (``box_cut``) instead of splicing it
    box_cuts = []
    real = cutelim._cut_in_box

    def spy(payload, a, host, c, box_cut):
        return real(payload, a, host, c, lambda *cut: box_cuts.append(cut) or box_cut(*cut))

    monkeypatch.setattr(cutelim, "_cut_in_box", spy)
    (d,) = P.parse_file(GATHERED_BOX_CUT).decls
    left, right = check_forwarder(d.left, d.left_ctx), check_forwarder(d.right, d.right_ctx)
    try:
        for g in cut_conclusions(d.left_ctx, "x", d.right_ctx, "y"):
            term, _ = reduce_cut(left, "x", right, "y", g)
            check_forwarder(term, g)
    finally:
        assert box_cuts  # the general path ran, whether or not the cut was realized


def test_box_splice_targets_follow_spectators():
    host = P.parse_context("y : bot{v} [to=v msg c : bot{w}], v : 1{c} *{y} 1{y}")
    two = (("d1", Bot(("a",))), ("d2", Bot(("a",))))
    swapped = _swap_box(host, "c", two)
    assert swapped.get("v").typing == P.parse_type("1{d1,d2} *{y} 1{y}")
    # a single-target annotation cannot aim at two spectators
    single = P.parse_context("y : bot{v} [to=v msg c : bot{w}], v : bot{c} *{y} 1{y}")
    with pytest.raises(CutError, match="box \\[to=v\\] at y carries c"):
        _swap_box(single, "c", two)


def test_reduce_cut_atoms():
    left = _judged("z<->x", "z : ~a, x : a")
    right = _judged("y<->w", "y : ~a, w : a")
    concl = cut_conclusions(left.context, "x", right.context, "y")
    assert [set(g.endpoints()) for g in concl] == [{"z", "w"}]
    term, trace = reduce_cut(left, "x", right, "y", concl[0])
    assert trace == ("B1",) and term == Link("z", "w")


def test_reduce_cut_units_single_step():
    left = _judged("close x", "u1 : . [to=x *], u2 : . [to=x *], x : 1{u1,u2}")
    right = _judged("wait y; close v", "v : 1{y}, y : bot{v}")
    concl = cut_conclusions(left.context, "x", right.context, "y")
    assert len(concl) == 1
    term, trace = reduce_cut(left, "x", right, "y", concl[0])
    assert trace == ("B2",) and term == Close("v")
    check_forwarder(term, concl[0])


def test_reduce_cut_crisscross_halves():
    A = erase(P.parse_type("~name | ~cost * bot"))
    j1, x, j2, y = genutil.fresh_cut_sides(A)
    for g in cut_conclusions(j1.context, x, j2.context, y):
        term, trace = reduce_cut(j1, x, j2, y, g)
        assert genutil.is_cut_free(term)
        check_forwarder(term, g)


def test_reduce_cut_spliced_payload_takes_host_binders():
    # the conclusion's message type names binders of the host's message
    # process; the payload process spliced in its place must bind those names
    A = erase(P.parse_type("((~a & a) * (bot | a)) * a"))
    j1, x, j2, y = genutil.fresh_cut_sides(A)
    for g in cut_conclusions(j1.context, x, j2.context, y):
        term, trace = reduce_cut(j1, x, j2, y, g)
        assert "K" in trace
        assert genutil.is_cut_free(term)
        check_forwarder(term, g)


def test_reduce_cut_stuck_names_the_failed_step_and_its_check():
    # this conclusion still aims at the cut endpoints x and y, so no
    # reduction realizes it.  The error names the tags from the root cut down
    # to the step that failed: the right arm of the commuted case, without
    # the tags of the left arm realized beside it; that step; and the check
    # that failed there: the unit step's check_forwarder, since w's 1 still
    # gathers the dead x
    j1, x, j2, y = genutil.fresh_cut_sides(erase(P.parse_type("~a & bot")))
    g = P.parse_context("w : a +{v} 1{x}, v : ~a &{w} bot{y}")
    concl = cut_conclusions(j1.context, x, j2.context, y)
    assert normalize_context(g) in map(normalize_context, concl)
    with pytest.raises(Stuck) as e:
        reduce_cut(j1, x, j2, y, g)
    got = re.search(r"; trace \[(.+)\], failed at (\S+): (.+)$", str(e.value))
    assert got, str(e.value)
    tags = [t.strip("' ") for t in got.group(1).split(",")]
    assert tags == ["C-case", "K-add", "C1", "C-inr", "B2"]
    assert got.group(2) == "B2"
    assert got.group(3) == "1 at w must gather every other endpoint, got {x}"


def test_reduce_cut_stuck_where_the_goal_refuses_every_head():
    # pair 2 of the sample: after the K step, both sides' heads commute, and
    # the goal refuses each one's rule; the error names both checks
    p1, g1, x, p2, g2, y = genutil.sample_cut_pairs(random.Random(21), 10, max_formula=4)[2]
    j1, j2 = check_forwarder(p1, g1), check_forwarder(p2, g2)
    (g,) = cut_conclusions(g1, x, g2, y)
    with pytest.raises(Stuck) as e:
        reduce_cut(j1, x, j2, y, g)
    assert str(e.value) == (
        "no reduction realizes the requested conclusion; "
        "trace ['C-case', 'K-add', 'C-inr', 'C2', 'K'], no step applies; "
        "C3 refused: * target q#5 not in context; C-case refused: & target p not in context")
    assert genutil.search_reduce_cut(j1, x, j2, y, g) is None


def test_reduce_cut_takes_the_client_when_the_goal_refuses_the_server(monkeypatch):
    # after K-exp, the right side's head is a server whose endpoint s still
    # holds a query, so the goal refuses the ! rule at s; the left side's
    # client is the step taken, and it realizes the goal as the search does
    left = _judged("?p[p2]. !s(s2). ?p2[p4]. p4<->s2", "p : ?{s} ?{s} ~a, s : !{p} a [to=p ?]")
    right = _judged("!q(q6). ?u[u3]. !q6(q7). ?u3[u5]. u5<->q7",
                    "u : ?{q} ?{q} ~a, q : !{u} !{u} a")
    refused = []

    def step(head, g):
        try:
            return forwarder_step(head, g)
        except CheckError as e:
            refused.append((type(head).__name__, str(e)))
            raise

    monkeypatch.setattr(cutelim, "forwarder_step", step)
    (g,) = cut_conclusions(left.context, "p", right.context, "q")
    term, trace = reduce_cut(left, "p", right, "q", g)
    assert trace == ("K-exp", "C-cli", "C-srv", "K-exp", "B1")
    assert refused == [("Server", "! requires an empty queue at s")]
    check_forwarder(term, g)
    assert genutil.search_reduce_cut(left, "p", right, "q", g) == (term, trace)


def test_reduce_cut_fails_only_with_cut_errors():
    # a check that fails inside a step (a CheckError from the checker, say)
    # makes the reduction Stuck; whatever reduce_cut raises is a CutError
    rng = random.Random(5)
    cuts = [(check_forwarder(p1, g1), x, check_forwarder(p2, g2), y)
            for p1, g1, x, p2, g2, y in genutil.sample_cut_pairs(rng, 30, max_formula=4)]
    cuts += [genutil.fresh_cut_sides(genutil.random_plain_type(rng, rng.randint(1, 4)))
             for _ in range(15)]
    outcomes = {True: 0, False: 0}
    for j1, x, j2, y in cuts:
        for g in cut_conclusions(j1.context, x, j2.context, y):
            try:
                reduce_cut(j1, x, j2, y, g)
                outcomes[True] += 1
            except CutError:
                outcomes[False] += 1
    assert outcomes[True] and outcomes[False]


def test_reduce_cut_check_error_in_a_step_makes_it_stuck(monkeypatch):
    # the K step's box splice ends with check_forwarder; its CheckError makes
    # the reduction Stuck at the K step, as a CutError does
    A = erase(P.parse_type("(~a | bot) | ~b * (b * 1)"))
    j1, x, j2, y = genutil.fresh_cut_sides(A)
    g = cut_conclusions(j1.context, x, j2.context, y)[0]

    def refuse(*_):
        raise RuleMismatch("host refused")

    monkeypatch.setattr(cutelim, "_cut_in_box", refuse)
    with pytest.raises(Stuck, match=r"failed at K: host refused$"):
        reduce_cut(j1, x, j2, y, g)


def test_reduce_cut_all_gammas_random():
    rng = random.Random(77)
    pairs = genutil.sample_cut_pairs(rng, 12, max_formula=3)
    assert pairs
    realized = 0
    for p1, g1, x, p2, g2, y in pairs:
        for g in cut_conclusions(g1, x, g2, y):
            term, trace = reduce_cut(check_forwarder(p1, g1), x, check_forwarder(p2, g2), y, g)
            assert genutil.is_cut_free(term)
            check_forwarder(term, g)
            realized += 1
    assert realized > 0


def test_exchange_lemma_spot():
    # every conclusion of a multiplicative key redex is a conclusion of the
    # reduct with the box relocated
    rng = random.Random(31)
    checked = 0
    for p1, g1, x, p2, g2, y in genutil.sample_cut_pairs(rng, 60, max_formula=4,
                                                         left_head=Tensor):
        fx, fy = g1.get(x).typing, g2.get(y).typing
        if not isinstance(fx, Tensor) or not isinstance(fy, Par):
            continue
        if len(fx.targets) != 1:
            continue
        u = fx.targets[0]
        qu = g1.get(u).queue
        if not qu or not isinstance(qu[0], MsgBox) or qu[0].target != x:
            continue
        box = qu[0]
        redex = cut_conclusions(g1, x, g2, y)
        # reduct: pop the box, peel the formulas, re-box at the bottom queue
        g1b = g1.replace({u: Entry(u, qu[1:], g1.get(u).typing)})
        g1b = g1b.replace({x: Entry(x, g1.get(x).queue, fx.right)})
        ny = Entry(y, g2.get(y).queue + (MsgBox(fy.targets[0], box.payloads),), fy.right)
        g2b = g2.replace({y: ny})
        reduct = cut_conclusions(g1b, x, g2b, y)
        rset = {normalize_context(g) for g in reduct}
        for g in redex:
            assert normalize_context(g) in rset
        checked += 1
        if checked >= 4:
            break
    assert checked > 0


def test_measure_decreases_along_traces():
    # a cut whose reduction needs multiplicative key steps reaches a cut-free
    # forwarder at the chosen conclusion; that conclusion's annotations aim
    # at a name received on the cut endpoint, which a K step consumes
    A = erase(P.parse_type("(~a | bot) | ~b * (b * 1)"))
    j1, x, j2, y = genutil.fresh_cut_sides(A)
    g = cut_conclusions(j1.context, x, j2.context, y)[0]
    term, trace = reduce_cut(j1, x, j2, y, g)
    assert genutil.is_cut_free(term)
    check_forwarder(term, g)
    assert trace.count("K") >= 1


@pytest.mark.parametrize("seeds", [range(1, 31), range(31, 61), range(61, 91), range(91, 121)],
                         ids=lambda r: f"seeds {r.start}-{r.stop - 1}")
def test_reduce_cut_agrees_with_the_search(seeds):
    # one step per redex realizes exactly what the backtracking search over
    # the same table realizes: the same term and trace, or neither
    realized = failed = 0
    for seed in seeds:
        rng = random.Random(seed)
        cuts = [(check_forwarder(p1, g1), x, check_forwarder(p2, g2), y)
                for p1, g1, x, p2, g2, y in genutil.sample_cut_pairs(rng, 10, max_formula=4)]
        cuts += [genutil.fresh_cut_sides(genutil.random_plain_type(rng, rng.randint(1, 4)))
                 for _ in range(5)]
        for j1, x, j2, y in cuts:
            for g in cut_conclusions(j1.context, x, j2.context, y):
                want = genutil.search_reduce_cut(j1, x, j2, y, g)
                try:
                    got = reduce_cut(j1, x, j2, y, g)
                except Stuck:
                    got = None
                assert got == want, (seed, x, y, P.print_context(g))
                realized += got is not None
                failed += got is None
    assert realized and failed
