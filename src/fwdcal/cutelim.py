"""Binary cut: distribution, substitution, and the reduction engine.

A cut joins two judgements whose distinguished formulas are dual up to
erasure.  Its conclusions (``cut_conclusions``) are computed in two phases,
each once.  ``distributions`` enumerates every way to relocate the queued
items of the dying endpoints to endpoints of the opposite context (the
item's target then expects delivery from there); a cut therefore has a set
of conclusions.  ``substitute`` then peels the two formulas in lockstep,
redirecting every remaining reference to the dying endpoints.  Both phases
rewrite a reference in one place, ``_redirect``: a holder refers to a dying
endpoint by the first item it queued for it or, before the rule that queues
that item has fired, by a pending connective aimed at it (``_PUSHES`` and
``_TAKES`` pair each rule with its items).

The reduction figure is written once, as a table (``_table``): at a redex it
lists the steps that apply, each a cut-free leaf (B1, B2), a smaller redex
(K, K-add, K-exp) or a head action pushed out of the cut (C-*).  A redex's
sides are checked derivations, and the table reads each step's premises off
their nodes.  ``reduce_cut``'s engine realizes a chosen conclusion by one
step at each redex, the first the goal admits, bounded by fuel.  It returns
the realized term and its trace; a check that fails at the step taken, or a
redex at which no step applies, makes the reduction ``Stuck``, and the error
names where and why.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterator

from . import syntax as S
from .syntax import (
    Atom, Bot, Case, Client, Close, DualAtom, Endpoint, Inl, Inr, Link, OfCourse,
    One, Par, Plus, Process, Recv, Send, Server, Tensor, Type, Wait, WhyNot, With,
    erase, head_endpoint, rename_free,
)
from .contexts import (
    Context, Entry, LeftTok, MsgBox, Query, Queue, QueueItem, RightTok, Star, context_size,
    endpoint_names, first_destined, normalize_context, rename_context, rename_context_targets,
    target_names,
)
from .records import record, replace
from .checker import CheckError, Derivation, check_forwarder, forwarder_step


class CutError(Exception):
    pass


class AnnotationMismatch(CutError):
    pass


class StructuralMismatch(CutError):
    pass


class DanglingReference(CutError):
    pass


class FuelExhausted(CutError):
    """A reduction ran out of steps; binary cuts and compositions alike."""

    def __init__(self, msg, trace):
        super().__init__(f"{msg}; trace so far: {trace}")
        self.trace = trace


class Stuck(CutError):
    """No reduction step applies; binary cuts and compositions alike."""


# ---------------------------------------------------------------------------
# Cut pairs


@record
class CutSide:
    ctx: Context  # spectator entries
    queue: Queue  # pending items of the cut endpoint
    endpoint: Endpoint
    formula: Type

    @staticmethod
    def of(g: Context, x: Endpoint) -> CutSide:
        e = g.get(x)
        if e.typing is None:
            raise StructuralMismatch(f"cut endpoint {x} is terminated")
        return CutSide(g.without(x), e.queue, x, e.typing)


# -- redirecting references to a dying endpoint -------------------------------


def _splice(ts: tuple[Endpoint, ...], old: Endpoint, new: tuple[Endpoint, ...]) -> tuple[Endpoint, ...]:
    i = ts.index(old)
    return ts[:i] + new + ts[i + 1 :]


# The items each rule queues at its endpoint for the endpoint it names, and
# the rule that takes each item from there.
_PUSHES: dict[type, tuple[type, ...]] = {
    Bot: (Star,), Par: (MsgBox,), With: (LeftTok, RightTok), OfCourse: (Query,)}
_TAKES: dict[type, type] = {
    Star: One, MsgBox: Tensor, LeftTok: Plus, RightTok: Plus, Query: WhyNot}


def _redirect(ctx: Context, holder: Endpoint, at: Endpoint, new: tuple[Endpoint, ...],
              kind: type) -> Context:
    """Redirect ``holder``'s reference to the dying endpoint ``at`` to ``new``.

    Once ``kind``'s rule has fired at ``holder``, the reference is the first
    item it queued for ``at``, which becomes one item per name of ``new``.
    Before, it is the first pending ``kind`` connective aimed at ``at`` (in
    ``map_slots`` order), whose slot takes ``new`` in place of ``at``.  For
    ``bot`` every star, or every connective, aimed at ``at`` is redirected.
    """
    if not ctx.has(holder):
        raise DanglingReference(f"partner {holder} missing from context")
    e = ctx.get(holder)
    q, every = e.queue, kind is Bot
    i = first_destined(q, at) if kind in _PUSHES else None
    if i is not None:
        if not isinstance(q[i], _PUSHES[kind]):
            raise StructuralMismatch(f"first item for {at} at {holder} is {type(q[i]).__name__}")
        moved = {j for j, it in enumerate(q) if it == q[i] and (every or j == i)}
        q = tuple(r for j, it in enumerate(q)
                  for r in ([replace(it, target=u) for u in new] if j in moved else [it]))
        return ctx.replace(holder, Entry(holder, q, e.typing))
    if e.typing is None:
        raise DanglingReference(f"{holder} terminated with no reference to {at}")
    hits = 0

    def splice(s: Type, ts: tuple[Endpoint, ...]) -> tuple[Endpoint, ...]:
        nonlocal hits
        if not isinstance(s, kind) or at not in ts or hits and not every:
            return ts
        hits += 1
        return _splice(ts, at, new)

    t = S.map_slots(e.typing, splice)
    if not hits:
        raise DanglingReference(f"{holder} has no pending {kind.__name__} at {at}")
    return ctx.replace(holder, Entry(holder, q, t))


def distributions(top: CutSide, bottom: CutSide) -> list[tuple[CutSide, CutSide]]:
    """Every maximal distribution of the two cut queues, deduplicated, in a
    canonical order: the sides with their queues emptied.

    Each item of the top queue, then of the bottom queue, goes to every
    receiver on the opposite side; a gathered box takes one receiver per
    payload and splits into one box per payload.  The connective that will
    take the item, pending at its target, is redirected from the dying
    endpoint to the receivers, and the moved pieces precede the receivers'
    own queues.
    """
    items = [(0, it) for it in top.queue] + [(1, it) for it in bottom.queue]
    dying = (top.endpoint, bottom.endpoint)
    found: dict[tuple[Context, Context], tuple[Context, Context]] = {}

    def go(ctxs: tuple[Context, Context], moved: tuple[tuple[Endpoint, QueueItem], ...], k: int):
        if k == len(items):
            done = tuple(Context(tuple(
                Entry(e.endpoint, tuple(it for r, it in moved if r == e.endpoint) + e.queue,
                      e.typing) for e in g.entries)) for g in ctxs)
            found.setdefault(tuple(map(normalize_context, done)), done)
            return
        side, item = items[k]
        pieces = [item]
        if isinstance(item, MsgBox) and len(item.payloads) > 1:
            pieces = [MsgBox(item.target, (pl,)) for pl in item.payloads]
        for receivers in product(ctxs[1 - side].endpoints(), repeat=len(pieces)):
            try:
                sender = _redirect(ctxs[side], item.target, dying[side], receivers,
                                   _TAKES[type(item)])
            except DanglingReference as e:
                raise AnnotationMismatch(str(e)) from None
            go((sender, ctxs[1]) if side == 0 else (ctxs[0], sender),
               moved + tuple(zip(receivers, pieces)), k + 1)

    go((top.ctx, bottom.ctx), (), 0)
    return [(replace(top, ctx=found[k][0], queue=()), replace(bottom, ctx=found[k][1], queue=()))
            for k in sorted(found, key=repr)]


# -- substitution -------------------------------------------------------------


def _require_dual(top: Type, bottom: Type) -> None:
    if not S.is_dual(top, bottom):
        raise StructuralMismatch(f"cut formulas are not dual: {S.print_type(erase(top))} "
                                 f"vs {S.print_type(erase(bottom))}")


def substitute(top: CutSide, bottom: CutSide) -> Context:
    """Peel the two dual cut formulas in lockstep, redirecting every
    reference to the dying endpoints, down to the units or the atoms; returns
    the merged context.  At each connective, the positive (gathering or
    broadcasting) formula's partners redirect their references to its
    endpoint ``x`` to the negative one's partner ``c``, and ``c`` redirects
    its reference to ``y`` to them.  The merge at the units puts the positive
    side first; at the atoms, the top side comes first."""
    _require_dual(top.formula, bottom.formula)
    while not isinstance(top.formula, (Atom, DualAtom)):
        flip = isinstance(bottom.formula, S.MULTI_TARGET)
        p, n = (bottom, top) if flip else (top, bottom)
        x, y, ms, c = p.endpoint, n.endpoint, p.formula.targets, n.formula.target
        pctx = p.ctx
        for m in ms:
            pctx = _redirect(pctx, m, x, (c,), type(n.formula))
        nctx = _redirect(n.ctx, c, y, ms, type(p.formula))
        kids = tuple(zip(S.children(p.formula), S.children(n.formula)))
        if not kids:
            return Context(pctx.entries + nctx.entries)
        # go on with a tensor's right operand (its left travels boxed), the
        # branch of a with that the token queued for y picks (else the left),
        # or a bang's body
        q = n.ctx.get(c).queue
        i = first_destined(q, y)
        right = isinstance(p.formula, Tensor) or i is not None and isinstance(q[i], RightTok)
        pa, na = kids[-1] if right else kids[0]
        p, n = CutSide(pctx, (), x, pa), CutSide(nctx, (), y, na)
        top, bottom = (n, p) if flip else (p, n)
    return Context(top.ctx.entries + bottom.ctx.entries)


def context_names(g: Context) -> frozenset[str]:
    return frozenset(endpoint_names(g) | target_names(g))


def cut_conclusions(left: Context, x: Endpoint, right: Context, y: Endpoint) -> list[Context]:
    """Every admissible conclusion of cutting ``x`` in ``left`` against ``y``
    in ``right``, in a canonical order.  The contexts must not share names."""
    shared = context_names(left) & context_names(right)
    if shared:
        raise CutError(f"cut contexts share names {sorted(shared)}")
    top, bottom = CutSide.of(left, x), CutSide.of(right, y)
    _require_dual(top.formula, bottom.formula)
    out: dict[Context, Context] = {}
    for t, b in distributions(top, bottom):
        g = substitute(t, b)
        out.setdefault(normalize_context(g), g)
    return [out[k] for k in sorted(out, key=repr)]


# ---------------------------------------------------------------------------
# The reduction figure and its engine


def proc_size(p: Process) -> int:
    n, todo = 0, [p]
    while todo:
        n += 1
        for _, q in S.scope(todo.pop())[1]:
            todo.append(q)
    return n


@record
class Judged:
    """A forwarder term together with its (derivable) typing context."""

    term: Process
    ctx: Context


def judgement_names(j: Judged) -> frozenset[str]:
    """Every name a judgement mentions: endpoints, boxed payload names,
    annotation targets (which may forward-reference term binders), and the
    term's free and bound names."""
    return context_names(j.ctx) | frozenset(S.names(j.term))


def freshen_judgement(j: Judged, avoid: frozenset[str]) -> Judged:
    """Rename every name of the judgement that collides with ``avoid``,
    consistently across the context (entries, payloads, annotation targets)
    and the term (free names and binders)."""
    clash = sorted(judgement_names(j) & avoid)
    if not clash:
        return j
    supply = S.FreshNames(frozenset(avoid) | judgement_names(j))
    mapping = {b: supply.fresh(b) for b in clash}
    return Judged(_rename_everywhere(j.term, mapping), rename_context(j.ctx, mapping))


def _rename_everywhere(p: Process, m: dict[str, str]) -> Process:
    heads, subs = S.scope(p)
    return S.from_scope(p, tuple(m.get(n, n) for n in heads), tuple(
        (tuple(m.get(b, b) for b in bs), _rename_everywhere(q, m)) for bs, q in subs))


@record
class _Cut:
    """The redex ``res x y (left | right)``, its sides checked derivations."""

    left: Derivation
    x: Endpoint
    right: Derivation
    y: Endpoint


@record
class _Step:
    """One step of the figure at a redex: a cut-free ``leaf``, a smaller
    ``redex``, or a ``head`` pushed out of the cut whose ``subs`` each keep a
    premise (a Derivation) or put it under the cut.  A K step's redex holds
    the receive's premise as it is; its ``box``, ``(c, payload, a)``, is the
    payload that takes the received name ``c``'s place there when it fires."""

    tag: str
    leaf: Process | None = None
    redex: _Cut | None = None
    head: Process | None = None
    subs: tuple[tuple[tuple[str, ...], Derivation | _Cut], ...] = ()
    box: tuple[Endpoint, Derivation, Endpoint] | None = None


# A K step's box cut ``res a c (payload | message)``, reduced at its conclusion.
BoxCut = Callable[[Derivation, Endpoint, Derivation, Endpoint, Context], Process]

# The reduction figure's name for commuting each head past a cut.
_COMMUTE_TAGS = {Wait: "C1", Recv: "C2", Send: "C3", Case: "C-case", Inl: "C-inl",
                 Inr: "C-inr", Server: "C-srv", Client: "C-cli"}

# Heads that take the negative side of a principal cut; the table puts the
# positive action (send, case, server, close) on the left.
_NEGATIVE = (Wait, Recv, Inl, Inr, Client)


def _table(r: _Cut) -> Iterator[_Step]:
    """The reduction figure at ``r``: the steps that may apply, in the order
    the engine asks the goal.  A link on a cut endpoint (the left side's
    first) is B1 and excludes every other step; two heads on the cut
    endpoints meet in the principal case; otherwise the right side's head
    commutes, then the left side's."""
    for j, jx, other, oy in ((r.left, r.x, r.right, r.y), (r.right, r.y, r.left, r.x)):
        t = j.process
        if isinstance(t, Link) and jx in (t.x, t.y):
            yield _Step("B1", leaf=rename_free(other.process, {oy: t.y if t.x == jx else t.x}))
            return
    lh, rh = head_endpoint(r.left.process), head_endpoint(r.right.process)
    if lh == r.x and rh == r.y:
        yield _principal(r)
        return
    for side, sx, head, flip in ((r.right, r.y, rh, True), (r.left, r.x, lh, False)):
        tag = _COMMUTE_TAGS.get(type(side.process))
        if tag is None or head == sx:
            continue
        # the subterms whose premise holds the cut endpoint go under the cut
        yield _Step(tag, head=side.process, subs=tuple(
            (bs, (_Cut(r.left, r.x, j, r.y) if flip else _Cut(j, r.x, r.right, r.y))
             if j.context.has(sx) else j)
            for (bs, _), j in zip(S.scope(side.process)[1], side.premises)))


def _principal(r: _Cut) -> _Step:
    if isinstance(r.left.process, _NEGATIVE):
        r = _Cut(r.right, r.y, r.left, r.x)
    lprem, rprem = r.left.premises, r.right.premises
    match r.left.process, r.right.process:
        case (Close(), Wait()):
            # unit base case: the wait continuation already inhabits the goal,
            # the nonuniform substitution only reshuffles proof-level queues
            return _Step("B2", leaf=rprem[0].process)
        case (Send(fresh=a), Recv(fresh=c)):
            payload, cont = lprem
            return _Step("K", redex=_Cut(cont, r.x, rprem[0], r.y), box=(c, payload, a))
        case (Case(), (Inl() | Inr()) as pick):
            return _Step("K-add", redex=_Cut(lprem[isinstance(pick, Inr)], r.x, rprem[0], r.y))
        case (Server(fresh=a), Client(fresh=b)):
            return _Step("K-exp", redex=_Cut(lprem[0], a, rprem[0], b))
    raise Stuck("principal heads do not interact: "
                f"{type(r.left.process).__name__}/{type(r.right.process).__name__}")


# -- the engine ---------------------------------------------------------------


@record
class _Walk:
    """Where the engine stands: the tags from the root cut and the binders of
    the enclosing commuted receives.  The walks of one reduction share the
    rest: the tags fired so far, the most it may fire (its fuel), and the
    K-step identifications (spectator -> name) no receive bound yet."""

    at: tuple[str, ...]
    receives: tuple[str, ...]
    trace: list[str]
    fuel: int
    idents: dict[str, str]

    def enter(self, tag: str) -> _Walk:
        self.trace.append(tag)
        if len(self.trace) > self.fuel:
            raise FuelExhausted("fuel exhausted", self.at + (tag,))
        return _Walk(self.at + (tag,), self.receives, self.trace, self.fuel, self.idents)


def reduce_cut(left: Derivation, x: Endpoint, right: Derivation, y: Endpoint,
               gamma: Context) -> tuple[Process, tuple[str, ...]]:
    """Reduce ``res x y (left | right)`` to a cut-free process at ``gamma``, one
    of the cut's conclusions; returns it with the tags of the steps taken, in
    the order they fired.  ``left`` and ``right`` are the derivations of the
    two judgements (``check_forwarder``'s), which must not share any name.

    The engine takes one step at each redex, the first step of the table
    that the goal admits, and never undoes it.  A commuted head is admitted
    when its rule (``forwarder_step``) accepts the goal, which gives each
    subterm's goal; every other step is alone at its redex.  A check that
    fails at the step taken makes the reduction ``Stuck``: a leaf's
    ``check_forwarder``, a kept subterm whose premise is not the goal's, a K
    step's box cut or its identification (``_identify``).  The error names
    the tags from the root cut down to that step and the check that failed;
    at a redex where no step applies, it names each refused head's check."""
    left_names, right_names = (context_names(d.context) | S.names(d.process)
                               for d in (left, right))
    if shared := left_names & right_names:
        raise CutError(f"cut sides share names {sorted(shared)}; rename apart first")
    fuel = 4 * (context_size(left.context) + context_size(right.context)
                + proc_size(left.process) + proc_size(right.process) + 4)
    walk = _Walk((), (), [], fuel, {})
    return _drive(_Cut(left, x, right, y), gamma, walk), tuple(walk.trace)


def _stuck(walk: _Walk, why: str) -> Stuck:
    return Stuck(f"no reduction realizes the requested conclusion; trace {list(walk.at)}, {why}")


def _drive(r: _Cut, gamma: Context, walk: _Walk) -> Process:
    """Realize ``r`` at ``gamma`` by the first step of the table that the goal
    admits; a CheckError or CutError at that step makes the reduction Stuck."""
    refused = []
    for step in _table(r):
        try:
            goals = () if step.head is None else forwarder_step(step.head, gamma)[1]
        except CheckError as e:
            refused.append(f"; {step.tag} refused: {e}")
            continue
        walk = walk.enter(step.tag)
        try:
            return _fire(step, gamma, goals, walk)
        except (Stuck, FuelExhausted):
            raise  # from a redex below, which named itself
        except (CheckError, CutError) as e:
            raise _stuck(walk, f"failed at {step.tag}: {e}") from None
    raise _stuck(walk, "no step applies" + "".join(refused))


def _fire(step: _Step, gamma: Context, goals, walk: _Walk) -> Process:
    """Take ``step`` at ``gamma``; ``goals`` are a commuted head's premises
    there, as its rule gives them."""
    if step.leaf is not None:
        check_forwarder(step.leaf, gamma)
        return step.leaf
    if step.redex is not None:
        r = step.redex
        if step.box is not None:
            c, payload, a = step.box
            # an inner cut's binders are its own: no outer receive takes its names
            inner = replace(walk, receives=())
            r = replace(r, right=_cut_in_box(payload, a, r.right, c, lambda pl, pa, msg, mc, g:
                                             _drive(_Cut(pl, pa, msg, mc), g, inner)))
            gamma = _identify(gamma, c, payload, a, walk.receives, walk.idents)
        return _drive(r, gamma, walk)
    # a commuted head: a subterm under the cut is realized at its goal, and a
    # kept one must inhabit its goal already
    term, out = step.head, []
    if isinstance(term, Recv):
        walk = replace(walk, receives=walk.receives + (term.fresh,))
    for (bs, sub), (_, g2) in zip(step.subs, goals):
        if isinstance(sub, _Cut):
            out.append((bs, _drive(sub, g2, walk)))
        elif normalize_context(sub.context) == normalize_context(g2):
            out.append((bs, sub.process))
        else:
            raise CutError(f"the goal does not keep the context of {step.tag}'s "
                           f"subterm {S.print_process(sub.process)}")
    if isinstance(term, Recv) and term.fresh in walk.idents:
        # a K step below identified the received name with the one the goal
        # expects: the receive binds that name instead
        c = walk.idents.pop(term.fresh)
        out = [((c,), rename_free(out[0][1], {term.fresh: c}))]
    return S.from_scope(term, S.scope(term)[0], tuple(out))


def _identify(gamma: Context, c: Endpoint, payload: Derivation, a: Endpoint,
              receives: tuple[str, ...], idents: dict[str, str]) -> Context:
    """Thread a K step's splice through the goal; result binders follow the
    conclusion.  The K step consumes the received name ``c`` and splices the
    payload's lone spectator in its place, so goal annotations that name
    ``c`` follow the spectator, and the commuted receive that binds the
    spectator is to bind ``c`` instead, which ``idents`` records.  A CutError
    says why that cannot be done: several spectators, a spectator no
    enclosing commuted receive binds (one the goal fixes), one the goal
    already names, or one already identified with another name."""
    targets = target_names(gamma)
    if c not in targets:
        return gamma
    spect = [n for n in payload.context.endpoints() if n != a]
    if len(spect) != 1:
        raise CutError(f"the goal names {c}, spliced as {len(spect)} spectators {spect}")
    s = spect[0]
    if s not in receives:
        raise CutError(f"the goal names {c}, but no enclosing commuted receive binds "
                       f"its spectator {s}")
    if s in targets:
        raise CutError(f"the goal names both {c} and its spectator {s}")
    if idents.get(s, c) != c:
        raise CutError(f"spectator {s} is already identified with {idents[s]}, not {c}")
    idents[s] = c
    return rename_context_targets(gamma, {c: s})


def _cut_in_box(payload: Derivation, a: Endpoint, host: Derivation, c: Endpoint,
                box_cut: BoxCut) -> Derivation:
    """Replace the boxed endpoint ``c`` inside ``host`` by the payload's
    spectator ports, composing the payload in without a residual cut; returns
    the derivation of the result, which its closing ``check_forwarder``
    builds.

    The host's derivation is walked down to the send that consumes the box.
    When its gather is exactly that one message, the payload is spliced in
    place of the send's message process, taking the binder names the host's
    message type expects (``_align_binders``); otherwise ``box_cut`` reduces
    a smaller cut.  At every level of the host, the annotations and queue
    items that named ``c`` name the spectators instead (``_swap_box``).
    """
    def holds(g: Context) -> bool:
        return any(isinstance(it, MsgBox) and any(pn == c for pn, _ in it.payloads)
                   for e in g.entries for it in e.queue)

    if not holds(host.context):
        raise CutError(f"no box holds {c}")
    others = [en for en in payload.context.entries if en.endpoint != a]
    if any(en.typing is None or en.queue for en in others):
        raise CutError("payload spectators must be plain typed entries")
    spect = tuple((en.endpoint, en.typing) for en in others)

    def rebuild(h: Derivation) -> Judged:
        term, prem = h.process, h.premises
        if h.rule == "Tensor" and prem[0].context.has(c):
            # the send consumes the box: its message process meets the payload
            pj, cj = prem
            if len(pj.context.entries) == 2:
                # simp: the gather is exactly the one box; splice
                rho = _align_binders(payload, a, pj.context.get(term.fresh).typing)
                new_term = Send(term.x, a, _rename_everywhere(payload.process, rho), cj.process)
                return Judged(new_term, _swap_box(h.context, c, tuple(
                    (pn, S.rename_targets(pt, rho)) for pn, pt in spect)))
            # general: cut the payload against the message process
            concl = cut_conclusions(payload.context, a, pj.context, c)
            if len(concl) != 1:
                raise CutError(f"inner box cut is not determinate: {len(concl)}")
            inner = box_cut(payload, a, pj, c, concl[0])
            return Judged(Send(term.x, term.fresh, inner, cj.process),
                          _swap_box(h.context, c, spect))
        if not prem:
            raise CutError(f"box never consumed under {h.rule}")
        heads, subs = S.scope(term)
        rebuilt = tuple((bs, rebuild(q).term if holds(q.context) else q.process)
                        for (bs, _), q in zip(subs, prem))
        return Judged(S.from_scope(term, heads, rebuilt), _swap_box(h.context, c, spect))

    out = rebuild(host)
    return check_forwarder(out.term, out.ctx)


def _align_binders(payload: Derivation, a: Endpoint, want: Type) -> dict[str, str]:
    """Renaming of the payload term's binders under which ``a``'s type takes
    the annotation targets of ``want`` (the message type the host expects);
    empty when the two types do not align slot by slot."""
    have = payload.context.get(a).typing
    if erase(have) != erase(want):
        return {}
    names = S.names(payload.process)
    bound = names - S.free_endpoints(payload.process)
    rho: dict[str, str] = {}
    for th, tw in zip(S.slots(have), S.slots(want)):
        if len(th) != len(tw):
            return {}
        for n, m in zip(th, tw):
            if n in bound and n != m and rho.setdefault(n, m) != m:
                return {}
    if len(set(rho.values())) != len(rho) or names & set(rho.values()):
        return {}
    return rho


def _swap_box(g: Context, c: Endpoint, spect: tuple[tuple[str, Type], ...]) -> Context:
    """Replace payload ``c`` in whatever box holds it by the spectator list.

    Every annotation target (in entry and boxed payload types) and queue-item
    target that names ``c`` names the spectators instead.  A multi-target slot
    takes them all; a single-target slot or a queue item can follow only a
    lone spectator, else a CutError names the box and the reference.
    """
    names = tuple(pn for pn, _ in spect)

    def refused(where: str) -> CutError:
        box = next((f"box [to={it.target}] at {e.endpoint}" for e in g.entries
                    for it in e.queue if isinstance(it, MsgBox)
                    and any(pn == c for pn, _ in it.payloads)), "the box")
        return CutError(f"{box} carries {c}, spliced as {len(names)} spectators "
                        f"{list(names)}; the single target {c} in {where} cannot follow")

    def follow(t: Type, where: str) -> Type:
        if len(names) == 1:
            return S.rename_targets(t, {c: names[0]})
        t = S.map_slots(t, lambda s, ts: _splice(ts, c, names)
                        if isinstance(s, S.MULTI_TARGET) and c in ts else ts)
        if any(c in ts for ts in S.slots(t)):
            raise refused(where)
        return t

    def item(it: QueueItem, at: Endpoint) -> QueueItem:
        if it.target == c:
            if len(names) != 1:
                raise refused(f"the queue of {at}")
            it = replace(it, target=names[0])
        if not isinstance(it, MsgBox):
            return it
        return MsgBox(it.target, tuple(pl for pn, pt in it.payloads for pl in (
            spect if pn == c else ((pn, follow(pt, f"payload {pn}")),))))

    return Context(tuple(
        Entry(e.endpoint, tuple(item(it, e.endpoint) for it in e.queue),
              None if e.typing is None else follow(e.typing, e.endpoint))
        for e in g.entries))
