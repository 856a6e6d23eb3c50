"""Multiparty composition driven by a forwarder.

A configuration composes CP processes through a forwarder that arbitrates all
their bound endpoints, with in-transit message processes parked in a pending
list keyed by the payload endpoint the forwarder queued.  The forwarder's
outermost action selects the next case; a part whose head acts on one of its
own free endpoints first emits that action outside the whole composition.
Reduction terminates in a plain CP process covering the union of the external
environments.

A run walks the derivations of its processes.  Its names are fixed and its
part types erased when it starts (``_start``); after that the forwarder is
never renamed, and a step that binds a name renames the part's binder to the
forwarder's.  Each invariant is established where it can change:

* a configuration from outside is checked in full, which derives its
  forwarder and, in CP, each part and pending process;
* a later forwarder, part or pending process that a step takes from a
  premise carries that premise as its derivation.  One under the part's
  binder carries the premise renamed to the forwarder's binder
  (``Derivation.rename``: renaming is equivariant).  One the step composes
  or copies is checked anew;
* after a step, the structural invariants are checked (distinct names,
  duality, boxes against pending processes, a part for every active
  endpoint), and so is each configuration a step runs inside it.  Duality
  is checked for each part the step replaced or whose forwarder typing it
  changed;
* the residual process is checked in CP at the external environments.

An emitted server wraps the rest of the run in CP's ! rule, which needs
every other endpoint ?-typed: another part's action on an endpoint that is
not ?-typed is emitted first (``_commute``).
"""

from __future__ import annotations

from . import syntax as S
from .syntax import (
    Case, Client, Close, Endpoint, Inl, Inr, Link, Process, Recv, Send, Server, Type,
    Wait, WhyNot, erase, free_endpoints, head_endpoint, is_dual, rename_free, size,
)
from .contexts import MsgBox, context_size, rename_context
from .records import record, replace, uncompared
from .checker import CheckError, Derivation, Env, check_cll, check_forwarder
from .cutelim import (
    CutError, FuelExhausted, Judged, Stuck, freshen_judgement, judgement_names, proc_size,
)


class McutError(CutError):
    pass


@record
class PartEntry:
    """A part, or a pending message process named by its payload endpoint."""

    term: Process
    env: Env  # external endpoints
    endpoint: Endpoint  # the bound endpoint this part owns, or the payload
    typ: Type  # its (plain) type
    deriv: Derivation | None = uncompared(None)  # CP, once checked


@record
class MCutConfig:
    bound: tuple[Endpoint, ...]
    fwd: Judged | Derivation  # a Judged as given; a run holds its derivation
    pending: tuple[PartEntry, ...]
    parts: tuple[PartEntry, ...]

    def part_at(self, x: Endpoint) -> PartEntry:
        for p in self.parts:
            if p.endpoint == x:
                return p
        raise Stuck(f"no part owns endpoint {x}")

    def replace_part(self, x: Endpoint, new: PartEntry | None) -> tuple[PartEntry, ...]:
        return tuple(p if p.endpoint != x else new for p in self.parts
                     if p.endpoint != x or new is not None)

    def conclusion_env(self) -> Env:
        out: dict[Endpoint, Type] = {}
        for p in self.pending + self.parts:
            for n, t in p.env:
                if n not in out:
                    out[n] = t
        return tuple(out.items())


class McutStats:
    """What a run did: its steps, the forwarder derivations it built, and the
    parts and pending processes it checked in CP: those given, and those a
    step composes (a transport's result, the composition a Contract step
    serves) or copies (a Contract step's client and server copies).  A part
    a step takes from a premise, renamed or not, carries its derivation."""

    __slots__ = ("steps", "forwarder_checks", "part_checks")

    def __init__(self):
        self.steps = self.forwarder_checks = self.part_checks = 0


def _check(c: MCutConfig, stats: McutStats, before: MCutConfig | None = None) -> MCutConfig:
    """``c`` with the derivations of its forwarder, its parts and its pending
    processes; an McutError names the first invariant it breaks.

    A forwarder that is still a Judged is checked here; a Derivation is a
    premise of one checked before.  A part or pending process keeps a
    derivation of its term at its typing, and is checked in CP otherwise.
    ``before`` is the checked configuration the step that made ``c`` started
    from: a part it holds as the same object, at the same forwarder typing
    object, is dual to that typing already.
    """
    if len(set(c.bound)) != len(c.bound):
        raise McutError("bound endpoints not pairwise distinct")
    judged = isinstance(c.fwd, Judged)
    ctx = c.fwd.ctx if judged else c.fwd.context
    if set(ctx.endpoints()) != set(c.bound):
        raise McutError("forwarder context must cover exactly the bound endpoints")
    if judged:
        c = replace(c, fwd=_derive(c.fwd, stats))
    owned = {p.endpoint for p in c.parts}
    if len(owned) != len(c.parts) or not owned <= set(c.bound):
        raise McutError("parts must own distinct bound endpoints")
    kept = {} if before is None else {
        id(p): before.fwd.context.get(p.endpoint).typing for p in before.parts}
    for p in c.parts:
        t = ctx.get(p.endpoint).typing
        if t is None or (kept.get(id(p)) is not t and not is_dual(t, p.typ)):
            raise McutError(f"{p.endpoint}: forwarder and part types are not dual")
    # each boxed payload takes the pending process of its name, of dual type
    unmatched = {p.endpoint: p.typ for p in c.pending}
    if len(unmatched) != len(c.pending):
        raise McutError("pending names not distinct")
    for e in ctx.entries:
        for it in e.queue:
            if isinstance(it, MsgBox):
                for pn, pt in it.payloads:
                    if pn not in unmatched or not is_dual(pt, unmatched.pop(pn)):
                        raise McutError("queued messages and pending processes disagree")
    if unmatched:
        raise McutError("queued messages and pending processes disagree")
    for x in c.bound:
        if ctx.get(x).typing is not None and x not in owned:
            raise McutError(f"active forwarder endpoint {x} has no part")
    return replace(c, parts=tuple(_certify(p, "part at", stats) for p in c.parts),
                   pending=tuple(_certify(p, "pending", stats) for p in c.pending))


def _certify(p: PartEntry, what: str, stats: McutStats) -> PartEntry:
    """``p`` with a CP derivation of its term at its typing: its own if it
    has one, else the one ``check_cll`` builds."""
    typing = p.env + ((p.endpoint, p.typ),)
    d = p.deriv
    if d is not None and d.process is p.term and dict(d.context) == dict(typing):
        return p
    stats.part_checks += 1
    try:
        return replace(p, deriv=check_cll(p.term, typing))
    except CheckError as e:
        raise McutError(f"{what} {p.endpoint} does not check: {e}") from None


def _derive(j: Judged, stats: McutStats) -> Derivation:
    stats.forwarder_checks += 1
    try:
        return check_forwarder(j.term, j.ctx)
    except CheckError as e:
        raise McutError(f"forwarder does not check: {e}") from None


class _Runner:
    __slots__ = ("fuel", "supply", "stats", "trace")

    def __init__(self, fuel: int, supply: S.FreshNames, stats: McutStats):
        self.fuel, self.supply, self.stats = fuel, supply, stats
        self.trace: list[str] = []

    def tick(self, tag: str):
        self.trace.append(tag)
        self.stats.steps += 1
        if len(self.trace) > self.fuel:
            raise FuelExhausted("fuel exhausted", tuple(self.trace))


def run_mcut(c: MCutConfig, stats: McutStats | None = None) -> tuple[Process, tuple[str, ...]]:
    """Reduce a configuration to its residual composed process.

    Each invariant is checked where it can change (see the module
    docstring); the result checks in CP at the union of the stored
    environments.  ``stats``, when given, counts what the run did, also
    when it fails.
    """
    c, r = _start(c, stats or McutStats())
    term = _run(c, r)
    try:
        check_cll(term, c.conclusion_env())
    except CheckError as e:
        raise McutError(f"final process does not check: {e}")
    return term, tuple(r.trace)


def _run(c: MCutConfig, r: _Runner) -> Process:
    """Run the checked configuration ``c`` to its residual process."""
    wrappers: list = []
    while True:
        match _checked_step(c, r):
            case ("final", out, _):
                break
            case ("fork", mk, cl, cr, _):
                out = mk(_run(cl, r), _run(cr, r))
                break
            case ("emit", wrapper, c, _):
                wrappers.append(wrapper)
            case ("continue", c, _):
                pass
    for w in reversed(wrappers):
        out = w(out)
    return out


def _checked_step(c: MCutConfig, r: _Runner):
    """One step of the checked configuration ``c``, each configuration it
    returns checked."""
    got = _step(c, r)
    tag = got[-1]
    r.tick(tag)
    return tuple(_check_after(tag, v, r.stats, c) if isinstance(v, MCutConfig) else v
                 for v in got)


def _check_after(tag: str, c: MCutConfig, stats: McutStats,
                 before: MCutConfig | None = None) -> MCutConfig:
    try:
        return _check(c, stats, before)
    except McutError as e:
        raise McutError(f"invariant broken after {tag}: {e}") from None


def mcutq_step(c: MCutConfig, stats: McutStats | None = None):
    """One reduction of a configuration, checked in full first.

    Returns one of ``("final", term, tag)``, ``("continue", config, tag)``,
    ``("emit", wrapper, config, tag)`` for an action that leaves the
    composition, or ``("fork", combine, left, right, tag)`` when an external
    branching action splits the run.  Each returned configuration, both
    branches of a fork included, is checked as a run checks it after a step,
    and holds the derivations of its forwarder and its processes.
    """
    return _checked_step(*_start(c, stats or McutStats()))


def _start(c: MCutConfig, stats: McutStats) -> tuple[MCutConfig, _Runner]:
    """Fix the run's names and erase its part types, then check the
    configuration in full.

    The forwarder is renamed apart from the parts' and pending processes'
    free names, bar the bound endpoints and pending names it shares with
    them.  Their binders are then renamed apart from every name, the
    forwarder's included: independently authored binders may collide once
    composed, and a binder an emitted action leaves free must not meet
    another free name.  The runner's supply avoids every name.
    """
    shared = set(c.bound) | {p.endpoint for p in c.pending}
    names = set(shared)
    for p in c.parts + c.pending:
        names |= free_endpoints(p.term) | {n for n, _ in p.env}
    fwd = c.fwd if isinstance(c.fwd, Judged) else Judged(c.fwd.process, c.fwd.context)
    fwd = freshen_judgement(fwd, frozenset(names - shared))
    supply = S.FreshNames(frozenset(names | judgement_names(fwd)))
    fixed = tuple(PartEntry(_freshen_binders(p.term, supply), tuple(
        (n, erase(t)) for n, t in p.env), p.endpoint, erase(p.typ)) for p in c.parts + c.pending)
    k = len(c.parts)
    c = MCutConfig(c.bound, fwd, fixed[k:], fixed[:k])
    try:
        c = _check(c, stats)
    except McutError as e:
        raise McutError(f"invalid configuration: {e}") from None
    return c, _Runner(_fuel(c), supply, stats)


def _fuel(c: MCutConfig) -> int:
    n = sum(proc_size(p.term) + size(p.typ) for p in c.parts + c.pending)
    return 8 * (n + context_size(c.fwd.context) + proc_size(c.fwd.process) + 4)


# For each forwarder head: the part head that meets it on the same endpoint,
# and what the forwarder does there (for the error when the part does not).
_MEETS = {
    Close: (Wait, "closes {x} but the part does not wait"),
    Wait: (Close, "waits on {x} but the part does not close"),
    Recv: (Send, "receives on {x} but the part does not send"),
    Send: (Recv, "sends on {x} but the part does not receive"),
    Case: ((Inl, Inr), "branches on {x} but the part does not select"),
    Inl: (Case, "selects on {x} but the part does not branch"),
    Inr: (Case, "selects on {x} but the part does not branch"),
    Client: (Server, "queries {x} but the part is no server"),
    Server: (Client, "serves {x} but the part is no client"),
}


def _step(c: MCutConfig, r: _Runner):
    ft = c.fwd.process
    if isinstance(ft, Link):
        return _axiom_step(c)
    if type(ft) not in _MEETS:
        raise Stuck(f"forwarder head {type(ft).__name__} not handled")
    x = ft.x
    part = c.part_at(x)
    if isinstance(ft, Server) and x not in free_endpoints(part.term):
        # the part discards the server: drop the whole composition
        if c.pending:
            raise Stuck("weakening with pending messages")
        for o in c.parts:
            if o.endpoint != x and not isinstance(o.typ, S.OfCourse):
                raise Stuck("weakening step against a non-server part")
        return ("final", part.term, "Weaken")
    got = _commute(c, part)
    if got is not None:
        return got
    want, what = _MEETS[type(ft)]
    if not isinstance(part.term, want) or part.term.x != x:
        raise Stuck("forwarder " + what.format(x=x))
    match ft:
        case Close():
            if len(c.parts) != 1 or c.pending:
                raise Stuck("closing step with leftover parts or pending messages")
            return ("final", part.term.cont, "Bot")
        case Wait():
            if part.env and not all(isinstance(t, WhyNot) for _, t in part.env):
                raise Stuck("closing part carries non-? externals")
            (fj,) = c.fwd.premises
            return ("continue", replace(c, fwd=fj, parts=c.replace_part(x, None)), "One")
        case Recv():
            return _binder_step(c, part, "Tensor")
        case Client():
            return _binder_step(c, part, "Bang")
        case Server():
            if x in free_endpoints(part.term.cont):
                return _contract_step(c, part, r)
            return _binder_step(c, part, "Quest")
        case Send():
            return _transport_step(c, part, r)
        case Case():
            lj, rj = c.fwd.premises
            (q,) = _premises(part)
            fj = lj if isinstance(part.term, Inl) else rj
            return ("continue", replace(c, fwd=fj, parts=c.replace_part(x, _own(q, x))), "Plus")
        case Inl() | Inr():
            (fj,) = c.fwd.premises
            left, right = _premises(part)
            q = left if isinstance(ft, Inl) else right
            return ("continue", replace(c, fwd=fj, parts=c.replace_part(x, _own(q, x))), "With")


def _axiom_step(c: MCutConfig):
    a, b = c.fwd.process.x, c.fwd.process.y
    pa, pb = c.part_at(a), c.part_at(b)
    for p in (pa, pb):
        got = _commute(c, p)
        if got is not None:
            return got
    if not isinstance(pa.term, Link) or not isinstance(pb.term, Link):
        raise Stuck("axiom forwarder against non-link parts")
    za = pa.term.y if pa.term.x == a else pa.term.x
    zb = pb.term.y if pb.term.x == b else pb.term.x
    ta = dict(pa.env)[za]
    link = Link(za, zb) if isinstance(ta, S.DualAtom) else Link(zb, za)
    if len(c.parts) != 2 or c.pending:
        raise Stuck("axiom case with leftover parts or pending messages")
    return ("final", link, "Ax")


def _premises(part: PartEntry) -> tuple[Derivation, ...]:
    """The premises of the CP rule the part's head names, read off its
    derivation."""
    d = part.deriv
    while d.rule == "Contract":
        (d,) = d.premises
    return d.premises


def _own(d: Derivation, x: Endpoint) -> PartEntry:
    """The part that the premise ``d`` derives, which owns ``x``."""
    env = d.context
    return PartEntry(d.process, tuple((n, t) for n, t in env if n != x), x, dict(env)[x], d)


def _under(d: Derivation, f: Endpoint, g: Endpoint) -> PartEntry:
    """The part that the premise ``d`` under the part's binder ``f`` derives,
    renamed to the forwarder's binder ``g``, which it owns; it carries the
    renamed derivation."""
    return _own(d.rename({f: g}), g)


def _binder_step(c: MCutConfig, part: PartEntry, tag: str):
    """The forwarder's head and the part's both bind a name: a message, or a
    server's or a client's copy.  The part's premise under its binder goes on
    at the forwarder's binder ``g``: a message waits as a pending process
    while the continuation stays the part at ``x``; a copy becomes the part
    that owns ``g`` in place of ``x``."""
    x, g = part.endpoint, c.fwd.process.fresh
    (fj,) = c.fwd.premises
    q, *rest = _premises(part)
    moved = _under(q, part.term.fresh, g)
    if rest:
        (ct,) = rest
        return ("continue", replace(c, fwd=fj, pending=c.pending + (moved,),
                                    parts=c.replace_part(x, _own(ct, x))), tag)
    bound = tuple(g if b == x else b for b in c.bound)
    return ("continue", MCutConfig(bound, fj, c.pending, c.replace_part(x, moved)), tag)


def _transport_step(c: MCutConfig, part: PartEntry, r: _Runner):
    """The forwarder sends on ``x`` what it gathered, binding ``g``, and the
    part receives it, its binder renamed to ``g``: the transported forwarder
    composes the part's continuation with the pending processes of the
    gathered messages, and the result becomes the part at ``x``.  That
    composition is checked before it runs."""
    x, g = part.endpoint, c.fwd.process.fresh
    sj, qj = c.fwd.premises
    cohort = [e.endpoint for e in sj.context.entries if e.endpoint != g]
    consumed = []
    for z in cohort:
        pe = next((p for p in c.pending if p.endpoint == z), None)
        if pe is None:
            raise Stuck(f"gathered message {z} has no pending process")
        consumed.append(pe)
    (ct,) = _premises(part)
    part0 = _under(ct, part.term.fresh, g)
    inner = MCutConfig((g, *cohort), sj, (), (part0, *consumed))
    s_in = _run(_check_after("Par", inner, r.stats), r)
    outer_env = tuple((n, t) for n, t in part0.env if n != x)
    outer_env += sum((pe.env for pe in consumed), ())
    newpart = PartEntry(s_in, outer_env, x, dict(part0.env)[x])
    pend = tuple(p for p in c.pending if p.endpoint not in cohort)
    return ("continue", replace(c, fwd=qj, pending=pend,
                                parts=c.replace_part(x, newpart)), "Par")


def _commute(c: MCutConfig, part: PartEntry):
    """Emit an external action of ``part``, or, when that is a server, one
    of another part's on an endpoint that is not ?-typed: CP's ! rule
    needs every other endpoint of the run it wraps ?-typed.  None when
    ``part``'s head is on its bound endpoint."""
    if isinstance(part.term, Server) and part.term.x != part.endpoint:
        for o in c.parts:
            env, h = dict(o.env), head_endpoint(o.term)
            if o.endpoint != part.endpoint and h in env and not isinstance(env[h], WhyNot):
                return _commute_part(c, o)
    return _commute_part(c, part)


def _commute_part(c: MCutConfig, part: PartEntry):
    """Emit the part's head action when it is on one of its own external
    endpoints; None when the head is on the bound endpoint.

    The premises whose environment holds the part's bound endpoint stay in
    the composition; the others leave it with the action.  With one such
    premise the action is emitted around the rest of the run; with two (the
    branches of a case) the run forks, one composition per premise.
    """
    term, x = part.term, part.endpoint
    head = head_endpoint(term)
    if head is None or head == x:
        return None
    if head not in dict(part.env):
        raise Stuck(f"part at {x} acts on unknown endpoint {head}")
    prem = _premises(part)
    heads, subs = S.scope(term)
    stay = [i for i, q in enumerate(prem) if any(n == x for n, _ in q.context)]

    def wrap(*inner: Process) -> Process:
        fill = dict(zip(stay, inner))
        return S.from_scope(term, heads, tuple(
            (bs, fill.get(i, q)) for i, (bs, q) in enumerate(subs)))

    runs = [replace(c, parts=c.replace_part(x, _own(prem[i], x))) for i in stay]
    if len(runs) == 1:
        return ("emit", wrap, runs[0], "comm")
    return ("fork", wrap, *runs, "comm")


def _contract_step(c: MCutConfig, part: PartEntry, r: _Runner):
    """Server duplication: the part re-uses the bound server endpoint, so the
    whole server composition is copied; the copy serves the later uses.  Its
    forwarder is a renamed judgement, so it is checked where it is made; the
    composition that serves the first use is checked before it runs."""
    x = part.endpoint
    assert isinstance(part.term, Client)
    x2 = r.supply.fresh(x)
    inner_term = Client(x, part.term.fresh, rename_free(part.term.cont, {x: x2}))
    inner_part = PartEntry(inner_term, part.env + ((x2, part.typ),), x, part.typ)
    inner = replace(c, parts=c.replace_part(x, inner_part))

    # fresh copy of the server composition for the leftover uses
    ren = {x: x2} | {b: r.supply.fresh(b) for b in c.bound if b != x}
    fwd2 = _derive(Judged(rename_free(c.fwd.process, ren), rename_context(c.fwd.context, ren)),
                   r.stats)
    # each copy acts on its renamed endpoint, its binders fresh
    copies = tuple(
        PartEntry(_freshen_binders(rename_free(p.term, {p.endpoint: ren[p.endpoint]}), r.supply),
                  p.env, ren[p.endpoint], p.typ)
        for p in c.parts if p.endpoint != x)
    served = _run(_check_after("Contract", inner, r.stats, c), r)
    outer_part = PartEntry(served, tuple((n, t) for n, t in inner.conclusion_env() if n != x2),
                           x2, part.typ)
    outer = MCutConfig(tuple(ren[b] for b in c.bound), fwd2, (), (outer_part,) + copies)
    return ("continue", outer, "Contract")


def _freshen_binders(p: Process, supply: S.FreshNames,
                     ren: dict[Endpoint, Endpoint] | None = None) -> Process:
    """``p`` with each binder renamed to a fresh name of ``supply``, in one
    pass: ``ren`` maps the binders in scope to their fresh names.  A node's
    binders are named before those of its subterms, in field order."""
    ren = ren or {}
    heads, subs = S.scope(p)
    new = {b: supply.fresh(b) for b in dict.fromkeys(b for bs, _ in subs for b in bs)}
    return S.from_scope(p, tuple(ren.get(h, h) for h in heads), tuple(
        (tuple(new[b] for b in bs),
         _freshen_binders(q, supply, ren | {b: new[b] for b in bs} if bs else ren))
        for bs, q in subs))
