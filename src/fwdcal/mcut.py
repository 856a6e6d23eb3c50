"""Multiparty composition driven by a forwarder.

A configuration composes CP processes through a forwarder that arbitrates all
their bound endpoints, with in-transit message processes parked in a pending
list keyed by the payload endpoint the forwarder queued.  The forwarder's
outermost action selects the next case; a part whose head acts on one of its
own free endpoints first emits that action outside the whole composition.
Reduction terminates in a plain CP process covering the union of the external
environments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import syntax as S
from .syntax import (
    Case, Client, Close, Endpoint, Inl, Inr, Link, Process, Recv, Send, Server, Type,
    Wait, WhyNot, dual, erase, free_endpoints, head_endpoint, rename_free, size,
)
from .contexts import (
    MsgBox, context_size, endpoint_names, rename_context, rename_context_targets,
)
from .checker import CheckError, Env, check_cll, check_forwarder, cp_step
from .cutelim import CutError, FuelExhausted, Judged, Stuck, premises, proc_size


class McutError(CutError):
    pass


@dataclass(frozen=True)
class PartEntry:
    term: Process
    env: Env  # external endpoints
    endpoint: Endpoint  # the bound endpoint this part owns
    typ: Type  # its (plain) type


@dataclass(frozen=True)
class PendingEntry:
    name: Endpoint
    term: Process
    env: Env
    typ: Type


@dataclass(frozen=True)
class MCutConfig:
    bound: tuple[Endpoint, ...]
    fwd: Judged
    pending: tuple[PendingEntry, ...]
    parts: tuple[PartEntry, ...]

    def part_at(self, x: Endpoint) -> PartEntry:
        for p in self.parts:
            if p.endpoint == x:
                return p
        raise Stuck(f"no part owns endpoint {x}")

    def replace_part(self, x: Endpoint, new: PartEntry | None) -> tuple[PartEntry, ...]:
        out = []
        for p in self.parts:
            if p.endpoint == x:
                if new is not None:
                    out.append(new)
            else:
                out.append(p)
        return tuple(out)

    def term(self) -> Process:
        return S.MCut(
            self.bound,
            self.fwd.term,
            tuple((p.name, p.term) for p in self.pending),
            tuple(p.term for p in self.parts),
        )

    def conclusion_env(self) -> Env:
        out: list[tuple[Endpoint, Type]] = []
        seen = set()
        for p in self.pending:
            for n, t in p.env:
                if n not in seen:
                    seen.add(n)
                    out.append((n, erase(t)))
        for p in self.parts:
            for n, t in p.env:
                if n not in seen:
                    seen.add(n)
                    out.append((n, erase(t)))
        return tuple(out)


def check_mcut_config(c: MCutConfig) -> tuple[bool, str]:
    """All configuration invariants; reports the first violated one."""
    if len(set(c.bound)) != len(c.bound):
        return False, "bound endpoints not pairwise distinct"
    if not S.is_cut_free(c.fwd.term):
        return False, "forwarder contains a cut"
    if set(c.fwd.ctx.endpoints()) != set(c.bound):
        return False, "forwarder context must cover exactly the bound endpoints"
    try:
        check_forwarder(c.fwd.term, c.fwd.ctx)
    except CheckError as e:
        return False, f"forwarder does not check: {e}"
    owned = [p.endpoint for p in c.parts]
    if len(set(owned)) != len(owned) or not set(owned) <= set(c.bound):
        return False, "parts must own distinct bound endpoints"
    for p in c.parts:
        e = c.fwd.ctx.get(p.endpoint)
        if e.typing is None or erase(e.typing) != dual(erase(p.typ)):
            return False, f"{p.endpoint}: forwarder and part types are not dual"
        try:
            check_cll(p.term, p.env + ((p.endpoint, p.typ),))
        except CheckError as e2:
            return False, f"part at {p.endpoint} does not check: {e2}"
    names = [p.name for p in c.pending]
    if len(set(names)) != len(names):
        return False, "pending names not distinct"
    for p in c.pending:
        try:
            check_cll(p.term, p.env + ((p.name, p.typ),))
        except CheckError as e2:
            return False, f"pending {p.name} does not check: {e2}"
    boxed: list[tuple[Endpoint, Type]] = []
    for e in c.fwd.ctx.entries:
        for it in e.queue:
            if isinstance(it, MsgBox):
                boxed.extend((pn, erase(pt)) for pn, pt in it.payloads)
    want = sorted((p.name, dual(erase(p.typ))) for p in c.pending)
    if sorted(boxed) != want:
        return False, "queued messages and pending processes disagree"
    for x in c.bound:
        e = c.fwd.ctx.get(x)
        if e.typing is not None and x not in set(owned):
            return False, f"active forwarder endpoint {x} has no part"
    return True, "ok"


@dataclass
class _Runner:
    fuel: int
    trace: list[str] = field(default_factory=list)
    supply: S.FreshNames = field(default_factory=lambda: S.FreshNames())
    steps: int = 0

    def tick(self, tag: str):
        self.trace.append(tag)
        self.steps += 1
        if self.steps > self.fuel:
            raise FuelExhausted("fuel exhausted", tuple(self.trace))


def default_mcut_fuel(c: MCutConfig) -> int:
    n = context_size(c.fwd.ctx) + proc_size(c.fwd.term)
    for p in c.parts:
        n += proc_size(p.term) + size(erase(p.typ))
    for p in c.pending:
        n += proc_size(p.term) + size(erase(p.typ))
    return 8 * (n + 4)


def run_mcut(c: MCutConfig) -> tuple[Process, tuple[str, ...]]:
    """Reduce a configuration to its residual composed process.

    Every step re-establishes the configuration invariants, which are
    checked after each rewrite; the result checks in CP at the union of the
    stored environments.
    """
    c, r = _runner(c)
    ok, why = check_mcut_config(c)
    if not ok:
        raise McutError(f"invalid configuration: {why}")
    term = _run(c, r)
    try:
        check_cll(term, c.conclusion_env())
    except CheckError as e:
        raise McutError(f"final process does not check: {e}")
    return term, tuple(r.trace)


def _run(c: MCutConfig, r: _Runner) -> Process:
    wrappers: list = []
    while True:
        got = _step(c, r)
        match got:
            case ("final", term, tag):
                r.tick(tag)
                out = term
                for w in reversed(wrappers):
                    out = w(out)
                return out
            case ("continue", c2, tag):
                r.tick(tag)
                ok, why = check_mcut_config(c2)
                if not ok:
                    raise McutError(f"invariant broken after {tag}: {why}")
                c = c2
            case ("emit", wrapper, c2, tag):
                r.tick(tag)
                wrappers.append(wrapper)
                ok, why = check_mcut_config(c2)
                if not ok:
                    raise McutError(f"invariant broken after {tag}: {why}")
                c = c2
            case ("fork", mk, cl, cr, tag):
                r.tick(tag)
                lterm = _run(cl, r)
                rterm = _run(cr, r)
                out = mk(lterm, rterm)
                for w in reversed(wrappers):
                    out = w(out)
                return out
            case _:
                raise AssertionError(got)


def mcutq_step(c: MCutConfig):
    """One reduction of a configuration.

    Returns one of ``("final", term, tag)``, ``("continue", config, tag)``,
    ``("emit", wrapper, config, tag)`` for an action that leaves the
    composition, or ``("fork", combine, left, right, tag)`` when an external
    branching action splits the run.
    """
    return _step(*_runner(c))


def _runner(c: MCutConfig) -> tuple[MCutConfig, _Runner]:
    """A runner whose supply avoids every name of the configuration, and the
    configuration with its parts' and pending processes' binders renamed
    apart: binders of independently authored parts may collide once
    composed, and a binder that an emitted action leaves free must not meet
    a free name of another process."""
    names = set(c.bound)
    for p in c.parts:
        names |= free_endpoints(p.term) | {p.endpoint} | {n for n, _ in p.env}
    for p in c.pending:
        names |= free_endpoints(p.term) | {p.name} | {n for n, _ in p.env}
    names |= endpoint_names(c.fwd.ctx)
    r = _Runner(default_mcut_fuel(c), supply=S.FreshNames(frozenset(names)))
    return replace(
        c,
        parts=tuple(replace(p, term=_freshen_binders(p.term, r.supply)) for p in c.parts),
        pending=tuple(replace(p, term=_freshen_binders(p.term, r.supply)) for p in c.pending),
    ), r


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
    ft = c.fwd.term
    if isinstance(ft, Link):
        return _axiom_step(c, r)
    if type(ft) not in _MEETS:
        raise Stuck(f"forwarder head {type(ft).__name__} not handled")
    x = ft.x
    part = c.part_at(x)
    if isinstance(ft, Server) and x not in free_endpoints(part.term):
        # the part discards the server: drop the whole composition
        if c.pending:
            raise Stuck("weakening with pending messages")
        for o in c.parts:
            if o.endpoint != x and not isinstance(erase(o.typ), S.OfCourse):
                raise Stuck("weakening step against a non-server part")
        return ("final", part.term, "Weaken")
    got = _commute_part(c, part, r)
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
            if part.env and not all(isinstance(erase(t), WhyNot) for _, t in part.env):
                raise Stuck("closing part carries non-? externals")
            _, (fj,) = premises(c.fwd)
            return ("continue", replace(c, fwd=fj, parts=c.replace_part(x, None)), "One")
        case Recv():
            return _binder_step(c, part, r, "Tensor")
        case Client():
            return _binder_step(c, part, r, "Bang")
        case Server():
            if x in free_endpoints(part.term.cont):
                return _contract_step(c, part, r)
            return _binder_step(c, part, r, "Quest")
        case Send(_, yb, _, _):
            return _transport_step(c, part, yb, r)
        case Case():
            _, (lj, rj) = premises(c.fwd)
            _, ((ct, ct_env),) = cp_step(part.term, part.env + ((x, part.typ),))
            fj = lj if isinstance(part.term, Inl) else rj
            return ("continue", replace(c, fwd=fj, parts=c.replace_part(
                x, _own(ct, ct_env, x))), "Plus")
        case Inl() | Inr():
            _, (fj,) = premises(c.fwd)
            _, (left, right) = cp_step(part.term, part.env + ((x, part.typ),))
            ct, ct_env = left if isinstance(ft, Inl) else right
            return ("continue", replace(c, fwd=fj, parts=c.replace_part(
                x, _own(ct, ct_env, x))), "With")


def _axiom_step(c: MCutConfig, r: _Runner):
    a, b = c.fwd.term.x, c.fwd.term.y
    pa, pb = c.part_at(a), c.part_at(b)
    got = _commute_part(c, pa, r)
    if got is not None:
        return got
    got = _commute_part(c, pb, r)
    if got is not None:
        return got
    if not isinstance(pa.term, Link) or not isinstance(pb.term, Link):
        raise Stuck("axiom forwarder against non-link parts")
    za = pa.term.y if pa.term.x == a else pa.term.x
    zb = pb.term.y if pb.term.x == b else pb.term.x
    ta = dict(pa.env)[za]
    link = Link(za, zb) if isinstance(erase(ta), S.DualAtom) else Link(zb, za)
    if len(c.parts) != 2 or c.pending:
        raise Stuck("axiom case with leftover parts or pending messages")
    return ("final", link, "Ax")


def _own(term: Process, env: Env, x: Endpoint, typ: Type | None = None) -> PartEntry:
    """The part running ``term`` at ``env``, which owns ``x`` (typed ``typ``,
    or as ``env`` has it)."""
    return PartEntry(term, tuple((n, t) for n, t in env if n != x), x,
                     dict(env)[x] if typ is None else typ)


def _binder_step(c: MCutConfig, part: PartEntry, r: _Runner, tag: str):
    """The forwarder's head and the part's both bind a name: a message, or a
    server's or a client's copy.  Both take one fresh name ``g``, and the
    part's premise under the binder goes on at ``g``: a message waits as a
    pending process while the continuation stays the part at ``x``; a copy
    becomes the part that owns ``g`` in place of ``x``."""
    x, f = part.endpoint, part.term.fresh
    g = r.supply.fresh(c.fwd.term.fresh)
    _, (fj,) = premises(_rename_binder(c.fwd, g))
    _, ((q, h), *rest) = cp_step(part.term, part.env + ((x, part.typ),))
    moved = _own(rename_free(q, {f: g}), tuple((g if n == f else n, t) for n, t in h), g)
    if rest:
        ((ct, ct_env),) = rest
        pend = c.pending + (PendingEntry(g, moved.term, moved.env, moved.typ),)
        return ("continue", replace(c, fwd=fj, pending=pend,
                                    parts=c.replace_part(x, _own(ct, ct_env, x))), tag)
    bound = tuple(g if b == x else b for b in c.bound)
    return ("continue", MCutConfig(bound, fj, c.pending, c.replace_part(x, moved)), tag)


def _transport_step(c: MCutConfig, part: PartEntry, yb: Endpoint, r: _Runner):
    """The forwarder sends on ``x`` what it gathered and the part receives it
    as ``g``: the transported forwarder composes the part's continuation with
    the pending processes of the gathered messages, and the result becomes
    the part at ``x``."""
    x = part.endpoint
    g = r.supply.fresh(part.term.fresh)
    _, (sj, qj) = premises(c.fwd)
    # rename the transported forwarder's fresh endpoint to g
    sj = Judged(rename_free(sj.term, {yb: g}), rename_context(sj.ctx, {yb: g}))
    cohort = [e.endpoint for e in sj.ctx.entries if e.endpoint != g]
    inner_parts = []
    consumed = []
    for z in cohort:
        pe = next((p for p in c.pending if p.name == z), None)
        if pe is None:
            raise Stuck(f"gathered message {z} has no pending process")
        consumed.append(pe)
        inner_parts.append(PartEntry(pe.term, pe.env, z, pe.typ))
    _, ((ct_term, ct_env),) = cp_step(part.term, part.env + ((x, part.typ),))
    ct = rename_free(ct_term, {part.term.fresh: g})
    part0 = _own(ct, tuple((g if n == part.term.fresh else n, t) for n, t in ct_env), g)
    inner = MCutConfig((g,) + tuple(cohort), sj, (), (part0,) + tuple(inner_parts))
    s_in = _run(inner, r)
    outer_env = tuple((n, t) for n, t in part0.env if n != x)
    for pe in consumed:
        outer_env += pe.env
    newpart = PartEntry(s_in, outer_env, x, dict(part0.env)[x])
    pend = tuple(p for p in c.pending if p not in consumed)
    return ("continue", replace(c, fwd=qj, pending=pend,
                                parts=c.replace_part(x, newpart)), "Par")


def _rename_binder(fwd: Judged, g: Endpoint) -> Judged:
    """Rename the binder of the forwarder's head action to ``g``.

    Annotations may forward-reference a term binder, so its targets follow,
    unless the name is taken by an actual entry.
    """
    heads, ((bs, q),) = S.scope(fwd.term)
    (b,) = bs
    term = S.from_scope(fwd.term, heads, (((g,), rename_free(q, {b: g})),))
    return Judged(term, fwd.ctx if fwd.ctx.has(b) else rename_context_targets(fwd.ctx, {b: g}))


def _commute_part(c: MCutConfig, part: PartEntry, r: _Runner):
    """Emit the part's head action when it is on one of its own external
    endpoints; None when the head is on the bound endpoint.

    The premises whose environment holds the part's bound endpoint stay in
    the composition; the others leave it with the action.  With one such
    premise the action is emitted around the rest of the run; with two (the
    branches of a case) the run forks, one composition per premise.
    """
    term = part.term
    x = part.endpoint
    head = head_endpoint(term)
    if head is None or head == x:
        return None
    if head not in dict(part.env):
        raise Stuck(f"part at {x} acts on unknown endpoint {head}")
    _, prem = cp_step(term, part.env + ((x, part.typ),))
    heads, subs = S.scope(term)
    stay = [i for i, (_, h) in enumerate(prem) if any(n == x for n, _ in h)]

    def wrap(*inner: Process) -> Process:
        fill = dict(zip(stay, inner))
        return S.from_scope(term, heads, tuple(
            (bs, fill.get(i, q)) for i, (bs, q) in enumerate(subs)))

    runs = [replace(c, parts=c.replace_part(x, _own(prem[i][0], prem[i][1], x, part.typ)))
            for i in stay]
    if len(runs) == 1:
        return ("emit", wrap, runs[0], "comm")
    return ("fork", wrap, *runs, "comm")


def _contract_step(c: MCutConfig, part: PartEntry, r: _Runner):
    """Server duplication: the part re-uses the bound server endpoint, so the
    whole server composition is copied; the copy serves the later uses."""
    x = part.endpoint
    assert isinstance(part.term, Client)
    x2 = r.supply.fresh(x)
    inner_term = Client(x, part.term.fresh, rename_free(part.term.cont, {x: x2}))
    inner_part = PartEntry(inner_term, part.env + ((x2, erase(part.typ)),), x, part.typ)
    inner = replace(c, parts=c.replace_part(x, inner_part))

    # fresh copy of the server composition for the leftover uses
    ren: dict[str, str] = {x: x2}
    for b in c.bound:
        if b != x:
            ren[b] = r.supply.fresh(b)
    fwd2 = Judged(rename_free(c.fwd.term, ren), rename_context(c.fwd.ctx, ren))
    copy_parts = []
    for p in c.parts:
        if p.endpoint == x:
            continue
        copy_parts.append(PartEntry(_freshen_binders(p.term, r.supply), p.env,
                                    ren[p.endpoint], p.typ))
    s_in = _run(inner, r)
    outer_part = _own(s_in, inner.conclusion_env(), x2, part.typ)
    outer = MCutConfig(tuple(ren[b] for b in c.bound), fwd2, (),
                       (outer_part,) + tuple(copy_parts))
    return ("continue", outer, "Contract")


def _freshen_binders(p: Process, supply: S.FreshNames) -> Process:
    heads, subs = S.scope(p)
    ren = {b: supply.fresh(b) for b in dict.fromkeys(b for bs, _ in subs for b in bs)}
    out = []
    for bs, q in subs:
        q = rename_free(q, {b: ren[b] for b in bs})
        out.append((tuple(ren[b] for b in bs), _freshen_binders(q, supply)))
    return S.from_scope(p, heads, tuple(out))
