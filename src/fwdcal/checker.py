"""Judgement checking and synthesis.

Two judgements live here, each with one rule table.  ``forwarder_step`` is
the queue-annotated forwarder system: a receive enqueues a boxed item aimed
at the endpoint that must relay it, and a send pops matching boxes.
``cp_step`` is plain CP typing over an erased environment.  Given a term and
a context, each applies the rule the term's head names and returns the
premise judgements; everything else is built on them.  ``check_forwarder``
and ``check_cll`` fold them over a term (``check_cll`` erases its
environment once, and adds the weakening and contraction steps the term
forces), ``synth_forwarder`` decides derivability by proof search that fires
``forwarder_step`` (the rules are invertible, so search never backtracks
over rule order on fully annotated contexts), and ``synth_context`` extends
the search with lazy resolution of missing annotations.  The cut and
composition engines read their premises off the derivations of the two
folds.

Queues are read per target.  The ⊗, ⊕ and ? rules acting at ``x`` read the
first item aimed at ``x`` in the queue of each endpoint they consult, not
the head of the whole queue: items aimed at distinct endpoints commute, as
compat's per-target FIFOs have it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, starmap
from typing import Iterator

from . import syntax as S
from .syntax import (
    Atom, Bot, Case, Client, Close, Cut, DualAtom, Inl, Inr, Link, OfCourse,
    One, Par, Plus, Process, Recv, Send, Server, Tensor, Type, Wait, WhyNot, With,
    dual, erase, free_endpoints,
)
from .contexts import (
    Context, Entry, LeftTok, MsgBox, Query, Queue, RightTok, Star, context_fully_annotated,
    endpoint_names, first_destined, map_context, msgbox, normalize_context,
    rename_context_targets, target_names,
)

Env = tuple[tuple[str, Type], ...]


class CheckError(Exception):
    pass


class NotAnnotated(CheckError):
    pass


class RuleMismatch(CheckError):
    pass


class QueueHeadMismatch(CheckError):
    pass


class LeftoverQueue(CheckError):
    pass


class NonEmptyTargetViolation(CheckError):
    pass


class UnusedEndpoint(CheckError):
    pass


class CutFormulaError(CheckError):
    pass


@dataclass(frozen=True)
class Derivation:
    rule: str
    process: Process
    context: Context | Env
    premises: tuple[Derivation, ...]

    def rules_preorder(self) -> tuple[str, ...]:
        out = [self.rule]
        for p in self.premises:
            out.extend(p.rules_preorder())
        return tuple(out)


# ---------------------------------------------------------------------------
# Forwarder system


def forwarder_step(p: Process, g: Context) -> tuple[str, tuple[tuple[Process, Context], ...]]:
    """One rule of the forwarder system, term-directed.

    Returns the rule tag and the premise judgements, or raises a CheckError
    naming the first mismatch.
    """
    match p:
        case Link(x, y):
            if set(g.endpoints()) != {x, y}:
                raise RuleMismatch(f"Ax needs exactly the endpoints {x},{y}")
            ex, ey = g.get(x), g.get(y)
            if ex.queue or ey.queue:
                raise LeftoverQueue("Ax requires empty queues")
            match ex.typing, ey.typing:
                case (DualAtom(a), Atom(b)) if a == b:
                    return "Ax", ()
            raise RuleMismatch(f"Ax needs {x}:~a and {y}:a, got {ex.typing} and {ey.typing}")

        case Close(x):
            e = _active(g, x)
            match e.typing:
                case One(ts):
                    if not ts:
                        raise NonEmptyTargetViolation("rule 1 needs a nonempty target set")
                    if e.queue:
                        raise LeftoverQueue(f"1 requires an empty queue at {x}")
                    others = [o for o in g.entries if o.endpoint != x]
                    if set(ts) != {o.endpoint for o in others}:
                        raise RuleMismatch(
                            f"1 at {x} must gather every other endpoint, got {ts}"
                        )
                    for o in others:
                        if o.typing is not None:
                            raise RuleMismatch(f"1 needs {o.endpoint} terminated")
                        if o.queue != (Star(x),):
                            raise LeftoverQueue(
                                f"{o.endpoint} must hold exactly one star for {x}"
                            )
                    return "One", ()
            raise RuleMismatch(f"close {x} needs {x}:1, got {e.typing}")

        case Wait(x, cont):
            e = _active(g, x)
            match e.typing:
                case Bot(u) if u is not None:
                    g2 = g.replace(x, Entry(x, e.queue + (Star(u),), None))
                    return "Bot", ((cont, g2),)
            raise RuleMismatch(f"wait {x} needs {x}:bot with a target, got {e.typing}")

        case Recv(x, f, cont):
            e = _active(g, x)
            match e.typing:
                case Par(a, b, u) if u is not None:
                    if f in endpoint_names(g):
                        raise RuleMismatch(f"received name {f} is not fresh")
                    g2 = g.replace(x, Entry(x, e.queue + (msgbox(u, f, a),), b))
                    return "Par", ((cont, g2),)
            raise RuleMismatch(f"recv on {x} needs {x}:A|{{u}}B, got {e.typing}")

        case Send(x, f, payload, cont):
            e = _active(g, x)
            match e.typing:
                case Tensor(a, b, ts):
                    if not ts:
                        raise NonEmptyTargetViolation("rule * needs a nonempty target set")
                    if f in endpoint_names(g):
                        raise RuleMismatch(f"sent name {f} is not fresh")
                    gathered: list[tuple[str, Type]] = []
                    g2 = g
                    for u in ts:
                        if u == x or not g.has(u):
                            raise RuleMismatch(f"* target {u} not in context")
                        if not g2.get(u).queue:
                            raise QueueHeadMismatch(f"empty queue at {u}, * at {x} expects a box")
                        head, g2 = _pop_for(g2, u, x)
                        if not head or not isinstance(head[0], MsgBox):
                            raise QueueHeadMismatch(
                                f"head of {u}'s queue must be a message for {x}, "
                                f"got {head[0] if head else None}"
                            )
                        gathered.extend(head[0].payloads)
                    names = [n for n, _ in gathered] + [f]
                    if len(set(names)) != len(names):
                        raise RuleMismatch(f"gathered payload names clash: {names}")
                    left = Context(tuple(Entry(n, (), t) for n, t in gathered) + (Entry(f, (), a),))
                    ex2 = g2.get(x)
                    right = g2.replace(x, Entry(x, ex2.queue, b))
                    return "Tensor", ((payload, left), (cont, right))
            raise RuleMismatch(f"send on {x} needs {x}:A*{{u}}B, got {e.typing}")

        case Inl(x, cont) | Inr(x, cont):
            e = _active(g, x)
            want_left = isinstance(p, Inl)
            match e.typing:
                case Plus(a, b, z) if z is not None:
                    if not g.has(z):
                        raise RuleMismatch(f"+ target {z} not in context")
                    tok = LeftTok(x) if want_left else RightTok(x)
                    head, g2 = _pop_for(g, z, x)
                    if head != (tok,):
                        raise QueueHeadMismatch(f"head of {z}'s queue must be {tok}, got {head}")
                    g2 = g2.replace(x, Entry(x, e.queue, a if want_left else b))
                    return ("PlusL" if want_left else "PlusR"), ((cont, g2),)
            raise RuleMismatch(f"select on {x} needs {x}:A+{{z}}B, got {e.typing}")

        case Case(x, l, r):
            e = _active(g, x)
            match e.typing:
                case With(a, b, ts):
                    if not ts:
                        raise NonEmptyTargetViolation("rule & needs a nonempty target set")
                    for u in ts:
                        if u == x or not g.has(u):
                            raise RuleMismatch(f"& target {u} not in context")
                    gl = g.replace(x, Entry(x, e.queue + tuple(LeftTok(u) for u in ts), a))
                    gr = g.replace(x, Entry(x, e.queue + tuple(RightTok(u) for u in ts), b))
                    return "With", ((l, gl), (r, gr))
            raise RuleMismatch(f"case on {x} needs {x}:A&{{u}}B, got {e.typing}")

        case Server(x, f, body):
            e = _active(g, x)
            match e.typing:
                case OfCourse(a, ts):
                    if not ts:
                        raise NonEmptyTargetViolation("rule ! needs a nonempty target set")
                    if e.queue:
                        raise LeftoverQueue(f"! requires an empty queue at {x}")
                    others = [o for o in g.entries if o.endpoint != x]
                    if set(ts) != {o.endpoint for o in others}:
                        raise RuleMismatch(f"! at {x} must broadcast to every other endpoint")
                    for o in others:
                        if o.typing is None or not isinstance(o.typing, WhyNot):
                            raise RuleMismatch(f"! needs {o.endpoint} to be ?-typed")
                        if o.queue:
                            raise LeftoverQueue(f"! needs an empty queue at {o.endpoint}")
                    if f in endpoint_names(g):
                        raise RuleMismatch(f"server name {f} is not fresh")
                    g2 = g.replace(x, Entry(f, tuple(Query(u) for u in ts), a))
                    g2 = rename_context_targets(g2, {x: f})
                    return "Bang", ((body, g2),)
            raise RuleMismatch(f"srv on {x} needs {x}:!{{u}}A, got {e.typing}")

        case Client(x, f, cont):
            e = _active(g, x)
            match e.typing:
                case WhyNot(a, z) if z is not None:
                    if not g.has(z):
                        raise RuleMismatch(f"? target {z} not in context")
                    head, g2 = _pop_for(g, z, x)
                    if head != (Query(x),):
                        raise QueueHeadMismatch(
                            f"head of {z}'s queue must be a query for {x}, got {head}"
                        )
                    if f in endpoint_names(g):
                        raise RuleMismatch(f"client name {f} is not fresh")
                    g2 = g2.replace(x, Entry(f, e.queue, a))
                    g2 = rename_context_targets(g2, {x: f})
                    return "Quest", ((cont, g2),)
            raise RuleMismatch(f"client on {x} needs {x}:?{{z}}A, got {e.typing}")

        case Cut():
            raise RuleMismatch("forwarders contain no cuts")

    raise RuleMismatch(f"no forwarder rule for {type(p).__name__}")


def _pop_for(g: Context, u: str, x: str) -> tuple[Queue, Context]:
    """The first item of ``u``'s queue aimed at ``x``, as a tuple of at most
    one item, and ``g`` without it."""
    e = g.get(u)
    for i, it in enumerate(e.queue):
        if it.target == x:
            return (it,), g.replace(u, Entry(u, e.queue[:i] + e.queue[i + 1:], e.typing))
    return (), g


def _active(g: Context, x: str) -> Entry:
    if not g.has(x):
        raise RuleMismatch(f"endpoint {x} not in context")
    e = g.get(x)
    if e.typing is None:
        raise RuleMismatch(f"endpoint {x} is terminated")
    return e


def check_forwarder(p: Process, g: Context) -> Derivation:
    """Build and return the forwarder derivation of ``p`` at ``g``."""
    if not context_fully_annotated(g):
        raise NotAnnotated("context has unannotated connectives")
    return _check_fwd(p, g)


def _check_fwd(p: Process, g: Context) -> Derivation:
    rule, premises = forwarder_step(p, g)
    return Derivation(rule, p, g, tuple(starmap(_check_fwd, premises)))


# ---------------------------------------------------------------------------
# CP / CLL system


def _env_get(env: Env, x: str) -> Type:
    for n, t in env:
        if n == x:
            return t
    raise RuleMismatch(f"endpoint {x} not in environment")


def _env_del(env: Env, x: str) -> Env:
    out, dropped = [], False
    for n, t in env:
        if n == x and not dropped:
            dropped = True
            continue
        out.append((n, t))
    return tuple(out)


def check_cll(p: Process, env: Env) -> Derivation:
    """Check a CP process against a plain environment.

    Weakening and contraction of ?-typed endpoints are inserted where the
    term forces them and recorded as explicit derivation steps.  Cut formulas
    are reconstructed from the two subterms and must resolve completely.
    """
    env = tuple((n, erase(t)) for n, t in env)
    return _check_cll(p, env)


def _split_env(p_left: Process, drop_l: set[str], p_right: Process, drop_r: set[str],
               env: Env, whole: Process) -> tuple[Env, Env]:
    fl = free_endpoints(p_left) - drop_l
    fr = free_endpoints(p_right) - drop_r
    left, right = [], []
    for n, t in env:
        inl, inr = n in fl, n in fr
        if inl and inr:
            if not isinstance(t, WhyNot):
                raise RuleMismatch(f"{n} used by both premises but not ?-typed")
            left.append((n, t))  # contracted: both premises keep it
            right.append((n, t))
        elif inl:
            left.append((n, t))
        elif inr:
            right.append((n, t))
        elif isinstance(t, WhyNot):
            right.append((n, t))  # weakened at a leaf of the continuation
        else:
            raise UnusedEndpoint(f"{n} unused by {type(whole).__name__}")
    return tuple(left), tuple(right)


def _leaf(rule: str, p: Process, env: Env, used: tuple[str, ...]) -> Derivation:
    extras = tuple((n, t) for n, t in env if n not in used)
    for n, t in extras:
        if not isinstance(t, WhyNot):
            raise UnusedEndpoint(f"{n} unused at {rule} leaf")
    core = tuple((n, t) for n, t in env if n in used)
    d = Derivation(rule, p, core, ())
    have = core
    for n, t in extras:
        have = have + ((n, t),)
        d = Derivation("Weaken", p, have, (d,))
    return d


def _check_cll(p: Process, env: Env) -> Derivation:
    """The fold of ``cp_step`` over ``p``, with the structural steps the
    rule table leaves implicit made explicit."""
    rule, prem = cp_step(p, env)
    if not prem:
        return _leaf(rule, p, env, S.scope(p)[0])
    d = Derivation(rule, p, env, tuple(starmap(_check_cll, prem)))
    if rule == "Quest" and len(prem[0][1]) > len(env):
        # the continuation still uses the client endpoint: contraction
        # supplied the copy the rule consumed
        return Derivation("Contract", p, env, (replace(d, context=env + (prem[0][1][-1],)),))
    if rule in ("Tensor", "Cut"):
        # each name the two premises share (binders aside) was contracted
        (_, left), (_, right) = prem
        shared = {n for n, _ in right[:-1]}
        for n, _ in left[:-1]:
            if n in shared:
                d = Derivation("Contract", p, env, (d,))
    return d


def cp_step(p: Process, env: Env) -> tuple[str, tuple[tuple[Process, Env], ...]]:
    """One CP rule applied to the head of ``p``, yielding premise judgements.

    ``env`` is plain (erased): ``check_cll`` erases once and folds this rule
    table over the term.  Contraction on a re-used ?-endpoint is folded into
    the client step, and a cut's formula is reconstructed from its two
    subterms; a leaf rule does not check for unused endpoints (``check_cll``
    weakens them).
    """
    match p:
        case Link(x, y):
            tx, ty = _env_get(env, x), _env_get(env, y)
            if dual(tx) != ty:
                raise RuleMismatch(f"link {x}<->{y} needs dual types, got {tx} / {ty}")
            return "Ax", ()
        case Close(x):
            if not isinstance(_env_get(env, x), One):
                raise RuleMismatch(f"close {x} needs {x}:1")
            return "One", ()
        case Wait(x, cont):
            if not isinstance(_env_get(env, x), Bot):
                raise RuleMismatch(f"wait {x} needs {x}:bot")
            return "Bot", ((cont, _env_del(env, x)),)
        case Send(x, f, payload, cont):
            t = _env_get(env, x)
            if not isinstance(t, Tensor):
                raise RuleMismatch(f"send on {x} needs {x}:A*B")
            left, right = _split_env(payload, {f}, cont, {x}, _env_del(env, x), p)
            return "Tensor", ((payload, left + ((f, t.left),)), (cont, right + ((x, t.right),)))
        case Recv(x, f, cont):
            t = _env_get(env, x)
            if not isinstance(t, Par):
                raise RuleMismatch(f"recv on {x} needs {x}:A|B")
            return "Par", ((cont, _env_del(env, x) + ((f, t.left), (x, t.right))),)
        case Inl(x, cont) | Inr(x, cont):
            t = _env_get(env, x)
            if not isinstance(t, Plus):
                raise RuleMismatch(f"select on {x} needs {x}:A+B")
            keep = t.left if isinstance(p, Inl) else t.right
            tag = "PlusL" if isinstance(p, Inl) else "PlusR"
            return tag, ((cont, _env_del(env, x) + ((x, keep),)),)
        case Case(x, l, r):
            t = _env_get(env, x)
            if not isinstance(t, With):
                raise RuleMismatch(f"case on {x} needs {x}:A&B")
            rest = _env_del(env, x)
            return "With", ((l, rest + ((x, t.left),)), (r, rest + ((x, t.right),)))
        case Server(x, f, body):
            t = _env_get(env, x)
            if not isinstance(t, OfCourse):
                raise RuleMismatch(f"srv on {x} needs {x}:!A")
            rest = _env_del(env, x)
            for n, tt in rest:
                if not isinstance(tt, WhyNot):
                    raise RuleMismatch(f"! context must be ?-typed, {n} is not")
            return "Bang", ((body, rest + ((f, t.body),)),)
        case Client(x, f, cont):
            t = _env_get(env, x)
            if not isinstance(t, WhyNot):
                raise RuleMismatch(f"client on {x} needs {x}:?A")
            rest = _env_del(env, x)
            if x in free_endpoints(cont):
                return "Quest", ((cont, rest + ((f, t.body), (x, t))),)
            return "Quest", ((cont, rest + ((f, t.body),)),)
        case Cut(x, y, l, r):
            left, right = _split_env(l, {x}, r, {y}, env, p)
            a = _infer(l, x, dict(left))
            b = _infer(r, y, dict(right))
            formula = _unify(a, dual(b))
            if formula is None:
                raise CutFormulaError(f"cut formulas disagree: {a} versus dual {b}")
            if _has_unknown(formula):
                raise CutFormulaError(f"cannot infer cut formula for res {x} {y}")
            return "Cut", ((l, left + ((x, formula),)), (r, right + ((y, dual(formula)),)))
    raise RuleMismatch(f"no CP rule for {type(p).__name__}")


# Cut-formula reconstruction: a lightweight structural inference with an
# unknown placeholder, resolved by unifying the two sides of the cut.


@dataclass(frozen=True)
class _Unknown:
    pass


def _has_unknown(t) -> bool:
    if isinstance(t, _Unknown):
        return True
    return any(_has_unknown(c) for c in S.children(t))


def _unify(a, b):
    if isinstance(a, _Unknown):
        return b
    if isinstance(b, _Unknown):
        return a
    if type(a) is not type(b):
        return None
    match a:
        case Atom(n) | DualAtom(n):
            return a if (n == getattr(b, "name", None)) else None
        case One() | Bot():
            return a
        case Tensor(l, r, _) | Par(l, r, _) | Plus(l, r, _) | With(l, r, _):
            ul, ur = _unify(l, b.left), _unify(r, b.right)
            if ul is None or ur is None:
                return None
            return type(a)(ul, ur)
        case OfCourse(bd, _) | WhyNot(bd, _):
            ub = _unify(bd, b.body)
            return None if ub is None else type(a)(ub)
    return None


def _infer(p: Process, x: str, env: dict[str, Type]):
    """Type of ``x`` in ``p`` given the other endpoints, unknowns allowed."""
    match p:
        case Link(a, b):
            if x == a:
                return dual(env[b]) if b in env else _Unknown()
            if x == b:
                return dual(env[a]) if a in env else _Unknown()
            return _Unknown()
        case Close(a):
            return One() if a == x else _Unknown()
        case Wait(a, c):
            return Bot() if a == x else _infer(c, x, env)
        case Send(a, f, pl, c):
            if a == x:
                return Tensor(_infer(pl, f, env), _infer(c, x, env))
            if x in free_endpoints(pl):
                return _infer(pl, x, env)
            return _infer(c, x, env)
        case Recv(a, f, c):
            if a == x:
                return Par(_infer(c, f, env), _infer(c, x, env))
            return _infer(c, x, env)
        case Inl(a, c):
            return Plus(_infer(c, x, env), _Unknown()) if a == x else _infer(c, x, env)
        case Inr(a, c):
            return Plus(_Unknown(), _infer(c, x, env)) if a == x else _infer(c, x, env)
        case Case(a, l, r):
            if a == x:
                return With(_infer(l, x, env), _infer(r, x, env))
            u = _unify(_infer(l, x, env), _infer(r, x, env))
            return _Unknown() if u is None else u
        case Server(a, f, b):
            return OfCourse(_infer(b, f, env)) if a == x else _infer(b, x, env)
        case Client(a, f, b):
            if a == x:
                inner = _infer(b, f, env)
                if x in free_endpoints(b):
                    u = _unify(WhyNot(inner), _infer(b, x, env))
                    return u if u is not None else WhyNot(inner)
                return WhyNot(inner)
            return _infer(b, x, env)
        case Cut(a, b, l, r):
            if x in free_endpoints(l) - {a}:
                return _infer(l, x, env)
            return _infer(r, x, env)
    return _Unknown()


# ---------------------------------------------------------------------------
# Synthesis

_HOLE_PREFIX = "?"


def _is_hole(ts: tuple[str, ...]) -> bool:
    return len(ts) == 1 and ts[0].startswith(_HOLE_PREFIX)


class _HoleCounter:
    def __init__(self):
        self.n = 0

    def new(self) -> str:
        self.n += 1
        return f"{_HOLE_PREFIX}{self.n}"


def annotate_with_holes(t: Type, counter: _HoleCounter) -> Type:
    """Fill every empty annotation slot with a unique placeholder."""
    return S.map_slots(t, lambda _, ts: ts or (counter.new(),))


def _subst_holes_type(t: Type, store: dict[str, tuple[str, ...]], default: str | None = None) -> Type:
    def sub(_, ts: tuple[str, ...]) -> tuple[str, ...]:
        if _is_hole(ts):
            if ts[0] in store:
                return store[ts[0]]
            if default is not None:
                return (default,)
        return ts

    return S.map_slots(t, sub)


def _subst_holes_context(g: Context, store: dict[str, tuple[str, ...]]) -> Context:
    if not store:
        return g
    return map_context(g, typ=lambda t: _subst_holes_type(t, store))


def synth_forwarder(g: Context) -> Process | None:
    """Search for a forwarder inhabiting a fully annotated context."""
    if not context_fully_annotated(g):
        raise NotAnnotated("context has unannotated connectives")
    supply = S.FreshNames(frozenset(endpoint_names(g)))
    for proc, _ in _solutions(g, {}, supply, {}, {}):
        return proc
    return None


def synth_with_annotations(env: Env) -> tuple[Context, Process] | None:
    """``synth_context`` on a plain environment, erased first."""
    return synth_context(Context(tuple(Entry(x, (), erase(t)) for x, t in env)))


def synth_context(g: Context) -> tuple[Context, Process] | None:
    """Find values for the empty annotation slots of ``g`` and a forwarder
    for the context they complete.

    Each empty slot, in an entry's typing or in a boxed payload type, becomes
    a hole; given targets, queues and terminated entries stay as they are.
    Holes are resolved lazily as the proof search reaches them; candidate
    targets are tried in name order, and multi-target slots by smallest
    subset first.  Holes the derivation never consults (branches not taken)
    are filled at the end with the first other endpoint of their entry.
    """
    counter = _HoleCounter()
    holed = map_context(g, typ=lambda t: annotate_with_holes(t, counter))
    supply = S.FreshNames(frozenset(endpoint_names(g)))
    for proc, store in _solutions(holed, {}, supply, {}, {}):
        names = sorted(holed.endpoints())
        entries = []
        for e in holed.entries:
            default = next((n for n in names if n != e.endpoint), e.endpoint)
            one = map_context(Context((e,)), typ=lambda t: _subst_holes_type(t, store, default))
            entries.extend(one.entries)
        return Context(tuple(entries)), proc
    return None


def _dangling_names(g: Context) -> tuple[str, ...]:
    """Annotation targets that name no current endpoint or boxed payload.

    They are promises: an earlier rule recorded the name a later binder must
    introduce, so the search offers them as binder candidates.
    """
    refs = target_names(g) - endpoint_names(g)
    return tuple(sorted(u for u in refs if not u.startswith(_HOLE_PREFIX)))


def _binder_candidates(base: str, g: Context, supply: S.FreshNames) -> list[str]:
    return [supply.fresh(base)] + [d for d in _dangling_names(g)]


def _solutions(
    g: Context,
    store: dict[str, tuple[str, ...]],
    supply: S.FreshNames,
    failed: dict,
    ren: dict[str, str],
) -> Iterator[tuple[Process, dict[str, tuple[str, ...]]]]:
    """Solutions of a (possibly holed) context.

    ``store`` holds hole resolutions in the names of the original judgement;
    ``ren`` maps those original names to their current names along this
    branch (continuations of ! and ? get renamed as the rules fire).
    """
    if store:
        cur = {h: tuple(ren.get(u, u) for u in v) for h, v in store.items()} if ren else store
        g = _subst_holes_context(g, cur)
    key = normalize_context(g)
    if key in failed:
        return

    produced = False
    for proc, st in _solutions_raw(g, store, supply, failed, ren):
        produced = True
        yield proc, st
    if not produced:
        failed[key] = True


def _unrename(ren: dict[str, str], names: tuple[str, ...]) -> tuple[str, ...]:
    inv = {c: o for o, c in ren.items()}
    return tuple(inv.get(u, u) for u in names)


def _solutions_raw(g, store, supply, failed, ren):
    entries = sorted(g.entries, key=lambda e: e.endpoint)

    # Leaf rules first: their applicability is forced by the whole context.
    if len(entries) == 2:
        (e1, e2) = entries
        ts = {type(e1.typing), type(e2.typing)}
        if ts == {Atom, DualAtom} and not e1.queue and not e2.queue:
            if isinstance(e1.typing, DualAtom):
                d, a = e1, e2
            else:
                d, a = e2, e1
            if d.typing.name == a.typing.name:
                yield Link(d.endpoint, a.endpoint), store
                return

    for e in entries:
        if isinstance(e.typing, One) and not e.queue:
            others = [o for o in entries if o.endpoint != e.endpoint]
            if all(o.typing is None and o.queue == (Star(e.endpoint),) for o in others):
                ts = e.typing.targets
                names = tuple(sorted(o.endpoint for o in others))
                if _is_hole(ts):
                    if names:
                        yield Close(e.endpoint), {**store, ts[0]: _unrename(ren, names)}
                    return
                if ts and set(ts) == set(names):
                    yield Close(e.endpoint), store
                    return

    # Deterministic step: an entry whose head annotation is resolved and whose
    # rule is enabled can always be fired first (the rules are invertible).
    by = {e.endpoint: e for e in entries}
    holed = []
    for e in entries:
        if e.typing is None or isinstance(e.typing, (Atom, DualAtom, One)):
            continue
        if _is_hole(S.targets_of(e.typing)):
            holed.append(e)
            continue
        for value, head in _moves(e, by):
            yield from _fire(e, value, head, g, store, supply, failed, ren)
            return

    # Otherwise branch over lazy annotation choices, entry by entry.
    for e in holed:
        for value, head in _moves(e, by):
            yield from _fire(e, value, head, g, store, supply, failed, ren)


# The head constructor the rule of a connective that reads no queue fires.
_HEAD = {Bot: Wait, Par: Recv, With: Case}


def _moves(e: Entry, by: dict[str, Entry]):
    """The rule instances synthesis tries at ``e``, in search order: the
    value of its head annotation slot and the constructor of the head term.
    ``by`` maps the context's endpoints, in name order, to their entries.

    A resolved slot offers itself when its rule applies; a hole offers every
    candidate value.  This is only a cheap applicability test, reading
    queues per target as ``forwarder_step`` does; the premises come from
    ``forwarder_step``.
    """
    t, x = e.typing, e.endpoint
    ts = S.targets_of(t)
    hole = _is_hole(ts)
    others = [u for u in by if u != x]
    match t:
        case Bot() | Par() | With():
            if not hole:
                if all(u in by and u != x for u in ts):
                    yield ts, _HEAD[type(t)]
                return
            actives = [u for u in others if by[u].typing is not None]
            values = nonempty_subsets(actives) if isinstance(t, With) else ((u,) for u in actives)
            for v in values:
                yield v, _HEAD[type(t)]
        case Tensor():
            ready = [u for u in others if isinstance(_head_for(by[u], x), MsgBox)]
            if not hole:
                if set(ts) <= set(ready):
                    yield ts, Send
                return
            for v in nonempty_subsets(ready):
                yield v, Send
        case Plus() | WhyNot():
            for z in (others if hole else ts):
                head = _head_for(by[z], x) if z in by and z != x else None
                if isinstance(t, Plus) and isinstance(head, (LeftTok, RightTok)):
                    yield (z,), Inl if isinstance(head, LeftTok) else Inr
                elif isinstance(t, WhyNot) and isinstance(head, Query):
                    yield (z,), Client
        case OfCourse():
            if e.queue or not others or any(
                    not isinstance(by[u].typing, WhyNot) or by[u].queue for u in others):
                return
            if hole:
                yield tuple(others), Server
            elif set(ts) == set(others):
                yield ts, Server


def _head_for(o: Entry, x: str):
    """The first item of ``o``'s queue aimed at ``x``, or None."""
    i = first_destined(o.queue, x)
    return None if i is None else o.queue[i]


def nonempty_subsets(names):
    """Nonempty subsets, smallest first, lexicographic within a size."""
    for k in range(1, len(names) + 1):
        yield from combinations(names, k)


_STUB = Close("_")  # a head term's subterms: forwarder_step only passes them on
_BINDER_BASE = {Recv: "m", Send: "w"}  # a server or client copy keeps its own name


def _fire(e: Entry, value: tuple[str, ...], ctor: type, g: Context, store, supply,
          failed, ren):
    """Fire ``ctor``'s rule at ``e`` with its head slot set to ``value``,
    once per binder candidate, and rebuild the term around the solutions of
    the premises ``forwarder_step`` gives."""
    x = e.endpoint
    ts = S.targets_of(e.typing)
    if _is_hole(ts):
        store = {**store, ts[0]: _unrename(ren, value)}
        g = g.replace(x, Entry(x, e.queue, _subst_holes_type(e.typing, {ts[0]: value})))
    stubs = (_STUB, _STUB) if ctor in (Send, Case) else (_STUB,)
    if ctor in (Wait, Inl, Inr, Case):
        heads = [ctor(x, *stubs)]
    else:
        base = _BINDER_BASE.get(ctor, x)
        heads = [ctor(x, f, *stubs) for f in _binder_candidates(base, g, supply)]
    for head in heads:
        try:
            _, prem = forwarder_step(head, g)
        except RuleMismatch:
            continue  # the payload names the send gathers clash
        sub_ren = ren
        if ctor in (Server, Client):
            sub_ren = {**ren, _unrename(ren, (x,))[0]: head.fresh}
        names, subs = S.scope(head)
        for qs, st in _joint_solutions(prem, store, supply, failed, sub_ren):
            yield S.from_scope(head, names, tuple((bs, q) for (bs, _), q in zip(subs, qs))), st


def _joint_solutions(prem, store, supply, failed, ren):
    """Solutions of every premise (there is at least one) in turn, threading
    the hole store."""
    (_, h), rest = prem[0], prem[1:]
    for q, st in _solutions(h, store, supply, failed, ren):
        if not rest:
            yield (q,), st
            continue
        for qs, st2 in _joint_solutions(rest, st, supply, failed, ren):
            yield (q,) + qs, st2


# ---------------------------------------------------------------------------
# Identity inhabitants of CP judgements (eta-expanded links)


def eta_link(z: str, x: str, t: Type) -> Process:
    """A cut-free CP process inhabiting ``z: dual(t), x: t``."""
    return _eta(z, x, erase(t), S.FreshNames(frozenset((z, x))))


def _eta(z: str, x: str, t: Type, supply: S.FreshNames) -> Process:
    match t:
        case Atom() | DualAtom():
            return Link(z, x)
        case One():
            return Wait(z, Close(x))
        case Bot():
            return Wait(x, Close(z))
        case Tensor(a, b, _):
            u, v = supply.fresh("u"), supply.fresh("v")
            return Recv(z, v, Send(x, u, _eta(v, u, a, supply), _eta(z, x, b, supply)))
        case Par(a, b, _):
            u, v = supply.fresh("u"), supply.fresh("v")
            return Recv(x, u, Send(z, v, _eta(u, v, dual(a), supply), _eta(x, z, dual(b), supply)))
        case Plus(a, b, _):
            return Case(z, Inl(x, _eta(z, x, a, supply)), Inr(x, _eta(z, x, b, supply)))
        case With(a, b, _):
            return Case(x, Inl(z, _eta(x, z, dual(a), supply)), Inr(z, _eta(x, z, dual(b), supply)))
        case OfCourse(a, _):
            u, v = supply.fresh("u"), supply.fresh("v")
            return Server(x, u, Client(z, v, _eta(v, u, a, supply)))
        case WhyNot(a, _):
            u, v = supply.fresh("u"), supply.fresh("v")
            return Server(z, v, Client(x, u, _eta(u, v, dual(a), supply)))
    raise TypeError(t)
