"""Judgement checking and synthesis.

Two judgements live here, each with one rule table from a term's class to
its rule.  ``FORWARDER_RULES``, which ``forwarder_step`` applies, is the
queue-annotated forwarder system: a receive enqueues a boxed item aimed at
the endpoint that must relay it, and a send pops matching boxes.
``CP_RULES``, which ``cp_step`` applies, is plain CP typing over an erased
environment.  Given a term and a context, each applies the rule the term's
head names and returns the premise judgements; everything else is built on
them.  ``check_forwarder``
and ``check_cll`` fold them over a term (``check_cll`` erases its
environment once, and adds the weakening and contraction steps the term
forces), and ``synth_context`` decides derivability by proof search that
fires ``forwarder_step`` (the rules are invertible, so search never
backtracks over rule order on fully annotated contexts), resolving missing
annotations lazily; ``synth_forwarder`` is that search on a fully annotated
context.  The cut and composition engines read their premises off the
derivations of the two folds.

Queues are read per target.  The ⊗, ⊕ and ? rules acting at ``x`` read the
first item aimed at ``x`` in the queue of each endpoint they consult, not
the head of the whole queue: items aimed at distinct endpoints commute, as
compat's per-target FIFOs have it.
"""

from __future__ import annotations

import operator
from itertools import combinations, starmap
from typing import Iterator

from . import syntax as S
from .syntax import (
    Atom, Bot, Case, Client, Close, Cut, DualAtom, Inl, Inr, Link, OfCourse,
    One, Par, Plus, Process, Recv, Send, Server, Tensor, Type, Wait, WhyNot, With,
    dual, erase, free_endpoints,
)
from .contexts import (
    QUEUES, TAKEN_BY, Context, Entry, LeftTok, MsgBox, Query, QueueItem, RightTok, Star,
    context_fully_annotated, endpoint_names, first_destined, map_context, msgbox,
    normalize_queue, print_queue_item, rename_context_targets, take_destined, target_names,
)
from .records import record, replace

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


@record
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

    def rename(self, m: dict[str, str]) -> Derivation:
        """This CP derivation with every name renamed by ``m``, bound names
        included.  Renaming is equivariant: an injective renaming of a
        derivation derives the renamed judgement, so nothing is re-checked.

        ``m`` must be injective and none of its targets may occur in the
        derivation; a ValueError says which condition fails.  The result is
        built bottom-up: a node's process is its term rebuilt by
        ``from_scope`` over its premises' renamed processes (a Weaken or
        Contract node takes its premise's), so the root's process is the
        renamed term.  A sub-derivation shared by several nodes is renamed
        once, and one that mentions no renamed name is kept as it is.
        """
        if len(set(m.values())) != len(m):
            raise ValueError(f"renaming {m} is not injective")
        seen: set[str] = set()
        done: dict[int, Derivation] = {}

        def go(d: Derivation) -> Derivation:
            out = done.get(id(d))
            if out is not None:
                return out
            prem = tuple(map(go, d.premises))
            names = [n for n, _ in d.context]
            seen.update(names)
            if all(map(operator.is_, prem, d.premises)) and not any(n in m for n in names):
                out = d
            else:
                if d.rule in ("Weaken", "Contract"):
                    proc = prem[0].process
                else:
                    heads, subs = S.scope(d.process)
                    proc = S.from_scope(d.process, tuple(m.get(h, h) for h in heads), tuple(
                        (tuple(m.get(b, b) for b in bs), q.process)
                        for (bs, _), q in zip(subs, prem)))
                out = Derivation(d.rule, proc, tuple((m.get(n, n), t) for n, t in d.context), prem)
            done[id(d)] = out
            return out

        out = go(self)
        clash = seen.intersection(m.values())
        if clash:
            raise ValueError(f"renaming targets {sorted(clash)} occur in the derivation")
        return out


# ---------------------------------------------------------------------------
# Forwarder system


def forwarder_step(p: Process, g: Context) -> tuple[str, tuple[tuple[Process, Context], ...]]:
    """One rule of the forwarder system, term-directed: the row of
    ``FORWARDER_RULES`` for ``p``'s class.

    Returns the rule tag and the premise judgements, or raises a CheckError
    naming the first mismatch.
    """
    return FORWARDER_RULES.get(type(p), _fwd_none)(p, g)


def _fwd_none(p, g: Context):
    raise RuleMismatch(f"no forwarder rule for {type(p).__name__}")


def _fwd_ax(p: Link, g: Context):
    x, y = p.x, p.y
    ex, ey = g.get(x), g.get(y)
    if ex is None or ey is None or len(g.entries) != 2 - (x == y):
        raise RuleMismatch(f"Ax needs exactly the endpoints {x},{y}")
    if ex.queue or ey.queue:
        raise LeftoverQueue("Ax requires empty queues")
    tx, ty = ex.typing, ey.typing
    if type(tx) is DualAtom and type(ty) is Atom and tx.name == ty.name:
        return "Ax", ()
    shown = [S.print_type(t) if t is not None else "terminated" for t in (tx, ty)]
    raise RuleMismatch(f"Ax needs {x}:~a and {y}:a, got {shown[0]} and {shown[1]}")


def _fwd_one(p: Close, g: Context):
    x = p.x
    e, t = _active(g, p, "1")
    if e.queue:
        raise LeftoverQueue(f"1 requires an empty queue at {x}")
    others = [o for o in g.entries if o.endpoint != x]
    if set(t.targets) != {o.endpoint for o in others}:
        raise RuleMismatch(
            f"1 at {x} must gather every other endpoint, got {{{','.join(t.targets)}}}")
    for o in others:
        if o.typing is not None:
            raise RuleMismatch(f"1 needs {o.endpoint} terminated")
        if o.queue != (Star(x),):
            raise LeftoverQueue(f"{o.endpoint} must hold exactly one star for {x}")
    return "One", ()


def _fwd_bot(p: Wait, g: Context):
    e, t = _active(g, p, "bot with a target")
    return "Bot", ((p.cont, g.replace({p.x: Entry(p.x, e.queue + (Star(t.target),), None)})),)


def _fwd_par(p: Recv, g: Context):
    x, f = p.x, p.fresh
    e, t = _active(g, p, "A|{u}B")
    if g.binds(f):
        raise RuleMismatch(f"received name {f} is not fresh")
    g2 = g.replace({x: Entry(x, e.queue + (msgbox(t.target, f, t.left),), t.right)})
    return "Par", ((p.cont, g2),)


def _fwd_tensor(p: Send, g: Context):
    x, f = p.x, p.fresh
    e, t = _active(g, p, "A*{u}B")
    if g.binds(f):
        raise RuleMismatch(f"sent name {f} is not fresh")
    gathered: list[tuple[str, Type]] = []
    new = {}
    for u in t.targets:
        eu = new.get(u) or g.get(u)
        if u == x or eu is None:
            raise RuleMismatch(f"* target {u} not in context")
        if not eu.queue:
            raise QueueHeadMismatch(f"empty queue at {u}, * at {x} expects a box")
        head, new[u] = take_destined(eu, x)
        if type(head) is not MsgBox:
            raise QueueHeadMismatch(
                f"head of {u}'s queue must be a message for {x}, got {_shown(head)}")
        gathered.extend(head.payloads)
    names = [n for n, _ in gathered] + [f]
    if len(set(names)) != len(names):
        raise RuleMismatch(f"gathered payload names clash: {names}")
    left = Context(tuple(Entry(n, (), a) for n, a in gathered) + (Entry(f, (), t.left),))
    new[x] = Entry(x, e.queue, t.right)
    return "Tensor", ((p.payload, left), (p.cont, g.replace(new)))


def _fwd_plus(p: Inl | Inr, g: Context):
    x, want_left = p.x, type(p) is Inl
    e, t = _active(g, p, "A+{z}B")
    z = t.target
    ez = g.get(z)
    if z == x or ez is None:
        raise RuleMismatch(f"+ target {z} not in context")
    tok = LeftTok(x) if want_left else RightTok(x)
    head, ez = take_destined(ez, x)
    if head != tok:
        raise QueueHeadMismatch(
            f"head of {z}'s queue must be {print_queue_item(tok)}, got {_shown(head)}")
    g2 = g.replace({z: ez, x: Entry(x, e.queue, t.left if want_left else t.right)})
    return ("PlusL" if want_left else "PlusR"), ((p.cont, g2),)


def _fwd_with(p: Case, g: Context):
    x = p.x
    e, t = _active(g, p, "A&{u}B")
    for u in t.targets:
        if u == x or g.get(u) is None:
            raise RuleMismatch(f"& target {u} not in context")
    gl = g.replace({x: Entry(x, e.queue + tuple(LeftTok(u) for u in t.targets), t.left)})
    gr = g.replace({x: Entry(x, e.queue + tuple(RightTok(u) for u in t.targets), t.right)})
    return "With", ((p.left, gl), (p.right, gr))


def _fwd_bang(p: Server, g: Context):
    x, f = p.x, p.fresh
    e, t = _active(g, p, "!{u}A")
    if e.queue:
        raise LeftoverQueue(f"! requires an empty queue at {x}")
    others = [o for o in g.entries if o.endpoint != x]
    if set(t.targets) != {o.endpoint for o in others}:
        raise RuleMismatch(f"! at {x} must broadcast to every other endpoint")
    for o in others:
        if o.typing is None or not isinstance(o.typing, WhyNot):
            raise RuleMismatch(f"! needs {o.endpoint} to be ?-typed")
        if o.queue:
            raise LeftoverQueue(f"! needs an empty queue at {o.endpoint}")
    if g.binds(f):
        raise RuleMismatch(f"server name {f} is not fresh")
    new = Entry(f, tuple(Query(u) for u in t.targets), t.body)
    return "Bang", ((p.body, rename_context_targets(g, {x: f}, {x: new})),)


def _fwd_quest(p: Client, g: Context):
    x, f = p.x, p.fresh
    e, t = _active(g, p, "?{z}A")
    z = t.target
    ez = g.get(z)
    if z == x or ez is None:
        raise RuleMismatch(f"? target {z} not in context")
    head, ez = take_destined(ez, x)
    if head != Query(x):
        raise QueueHeadMismatch(
            f"head of {z}'s queue must be a query for {x}, got {_shown(head)}")
    if g.binds(f):
        raise RuleMismatch(f"client name {f} is not fresh")
    g2 = rename_context_targets(g, {x: f}, {z: ez, x: Entry(f, e.queue, t.body)})
    return "Quest", ((p.cont, g2),)


def _fwd_cut(p: Cut, g: Context):
    raise RuleMismatch("forwarders contain no cuts")


FORWARDER_RULES = {
    Link: _fwd_ax, Close: _fwd_one, Wait: _fwd_bot, Recv: _fwd_par, Send: _fwd_tensor,
    Inl: _fwd_plus, Inr: _fwd_plus, Case: _fwd_with, Server: _fwd_bang, Client: _fwd_quest,
    Cut: _fwd_cut,
}


def _shown(item: QueueItem | None) -> str:
    return "nothing" if item is None else print_queue_item(item)


def _active(g: Context, p: Process, shape: str) -> tuple[Entry, Type]:
    """The entry and typing of the endpoint ``p`` acts on, which must be
    ``p``'s connective (``ACTS``) with its slot set, as ``shape`` says."""
    x = p.x
    cls, acts = S.ACTS[type(p)]
    e = g.get(x)
    if e is None:
        raise RuleMismatch(f"endpoint {x} not in context")
    t = e.typing
    if t is None:
        raise RuleMismatch(f"endpoint {x} is terminated")
    row = S.CONNECTIVES[cls]
    if type(t) is not cls or not row.multi and t.target is None:
        raise RuleMismatch(f"{acts} {x} needs {x}:{shape}, got {S.print_type(t)}")
    if row.multi and not t.targets:
        raise NonEmptyTargetViolation(f"rule {row.symbol} needs a nonempty target set")
    return e, t


def check_forwarder(p: Process, g: Context) -> Derivation:
    """Build and return the forwarder derivation of ``p`` at ``g``."""
    if not context_fully_annotated(g):
        raise NotAnnotated("context has unannotated connectives")
    return _check_fwd(p, g)


def _check_fwd(p: Process, g: Context) -> Derivation:
    rule, premises = FORWARDER_RULES.get(type(p), _fwd_none)(p, g)
    return Derivation(rule, p, g, tuple(starmap(_check_fwd, premises)))


# ---------------------------------------------------------------------------
# CP / CLL system


def _env_get(env: Env, x: str) -> Type:
    for n, t in env:
        if n == x:
            return t
    raise RuleMismatch(f"endpoint {x} not in environment")


def _env_take(env: Env, p: Process, shape: str) -> tuple[Type, Env]:
    """The type of the endpoint ``x`` ``p`` acts on, which must be ``p``'s
    connective (``ACTS``) as ``shape`` says, and ``env`` without ``x``."""
    x = p.x
    cls, acts = S.ACTS[type(p)]
    for i, (n, t) in enumerate(env):
        if n == x:
            if type(t) is not cls:
                raise RuleMismatch(f"{acts} {x} needs {x}:{shape}")
            return t, env[:i] + env[i + 1:]
    raise RuleMismatch(f"endpoint {x} not in environment")


def check_cll(p: Process, env: Env) -> Derivation:
    """Check a CP process against a plain environment.

    Weakening and contraction of ?-typed endpoints are inserted where the
    term forces them and recorded as explicit derivation steps.  A cut's
    stated formula is erased as the environment is.
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
    for n, t in extras:
        core += ((n, t),)
        d = Derivation("Weaken", p, core, (d,))
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
    """One CP rule applied to the head of ``p``, yielding premise judgements:
    the row of ``CP_RULES`` for ``p``'s class.

    ``env`` is plain (erased): ``check_cll`` erases once and folds this rule
    table over the term.  Contraction on a re-used ?-endpoint is folded into
    the client step, and a cut types its two sides with its stated formula
    and that formula's dual; a leaf rule does not check for unused endpoints
    (``check_cll`` weakens them).
    """
    rule = CP_RULES.get(type(p))
    if rule is None:
        raise RuleMismatch(f"no CP rule for {type(p).__name__}")
    return rule(p, env)


def _cp_ax(p: Link, env: Env):
    x, y = p.x, p.y
    tx, ty = _env_get(env, x), _env_get(env, y)
    if not S.is_dual(ty, tx):
        raise RuleMismatch(f"link {x}<->{y} needs dual types, got "
                           f"{S.print_type(tx)} / {S.print_type(ty)}")
    return "Ax", ()


def _cp_one(p: Close, env: Env):
    _env_take(env, p, "1")
    return "One", ()


def _cp_bot(p: Wait, env: Env):
    _, rest = _env_take(env, p, "bot")
    return "Bot", ((p.cont, rest),)


def _cp_tensor(p: Send, env: Env):
    x, f = p.x, p.fresh
    t, rest = _env_take(env, p, "A*B")
    left, right = _split_env(p.payload, {f}, p.cont, {x}, rest, p)
    return "Tensor", ((p.payload, left + ((f, t.left),)), (p.cont, right + ((x, t.right),)))


def _cp_par(p: Recv, env: Env):
    t, rest = _env_take(env, p, "A|B")
    return "Par", ((p.cont, rest + ((p.fresh, t.left), (p.x, t.right))),)


def _cp_plus(p: Inl | Inr, env: Env):
    t, rest = _env_take(env, p, "A+B")
    if type(p) is Inl:
        return "PlusL", ((p.cont, rest + ((p.x, t.left),)),)
    return "PlusR", ((p.cont, rest + ((p.x, t.right),)),)


def _cp_with(p: Case, env: Env):
    t, rest = _env_take(env, p, "A&B")
    return "With", ((p.left, rest + ((p.x, t.left),)), (p.right, rest + ((p.x, t.right),)))


def _cp_bang(p: Server, env: Env):
    t, rest = _env_take(env, p, "!A")
    for n, tt in rest:
        if not isinstance(tt, WhyNot):
            raise RuleMismatch(f"! context must be ?-typed, {n} is not")
    return "Bang", ((p.body, rest + ((p.fresh, t.body),)),)


def _cp_quest(p: Client, env: Env):
    x = p.x
    t, rest = _env_take(env, p, "?A")
    rest += ((p.fresh, t.body),)
    if x in free_endpoints(p.cont):
        return "Quest", ((p.cont, rest + ((x, t),)),)
    return "Quest", ((p.cont, rest),)


def _cp_cut(p: Cut, env: Env):
    left, right = _split_env(p.left, {p.x}, p.right, {p.y}, env, p)
    t = erase(p.formula)
    return "Cut", ((p.left, left + ((p.x, t),)), (p.right, right + ((p.y, dual(t)),)))


CP_RULES = {
    Link: _cp_ax, Close: _cp_one, Wait: _cp_bot, Send: _cp_tensor, Recv: _cp_par,
    Inl: _cp_plus, Inr: _cp_plus, Case: _cp_with, Server: _cp_bang, Client: _cp_quest,
    Cut: _cp_cut,
}


# ---------------------------------------------------------------------------
# Synthesis


class _HoleCounter:
    def __init__(self):
        self.n = 0

    def new(self) -> str:
        self.n += 1
        return f"{S.HOLE_PREFIX}{self.n}"


def annotate_with_holes(t: Type, counter: _HoleCounter) -> Type:
    """Fill every empty annotation slot with a unique placeholder."""
    return S.map_slots(t, lambda _, ts: ts or (counter.new(),))


def synth_forwarder(g: Context) -> Process | None:
    """Search for a forwarder inhabiting a fully annotated context."""
    if not context_fully_annotated(g):
        raise NotAnnotated("context has unannotated connectives")
    got = synth_context(g)  # with no empty slot, this searches g itself
    return None if got is None else got[1]


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

    Each hole sits in one slot: ``annotate_with_holes`` numbers the slots
    apart, and no rule copies a type within a context.  So a resolution is
    written into the one place that holds its hole: the head slot it sets,
    or the premises still to be searched that copied it (``&`` gives both
    its premises the spectators).  The search keeps this invariant: no
    context it visits holds a hole that its store resolves.
    """
    counter = _HoleCounter()
    holed = map_context(g, typ=lambda t: annotate_with_holes(t, counter))
    supply = S.FreshNames(frozenset(endpoint_names(g)))
    for proc, store in _solutions(holed, {}, supply, {}, {}):
        names = sorted(holed.endpoints())
        entries = []
        for e in holed.entries:
            default = next((n for n in names if n != e.endpoint), e.endpoint)
            one = map_context(Context((e,)), typ=lambda t: S.fill_holes(t, store, default))
            entries.extend(one.entries)
        return Context(tuple(entries)), proc
    return None


def _binder_candidates(base: str, g: Context, supply: S.FreshNames) -> Iterator[str]:
    """A fresh name, then the dangling names, looked up only when the search
    comes back for another binder: the annotation targets that name no
    current endpoint or boxed payload.  They are promises: an earlier rule
    recorded the name a later binder must introduce."""
    yield supply.fresh(base)
    yield from sorted(u for u in target_names(g) - endpoint_names(g) if not S.is_hole((u,)))


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
    branch (continuations of ! and ? get renamed as the rules fire).  No
    hole of ``g`` is resolved in ``store``: ``_fire`` sets a head hole in its
    slot, and ``_joint_solutions`` substitutes what one premise resolved
    into the premises after it.

    ``failed`` holds the contexts known to have no solution, up to entry
    order and the order of items aimed at distinct endpoints.  Its key is
    built only when there is something to look up, or a failure to store.
    """
    key = _failed_key(g) if failed else None
    if key in failed:
        return

    produced = False
    for proc, st in _solutions_raw(g, store, supply, failed, ren):
        produced = True
        yield proc, st
    if not produced:
        failed[_failed_key(g) if key is None else key] = True


def _failed_key(g: Context) -> tuple:
    return tuple(sorted((e.endpoint, normalize_queue(e.queue), e.typing) for e in g.entries))


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
                if S.is_hole(ts):
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
        if S.is_hole(S.targets_of(e.typing)):
            holed.append(e)
            continue
        for value, head in _moves(e, by):
            yield from _fire(e, value, head, g, store, supply, failed, ren)
            return

    # Otherwise branch over lazy annotation choices, entry by entry.
    for e in holed:
        for value, head in _moves(e, by):
            yield from _fire(e, value, head, g, store, supply, failed, ren)


def _moves(e: Entry, by: dict[str, Entry]):
    """The rule instances synthesis tries at ``e``, in search order: the
    value of its head annotation slot and the action of the head term.
    ``by`` maps the context's endpoints, in name order, to their entries.

    A resolved slot offers itself when its rule applies; a hole offers every
    candidate value: for a rule that queues items (``QUEUES``), the other
    endpoints not terminated; for one that takes the first item for ``x`` at
    each target, those whose item it takes (``TAKEN_BY``, which picks the
    action).  This is only a cheap applicability test, reading queues per
    target as ``forwarder_step`` does; the premises come from it.
    """
    t, x = e.typing, e.endpoint
    cls = type(t)
    ts = S.targets_of(t)
    hole = S.is_hole(ts)
    others = [u for u in by if u != x]
    if cls is OfCourse:
        if e.queue or not others or any(
                not isinstance(by[u].typing, WhyNot) or by[u].queue for u in others):
            return
        if hole:
            yield tuple(others), Server
        elif set(ts) == set(others):
            yield ts, Server
        return
    if cls in QUEUES:
        (act,) = S.ACTIONS[cls]
        ready = {u: act for u in others if by[u].typing is not None} if hole else {
            u: act for u in ts if u in by and u != x}
    else:
        ready = {}
        for u in others if hole else ts:
            i = first_destined(by[u].queue, x) if u in by and u != x else None
            act = None if i is None else TAKEN_BY.get(type(by[u].queue[i]))
            if act is not None and S.ACTS[act][0] is cls:
                ready[u] = act
    if not hole:
        if all(u in ready for u in ts):
            yield ts, ready[ts[0]]
    elif S.CONNECTIVES[cls].multi:
        for v in nonempty_subsets(list(ready)):
            yield v, ready[v[0]]
    else:
        for u, act in ready.items():
            yield (u,), act


def nonempty_subsets(names):
    """Nonempty subsets, smallest first, lexicographic within a size."""
    for k in range(1, len(names) + 1):
        yield from combinations(names, k)


BINDER_BASE = {Recv: "m", Send: "w"}  # a server or client copy keeps its own name


def _fire(e: Entry, value: tuple[str, ...], ctor: type, g: Context, store, supply,
          failed, ren):
    """Fire ``ctor``'s rule at ``e`` with its head slot set to ``value``,
    once per binder candidate, and rebuild the term around the solutions of
    the premises ``forwarder_step`` gives."""
    x, t = e.endpoint, e.typing
    ts = S.targets_of(t)
    if S.is_hole(ts):  # the head slot takes ``value``, the operands are kept
        store = {**store, ts[0]: _unrename(ren, value)}
        slot = value if type(t) in S.MULTI_TARGET else value[0]
        g = g.replace({x: Entry(x, e.queue, type(t)(*S.children(t), slot))})
    binders = (_binder_candidates(BINDER_BASE.get(ctor, x), g, supply) if ctor in S.BINDING
               else (None,))
    for head in (S.head_term(ctor, (x,), f) for f in binders):
        try:
            _, prem = forwarder_step(head, g)
        except RuleMismatch:
            continue  # the payload names the send gathers clash
        sub_ren = ren
        if ctor in S.RENAMING:
            sub_ren = {**ren, _unrename(ren, (x,))[0]: head.fresh}
        names, subs = S.scope(head)
        for qs, st in _joint_solutions(prem, store, supply, failed, sub_ren):
            yield S.from_scope(head, names, tuple((bs, q) for (bs, _), q in zip(subs, qs))), st


def _joint_solutions(prem, store, supply, failed, ren):
    """Solutions of every premise (there is at least one) in turn, threading
    the hole store.  A hole the first premise resolves can also sit in a
    later one (the spectators a ``&`` copies into both branches), so its
    value, in the premises' names, is substituted there."""
    (_, h), rest = prem[0], prem[1:]
    for q, st in _solutions(h, store, supply, failed, ren):
        if not rest:
            yield (q,), st
            continue
        later = rest
        if len(st) > len(store):  # the store only grows
            new = {k: tuple(ren.get(u, u) for u in v) for k, v in st.items() if k not in store}
            later = tuple((p, map_context(g, typ=lambda t: S.fill_holes(t, new))) for p, g in rest)
        for qs, st2 in _joint_solutions(later, st, supply, failed, ren):
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
        case Tensor(left=a, right=b):
            u, v = supply.fresh("u"), supply.fresh("v")
            return Recv(z, v, Send(x, u, _eta(v, u, a, supply), _eta(z, x, b, supply)))
        case Par(left=a, right=b):
            u, v = supply.fresh("u"), supply.fresh("v")
            return Recv(x, u, Send(z, v, _eta(u, v, dual(a), supply), _eta(x, z, dual(b), supply)))
        case Plus(left=a, right=b):
            return Case(z, Inl(x, _eta(z, x, a, supply)), Inr(x, _eta(z, x, b, supply)))
        case With(left=a, right=b):
            return Case(x, Inl(z, _eta(x, z, dual(a), supply)), Inr(z, _eta(x, z, dual(b), supply)))
        case OfCourse(body=a):
            u, v = supply.fresh("u"), supply.fresh("v")
            return Server(x, u, Client(z, v, _eta(v, u, a, supply)))
        case WhyNot(body=a):
            u, v = supply.fresh("u"), supply.fresh("v")
            return Server(z, v, Client(x, u, _eta(u, v, dual(a), supply)))
    raise TypeError(t)
