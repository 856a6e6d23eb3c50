"""Judgement checking and synthesis.

Two judgements live here, each with one rule table from a term's class to
its rule.  ``FORWARDER_RULES``, which ``forwarder_step`` applies, is the
queue-annotated forwarder system: a receive enqueues a boxed item aimed at
the endpoint that must relay it, and a send pops matching boxes.
``CP_RULES``, which ``cp_step`` applies, is plain CP typing over an erased
environment.  Given a term and a context, each applies the rule the term's
head names and returns the premise judgements; everything else is built on
them.  ``check_forwarder`` and ``check_cll`` fold them over a term
(``check_cll`` erases its environment once, and adds the weakening and
contraction steps the term forces), and ``synth_context`` decides
derivability by proof search that fires ``forwarder_step`` (the rules are
invertible, so search never backtracks over rule order on fully annotated
contexts), resolving missing annotations lazily; ``synth_forwarder`` is that
search on a fully annotated context.  The cut and composition engines read
their premises off the derivations of the two folds.

Each forwarder rule is written once, as a body: ``link_rule`` for Ax, and
each connective's row of ``CONNECTIVE_RULES``, a function of the context,
the acting entry, the value of its head slot, the action and the name a |
boxes.  It holds the rule's checks, pops, pushes, residual types and
refusal texts, and returns the premises as specs: its tag, the entries it
pops, a (type, pushes) pair per premise of the actor, and a * rule's
payload environment (the gathered payloads, then the sent one).  Or it
raises a CheckError, whose text is built only when read.  The rows of
``FORWARDER_RULES`` add what belongs to the term: the binder, its
freshness, and the ! and ? rules' renaming to it.  Compat's moves and
synthesis read the bodies through ``rule_at``.

Queues are read per target.  The ⊗, ⊕ and ? rules acting at ``x`` read the
first item aimed at ``x`` in the queue of each endpoint they consult, not
the head of the whole queue: items aimed at distinct endpoints commute, as
compat's per-target FIFOs have it.
"""

from __future__ import annotations

import operator
from functools import partial
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
    _unchecked, context_fully_annotated, destined, endpoint_names, map_context, msgbox,
    normalize_queue, print_queue_item, rename_context_targets, take_destined, target_names,
)
from .records import record, replace

Env = tuple[tuple[str, Type], ...]


class CheckError(Exception):
    """A refusal.  Given a format string and its arguments, it builds its
    text only when something reads it (compat and synthesis never do),
    calling each argument that is a function."""

    def __str__(self) -> str:
        if len(self.args) < 2:
            return super().__str__()
        text, *args = self.args
        return text.format(*(a() if callable(a) else a for a in args))


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
    ``FORWARDER_RULES`` for ``p``'s class.  Returns the rule tag and the
    premise judgements, or raises a CheckError naming the first mismatch."""
    return FORWARDER_RULES.get(type(p), _fwd_none)(p, g)


def link_rule(ex: Entry, ey: Entry) -> str:
    """The Ax leaf at the only two entries ``ex`` and ``ey``."""
    if ex.queue or ey.queue:
        raise LeftoverQueue("Ax requires empty queues")
    tx, ty = ex.typing, ey.typing
    if type(tx) is DualAtom and type(ty) is Atom and tx.name == ty.name:
        return "Ax"
    shown = ("terminated" if t is None else partial(S.print_type, t) for t in (tx, ty))
    raise RuleMismatch("Ax needs {}:~a and {}:a, got {} and {}", ex.endpoint, ey.endpoint, *shown)


def link_at(ents) -> tuple[str, Entry, Entry] | None:
    """The Ax leaf's tag and two entries ``ents``, the dual atom first, or None."""
    d, a = ents if type(ents[0].typing) is DualAtom else ents[::-1]
    try:
        return link_rule(d, a), d, a
    except CheckError:
        return None


def _every_other(g: Context, e: Entry, ts, refusal: str) -> list[Entry]:
    """The entries but ``e``, which the 1 and ! rules' ``ts`` names once each;
    else ``refusal``, formatted with ``e``'s endpoint and ``ts``."""
    others = [o for o in g.entries if o is not e]
    if len(ts) != len(others) or set(ts) != {o.endpoint for o in others}:
        raise RuleMismatch(refusal, e.endpoint, ",".join(ts))
    return others


def _one(g: Context, e: Entry, ts, act, f):
    x = e.endpoint
    if e.queue:
        raise LeftoverQueue("1 requires an empty queue at {}", x)
    for o in _every_other(g, e, ts, "1 at {} must gather every other endpoint, got {{{}}}"):
        if o.typing is not None:
            raise RuleMismatch("1 needs {} terminated", o.endpoint)
        if o.queue != (Star(x),):
            raise LeftoverQueue("{} must hold exactly one star for {}", o.endpoint, x)
    return "One", {}, (), ()


def _bot(g: Context, e: Entry, ts, act, f):
    return "Bot", {}, ((None, (Star(ts[0]),)),), ()


def _par(g: Context, e: Entry, ts, act, f):
    t = e.typing
    return "Par", {}, ((t.right, (msgbox(ts[0], f, t.left),)),), ()


def _tensor(g: Context, e: Entry, ts, act, f):
    x = e.endpoint
    gathered: list[tuple[str, Type]] = []
    pops = {}
    for u in ts:
        eu = pops.get(u) or g.get(u)
        if u == x or eu is None:
            raise RuleMismatch("* target {} not in context", u)
        if not eu.queue:
            raise QueueHeadMismatch("empty queue at {}, * at {} expects a box", u, x)
        head, pops[u] = take_destined(eu, x)
        if type(head) is not MsgBox:
            raise QueueHeadMismatch("head of {}'s queue must be a message for {}, got {}",
                                    u, x, partial(_shown, head))
        gathered.extend(head.payloads)
    gathered.append((f, e.typing.left))
    return "Tensor", pops, ((e.typing.right, ()),), gathered


def _plus(g: Context, e: Entry, ts, act, f):
    x, z, t, left = e.endpoint, ts[0], e.typing, act is Inl
    ez = g.get(z)
    if z == x or ez is None:
        raise RuleMismatch("+ target {} not in context", z)
    tok = LeftTok(x) if left else RightTok(x)
    head, ez = take_destined(ez, x)
    if head != tok:
        raise QueueHeadMismatch("head of {}'s queue must be {}, got {}", z,
                                partial(print_queue_item, tok), partial(_shown, head))
    return ("PlusL" if left else "PlusR"), {z: ez}, ((t.left if left else t.right, ()),), ()


def _with(g: Context, e: Entry, ts, act, f):
    x, t = e.endpoint, e.typing
    for u in ts:
        if u == x or g.get(u) is None:
            raise RuleMismatch("& target {} not in context", u)
    return "With", {}, ((t.left, tuple(LeftTok(u) for u in ts)),
                        (t.right, tuple(RightTok(u) for u in ts))), ()


def _bang(g: Context, e: Entry, ts, act, f):
    x = e.endpoint
    if e.queue:
        raise LeftoverQueue("! requires an empty queue at {}", x)
    for o in _every_other(g, e, ts, "! at {} must broadcast to every other endpoint"):
        if o.typing is None or not isinstance(o.typing, WhyNot):
            raise RuleMismatch("! needs {} to be ?-typed", o.endpoint)
        if o.queue:
            raise LeftoverQueue("! needs an empty queue at {}", o.endpoint)
    return "Bang", {}, ((e.typing.body, tuple(Query(u) for u in ts)),), ()


def _quest(g: Context, e: Entry, ts, act, f):
    x, z = e.endpoint, ts[0]
    ez = g.get(z)
    if z == x or ez is None:
        raise RuleMismatch("? target {} not in context", z)
    head, ez = take_destined(ez, x)
    if head != Query(x):
        raise QueueHeadMismatch("head of {}'s queue must be a query for {}, got {}", z, x,
                                partial(_shown, head))
    return "Quest", {z: ez}, ((e.typing.body, ()),), ()


CONNECTIVE_RULES = {One: _one, Bot: _bot, Tensor: _tensor, Par: _par, Plus: _plus, With: _with,
                    OfCourse: _bang, WhyNot: _quest}


def rule_at(g: Context, e: Entry, ts: tuple[str, ...]):
    """The action by which the rule of ``e``'s connective applies with head
    slot ``ts`` (a rule that takes items, by the one that takes the first
    waiting at ``ts[0]``), and what its body returns, a | boxing ``m``; or None."""
    cls = type(e.typing)
    if cls in QUEUES:
        act = S.ACTIONS[cls][0]
    else:
        act = TAKEN_BY.get(type(destined(g.get(ts[0]), e.endpoint)))
        if act is None or S.ACTS[act][0] is not cls:
            return None
    try:
        return act, CONNECTIVE_RULES[cls](g, e, ts, act, "m")
    except CheckError:
        return None


def _fwd_none(p, g: Context):
    raise RuleMismatch(f"no forwarder rule for {type(p).__name__}")


def _fwd_ax(p: Link, g: Context):
    x, y = p.x, p.y
    ex, ey = g.get(x), g.get(y)
    if ex is None or ey is None or len(g.entries) != 2 - (x == y):
        raise RuleMismatch(f"Ax needs exactly the endpoints {x},{y}")
    return link_rule(ex, ey), ()


# What each action's refusals write: the typing it needs, the word for its binder.
_WORDS = {Close: ("1", None), Wait: ("bot with a target", None), Send: ("A*{u}B", "sent"),
          Recv: ("A|{u}B", "received"), Inl: ("A+{z}B", None), Inr: ("A+{z}B", None),
          Case: ("A&{u}B", None), Server: ("!{u}A", "server"), Client: ("?{z}A", "client")}
# Each action's connective (``ACTS``), whether its slot is a set, its rule body,
# and whether its binder is checked fresh before the body runs (after, for ! and ?).
_TERMS = {act: (cls, S.CONNECTIVES[cls].multi, CONNECTIVE_RULES[cls],
                _WORDS[act][1] is not None and act not in S.RENAMING)
          for act, (cls, _) in S.ACTS.items()}


def _fwd_act(p: Process, g: Context):
    """An action's rule: its connective's rule body at the entry ``p`` acts
    on, whose typing must be that connective (``ACTS``) with its slot set,
    under the term.  Its binder is checked fresh before the body reads its
    targets for * and |, after for ! and ?; a send's gathered names must not
    clash; the ! and ? rules go on with the binder in place of ``x``."""
    act, x = type(p), p.x
    cls, multi, body, fresh_first = _TERMS[act]
    e = g.get(x)
    if e is None:
        raise RuleMismatch(f"endpoint {x} not in context")
    t = e.typing
    if t is None:
        raise RuleMismatch(f"endpoint {x} is terminated")
    if type(t) is not cls or not multi and not t.targets:
        raise RuleMismatch("{} {} needs {}:{}, got {}", S.ACTS[act][1], x, x, _WORDS[act][0],
                           partial(S.print_type, t))
    ts = t.targets
    if not ts:
        raise NonEmptyTargetViolation("rule {} needs a nonempty target set",
                                      S.CONNECTIVES[cls].symbol)
    if fresh_first and g.binds(p.fresh):
        raise RuleMismatch("{} name {} is not fresh", _WORDS[act][1], p.fresh)
    tag, pops, prems, sent = body(g, e, ts, act, p.fresh if fresh_first else None)
    if not prems:  # the 1 rule, a leaf
        return tag, ()
    if act is Case:
        (tl, pl), (tr, pr) = prems
        return tag, ((p.left, g.replace({x: Entry(x, e.queue + pl, tl)})),
                     (p.right, g.replace({x: Entry(x, e.queue + pr, tr)})))
    ((typ, pushes),) = prems
    if act is Server or act is Client:
        f = p.fresh
        if g.binds(f):
            raise RuleMismatch("{} name {} is not fresh", _WORDS[act][1], f)
        pops[x] = Entry(f, e.queue + pushes, typ)
        cont = p.body if act is Server else p.cont
        return tag, ((cont, rename_context_targets(g, {x: f}, pops)),)
    pops[x] = Entry(x, e.queue + pushes, typ)
    if act is not Send:
        return tag, ((p.cont, g.replace(pops)),)
    names = [n for n, _ in sent]
    if len(set(names)) != len(names):
        raise RuleMismatch(f"gathered payload names clash: {names}")
    return tag, ((p.payload, _unchecked(tuple(Entry(n, (), a) for n, a in sent))),
                 (p.cont, g.replace(pops)))


def _fwd_cut(p: Cut, g: Context):
    raise RuleMismatch("forwarders contain no cuts")


FORWARDER_RULES = {Link: _fwd_ax, Cut: _fwd_cut, **dict.fromkeys(S.ACTS, _fwd_act)}

def _shown(item: QueueItem | None) -> str:
    return "nothing" if item is None else print_queue_item(item)


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


def annotate_with_holes(t: Type, holes: Iterator[str]) -> Type:
    """Fill every empty annotation slot with the next hole of ``holes``."""
    return S.map_slots(t, lambda _, ts: ts or (next(holes),))


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
    holes = S.holes()
    holed = map_context(g, typ=lambda t: annotate_with_holes(t, holes))
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

    # Deterministic step: an entry whose head annotation is resolved and whose
    # rule is enabled can always be fired first (the rules are invertible).
    by = {e.endpoint: e for e in entries}
    holed = []
    for e in entries:
        if e.typing is None or isinstance(e.typing, (Atom, DualAtom, One)):
            continue
        ts = e.typing.targets
        if S.is_hole(ts):
            holed.append((e, ts))
            continue
        for value, head in _moves(e, ts, False, g, by):
            yield from _fire(e, None, value, head, g, store, supply, failed, ren)
            return

    # Otherwise branch over lazy annotation choices, entry by entry.
    for e, ts in holed:
        for value, head in _moves(e, ts, True, g, by):
            yield from _fire(e, ts[0], value, head, g, store, supply, failed, ren)
    if holed:  # the leaf rules apply only where no other rule fires
        return
    leaf = link_at(entries) if len(entries) == 2 else None
    if leaf:
        yield Link(leaf[1].endpoint, leaf[2].endpoint), store
        return
    for e in entries:
        if type(e.typing) is One:
            ts = e.typing.targets
            names = tuple(o.endpoint for o in entries if o is not e)
            hole = S.is_hole(ts)
            if names and rule_at(g, e, names if hole else ts):
                yield Close(e.endpoint), {**store, ts[0]: _unrename(ren, names)} if hole else store
                return


def _moves(e: Entry, ts, hole: bool, g: Context, by: dict[str, Entry]):
    """The rule instances synthesis tries at ``e``, whose head slot ``ts``
    is a hole or not, in search order: the value of that slot and the action
    of the head term.  ``by`` maps the endpoints of the context ``g``, in
    name order, to their entries.

    A resolved slot offers itself when its rule applies; a hole offers every
    candidate value: to a !, every other endpoint if its body takes them
    (``rule_at``); to another rule that queues items (``QUEUES``), the other
    endpoints not terminated; to one that takes an item for ``x`` at each
    target, those whose item it takes (``TAKEN_BY``, which picks the
    action).  But for the !, this is only a cheap applicability test."""
    x, cls = e.endpoint, type(e.typing)
    others = [u for u in by if u != x]
    if cls is OfCourse:
        value = tuple(others) if hole else ts
        if others and rule_at(g, e, value):
            yield value, Server
        return
    if cls in QUEUES:
        (act,) = S.ACTIONS[cls]
        ready = {u: act for u in others if by[u].typing is not None} if hole else {
            u: act for u in ts if u in by and u != x}
    else:
        ready = {}
        for u in others if hole else ts:
            act = None if u == x else TAKEN_BY.get(type(destined(by.get(u), x)))
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


def _fire(e: Entry, hole: str | None, value: tuple[str, ...], ctor: type, g: Context, store,
          supply, failed, ren):
    """Fire ``ctor``'s rule at ``e`` with its head slot, the ``hole`` or set,
    set to ``value``, once per binder candidate, and rebuild the term around
    the solutions of the premises ``forwarder_step`` gives."""
    x, t = e.endpoint, e.typing
    if hole is not None:  # the head slot takes ``value``, the operands are kept
        store = {**store, hole: _unrename(ren, value)}
        g = g.replace({x: Entry(x, e.queue, type(t)(*S.children(t), value))})
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
