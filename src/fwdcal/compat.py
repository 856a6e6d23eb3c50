"""Transition semantics of type contexts and the compatibility decision.

The transition system is defined so that a configuration steps exactly when a
forwarder rule applies to its context translation, with the premise as the
target, and each transition is a ``Step`` named by that rule.  Executability
asks that every maximal path drains the configuration and that the
environment carried by each ``Tensor`` step is itself compatible;
multiparty compatibility then quantifies over annotations of the dualized
environment.  The cross-check against forwarder synthesis is the package's
central correctness test.

The decision runs at the cost the theory allows through three reductions,
and is read off once it is made (point 4).

1. Canonical box names.  A boxed payload is named by its position in the
   configuration (``m1``, ``m2``, ... in ``sigma`` order, skipping endpoint
   names), assigned in ``_make`` alone, so one state reached by two
   interleavings is one ``Config`` and the memo merges them.  Payload names
   are never read here: payload slots are pinned and a ``Tensor`` step
   carries the gathered types erased.
2. Annotation slots resolved on demand.  A spine slot with one candidate is
   filled at once; one with several gets a unique hole.  ``transitions``
   raises ``Need`` when an endpoint that might move under some value of its
   head slot has a hole there: one whose rule queues items (``QUEUES``)
   always, one whose rule takes them once an item waits for it, a ``1`` or
   a ``!`` once the rest of the configuration allows its rule.  The solver
   catches it, fills the hole with each candidate in turn
   (``nonempty_subsets``/name order) and runs again from the root.  A
   verdict reached without reading a hole holds for every way of filling
   it, so the memo stays keyed by ``Config``, holes included.  The solver
   skips a candidate that ``Need.viable`` rejects: the configuration
   that read the hole is reached whatever the hole holds, and every path
   from it under that value ends nonempty, so the root is not executable
   under it either.
3. One endpoint per configuration.  ``is_executable`` follows only the
   transitions of the first endpoint, in name order, that can move (both
   branches of a ``&`` are still followed).  This is a persistent set:

   - An endpoint consumes only the heads of queues aimed at it and pushes
     only onto the tails of queues it holds.  So transitions of distinct
     endpoints commute (their targets are equal ``Config``s, canonical names
     included), and none disables another or changes the transitions another
     has: an endpoint keeps the moves it has until it takes one.
   - ``One``, ``Ax`` and ``Bang`` are enabled only when no other endpoint
     can move.
   - Every transition strictly shrinks the acting endpoint's type (``Ax``
     and ``One`` empty the configuration), so every path is finite.

   Hence the chosen endpoint moves on every maximal path, and moving its
   step to the front gives a path through one of the explored successors.
   By induction every maximal path is a permutation of an explored one: it
   ends in the same configuration and its ``Tensor`` steps carry the same
   environments.  ``transitions`` without ``one_endpoint`` still lists every
   endpoint's moves; the tests use it.  ``stuck_path`` follows one endpoint
   as well: its path enters only configurations that are not executable,
   where some move of the first endpoint that moves fails, and those moves
   come first among every endpoint's, so the all-endpoint search would
   never reach another endpoint.
4. The memo records why.  An executable configuration keeps the moves it
   followed, one that is not its first failing move (or none), and each
   environment decided the root annotation found executable (``Why``,
   ``CompatChecker``).  ``witness`` replays a positive verdict's record
   into a forwarder through ``forwarder_step``, and ``stuck_path`` follows
   the recorded failing moves, so neither searches again: the CLI's
   ``compat`` costs one decision, not a decision plus a synthesis.
"""

from __future__ import annotations

from itertools import count
from typing import Callable

from . import syntax as S
from .syntax import (
    Atom, Bot, Case, Client, Close, DualAtom, Endpoint, Inl, Inr, Link, OfCourse, One, Par,
    Plus, Process, Recv, Send, Server, Tensor, Type, Wait, WhyNot, With, dual, erase,
)
from .contexts import (
    QUEUES, Config, Context, EMPTY_CONFIG, Entry, LeftTok, MsgBox, Query, RightTok, Star,
    map_context, msgbox,
)
from .records import record
from .checker import BINDER_BASE, Env, forwarder_step, nonempty_subsets


# ---------------------------------------------------------------------------
# Transitions


@record
class Step:
    """A transition, named by the forwarder rule it mirrors (the tag
    ``forwarder_step`` gives it; ``&``'s premises are ``WithL``/``WithR``, as
    ``⊕``'s rules are ``PlusL``/``PlusR``) and acting at ``x``.  ``carried`` is
    the plain environment a ``Tensor`` step sends, ``e0 ... ek``: the gathered
    payload types, then the sent one; other steps carry none."""

    rule: str
    x: Endpoint
    carried: Env = ()


class Need(Exception):
    """A transition must read an annotation slot that is still a hole.

    ``viable`` is false for a value that makes the reading configuration
    non-executable whatever happens next: an item sent to an endpoint that
    can never take it, a read from one that can never send it, or a 1 or a
    ! whose slot is not the one set its rule accepts.
    """

    def __init__(self, hole: str, viable: Callable[[tuple[Endpoint, ...]], bool]):
        super().__init__(hole)
        self.hole = hole
        self.viable = viable


def _occurs(t: Type, cls: type) -> bool:
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, cls):
            return True
        todo.extend(S.children(t))
    return False


def _make(delta, sigma) -> Config:
    """``Config.make`` with every box renamed to its canonical name: ``m<k>``
    in ``sigma`` order, skipping the names of endpoints."""
    c = Config.make(delta, sigma)
    if not c.sigma:
        return c
    used = {x for x, _ in c.delta}
    for key, _ in c.sigma:
        used.update(key)
    names = (n for n in (f"m{k}" for k in count(1)) if n not in used)
    sig, changed = [], False
    for key, q in c.sigma:
        items = []
        for it in q:
            if isinstance(it, MsgBox):
                pls = tuple((next(names), t) for _, t in it.payloads)
                if pls != it.payloads:
                    it, changed = MsgBox(it.target, pls), True
            items.append(it)
        sig.append((key, tuple(items)))
    return Config(c.delta, tuple(sig)) if changed else c


def transitions(c: Config, one_endpoint: bool = False) -> list[tuple[Step, Config]]:
    """The transitions of a configuration, endpoint by endpoint in name order.

    With ``one_endpoint``, only those of the first endpoint that has any (the
    persistent set of the module docstring).  Raises ``Need`` when an
    endpoint's move depends on a head slot that is still a hole.
    """
    delta = c.delta_map()
    sigma = c.sigma_map()

    # Leaf rule on the whole configuration: two atoms can do nothing else.
    if len(delta) == 2 and not c.sigma:
        (x, tx), (y, ty) = c.delta
        if isinstance(tx, DualAtom) and isinstance(ty, Atom) and tx.name == ty.name:
            return [(Step("Ax", x), EMPTY_CONFIG)]
        if isinstance(tx, Atom) and isinstance(ty, DualAtom) and tx.name == ty.name:
            return [(Step("Ax", y), EMPTY_CONFIG)]

    out: list[tuple[Step, Config]] = []
    for x, t in c.delta:
        rule, ts = TRANSITIONS.get(type(t)), S.targets_of(t)
        if rule is None or not ts:
            continue
        if S.is_hole(ts) and rule is not _one and rule is not _bang:
            rule = _need
        moves = rule(c, x, t, ts, delta, sigma)
        if moves and one_endpoint:
            return moves
        out.extend(moves)
    return out


def _need(c: Config, x: Endpoint, t: Type, ts, delta, sigma):
    """The moves of ``x`` while its head slot is the hole ``ts[0]``, but
    for 1 and !: a ``Need`` when ``x`` might move under some value, else none.

    ``x``'s rule queues items for its targets (``QUEUES``) or, once an item
    waits for ``x``, takes them; only the dual connective's rule does the
    other half.  A value is viable when each target can still do it: its
    typing holds the dual, or the items it holds for a taking ``x`` start
    with one ``x`` takes.
    """
    cls = type(t)
    dual = S.CONNECTIVES[cls].dual
    queues = cls in QUEUES
    items = QUEUES[cls if queues else dual]
    if not queues and not any(u == x and isinstance(q[0], items) for (u, _), q in c.sigma):
        return []

    def viable(us) -> bool:
        for u in us:
            q = None if queues else sigma.get((x, u))
            if not (isinstance(q[0], items) if q else u in delta and _occurs(delta[u], dual)):
                return False
        return True

    raise Need(ts[0], viable)


# The rule table ``TRANSITIONS``, a row per connective: the moves of ``x`` at
# type ``t`` with its slot ``ts`` set (or a hole, for 1 and !), each given to
# ``_successor`` as ``x``'s new type (None when it terminates), the holders it
# pops from and the items it pushes.

def _one(c: Config, x: Endpoint, t: One, ts, delta, sigma):
    if len(delta) == 1 and all(key[0] == x and q == (Star(x),) for key, q in c.sigma):
        holders = {h for (_, h) in sigma}
        if S.is_hole(ts):
            raise Need(ts[0], lambda v: set(v) == holders)
        if holders == set(ts):
            return [_successor(c, sigma, "One", x, None, ts)]
    return []


def _bot(c: Config, x: Endpoint, t: Bot, ts, delta, sigma):
    return [_successor(c, sigma, "Bot", x, None, (), (Star(ts[0]),))]


def _par(c: Config, x: Endpoint, t: Par, ts, delta, sigma):
    return [_successor(c, sigma, "Par", x, t.right, (), (msgbox(ts[0], "m", t.left),))]


def _tensor(c: Config, x: Endpoint, t: Tensor, ts, delta, sigma):
    gathered: list[Type] = []
    for u in ts:
        q = sigma.get((x, u))
        if not q or not isinstance(q[0], MsgBox):
            return []
        gathered.extend(erase(g) for _, g in q[0].payloads)
    gathered.append(erase(t.left))
    carried = tuple((f"e{i}", g) for i, g in enumerate(gathered))
    return [_successor(c, sigma, "Tensor", x, t.right, ts, (), carried)]


def _plus(c: Config, x: Endpoint, t: Plus, ts, delta, sigma):
    q = sigma.get((x, ts[0]))
    if q and q[0] == LeftTok(x):
        return [_successor(c, sigma, "PlusL", x, t.left, ts)]
    if q and q[0] == RightTok(x):
        return [_successor(c, sigma, "PlusR", x, t.right, ts)]
    return []


def _with(c: Config, x: Endpoint, t: With, ts, delta, sigma):
    return [_successor(c, sigma, "WithL", x, t.left, (), tuple(LeftTok(u) for u in ts)),
            _successor(c, sigma, "WithR", x, t.right, (), tuple(RightTok(u) for u in ts))]


def _bang(c: Config, x: Endpoint, t: OfCourse, ts, delta, sigma):
    others = {k for k in delta if k != x}
    if not c.sigma and all(isinstance(delta[o], WhyNot) for o in others):
        if S.is_hole(ts):
            raise Need(ts[0], lambda v: set(v) == others)
        if set(ts) == others:
            return [_successor(c, sigma, "Bang", x, t.body, (), tuple(Query(u) for u in ts))]
    return []


def _quest(c: Config, x: Endpoint, t: WhyNot, ts, delta, sigma):
    q = sigma.get((x, ts[0]))
    if q and q[0] == Query(x):
        return [_successor(c, sigma, "Quest", x, t.body, ts)]
    return []


TRANSITIONS = {One: _one, Bot: _bot, Par: _par, Tensor: _tensor, Plus: _plus, With: _with,
               OfCourse: _bang, WhyNot: _quest}


def _successor(c: Config, sigma, rule: str, x: Endpoint, typ: Type | None,
               pops: tuple[Endpoint, ...] = (), pushes: tuple = (), carried: Env = (),
               ) -> tuple[Step, Config]:
    """The move of ``x`` by ``rule``: ``x`` takes type ``typ`` (None: it
    terminates), the first item for ``x`` at each of ``pops`` is consumed,
    and each of ``pushes`` joins ``x``'s queue for its target."""
    delta = tuple((k, typ if k == x else v) for k, v in c.delta if k != x or typ is not None)
    ns = dict(sigma)
    for u in pops:
        ns[(x, u)] = ns[(x, u)][1:]
    for it in pushes:
        ns[(it.target, x)] = ns.get((it.target, x), ()) + (it,)
    return Step(rule, x, carried), _make(delta, ns.items())


# ---------------------------------------------------------------------------
# Annotation


Slot = tuple[Endpoint, ...]


def _annotate(env: Env, choose: Callable[[list[Slot], Slot], Slot],
              pin: Callable[[], Slot] | None = None) -> Config | None:
    """The configuration of ``env`` with each spine slot set to
    ``choose(candidates, slot)``, where ``slot`` is its value in ``env``, or
    None when a slot has no candidate.

    A single-target slot's candidates are the other endpoints in name order,
    a multi-target slot's their ``nonempty_subsets``.  Slots inside message
    payloads (the left operand of a * or | on the spine) are erased again the
    moment the payload is carried out of the configuration, so their value is
    irrelevant here: they are pinned to ``pin()``, or to an arbitrary
    endpoint.  This walk alone tells payload slots from spine slots.
    """
    names = sorted(x for x, _ in env)
    delta = []
    for x, t in sorted(env):
        others = tuple(n for n in names if n != x)
        if not others and S.size(t):
            return None
        dummy = others[:1]
        single = [(u,) for u in others]
        multi = list(nonempty_subsets(others))
        in_payload = 0  # payload slots still to be visited

        def slot(s: Type, ts: Slot) -> Slot:
            nonlocal in_payload
            if in_payload:
                in_payload -= 1
                return pin() if pin else dummy
            if isinstance(s, (Tensor, Par)):
                in_payload = S.size(s.left)  # the next slots visited are the payload's
            return choose(multi if isinstance(s, S.MULTI_TARGET) else single, ts)

        delta.append((x, S.map_slots(t, slot)))
    return Config.make(delta)


# ---------------------------------------------------------------------------
# Executability and compatibility


def _canon_env(env: Env) -> Env:
    return tuple(sorted((x, erase(t)) for x, t in env))


def _dual_env(env: Env) -> Env:
    """The environment whose annotations decide ``env``'s compatibility."""
    return tuple((x, dual(t)) for x, t in _canon_env(env))


@record
class Why:
    """Why a configuration was decided.  An executable one keeps the
    transitions it followed (none: it is empty).  One that is not keeps its
    first failing transition, or none when it has no transition; that
    transition's target is None when the environment it carries is the
    part that fails."""

    ok: bool
    edges: tuple[tuple[Step, Config | None], ...]


_DRAINED = Why(True, ())


class CompatChecker:
    """Memoizing decision procedures over the transition semantics.

    The memos keep why: ``_exec`` maps each configuration decided to its
    ``Why``, and ``_roots`` each environment decided to the root annotation
    found executable, or None (``root``).  ``witness`` and ``stuck_path``
    read them.  It counts the configurations it explored (memo misses), the
    memo hits and the annotation slots it resolved; ``stats`` reports them.
    """

    def __init__(self):
        self._exec: dict[Config, Why] = {}
        self._roots: dict[Env, Config | None] = {}
        self.configs = 0
        self.memo_hits = 0
        self.resolutions = 0

    def stats(self) -> dict[str, int]:
        return {"configs": self.configs, "memo_hits": self.memo_hits,
                "resolutions": self.resolutions}

    def is_executable(self, c: Config) -> bool:
        """True when every maximal path ends empty and every send step
        carries a recursively compatible environment.  Raises ``Need`` when
        that depends on an annotation hole of ``c``."""
        return self.why(c).ok

    def why(self, c: Config) -> Why:
        """``is_executable``'s verdict on ``c``, with its reason."""
        hit = self._exec.get(c)
        if hit is not None:
            self.memo_hits += 1
            return hit
        self.configs += 1
        why = _DRAINED
        if not c.is_empty():
            trs = tuple(transitions(c, one_endpoint=True))
            why = Why(bool(trs), trs)
            for lab, c2 in trs:
                if lab.carried and not self.send_env_ok(lab.carried):
                    why = Why(False, ((lab, None),))
                    break
                if not self.why(c2).ok:
                    why = Why(False, ((lab, c2),))
                    break
        self._exec[c] = why
        return why

    def _some_executable(self, env: Env) -> Config | None:
        """The first annotation of ``env`` found executable, or None.  Slots
        with several candidates start as holes and are filled as
        ``transitions`` reads them; a hole never read stays in the result."""
        candidates: dict[str, list[Slot]] = {}

        def choose(cands, _):
            if len(cands) == 1:
                return cands[0]
            hole = f"{S.HOLE_PREFIX}{len(candidates) + 1}"
            candidates[hole] = cands
            return (hole,)

        root = _annotate(env, choose)
        todo = [] if root is None else [root]
        while todo:
            c = todo.pop()
            try:
                if self.is_executable(c):
                    return c
            except Need as need:
                self.resolutions += 1
                todo.extend(_fill(c, need.hole, v) for v in reversed(candidates[need.hole])
                            if need.viable(v))
        return None

    def root(self, env: Env) -> Config | None:
        """``_some_executable(env)``, decided once per environment."""
        if env not in self._roots:
            self._roots[env] = self._some_executable(env)
        return self._roots[env]

    def send_env_ok(self, env: Env) -> bool:
        """Some annotation of the carried environment is executable."""
        return self.root(_canon_env(env)) is not None

    def multiparty_compatible(self, env: Env) -> bool:
        """Some annotation of the dualized environment is executable."""
        return self.root(_dual_env(env)) is not None


def _fill(c: Config, hole: str, value: tuple[Endpoint, ...]) -> Config:
    """A root configuration (no queues) with ``hole`` set to ``value``."""
    return Config.make((x, S.fill_holes(t, {hole: value})) for x, t in c.delta)


def is_executable(c: Config) -> bool:
    return CompatChecker().is_executable(c)


def multiparty_compatible(env: Env, checker: CompatChecker | None = None) -> bool:
    return (checker or CompatChecker()).multiparty_compatible(env)


def stuck_path(env: Env, checker: CompatChecker | None = None,
               ) -> tuple[Config, list[Step], Config] | None:
    """A witness that an environment is incompatible: for the first annotation
    of its dual, a maximal path ending in a nonempty configuration (or a send
    step whose carried environment is itself incompatible).  None when that
    annotation is executable, or when the dual has no annotation at all.

    On an incompatible environment no annotation is executable, so the first
    one is as good a witness as any.  The path is the chain of first failing
    transitions that deciding the annotation recorded.
    """
    chk = checker or CompatChecker()
    c0 = _annotate(_dual_env(env), lambda cands, _: cands[0])
    if c0 is None:
        return None
    why = chk.why(c0)
    if why.ok:
        return None
    labels, c = [], c0
    while why.edges:
        ((lab, c2),) = why.edges
        labels.append(lab)
        if c2 is None:
            break
        c, why = c2, chk._exec[c2]
    return c0, labels, c


# ---------------------------------------------------------------------------
# Witnesses


def witness(env: Env, checker: CompatChecker | None = None) -> tuple[Context, Process] | None:
    """A forwarder for a compatible environment, read off the run that
    decided it, and the annotated dual it inhabits (entries in ``env``'s
    order).  None when ``env`` is not compatible, or in the case below.

    The decided root annotation gives the spine slots; a hole that compat
    never read takes the first other endpoint in name order.  Payload slots
    start as holes.  The recorded transitions are replayed from the root
    through ``forwarder_step``, one head constructor per ``Step``, so the
    term is derived rule by rule as it is built.  A ``Tensor`` step sets the
    holes of its payload premise from the root annotation its carried
    environment was decided by, and replays that one in turn.  Holes left
    open at the end take the same default as spine slots.

    A box sent on both branches of a ``&`` is sent twice, each time with
    binders of that branch, but its payload slots are set once.  When the
    two sends set a slot to different binders, those binders share a name
    and the replay runs again.  When they set it to sets of different
    sizes, or a shared name would be bound twice on one path, the branches
    disagree on the payload's annotation, and there is no witness to read.
    """
    chk = checker or CompatChecker()
    root = chk.root(_dual_env(env))
    if root is None or root.is_empty():
        return None
    holes = count(1)
    ann = _annotate(root.delta, lambda cands, ts: cands[0] if S.is_hole(ts) else ts,
                    lambda: (f"{S.HOLE_PREFIX}{next(holes)}",)).delta_map()
    g = Context(tuple(Entry(x, (), ann[x]) for x, _ in env))
    ren = {x: x for x in ann}
    replay = _Replay(chk, ann, {})
    try:
        proc = replay.term(root, g, ren)
        if replay.alias:
            # the same fresh names again, each mapped to the name it shares
            replay = _Replay(chk, ann, replay.alias)
            proc = replay.term(root, g, ren)
    except _Disagree:
        return None
    names = sorted(ann)
    return Context(tuple(
        Entry(e.endpoint, (), S.fill_holes(e.typing, replay.store,
                                           next(n for n in names if n != e.endpoint)))
        for e in g.entries)), proc


class _Disagree(Exception):
    """Two branches need different values in one payload slot."""


# The head constructor of the term each rule's step stands for; WithL stands
# for the case over both branches.
_HEADS = {
    "Ax": Link, "One": Close, "Bot": Wait, "Par": Recv, "Tensor": Send, "PlusL": Inl,
    "PlusR": Inr, "WithL": Case, "Bang": Server, "Quest": Client,
}


class _Replay:
    """One replay of a decided run into a term.  ``store`` collects the
    payload holes set on the way; ``alias`` maps a binder name to the name
    it shares with a binder of another branch."""

    def __init__(self, chk: CompatChecker, names, alias: dict[str, str]):
        self.chk = chk
        self.supply = S.FreshNames(frozenset(names))
        self.store: dict[str, Slot] = {}
        self.alias = dict(alias)

    def find(self, n: str) -> str:
        while n in self.alias:
            n = self.alias[n]
        return n

    def term(self, c: Config, g: Context, ren: dict[Endpoint, Endpoint]) -> Process:
        """The term at ``g`` of executable ``c``, whose endpoint ``x`` is
        ``ren[x]`` in ``g``."""
        edges = self.chk._exec[c].edges
        lab = edges[0][0]
        x = ren[lab.x]
        ctor, heads, f = _HEADS[lab.rule], (x,), None
        if ctor is Link:
            heads = (x, ren[next(n for n, _ in c.delta if n != lab.x)])
        elif ctor in S.BINDING:
            f = self.find(self.supply.fresh(BINDER_BASE.get(ctor, x)))
            if self.alias and g.binds(f):
                raise _Disagree(f)  # a shared name, bound already on this path
        head = S.head_term(ctor, heads, f)
        _, prem = forwarder_step(head, g)
        if ctor in (Server, Client):  # the rule renames the endpoint to its binder
            ren = {**ren, lab.x: head.fresh}
        if ctor is Send:
            (_, left), (_, right) = prem
            sub = self.chk.root(_canon_env(lab.carried))
            left, sub_ren = self._resolve(left, sub)
            qs = (self.term(sub, left, sub_ren), self.term(edges[0][1], right, ren))
        else:
            qs = tuple(self.term(c2, g2, ren) for (_, g2), (_, c2) in zip(prem, edges))
        names, scopes = S.scope(head)
        return S.from_scope(head, names, tuple((bs, q) for (bs, _), q in zip(scopes, qs)))

    def _resolve(self, left: Context, sub: Config) -> tuple[Context, dict[Endpoint, Endpoint]]:
        """``left``, a send's payload premise, with its holes set to the spine
        slots of ``sub``, the root annotation its carried environment
        ``e0 ... ek`` was decided by; and the renaming of those names."""
        ren = {f"e{i}": e.endpoint for i, e in enumerate(left.entries)}
        if not any(S.size(e.typing) for e in left.entries):
            return left, ren
        # the payload slots of sub's own payloads are pinned to a hole: they stay open
        spine = _annotate(sub.delta, lambda cands, ts: ts, lambda: (S.HOLE_PREFIX,)).delta_map()
        found = {}
        for e, e_k in zip(left.entries, ren):
            for ts, vs in zip(S.slots(e.typing), S.slots(spine[e_k])):
                if S.is_hole(ts) and not S.is_hole(vs):
                    found[ts[0]] = v = tuple(ren[u] for u in vs)
                    self._set(ts[0], v)
        return map_context(left, typ=lambda t: S.fill_holes(t, found)), ren

    def _set(self, hole: str, v: Slot):
        """Record ``hole``'s value; one it already has on another branch
        makes their binders share names."""
        old = self.store.setdefault(hole, v)
        if old == v:
            return
        if len(old) != len(v):
            raise _Disagree(hole)
        for a, b in zip(old, v):
            a, b = self.find(a), self.find(b)
            if a != b:
                self.alias[b] = a
