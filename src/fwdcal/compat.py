"""Transition semantics of type contexts and the compatibility decision.

A configuration is a forwarder ``Context``: each endpoint's type and its
queue of items labelled with the endpoint each is forwarded to.  It steps
exactly when a forwarder rule applies to it, with the premise as the target,
and each transition is a ``Step`` named by that rule: ``transitions`` reads
the moves off the checker's rule bodies (``checker.rule_at``) and keeps no
rule of its own.  Executability
asks that every maximal path drains the configuration and that the
environment carried by each ``Tensor`` step is itself compatible;
multiparty compatibility then quantifies over annotations of the dualized
environment.  The cross-check against forwarder synthesis is the package's
central correctness test.

The decision runs at the cost the theory allows through three reductions,
and is read off once it is made (point 4).

1. Canonical configurations.  ``_make`` alone builds them: entries in name
   order, each queue in target order, a terminated entry dropped once its
   queue is empty, and each boxed payload named by its position (``m1``,
   ``m2``, ... in (target, holder) order, skipping endpoint names).  So one
   state reached by two interleavings is one ``Context`` and the memo merges
   them.  Payload names are never read here: payload slots are pinned and a
   ``Tensor`` step carries the gathered types erased.
2. Annotation slots resolved on demand.  A spine slot with one candidate is
   filled at once; one with several gets a unique hole.  ``transitions``
   raises ``Need`` when an endpoint that might move under some value of its
   head slot has a hole there: one whose rule queues items (``QUEUES``)
   always, one whose rule takes them once an item waits for it, a ``1`` or
   a ``!`` once its rule body applies with every other endpoint.  The solver
   catches it, fills the hole with each candidate in turn
   (``nonempty_subsets``/name order) and runs again from the root.  A
   verdict reached without reading a hole holds for every way of filling
   it, so the memo stays keyed by configuration, holes included.  The solver
   skips a candidate that ``Need.viable`` rejects: the configuration
   that read the hole is reached whatever the hole holds, and every path
   from it under that value ends nonempty, so the root is not executable
   under it either.
3. One endpoint per configuration.  ``is_executable`` follows only the
   transitions of the first endpoint, in name order, that can move (both
   branches of a ``&`` are still followed).  This is a persistent set:

   - An endpoint consumes only the first item aimed at it in a queue and
     pushes only onto its own queue, behind the items it holds for the same
     target.  So transitions of distinct endpoints commute (their targets are
     equal configurations, canonical names included), and none disables
     another or changes the transitions another has: an endpoint keeps the
     moves it has until it takes one.
   - ``One``, ``Ax`` and ``Bang`` are enabled only when no other endpoint
     can move, so ``transitions`` tries them only then.
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
from typing import Callable, Collection, Iterable

from . import syntax as S
from .syntax import (
    Endpoint, Link, OfCourse, One, Par, Process, Send, Tensor, Type, dual, erase,
)
from .contexts import (
    QUEUES, Context, Entry, MsgBox, QueueItem, _unchecked, destined, map_context, normalize_queue,
)
from .records import record, uncompared
from .checker import (
    BINDER_BASE, CONNECTIVE_RULES, Env, forwarder_step, link_at, nonempty_subsets, rule_at,
)


# ---------------------------------------------------------------------------
# Transitions


@record
class Step:
    """A transition at ``x`` by the rule its body names (``&``'s premises are
    ``WithL``/``WithR``, as ``⊕``'s rules are ``PlusL``/``PlusR``), and the
    head action ``act`` of its term, which the tag determines.  ``carried``
    is the plain environment a ``Tensor`` step sends, ``e0 ... ek``: the
    gathered payload types, then the sent one; other steps carry none."""

    rule: str
    x: Endpoint
    carried: Env = ()
    act: type | None = uncompared(None)


class Need(Exception):
    """A transition must read an annotation slot that is still a hole.

    ``viable`` is false for a value that makes the reading configuration
    non-executable whatever happens next: an item sent to an endpoint that
    can never take it, a read from one that can never send it, or a 1 or a
    ! whose slot is not the one set its rule accepts."""

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


def _make(entries: Iterable[Entry]) -> Context:
    """The canonical configuration of ``entries``, given in name order with
    each queue in target order (``normalize_queue``): a terminated entry is
    dropped once its queue is empty, and every box is renamed to its
    canonical name, ``m<k>`` in (target, holder) order, skipping the names
    of endpoints and targets."""
    ents = [e for e in entries if e.queue or e.typing is not None]
    used, boxes = set(), []
    for i, e in enumerate(ents):
        used.add(e.endpoint)
        for j, it in enumerate(e.queue):
            used.add(it.target)
            if type(it) is MsgBox:
                boxes.append((it.target, e.endpoint, i, j))
    if boxes:
        boxes.sort()
        names = (n for n in map("m{}".format, count(1)) if n not in used)
        queues: dict[int, list[QueueItem]] = {}
        for _, _, i, j in boxes:
            it = ents[i].queue[j]
            pls = tuple([(next(names), t) for _, t in it.payloads])
            if pls != it.payloads:
                queues.setdefault(i, list(ents[i].queue))[j] = MsgBox(it.target, pls)
        for i, q in queues.items():
            ents[i] = Entry(ents[i].endpoint, tuple(q), ents[i].typing)
    return _unchecked(tuple(ents))


_EMPTY = Context(())


def transitions(c: Context, one_endpoint: bool = False) -> list[tuple[Step, Context]]:
    """The transitions of a configuration, endpoint by endpoint in name
    order, 1, ! and Ax last (point 3).  With ``one_endpoint``, only those of
    the first endpoint that has any (the persistent set of the module
    docstring).  Raises ``Need`` when an endpoint's move depends on a head
    slot that is still a hole."""
    ents = c.entries
    out: list[tuple[Step, Context]] = []
    for e in ents:
        cls = type(e.typing)
        if cls in CONNECTIVE_RULES and cls is not One and cls is not OfCourse:
            moves = _moves(c, e)
            if moves and one_endpoint:
                return moves
            out.extend(moves)
    if out:
        return out
    for e in ents:
        if type(e.typing) in (One, OfCourse) and (moves := _moves(c, e)):
            return moves  # no other endpoint moves, so no other 1 or !
    leaf = link_at(ents) if len(ents) == 2 else None  # two atoms can do nothing else
    return [(Step(leaf[0], leaf[1].endpoint, act=Link), _EMPTY)] if leaf else []


def _moves(c: Context, e: Entry) -> list[tuple[Step, Context]]:
    """The moves of ``e`` by its connective's rule (``rule_at``)."""
    ts = e.typing.targets
    if not ts:
        return []
    if S.is_hole(ts):
        return _need(c, e, ts)
    got = rule_at(c, e, ts)
    if got is None:
        return []
    x, (act, (tag, pops, prems, sent)) = e.endpoint, got
    carried = tuple((f"e{i}", erase(a)) for i, (_, a) in enumerate(sent)) if sent else ()
    moves = []
    for i, (typ, pushes) in enumerate(prems):  # & has a premise per branch
        pops[x] = Entry(x, normalize_queue(e.queue + pushes) if pushes else e.queue, typ)
        moves.append((Step(tag + "LR"[i] if len(prems) > 1 else tag, x, carried, act),
                      _make(pops.get(d.endpoint, d) for d in c.entries)))
    return moves or [(Step(tag, x, act=act), _EMPTY)]  # a leaf: nothing is left


def _need(c: Context, e: Entry, ts) -> list:
    """Raise ``Need`` when ``e`` might move under some value of its head
    slot, the hole ``ts[0]``; else give no moves.  A 1 or a ! takes every
    other endpoint, when its rule applies so.  Any other rule queues items
    for its targets (``QUEUES``) or, once an item waits for ``e``'s endpoint
    ``x``, takes them; only the dual connective's rule does the other half.
    A value is viable when each target can still do it: its typing holds the
    dual, or the items it holds for a taking ``x`` start with one ``x`` takes."""
    x, cls = e.endpoint, type(e.typing)
    if cls is One or cls is OfCourse:
        names = tuple(d.endpoint for d in c.entries if d is not e)
        if names and rule_at(c, e, names):
            raise Need(ts[0], lambda v: set(v) == set(names))
        return []
    dual = S.CONNECTIVES[cls].dual
    queues = cls in QUEUES
    items = QUEUES[cls if queues else dual]
    if not queues and not any(isinstance(destined(d, x), items) for d in c.entries):
        return []

    def viable(us) -> bool:
        for u in us:
            d = c.get(u)
            head = None if queues else destined(d, x)
            if not (isinstance(head, items) if head is not None else
                    d is not None and d.typing is not None and _occurs(d.typing, dual)):
                return False
        return True

    raise Need(ts[0], viable)


# ---------------------------------------------------------------------------
# Annotation


Slot = tuple[Endpoint, ...]


def _annotate(env: Collection[tuple[Endpoint, Type]], choose: Callable[[list[Slot], Slot], Slot],
              pin: Callable[[], Slot] | None = None) -> Context | None:
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
    entries = []
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

        entries.append(Entry(x, (), S.map_slots(t, slot)))
    return Context(tuple(entries))


def _typings(c: Context) -> dict[Endpoint, Type]:
    """Each endpoint's type in a root configuration (one without queues)."""
    return {e.endpoint: e.typing for e in c.entries}


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
    edges: tuple[tuple[Step, Context | None], ...]


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
        self._exec: dict[Context, Why] = {}
        self._roots: dict[Env, Context | None] = {}
        self.configs = 0
        self.memo_hits = 0
        self.resolutions = 0

    def stats(self) -> dict[str, int]:
        return {"configs": self.configs, "memo_hits": self.memo_hits,
                "resolutions": self.resolutions}

    def is_executable(self, c: Context) -> bool:
        """True when every maximal path ends empty and every send step
        carries a recursively compatible environment.  Raises ``Need`` when
        that depends on an annotation hole of ``c``."""
        return self.why(c).ok

    def why(self, c: Context) -> Why:
        """``is_executable``'s verdict on ``c``, with its reason."""
        hit = self._exec.get(c)
        if hit is not None:
            self.memo_hits += 1
            return hit
        self.configs += 1
        why = _DRAINED
        if c.entries:
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

    def _some_executable(self, env: Env) -> Context | None:
        """The first annotation of ``env`` found executable, or None.  Slots
        with several candidates start as holes and are filled as
        ``transitions`` reads them; a hole never read stays in the result."""
        candidates: dict[str, list[Slot]] = {}
        holes = S.holes()

        def choose(cands, _):
            if len(cands) == 1:
                return cands[0]
            hole = next(holes)
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

    def root(self, env: Env) -> Context | None:
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


def _fill(c: Context, hole: str, value: tuple[Endpoint, ...]) -> Context:
    """A root configuration (no queues) with ``hole`` set to ``value``."""
    return map_context(c, typ=lambda t: S.fill_holes(t, {hole: value}))


def is_executable(c: Context) -> bool:
    return CompatChecker().is_executable(c)


def multiparty_compatible(env: Env, checker: CompatChecker | None = None) -> bool:
    return (checker or CompatChecker()).multiparty_compatible(env)


def stuck_path(env: Env, checker: CompatChecker | None = None,
               ) -> tuple[Context, list[Step], Context] | None:
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
    if root is None or not root.entries:
        return None
    holes = S.holes()
    ann = _typings(_annotate(_typings(root).items(),
                             lambda cands, ts: cands[0] if S.is_hole(ts) else ts,
                             lambda: (next(holes),)))
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

    def term(self, c: Context, g: Context, ren: dict[Endpoint, Endpoint]) -> Process:
        """The term at ``g`` of executable ``c``, whose endpoint ``x`` is
        ``ren[x]`` in ``g``."""
        edges = self.chk._exec[c].edges
        lab = edges[0][0]
        x = ren[lab.x]
        ctor, heads, f = lab.act, (x,), None  # WithL's is the case over both branches
        if ctor is Link:
            heads = (x, ren[next(e.endpoint for e in c.entries if e.endpoint != lab.x)])
        elif ctor in S.BINDING:
            f = self.find(self.supply.fresh(BINDER_BASE.get(ctor, x)))
            if self.alias and g.binds(f):
                raise _Disagree(f)  # a shared name, bound already on this path
        head = S.head_term(ctor, heads, f)
        _, prem = forwarder_step(head, g)
        if ctor in S.RENAMING:  # the rule renames the endpoint to its binder
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

    def _resolve(self, left: Context, sub: Context) -> tuple[Context, dict[Endpoint, Endpoint]]:
        """``left``, a send's payload premise, with its holes set to the spine
        slots of ``sub``, the root annotation its carried environment
        ``e0 ... ek`` was decided by; and the renaming of those names."""
        ren = {f"e{i}": e.endpoint for i, e in enumerate(left.entries)}
        if not any(S.size(e.typing) for e in left.entries):
            return left, ren
        # the payload slots of sub's own payloads are pinned to a hole: they stay open
        spine = _typings(_annotate(_typings(sub).items(), lambda cands, ts: ts,
                                   lambda: (S.HOLE_PREFIX,)))
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
