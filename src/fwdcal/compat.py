"""Transition semantics of type contexts and the compatibility decision.

The transition system is defined so that a configuration steps exactly when a
forwarder rule applies to its context translation, with the premise as the
target, and each transition is a ``Step`` named by that rule.  Executability
asks that every maximal path drains the configuration and that the
environment carried by each ``Tensor`` step is itself compatible;
multiparty compatibility then quantifies over annotations of the dualized
environment.  The cross-check against forwarder synthesis is the package's
central correctness test.

The decision runs at the cost the theory allows through three reductions.

1. Canonical box names.  A boxed payload is named by its position in the
   configuration (``m1``, ``m2``, ... in ``sigma`` order, skipping endpoint
   names), assigned in ``_make`` alone, so one state reached by two
   interleavings is one ``Config`` and the memo merges them.  Payload names
   are never read here: payload slots are pinned and a ``Tensor`` step
   carries the gathered types erased.
2. Annotation slots resolved on demand.  A spine slot with one candidate is
   filled at once; one with several gets a unique hole.  ``transitions``
   raises ``Need`` when an endpoint that might move under some value of its
   head slot has a hole there (a ``1`` slot is read only when its entry is
   the last one left).  The solver catches it, fills the hole with each
   candidate in turn (``nonempty_subsets``/name order) and runs again from the
   root.  A verdict reached without reading a hole holds for every way of
   filling it, so the memo stays keyed by ``Config``, holes included.  The
   solver skips a candidate that ``Need.viable`` rejects: the configuration
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
   endpoint's moves; ``stuck_path`` and the tests use it.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, NamedTuple

from . import syntax as S
from .syntax import (
    Atom, Bot, DualAtom, Endpoint, OfCourse, One, Par, Plus, Tensor, Type, WhyNot, With,
    dual, erase,
)
from .contexts import Config, EMPTY_CONFIG, LeftTok, MsgBox, Query, RightTok, Star, msgbox
from .checker import _HOLE_PREFIX, Env, _is_hole, _subst_holes_type, nonempty_subsets


# ---------------------------------------------------------------------------
# Transitions


class Step(NamedTuple):
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


def _takes(delta, us, rule: type) -> bool:
    """Each of ``us`` is still present and may yet fire ``rule``, the only
    rule that removes the item sent to it."""
    return all(u in delta and _occurs(delta[u], rule) for u in us)


def _feeds(sigma, delta, x: Endpoint, us, items, rule: type) -> bool:
    """The queue of items for ``x`` at each of ``us`` starts with one of
    ``items``, or is empty and its holder may yet fire ``rule``, the only
    rule that sends one; any other head blocks ``x`` for good."""
    for u in us:
        q = sigma.get((x, u))
        if not (isinstance(q[0], items) if q else _takes(delta, (u,), rule)):
            return False
    return True


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


def _waiting(c: Config, x: Endpoint, kinds) -> bool:
    """Some queue aimed at ``x`` has an item of one of ``kinds`` at its head."""
    return any(u == x and isinstance(q[0], kinds) for (u, _), q in c.sigma)


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
        moves = _endpoint_transitions(c, x, t, delta, sigma)
        if moves and one_endpoint:
            return moves
        out.extend(moves)
    return out


def _endpoint_transitions(c: Config, x: Endpoint, t: Type, delta, sigma):
    """The rule table: the moves of ``x``, each given to ``_successor`` as
    ``x``'s new type (None when it terminates), the holders whose first item
    for ``x`` it pops and the items it pushes onto ``x``'s queues."""
    match t:
        case One(ts):
            if len(delta) == 1 and all(key[0] == x and q == (Star(x),) for key, q in c.sigma):
                holders = {h for (_, h) in sigma}
                if _is_hole(ts):
                    raise Need(ts[0], lambda v: set(v) == holders)
                if ts and holders == set(ts):
                    return [_successor(c, sigma, "One", x, None, ts)]
        case Bot(u) if u is not None:
            if _is_hole((u,)):
                raise Need(u, lambda v: _takes(delta, v, One))
            return [_successor(c, sigma, "Bot", x, None, (), (Star(u),))]
        case Par(a, b, u) if u is not None:
            if _is_hole((u,)):
                raise Need(u, lambda v: _takes(delta, v, Tensor))
            return [_successor(c, sigma, "Par", x, b, (), (msgbox(u, "m", a),))]
        case Tensor(a, b, ts) if ts:
            if _is_hole(ts):
                if _waiting(c, x, MsgBox):
                    raise Need(ts[0], lambda v: _feeds(sigma, delta, x, v, MsgBox, Par))
                return []
            gathered: list[Type] = []
            for u in ts:
                q = sigma.get((x, u))
                if not q or not isinstance(q[0], MsgBox):
                    return []
                gathered.extend(erase(g) for _, g in q[0].payloads)
            gathered.append(erase(a))
            carried = tuple((f"e{i}", g) for i, g in enumerate(gathered))
            return [_successor(c, sigma, "Tensor", x, b, ts, (), carried)]
        case Plus(a, b, z) if z is not None:
            if _is_hole((z,)):
                if _waiting(c, x, (LeftTok, RightTok)):
                    raise Need(z, lambda v: _feeds(sigma, delta, x, v, (LeftTok, RightTok), With))
                return []
            q = sigma.get((x, z))
            if q and q[0] == LeftTok(x):
                return [_successor(c, sigma, "PlusL", x, a, (z,))]
            if q and q[0] == RightTok(x):
                return [_successor(c, sigma, "PlusR", x, b, (z,))]
        case With(a, b, ts) if ts:
            if _is_hole(ts):
                raise Need(ts[0], lambda v: _takes(delta, v, Plus))
            return [_successor(c, sigma, "WithL", x, a, (), tuple(LeftTok(u) for u in ts)),
                    _successor(c, sigma, "WithR", x, b, (), tuple(RightTok(u) for u in ts))]
        case OfCourse(a, ts) if ts:
            others = {k for k in delta if k != x}
            if not c.sigma and all(isinstance(delta[o], WhyNot) for o in others):
                if _is_hole(ts):
                    raise Need(ts[0], lambda v: set(v) == others)
                if set(ts) == others:
                    return [_successor(c, sigma, "Bang", x, a, (), tuple(Query(u) for u in ts))]
        case WhyNot(a, z) if z is not None:
            if _is_hole((z,)):
                if _waiting(c, x, Query):
                    raise Need(z, lambda v: _feeds(sigma, delta, x, v, Query, OfCourse))
                return []
            q = sigma.get((x, z))
            if q and q[0] == Query(x):
                return [_successor(c, sigma, "Quest", x, a, (z,))]
    return []


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


def _annotate(env: Env, choose: Callable[[list[tuple[Endpoint, ...]]], tuple[Endpoint, ...]],
              ) -> Config | None:
    """The configuration of ``env`` with each spine slot set to
    ``choose(candidates)``, or None when a slot has no candidate.

    A single-target slot's candidates are the other endpoints in name order,
    a multi-target slot's their ``nonempty_subsets``.  Slots inside message
    payloads (the left operand of a * or | on the spine) are erased again the
    moment the payload is carried out of the configuration, so their value is
    irrelevant; they are pinned to an arbitrary endpoint.
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

        def slot(s: Type, ts: tuple[Endpoint, ...]) -> tuple[Endpoint, ...]:
            nonlocal in_payload
            if in_payload:
                in_payload -= 1
                return dummy
            if isinstance(s, (Tensor, Par)):
                in_payload = S.size(s.left)  # the next slots visited are the payload's
            return choose(multi if isinstance(s, S.MULTI_TARGET) else single)

        delta.append((x, S.map_slots(erase(t), slot)))
    return Config.make(delta)


# ---------------------------------------------------------------------------
# Executability and compatibility


def _canon_env(env: Env) -> Env:
    return tuple(sorted((x, erase(t)) for x, t in env))


class CompatChecker:
    """Memoizing decision procedures over the transition semantics.

    It counts the configurations it explored (memo misses), the memo hits
    and the annotation slots it resolved; ``stats`` reports them.
    """

    def __init__(self):
        self._exec: dict[Config, bool] = {}
        self._send_ok: dict[tuple, bool] = {}
        self._compat: dict[tuple, bool] = {}
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
        hit = self._exec.get(c)
        if hit is not None:
            self.memo_hits += 1
            return hit
        self.configs += 1
        if c.is_empty():
            self._exec[c] = True
            return True
        trs = transitions(c, one_endpoint=True)
        ok = bool(trs)
        for lab, c2 in trs:
            if lab.carried and not self.send_env_ok(lab.carried):
                ok = False
                break
            if not self.is_executable(c2):
                ok = False
                break
        self._exec[c] = ok
        return ok

    def _some_executable(self, env: Env) -> bool:
        """Some annotation of ``env`` is executable.  Slots with several
        candidates start as holes and are filled as ``transitions`` reads
        them."""
        candidates: dict[str, list[tuple[Endpoint, ...]]] = {}

        def choose(cands):
            if len(cands) == 1:
                return cands[0]
            hole = f"{_HOLE_PREFIX}{len(candidates) + 1}"
            candidates[hole] = cands
            return (hole,)

        root = _annotate(env, choose)
        todo = [] if root is None else [root]
        while todo:
            c = todo.pop()
            try:
                if self.is_executable(c):
                    return True
            except Need as need:
                self.resolutions += 1
                todo.extend(_fill(c, need.hole, v) for v in reversed(candidates[need.hole])
                            if need.viable(v))
        return False

    def send_env_ok(self, env: Env) -> bool:
        """Some annotation of the carried environment is executable."""
        key = tuple(t for _, t in _canon_env(env))
        hit = self._send_ok.get(key)
        if hit is None:
            hit = self._send_ok[key] = self._some_executable(env)
        return hit

    def multiparty_compatible(self, env: Env) -> bool:
        """Some annotation of the dualized environment is executable."""
        key = _canon_env(env)
        hit = self._compat.get(key)
        if hit is None:
            denv = tuple((x, dual(t)) for x, t in key)
            hit = self._compat[key] = self._some_executable(denv)
        return hit


def _fill(c: Config, hole: str, value: tuple[Endpoint, ...]) -> Config:
    """A root configuration (no queues) with ``hole`` set to ``value``."""
    return Config.make((x, _subst_holes_type(t, {hole: value})) for x, t in c.delta)


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
    one is as good a witness as any.
    """
    chk = checker or CompatChecker()
    c0 = _annotate(tuple((x, dual(erase(t))) for x, t in env), lambda cands: cands[0])
    if c0 is None or chk.is_executable(c0):
        return None

    def search(c: Config, seen: list[Step]):
        trs = transitions(c)
        if not trs:
            return (seen, c) if not c.is_empty() else None
        for lab, c2 in trs:
            if lab.carried and not chk.send_env_ok(lab.carried):
                return (seen + [lab], c)
            if not chk.is_executable(c2):
                got = search(c2, seen + [lab])
                if got is not None:
                    return got
        return None

    labels, final = search(c0, [])
    return c0, labels, final
