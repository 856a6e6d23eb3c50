"""Transition semantics of type contexts and the compatibility decision.

The transition system is defined so that a configuration steps exactly when a
forwarder rule applies to its context translation, with the premise as the
target.  Executability asks that every maximal path drains the configuration
and that the environment carried by each send step is itself compatible;
multiparty compatibility then quantifies over annotations of the dualized
environment.  The cross-check against forwarder synthesis is the package's
central correctness test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from . import syntax as S
from .syntax import (
    Atom, Bot, DualAtom, Endpoint, OfCourse, One, Par, Plus, Tensor, Type, WhyNot, With,
    dual, erase,
)
from .contexts import Config, EMPTY_CONFIG, LeftTok, MsgBox, Query, RightTok, Star, msgbox
from .checker import Env, nonempty_subsets


# ---------------------------------------------------------------------------
# Transition labels


@dataclass(frozen=True)
class LinkStep:
    x: Endpoint
    y: Endpoint


@dataclass(frozen=True)
class CloseStep:
    holders: tuple[Endpoint, ...]
    x: Endpoint


@dataclass(frozen=True)
class WaitStep:
    x: Endpoint
    u: Endpoint


@dataclass(frozen=True)
class SendStep:
    holders: tuple[Endpoint, ...]
    x: Endpoint
    carried: tuple[Type, tuple[Type, ...]]  # plain payload type and gathered types


@dataclass(frozen=True)
class RecvStep:
    x: Endpoint
    u: Endpoint


@dataclass(frozen=True)
class SelLStep:
    x: Endpoint
    z: Endpoint


@dataclass(frozen=True)
class SelRStep:
    x: Endpoint
    z: Endpoint


@dataclass(frozen=True)
class BranchLStep:
    x: Endpoint
    targets: tuple[Endpoint, ...]


@dataclass(frozen=True)
class BranchRStep:
    x: Endpoint
    targets: tuple[Endpoint, ...]


@dataclass(frozen=True)
class BangStep:
    targets: tuple[Endpoint, ...]
    x: Endpoint


@dataclass(frozen=True)
class QuestStep:
    x: Endpoint
    z: Endpoint


TransitionLabel = (
    LinkStep | CloseStep | WaitStep | SendStep | RecvStep | SelLStep | SelRStep
    | BranchLStep | BranchRStep | BangStep | QuestStep
)


def _fresh_payload_name(c: Config) -> str:
    used = {x for x, _ in c.delta} | c.holders()
    for (_, _), q in c.sigma:
        for it in q:
            if isinstance(it, MsgBox):
                used.update(p for p, _ in it.payloads)
    k = 1
    while f"m{k}" in used:
        k += 1
    return f"m{k}"


def transitions(c: Config) -> list[tuple[TransitionLabel, Config]]:
    """All transitions of a fully annotated configuration."""
    out: list[tuple[TransitionLabel, Config]] = []
    delta = c.delta_map()
    sigma = c.sigma_map()

    # Leaf rules look at the whole configuration.
    if len(delta) == 2 and not c.sigma:
        (x, tx), (y, ty) = sorted(delta.items())
        if isinstance(tx, DualAtom) and isinstance(ty, Atom) and tx.name == ty.name:
            out.append((LinkStep(x, y), EMPTY_CONFIG))
        elif isinstance(tx, Atom) and isinstance(ty, DualAtom) and tx.name == ty.name:
            out.append((LinkStep(y, x), EMPTY_CONFIG))

    for x, t in sorted(delta.items()):
        match t:
            case One(ts):
                holders_ok = all(
                    key[0] == x and q == (Star(x),) for key, q in c.sigma
                )
                if (
                    ts
                    and len(delta) == 1
                    and holders_ok
                    and {h for (_, h) in sigma} == set(ts)
                ):
                    out.append((CloseStep(tuple(sorted(ts)), x), EMPTY_CONFIG))
            case Bot(u) if u is not None:
                nd = tuple((k, v) for k, v in c.delta if k != x)
                ns = dict(sigma)
                ns[(u, x)] = ns.get((u, x), ()) + (Star(u),)
                out.append((WaitStep(x, u), Config.make(nd, ns.items())))
            case Par(a, b, u) if u is not None:
                m = _fresh_payload_name(c)
                nd = tuple((k, b if k == x else v) for k, v in c.delta)
                ns = dict(sigma)
                ns[(u, x)] = ns.get((u, x), ()) + (msgbox(u, m, a),)
                out.append((RecvStep(x, u), Config.make(nd, ns.items())))
            case Tensor(a, b, ts) if ts:
                gathered: list[Type] = []
                ns = dict(sigma)
                ok = True
                for u in ts:
                    q = ns.get((x, u), ())
                    if not q or not isinstance(q[0], MsgBox) or q[0].target != x:
                        ok = False
                        break
                    gathered.extend(tt for _, tt in q[0].payloads)
                    ns[(x, u)] = q[1:]
                if ok:
                    nd = tuple((k, b if k == x else v) for k, v in c.delta)
                    lab = SendStep(tuple(ts), x, (erase(a), tuple(erase(g) for g in gathered)))
                    out.append((lab, Config.make(nd, ns.items())))
            case Plus(a, b, z) if z is not None:
                q = sigma.get((x, z), ())
                if q and q[0] == LeftTok(x):
                    ns = dict(sigma)
                    ns[(x, z)] = q[1:]
                    nd = tuple((k, a if k == x else v) for k, v in c.delta)
                    out.append((SelLStep(x, z), Config.make(nd, ns.items())))
                elif q and q[0] == RightTok(x):
                    ns = dict(sigma)
                    ns[(x, z)] = q[1:]
                    nd = tuple((k, b if k == x else v) for k, v in c.delta)
                    out.append((SelRStep(x, z), Config.make(nd, ns.items())))
            case With(a, b, ts) if ts:
                for lab_cls, keep in ((BranchLStep, a), (BranchRStep, b)):
                    ns = dict(sigma)
                    tok = LeftTok if lab_cls is BranchLStep else RightTok
                    for u in ts:
                        ns[(u, x)] = ns.get((u, x), ()) + (tok(u),)
                    nd = tuple((k, keep if k == x else v) for k, v in c.delta)
                    out.append((lab_cls(x, tuple(ts)), Config.make(nd, ns.items())))
            case OfCourse(a, ts) if ts:
                others = {k for k in delta if k != x}
                if (
                    not c.sigma
                    and set(ts) == others
                    and all(isinstance(delta[o], WhyNot) for o in others)
                ):
                    nd = tuple((k, a if k == x else v) for k, v in c.delta)
                    ns = {(u, x): (Query(u),) for u in ts}
                    out.append((BangStep(tuple(ts), x), Config.make(nd, ns.items())))
            case WhyNot(a, z) if z is not None:
                q = sigma.get((x, z), ())
                if q and q[0] == Query(x):
                    ns = dict(sigma)
                    ns[(x, z)] = q[1:]
                    nd = tuple((k, a if k == x else v) for k, v in c.delta)
                    out.append((QuestStep(x, z), Config.make(nd, ns.items())))
    return out


# ---------------------------------------------------------------------------
# Annotation enumeration

def _annotation_variants(t: Type, owner: Endpoint,
                         others: tuple[Endpoint, ...]) -> Iterator[Type]:
    """All spine-slot annotations of a plain type, in the lexicographic
    order of their slots in ``map_slots`` order.

    Slots inside message payloads (the left operand of a * or | on the
    spine) are erased again the moment the payload is carried out of the
    configuration, so their value is irrelevant; they are pinned to an
    arbitrary endpoint to keep the type fully annotated.
    """
    dummy = (others[0],) if others else (owner,)
    choices: list[list[tuple[Endpoint, ...]]] = []
    in_payload = 0  # payload slots still to be visited

    def plan(s: Type, ts: tuple[Endpoint, ...]) -> tuple[Endpoint, ...]:
        nonlocal in_payload
        if in_payload:
            in_payload -= 1
            choices.append([dummy])
            return ts
        if isinstance(s, S.MULTI_TARGET):
            choices.append(list(nonempty_subsets(others)))
        else:
            choices.append([(u,) for u in others])
        if isinstance(s, (Tensor, Par)):
            in_payload = S.size(s.left)  # the next slots visited are the payload's
        return ts

    S.map_slots(t, plan)
    for combo in product(*choices):
        slot = iter(combo)
        yield S.map_slots(t, lambda _, ts: next(slot))


def annotation_variants(env: Env) -> Iterator[Config]:
    """All initial configurations over the spine annotations of ``env``."""
    names = tuple(sorted(x for x, _ in env))
    per_entry = []
    for x, t in sorted(env):
        others = tuple(n for n in names if n != x)
        per_entry.append([(x, v) for v in _annotation_variants(erase(t), x, others)])
    for combo in product(*per_entry):
        yield Config.make(combo)


# ---------------------------------------------------------------------------
# Executability and compatibility


def _canon_env(env: Env) -> Env:
    return tuple(sorted((x, erase(t)) for x, t in env))


class CompatChecker:
    """Memoizing decision procedures over the transition semantics."""

    def __init__(self):
        self._exec: dict[Config, bool] = {}
        self._send_ok: dict[tuple, bool] = {}
        self._compat: dict[tuple, bool] = {}

    def is_executable(self, c: Config) -> bool:
        """True when every maximal path ends empty and every send step
        carries a recursively compatible environment."""
        hit = self._exec.get(c)
        if hit is not None:
            return hit
        if c.is_empty():
            self._exec[c] = True
            return True
        trs = transitions(c)
        ok = bool(trs)
        for lab, c2 in trs:
            if not ok:
                break
            if isinstance(lab, SendStep):
                a, gathered = lab.carried
                carried_env = tuple(
                    (f"e{i}", t) for i, t in enumerate(gathered + (a,))
                )
                if not self.send_env_ok(carried_env):
                    ok = False
                    break
            if not self.is_executable(c2):
                ok = False
        self._exec[c] = ok
        return ok

    def send_env_ok(self, env: Env) -> bool:
        """Some annotation of the carried environment is executable."""
        key = tuple(t for _, t in _canon_env(env))
        hit = self._send_ok.get(key)
        if hit is not None:
            return hit
        ok = any(self.is_executable(c) for c in annotation_variants(env))
        self._send_ok[key] = ok
        return ok

    def multiparty_compatible(self, env: Env) -> bool:
        """Some annotation of the dualized environment is executable."""
        key = _canon_env(env)
        hit = self._compat.get(key)
        if hit is not None:
            return hit
        denv = tuple((x, dual(t)) for x, t in key)
        ok = any(self.is_executable(c) for c in annotation_variants(denv))
        self._compat[key] = ok
        return ok


def is_executable(c: Config) -> bool:
    return CompatChecker().is_executable(c)


def multiparty_compatible(env: Env) -> bool:
    return CompatChecker().multiparty_compatible(env)


def stuck_path(env: Env) -> tuple[Config, list[TransitionLabel], Config] | None:
    """A witness that an environment is incompatible: for the first annotation
    of its dual, a maximal path ending in a nonempty configuration (or a send
    step whose carried environment is itself incompatible)."""
    denv = tuple((x, dual(erase(t))) for x, t in env)
    chk = CompatChecker()
    for c0 in annotation_variants(denv):
        if chk.is_executable(c0):
            continue

        def search(c: Config, seen: list[TransitionLabel]):
            trs = transitions(c)
            if not trs:
                return (seen, c) if not c.is_empty() else None
            for lab, c2 in trs:
                if isinstance(lab, SendStep):
                    a, gathered = lab.carried
                    carried_env = tuple((f"e{i}", t) for i, t in enumerate(gathered + (a,)))
                    if not chk.send_env_ok(carried_env):
                        return (seen + [lab], c)
                if not chk.is_executable(c2):
                    got = search(c2, seen + [lab])
                    if got is not None:
                        return got
            return None

        got = search(c0, [])
        if got is not None:
            labels, final = got
            return c0, labels, final
    return None
