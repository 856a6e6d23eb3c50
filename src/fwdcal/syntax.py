"""Abstract syntax for annotated session types and process terms.

Types are classical linear logic propositions whose connectives carry
forwarding-target annotations: an empty annotation slot means the type is in
its erased (plain) form.  One AST serves both the annotated judgement and the
plain CP judgement; the checkers decide which discipline applies.

Endpoints are bare strings matching ``[a-zA-Z][a-zA-Z0-9_']*``.  Engine-made
fresh names may additionally contain ``#``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

Endpoint = str


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class DualAtom:
    name: str


@dataclass(frozen=True)
class One:
    targets: tuple[Endpoint, ...] = ()


@dataclass(frozen=True)
class Bot:
    target: Endpoint | None = None


@dataclass(frozen=True)
class Tensor:
    left: Type
    right: Type
    targets: tuple[Endpoint, ...] = ()


@dataclass(frozen=True)
class Par:
    left: Type
    right: Type
    target: Endpoint | None = None


@dataclass(frozen=True)
class Plus:
    left: Type
    right: Type
    target: Endpoint | None = None


@dataclass(frozen=True)
class With:
    left: Type
    right: Type
    targets: tuple[Endpoint, ...] = ()


@dataclass(frozen=True)
class OfCourse:
    body: Type
    targets: tuple[Endpoint, ...] = ()


@dataclass(frozen=True)
class WhyNot:
    body: Type
    target: Endpoint | None = None


Type = Union[Atom, DualAtom, One, Bot, Tensor, Par, Plus, With, OfCourse, WhyNot]

# Operand count of each connective and unit, and whether its annotation slot
# is a set of endpoints (gathering/broadcast) rather than a single endpoint.
_SHAPES = {
    One: (0, True), Bot: (0, False), Tensor: (2, True), Par: (2, False),
    Plus: (2, False), With: (2, True), OfCourse: (1, True), WhyNot: (1, False),
}
MULTI_TARGET = tuple(c for c, (_, multi) in _SHAPES.items() if multi)


def children(t: Type) -> tuple[Type, ...]:
    match t:
        case Atom() | DualAtom() | One() | Bot():
            return ()
        case Tensor(l, r, _) | Par(l, r, _) | Plus(l, r, _) | With(l, r, _):
            return (l, r)
        case OfCourse(b, _) | WhyNot(b, _):
            return (b,)
    raise TypeError(t)


def erase(t: Type) -> Type:
    """Strip every annotation slot, yielding the plain CP-side type."""
    return map_slots(t, lambda _, ts: ())


def dual(t: Type) -> Type:
    """De Morgan dual of an erased type.

    Cut formulas are compared only up to erasure, so duality is defined on
    plain types; annotated inputs are erased first.
    """
    match t:
        case Atom(a):
            return DualAtom(a)
        case DualAtom(a):
            return Atom(a)
        case One():
            return Bot()
        case Bot():
            return One()
        case Tensor(l, r, _):
            return Par(dual(l), dual(r))
        case Par(l, r, _):
            return Tensor(dual(l), dual(r))
        case Plus(l, r, _):
            return With(dual(l), dual(r))
        case With(l, r, _):
            return Plus(dual(l), dual(r))
        case OfCourse(b, _):
            return WhyNot(dual(b))
        case WhyNot(b, _):
            return OfCourse(dual(b))
    raise TypeError(t)


def targets_of(t: Type) -> tuple[Endpoint, ...]:
    """Annotation slot of the head connective, as a tuple (empty if unset)."""
    shape = _SHAPES.get(type(t))
    if shape is None:
        if isinstance(t, (Atom, DualAtom)):
            return ()
        raise TypeError(t)
    if shape[1]:
        return t.targets
    return () if t.target is None else (t.target,)


def map_slots(t: Type, f: Callable[[Type, tuple[Endpoint, ...]], tuple[Endpoint, ...]]) -> Type:
    """Rebuild ``t`` with every connective's annotation slot replaced by
    ``f(connective, slot)``; a single-target slot takes at most one name.

    ``f`` sees the slots in pre-order: a connective before its left operand
    (or body), the left operand before the right.  Callers rely on that
    order: ``rewrite_pending`` rewrites the leftmost matching connective by
    acting on the first one ``f`` is shown, and synthesis numbers its
    annotation holes in visiting order.  Atoms carry no slot.  A subtree whose
    slots all come back unchanged is returned as the same object, so a walk
    that changes nothing allocates nothing.
    """
    shape = _SHAPES.get(type(t))
    if shape is None:
        if isinstance(t, (Atom, DualAtom)):
            return t
        raise TypeError(t)
    arity, multi = shape
    if multi:
        old = t.targets
    else:
        old = () if t.target is None else (t.target,)
    new = f(t, old)
    if arity == 2:
        l, r = t.left, t.right
        l2, r2 = map_slots(l, f), map_slots(r, f)
        if new == old and l2 is l and r2 is r:
            return t
        kids = (l2, r2)
    elif arity == 1:
        b = t.body
        b2 = map_slots(b, f)
        if new == old and b2 is b:
            return t
        kids = (b2,)
    elif new == old:
        return t
    else:
        kids = ()
    if multi:
        return type(t)(*kids, tuple(new))
    if len(new) > 1:
        raise ValueError(f"single-target connective got {new}")
    return type(t)(*kids, new[0] if new else None)


def slots(t: Type) -> list[tuple[Endpoint, ...]]:
    """Every connective's annotation slot, in ``map_slots`` order."""
    out: list[tuple[Endpoint, ...]] = []

    def record(_, ts):
        out.append(ts)
        return ts

    map_slots(t, record)
    return out


def add_targets(t: Type, out: set[Endpoint]) -> None:
    """Add every annotation target of ``t`` to ``out``.

    A plain loop over the slot shapes rather than a ``map_slots`` walk:
    synthesis reads every type of a context this way each time a binding
    rule fires.
    """
    while True:
        shape = _SHAPES.get(type(t))
        if shape is None:
            return
        arity, multi = shape
        if multi:
            out.update(t.targets)
        elif t.target is not None:
            out.add(t.target)
        if arity == 2:
            add_targets(t.left, out)
            t = t.right
        elif arity == 1:
            t = t.body
        else:
            return


def size(t: Type) -> int:
    """Number of connectives and units (each has one slot); atoms count zero."""
    return len(slots(t))


def is_fully_annotated(t: Type) -> bool:
    """True when every connective and unit carries a nonempty target slot."""
    return all(ts and not any(u.startswith("?") for u in ts) for ts in slots(t))


def rename_targets(t: Type, mapping: dict[Endpoint, Endpoint]) -> Type:
    """Rename annotation targets throughout a type (identity on structure)."""
    if not mapping:
        return t
    return map_slots(t, lambda _, ts: tuple(mapping.get(u, u) for u in ts))


# ---------------------------------------------------------------------------
# Processes


@dataclass(frozen=True)
class Link:
    x: Endpoint
    y: Endpoint


@dataclass(frozen=True)
class Close:
    x: Endpoint


@dataclass(frozen=True)
class Wait:
    x: Endpoint
    cont: Process


@dataclass(frozen=True)
class Send:
    x: Endpoint
    fresh: Endpoint
    payload: Process
    cont: Process


@dataclass(frozen=True)
class Recv:
    x: Endpoint
    fresh: Endpoint
    cont: Process


@dataclass(frozen=True)
class Inl:
    x: Endpoint
    cont: Process


@dataclass(frozen=True)
class Inr:
    x: Endpoint
    cont: Process


@dataclass(frozen=True)
class Case:
    x: Endpoint
    left: Process
    right: Process


@dataclass(frozen=True)
class Server:
    x: Endpoint
    fresh: Endpoint
    body: Process


@dataclass(frozen=True)
class Client:
    x: Endpoint
    fresh: Endpoint
    cont: Process


@dataclass(frozen=True)
class Cut:
    x: Endpoint
    y: Endpoint
    left: Process
    right: Process


Process = Union[Link, Close, Wait, Send, Recv, Inl, Inr, Case, Server, Client, Cut]


Scope = tuple[tuple[tuple[Endpoint, ...], Process], ...]


def scope(p: Process) -> tuple[tuple[Endpoint, ...], Scope]:
    """The binder table: the names ``p`` acts on at its head, and each direct
    subterm with the binders it sits under, in field order.

    This is the one place that says what a constructor binds.
    """
    match p:
        case Link(x, y):
            return (x, y), ()
        case Close(x):
            return (x,), ()
        case Wait(x, c) | Inl(x, c) | Inr(x, c):
            return (x,), (((), c),)
        case Send(x, f, pl, c):
            return (x,), (((f,), pl), ((), c))
        case Recv(x, f, c) | Server(x, f, c) | Client(x, f, c):
            return (x,), (((f,), c),)
        case Case(x, l, r):
            return (x,), (((), l), ((), r))
        case Cut(x, y, l, r):
            return (), (((x,), l), ((y,), r))
    raise TypeError(p)


def from_scope(p: Process, heads: tuple[Endpoint, ...], subs: Scope) -> Process:
    """Inverse of ``scope``: ``p``'s constructor over new head names, binders
    and subterms."""
    match p:
        case Link() | Close():
            return type(p)(*heads)
        case Wait() | Inl() | Inr() | Case():
            return type(p)(*heads, *(q for _, q in subs))
        case Send() | Recv() | Server() | Client():
            return type(p)(*heads, subs[0][0][0], *(q for _, q in subs))
        case Cut():
            ((x,), l), ((y,), r) = subs
            return Cut(x, y, l, r)
    raise TypeError(p)


def head_endpoint(p: Process) -> Endpoint | None:
    """The endpoint ``p``'s outermost action is on; None for links and cuts."""
    heads, _ = scope(p)
    return heads[0] if len(heads) == 1 else None


def free_endpoints(p: Process) -> frozenset[Endpoint]:
    heads, subs = scope(p)
    fv = frozenset(heads)
    for bs, q in subs:
        fv = fv.union(free_endpoints(q).difference(bs))
    return fv


def is_cut_free(p: Process) -> bool:
    return not isinstance(p, Cut) and all(is_cut_free(q) for _, q in scope(p)[1])


class FreshNames:
    """Deterministic fresh-name supply: base#1, base#2, ... avoiding a set."""

    def __init__(self, avoid: frozenset[str] = frozenset()):
        self.used = set(avoid)
        self.counter = 0

    def fresh(self, base: str) -> str:
        base = base.split("#", 1)[0] or "e"
        cand = base
        while cand in self.used:
            self.counter += 1
            cand = f"{base}#{self.counter}"
        self.used.add(cand)
        return cand


def rename_free(p: Process, mapping: dict[Endpoint, Endpoint]) -> Process:
    """Capture-avoiding renaming of free endpoints.

    A binder that would capture an incoming name is first renamed apart, once
    for all the subterms it scopes over.
    """
    if not mapping:
        return p
    heads, subs = scope(p)
    moved: dict[tuple[Endpoint, ...], dict[Endpoint, Endpoint]] = {}
    for bs in dict.fromkeys(bs for bs, _ in subs):
        m = {k: v for k, v in mapping.items() if k not in bs}
        clash = [b for b in bs if b in m.values()]
        if clash:
            scoped = (free_endpoints(q) for b2, q in subs if b2 == bs)
            fresh = FreshNames(frozenset(m.values()).union(bs, *scoped))
            moved[bs] = {b: fresh.fresh(b) for b in clash}
    out = []
    for bs, q in subs:
        ren = moved.get(bs, {})
        bs2 = tuple(ren.get(b, b) for b in bs)
        m = {k: v for k, v in mapping.items() if k not in bs2}
        out.append((bs2, rename_free(rename_free(q, ren), m)))
    return from_scope(p, tuple(mapping.get(x, x) for x in heads), tuple(out))


# ---------------------------------------------------------------------------
# Printing


def _fmt_targets(ts: tuple[Endpoint, ...]) -> str:
    return "{" + ",".join(ts) + "}" if ts else ""


def _fmt_opt(u: Endpoint | None) -> str:
    return "{" + u + "}" if u is not None else ""


_BINOPS = {Tensor: "*", Par: "|", Plus: "+", With: "&"}


def print_type(t: Type) -> str:
    match t:
        case Atom(a):
            return a
        case DualAtom(a):
            return "~" + a
        case One(ts):
            return "1" + _fmt_targets(ts)
        case Bot(u):
            return "bot" + _fmt_opt(u)
        case Tensor(l, r, ts) | With(l, r, ts):
            op = _BINOPS[type(t)] + _fmt_targets(ts)
            return f"{_print_operand(l)} {op} {print_type(r)}"
        case Par(l, r, u) | Plus(l, r, u):
            op = _BINOPS[type(t)] + _fmt_opt(u)
            return f"{_print_operand(l)} {op} {print_type(r)}"
        case OfCourse(b, ts):
            return "!" + _fmt_targets(ts) + " " + _print_operand(b)
        case WhyNot(b, u):
            return "?" + _fmt_opt(u) + " " + _print_operand(b)
    raise TypeError(t)


def _print_operand(t: Type) -> str:
    # Binaries are right-associative at one precedence tier, so a binary in
    # left-operand position needs parentheses.
    if isinstance(t, (Tensor, Par, Plus, With)):
        return "(" + print_type(t) + ")"
    return print_type(t)


def print_process(p: Process) -> str:
    match p:
        case Link(x, y):
            return f"{x}<->{y}"
        case Close(x):
            return f"close {x}"
        case Wait(x, c):
            return f"wait {x}; {print_process(c)}"
        case Send(x, f, pl, c):
            return f"{x}[{f}].({print_process(pl)} | {print_process(c)})"
        case Recv(x, f, c):
            return f"{x}({f}). {print_process(c)}"
        case Inl(x, c):
            return f"{x}.inl. {print_process(c)}"
        case Inr(x, c):
            return f"{x}.inr. {print_process(c)}"
        case Case(x, l, r):
            return f"case {x} {{inl: {print_process(l)}; inr: {print_process(r)}}}"
        case Server(x, f, b):
            return f"!{x}({f}). {print_process(b)}"
        case Client(x, f, b):
            return f"?{x}[{f}]. {print_process(b)}"
        case Cut(x, y, l, r):
            return f"res {x} {y} ({print_process(l)} | {print_process(r)})"
    raise TypeError(p)
