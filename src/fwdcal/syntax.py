"""Abstract syntax for annotated session types and process terms.

Types are classical linear logic propositions whose connectives carry
forwarding-target annotations: an empty annotation slot means the type is in
its erased (plain) form.  One AST serves both the annotated judgement and the
plain CP judgement; the checkers decide which discipline applies.  Each
connective's slot is the tuple ``targets``: a set of endpoints for the
gathering and broadcasting 1, *, & and !, at most one for bot, |, + and ?.

Endpoints are bare strings matching ``[a-zA-Z][a-zA-Z0-9_']*``.  Engine-made
fresh names may additionally contain ``#``.

``map_slots`` is the one traversal that rebuilds a type slot by slot.  Beside
it, ``erase``, ``is_dual``, ``size``, ``is_fully_annotated``,
``add_targets`` and ``rename_targets`` are plain loops over ``CONNECTIVES``
that build only what they return, because each sits on a measured hot path:
the duality tests of cut and composition, the fuel of a reduction, the
annotation test of every forwarder check, synthesis's binder candidates, and
the renaming of the ! and ? rules.

The other modules read the constructors off four tables: ``CONNECTIVES``,
``BINDERS`` (what a process acts on and binds), ``ACTS`` (the connective an
action acts on) and ``PROCESSES`` (surface forms).
"""

from __future__ import annotations

from itertools import count
from string import Formatter
from typing import Callable, Iterator, Union

from .records import fields, record

Endpoint = str


# ---------------------------------------------------------------------------
# Types


@record
class Atom:
    name: str


@record
class DualAtom:
    name: str


@record
class One:
    targets: tuple[Endpoint, ...] = ()


@record
class Bot:
    targets: tuple[Endpoint, ...] = ()


@record
class Tensor:
    left: Type
    right: Type
    targets: tuple[Endpoint, ...] = ()


@record
class Par:
    left: Type
    right: Type
    targets: tuple[Endpoint, ...] = ()


@record
class Plus:
    left: Type
    right: Type
    targets: tuple[Endpoint, ...] = ()


@record
class With:
    left: Type
    right: Type
    targets: tuple[Endpoint, ...] = ()


@record
class OfCourse:
    body: Type
    targets: tuple[Endpoint, ...] = ()


@record
class WhyNot:
    body: Type
    targets: tuple[Endpoint, ...] = ()


Type = Union[Atom, DualAtom, One, Bot, Tensor, Par, Plus, With, OfCourse, WhyNot]


@record
class Connective:
    """A row of ``CONNECTIVES``, which the type parser and printer, ``dual``
    and the slot traversals read: a connective's or unit's surface symbol,
    its operand count (0 for a unit, 1 for a prefix, 2 for an infix on the
    single right-associative tier), whether its slot ``targets`` may hold
    several endpoints (gathering or broadcast) or at most one, and its dual."""

    symbol: str
    arity: int
    multi: bool
    dual: type


CONNECTIVES = {
    One: Connective("1", 0, True, Bot),
    Bot: Connective("bot", 0, False, One),
    Tensor: Connective("*", 2, True, Par),
    Par: Connective("|", 2, False, Tensor),
    Plus: Connective("+", 2, False, With),
    With: Connective("&", 2, True, Plus),
    OfCourse: Connective("!", 1, True, WhyNot),
    WhyNot: Connective("?", 1, False, OfCourse),
}
MULTI_TARGET = tuple(c for c, row in CONNECTIVES.items() if row.multi)


def _row(t: Type) -> Connective | None:
    """``t``'s connective, or None for an atom."""
    row = CONNECTIVES.get(type(t))
    if row is None and not isinstance(t, (Atom, DualAtom)):
        raise TypeError(t)
    return row


def children(t: Type) -> tuple[Type, ...]:
    row = _row(t)
    if row is None or not row.arity:
        return ()
    return (t.left, t.right) if row.arity == 2 else (t.body,)


def erase(t: Type) -> Type:
    """Strip every annotation slot, yielding the plain CP-side type.  A
    subtree that is plain already is returned as the same object."""
    row = CONNECTIVES.get(type(t))
    if row is None:
        if isinstance(t, (Atom, DualAtom)):
            return t
        raise TypeError(t)
    plain = not t.targets
    if row.arity == 2:
        l, r = t.left, t.right
        l2, r2 = erase(l), erase(r)
        return t if plain and l2 is l and r2 is r else type(t)(l2, r2)
    if row.arity == 1:
        b = t.body
        b2 = erase(b)
        return t if plain and b2 is b else type(t)(b2)
    return t if plain else type(t)()


def dual(t: Type) -> Type:
    """De Morgan dual of an erased type.

    Cut formulas are compared only up to erasure, so duality is defined on
    plain types; annotated inputs are erased first.
    """
    row = _row(t)
    if row is None:
        return DualAtom(t.name) if isinstance(t, Atom) else Atom(t.name)
    return row.dual(*map(dual, children(t)))


_DUAL_ATOM = {Atom: DualAtom, DualAtom: Atom}


def is_dual(t: Type, u: Type) -> bool:
    """``erase(t) == dual(erase(u))``, decided in one walk over both types
    that builds nothing."""
    while True:
        row = CONNECTIVES.get(type(t))
        if row is None:
            return type(u) is _DUAL_ATOM[type(t)] and t.name == u.name
        if type(u) is not row.dual:
            return False
        if row.arity == 2:
            if not is_dual(t.left, u.left):
                return False
            t, u = t.right, u.right
        elif row.arity == 1:
            t, u = t.body, u.body
        else:
            return True


def map_slots(t: Type, f: Callable[[Type, tuple[Endpoint, ...]], tuple[Endpoint, ...]]) -> Type:
    """Rebuild ``t`` with every connective's annotation slot replaced by
    ``f(connective, slot)``, a tuple; a single-target connective's slot takes
    at most one name, else ``ValueError``.

    ``f`` sees the slots in pre-order: a connective before its left operand
    (or body), the left operand before the right.  Callers rely on that
    order: cut elimination's ``_redirect`` rewrites the leftmost matching
    connective by acting on the first one ``f`` is shown, and synthesis
    numbers its annotation holes in visiting order.  Atoms carry no slot.  A
    subtree whose slots all come back unchanged is returned as the same
    object, so a walk that changes nothing allocates nothing.
    """
    row = CONNECTIVES.get(type(t))
    if row is None:
        if isinstance(t, (Atom, DualAtom)):
            return t
        raise TypeError(t)
    old = t.targets
    new = f(t, old)
    if row.arity == 2:
        l, r = t.left, t.right
        l2, r2 = map_slots(l, f), map_slots(r, f)
        if new == old and l2 is l and r2 is r:
            return t
        kids = (l2, r2)
    elif row.arity == 1:
        b = t.body
        b2 = map_slots(b, f)
        if new == old and b2 is b:
            return t
        kids = (b2,)
    elif new == old:
        return t
    else:
        kids = ()
    if len(new) > 1 and not row.multi:
        raise ValueError(f"single-target connective got {new}")
    return type(t)(*kids, tuple(new))


def slots(t: Type) -> list[tuple[Endpoint, ...]]:
    """Every connective's annotation slot, in ``map_slots`` order."""
    out: list[tuple[Endpoint, ...]] = []

    def record(_, ts):
        out.append(ts)
        return ts

    map_slots(t, record)
    return out


def add_targets(t: Type, out: set[Endpoint]) -> None:
    """Add every annotation target of ``t`` to ``out``.  Synthesis reads
    every type of a context this way each time a binding rule fires."""
    while True:
        row = CONNECTIVES.get(type(t))
        if row is None:
            return
        out.update(t.targets)
        if row.arity == 2:
            add_targets(t.left, out)
            t = t.right
        elif row.arity == 1:
            t = t.body
        else:
            return


def size(t: Type) -> int:
    """Number of connectives and units (each has one slot); atoms count zero."""
    n = 0
    while True:
        row = CONNECTIVES.get(type(t))
        if row is None:
            if isinstance(t, (Atom, DualAtom)):
                return n
            raise TypeError(t)
        n += 1
        if row.arity == 2:
            n += size(t.left)
            t = t.right
        elif row.arity == 1:
            t = t.body
        else:
            return n


# An annotation hole: a slot that search fills in later, held as one
# placeholder name no endpoint can take.
HOLE_PREFIX = "?"


def holes() -> Iterator[Endpoint]:
    """The hole names ``?1``, ``?2``, ... in order."""
    return map(f"{HOLE_PREFIX}{{}}".format, count(1))


def is_hole(ts: tuple[Endpoint, ...]) -> bool:
    return len(ts) == 1 and ts[0].startswith(HOLE_PREFIX)


def fill_holes(t: Type, store: dict[str, tuple[Endpoint, ...]],
               default: Endpoint | None = None) -> Type:
    """Fill each hole of ``t`` with its value in ``store``, else with
    ``default`` when given; other slots are kept."""
    def fill(_, ts: tuple[Endpoint, ...]) -> tuple[Endpoint, ...]:
        if is_hole(ts):
            if ts[0] in store:
                return store[ts[0]]
            if default is not None:
                return (default,)
        return ts

    return map_slots(t, fill)


def is_fully_annotated(t: Type) -> bool:
    """True when every connective and unit carries a nonempty target slot
    that is not a hole."""
    while True:
        row = CONNECTIVES.get(type(t))
        if row is None:
            if isinstance(t, (Atom, DualAtom)):
                return True
            raise TypeError(t)
        if not t.targets or is_hole(t.targets):
            return False
        if row.arity == 2:
            if not is_fully_annotated(t.left):
                return False
            t = t.right
        elif row.arity == 1:
            t = t.body
        else:
            return True


def rename_targets(t: Type, mapping: dict[Endpoint, Endpoint]) -> Type:
    """Rename annotation targets throughout a type (identity on structure);
    a subtree whose slots name no renamed endpoint is kept as it is."""
    row = _row(t)
    if row is None or not mapping:
        return t
    old = t.targets
    new = old if mapping.keys().isdisjoint(old) else tuple(map(mapping.get, old, old))
    if row.arity == 2:
        l, r = t.left, t.right
        l2, r2 = rename_targets(l, mapping), rename_targets(r, mapping)
        return t if new == old and l2 is l and r2 is r else type(t)(l2, r2, new)
    if row.arity == 1:
        b = t.body
        b2 = rename_targets(b, mapping)
        return t if new == old and b2 is b else type(t)(b2, new)
    return t if new == old else type(t)(new)


# ---------------------------------------------------------------------------
# Processes


@record
class Link:
    x: Endpoint
    y: Endpoint


@record
class Close:
    x: Endpoint


@record
class Wait:
    x: Endpoint
    cont: Process


@record
class Send:
    x: Endpoint
    fresh: Endpoint
    payload: Process
    cont: Process


@record
class Recv:
    x: Endpoint
    fresh: Endpoint
    cont: Process


@record
class Inl:
    x: Endpoint
    cont: Process


@record
class Inr:
    x: Endpoint
    cont: Process


@record
class Case:
    x: Endpoint
    left: Process
    right: Process


@record
class Server:
    x: Endpoint
    fresh: Endpoint
    body: Process


@record
class Client:
    x: Endpoint
    fresh: Endpoint
    cont: Process


@record
class Cut:
    x: Endpoint
    y: Endpoint
    formula: Type  # the type of x; y has its dual
    left: Process
    right: Process


Process = Union[Link, Close, Wait, Send, Recv, Inl, Inr, Case, Server, Client, Cut]


Scope = tuple[tuple[tuple[Endpoint, ...], Process], ...]


# Each action, the connective it acts on and the verb its refusals use;
# ``Link`` and ``Cut`` act on none.  ``Inl`` comes before ``Inr`` as the left
# token before the right in ``contexts.QUEUES``.
ACTS = {
    Close: (One, "close"), Wait: (Bot, "wait"), Send: (Tensor, "send on"),
    Recv: (Par, "recv on"), Inl: (Plus, "select on"), Inr: (Plus, "select on"),
    Case: (With, "case on"), Server: (OfCourse, "srv on"), Client: (WhyNot, "client on"),
}
# The actions on each connective, in ``ACTS`` order.
ACTIONS = {c: tuple(a for a, (d, _) in ACTS.items() if d is c) for c in CONNECTIVES}
# The actions whose binder takes over the endpoint they act on: the ! and ?
# rules continue with the server's or client's copy in its place.
RENAMING = frozenset(ACTIONS[OfCourse] + ACTIONS[WhyNot])


# The binder table: each constructor's head fields, the names it acts on,
# and each subterm field with the binder fields it sits under, in field
# order.  This is the one place that says what a constructor binds.
BINDERS = {
    Link: (("x", "y"), ()),
    Close: (("x",), ()),
    Wait: (("x",), (((), "cont"),)),
    Send: (("x",), ((("fresh",), "payload"), ((), "cont"))),
    Recv: (("x",), ((("fresh",), "cont"),)),
    Inl: (("x",), (((), "cont"),)),
    Inr: (("x",), (((), "cont"),)),
    Case: (("x",), (((), "left"), ((), "right"))),
    Server: (("x",), ((("fresh",), "body"),)),
    Client: (("x",), ((("fresh",), "cont"),)),
    Cut: ((), ((("x",), "left"), (("y",), "right"))),
}


def _compile(cls: type, heads, subs) -> tuple[Callable, Callable]:
    """``cls``'s row of ``BINDERS`` as its ``scope`` and its ``from_scope``,
    one expression each, so that each is a lookup by ``type(p)`` and a call."""
    def tup(xs) -> str:
        return "(" + "".join(x + ", " for x in xs) + ")"

    where = {h: f"h[{i}]" for i, h in enumerate(heads)}  # where from_scope reads a field
    for j, (bs, q) in enumerate(subs):
        where[q] = f"s[{j}][1]"
        for k, b in enumerate(bs):
            where.setdefault(b, f"s[{j}][0][{k}]")  # a binder is read where it first binds
    read = tup([tup(f"p.{h}" for h in heads),
                tup(tup([tup(f"p.{b}" for b in bs), f"p.{q}"]) for bs, q in subs)])
    build = ", ".join(where.get(f.name, f"p.{f.name}") for f in fields(cls))
    return eval(f"lambda p: {read}", {}), eval(f"lambda p, h, s: C({build})", {"C": cls})


_COMPILED = {cls: _compile(cls, *row) for cls, row in BINDERS.items()}
_SCOPE = {cls: fs[0] for cls, fs in _COMPILED.items()}
_FROM_SCOPE = {cls: fs[1] for cls, fs in _COMPILED.items()}
# The constructors that bind a name in a subterm.
BINDING = frozenset(cls for cls, (_, subs) in BINDERS.items() if any(bs for bs, _ in subs))


def scope(p: Process) -> tuple[tuple[Endpoint, ...], Scope]:
    """``p``'s row of ``BINDERS``: the names ``p`` acts on at its head, and
    each direct subterm with the binders it sits under, in field order."""
    f = _SCOPE.get(type(p))
    if f is None:
        raise TypeError(p)
    return f(p)


def from_scope(p: Process, heads: tuple[Endpoint, ...], subs: Scope) -> Process:
    """Inverse of ``scope``: ``p``'s constructor over new head names, binders
    and subterms, read off the same row of ``BINDERS``."""
    f = _FROM_SCOPE.get(type(p))
    if f is None:
        raise TypeError(p)
    return f(p, heads, subs)


STUB = Close("_")  # a head term's subterms: a rule at its head only passes them on


def head_term(cls: type, heads: tuple[Endpoint, ...], binder: Endpoint | None = None) -> Process:
    """``cls`` acting on ``heads`` over ``STUB`` subterms, with ``binder`` in
    each binder field of its row of ``BINDERS`` (any class but ``Cut``): the
    term whose rule fires at its head."""
    return _FROM_SCOPE[cls](None, heads, tuple(((binder,) * len(bs), STUB)
                                               for bs, _ in BINDERS[cls][1]))


def head_endpoint(p: Process) -> Endpoint | None:
    """The endpoint ``p``'s outermost action is on; None for links and cuts."""
    heads, _ = scope(p)
    return heads[0] if len(heads) == 1 else None


def free_endpoints(p: Process) -> frozenset[Endpoint]:
    """The names ``p`` acts on outside binders of theirs, in one set as it walks."""
    out: set[Endpoint] = set()
    todo = [(p, ())]
    while todo:
        p, bound = todo.pop()
        heads, subs = scope(p)
        for h in heads:
            if h not in bound:
                out.add(h)
        for bs, q in subs:
            todo.append((q, bound + bs))
    return frozenset(out)


def names(p: Process) -> set[Endpoint]:
    """Every name ``p`` mentions: the names it acts on and the ones it binds."""
    out: set[Endpoint] = set()
    todo = [p]
    while todo:
        heads, subs = scope(todo.pop())
        out.update(heads)
        for bs, q in subs:
            out.update(bs)
            todo.append(q)
    return out


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


def print_type(t: Type) -> str:
    """``t`` in surface syntax, taking one Python frame a nesting level."""
    row = _row(t)
    if row is None:
        return t.name if isinstance(t, Atom) else "~" + t.name
    op = row.symbol + "{" + ",".join(t.targets) + "}" if t.targets else row.symbol
    if not row.arity:
        return op
    first = t.left if row.arity == 2 else t.body
    text = print_type(first)
    # infixes are right-associative at one tier, so an infix operand that
    # is not the right one of an infix needs parentheses
    if type(first) in CONNECTIVES and CONNECTIVES[type(first)].arity == 2:
        text = "(" + text + ")"
    if row.arity == 1:
        return op + " " + text
    return text + " " + op + " " + print_type(t.right)


# ---------------------------------------------------------------------------
# Surface forms


class Forms:
    """A syntactic category's surface forms, written once: each
    constructor's printed text, with a ``{field}`` slot for each of its
    fields in field order (``{{`` and ``}}`` are literal braces).  ``print``
    formats a term's entry, and ``parsing`` compiles the same entries.

    A slot prints by ``shows`` at its field's annotation, None printing a
    name as it is; a slot of the category's own ``kind`` prints with
    ``print`` itself, so printing takes one Python frame a nesting level.
    """

    def __init__(self, kind: str, texts: dict[type, str], shows: dict[str, Callable | None]):
        self.texts = texts
        shows = {**shows, kind: self.print}
        self._forms = {}  # each text as a positional template, "{}<->{}", and its slots
        for cls, text in texts.items():
            pieces = list(Formatter().parse(text))
            if [name for _, name, _, _ in pieces if name] != [f.name for f in fields(cls)]:
                raise ValueError(f"{text!r} does not slot {cls.__name__}'s fields in order")
            template = "".join(lit.replace("{", "{{").replace("}", "}}") + ("{}" if name else "")
                               for lit, name, _, _ in pieces)
            self._forms[cls] = (template, [(f.name, shows[f.type]) for f in fields(cls)])

    def print(self, x) -> str:
        form = self._forms.get(type(x))
        if form is None:
            raise TypeError(x)
        template, slots = form
        vals = []
        for name, show in slots:
            v = getattr(x, name)
            vals.append(v if show is None else show(v))
        return template.format(*vals)


PROCESSES = Forms("Process", {
    Link: "{x}<->{y}",
    Close: "close {x}",
    Wait: "wait {x}; {cont}",
    Recv: "{x}({fresh}). {cont}",
    Send: "{x}[{fresh}].({payload} | {cont})",
    Inl: "{x}.inl. {cont}",
    Inr: "{x}.inr. {cont}",
    Case: "case {x} {{inl: {left}; inr: {right}}}",
    Server: "!{x}({fresh}). {body}",
    Client: "?{x}[{fresh}]. {cont}",
    Cut: "res {x} {y} : {formula} ({left} | {right})",
}, {"Endpoint": None, "Type": print_type})

print_process = PROCESSES.print
