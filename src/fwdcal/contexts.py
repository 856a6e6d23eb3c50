"""Queues of boxed in-transit items and forwarder typing contexts.

A queue item sits in the queue of the endpoint that received it and is
labelled with the endpoint it must be forwarded to.  Items aimed at distinct
endpoints commute; per-target order is part of the judgement.

A ``Context`` is also compat's state: the transition semantics steps the
contexts the forwarder rules check, kept in the canonical form ``compat._make``
gives them, so one queue format serves the proof system and the semantics,
and the rule bodies of ``checker.CONNECTIVE_RULES`` read and pop both.  The
tables here (``QUEUES``, ``TAKEN_BY``) say which items each rule moves.
"""

from __future__ import annotations

from operator import attrgetter, eq, is_, itemgetter
from typing import Callable, Union

from .records import record, replace
from .syntax import (
    ACTIONS, CONNECTIVES, Bot, Endpoint, Forms, OfCourse, Par, Type, With, add_targets,
    is_fully_annotated, print_type, rename_targets, size,
)


# ---------------------------------------------------------------------------
# Queue items


Payloads = tuple[tuple[Endpoint, Type], ...]


@record
class MsgBox:
    """A boxed message: payload endpoints received here, to forward to target.

    The basic proof system only ever boxes a single typed endpoint; gathered
    boxes with several payloads appear during generalized cut rewriting.
    """

    target: Endpoint
    payloads: Payloads


def msgbox(target: Endpoint, endpoint: Endpoint, typ: Type) -> MsgBox:
    return MsgBox(target, ((endpoint, typ),))


@record
class Star:
    target: Endpoint


@record
class Query:
    target: Endpoint


@record
class LeftTok:
    target: Endpoint


@record
class RightTok:
    target: Endpoint


QueueItem = Union[MsgBox, Star, Query, LeftTok, RightTok]
Queue = tuple[QueueItem, ...]


# The items each connective's rule queues, one for each target (&'s left
# premise the left token, its right one the right); the dual's rule takes
# them, by the action in the same place (``Inl`` takes the left token).
QUEUES = {Bot: (Star,), Par: (MsgBox,), With: (LeftTok, RightTok), OfCourse: (Query,)}
TAKEN_BY = {it: a for c, its in QUEUES.items()
            for it, a in zip(its, ACTIONS[CONNECTIVES[c].dual], strict=True)}


def _print_payloads(payloads: Payloads) -> str:
    return "; ".join(f"{e} : {print_type(t)}" for e, t in payloads)


# An item in surface syntax, as contexts write it after an entry's type.
QUEUE_ITEMS = Forms("QueueItem", {
    MsgBox: "[to={target} msg {payloads}]",
    Star: "[to={target} *]",
    LeftTok: "[to={target} L]",
    RightTok: "[to={target} R]",
    Query: "[to={target} ?]",
}, {"Endpoint": None, "Payloads": _print_payloads})

print_queue_item = QUEUE_ITEMS.print


def normalize_queue(q: Queue) -> Queue:
    """Canonical form: stable sort by target name, per-target order kept.

    Items aimed at independent endpoints commute freely, so sorting maximal
    commuting segments by target is a sound canonical representative; the
    subsequence of items sharing a target is never reordered.
    """
    return tuple(sorted(q, key=_TARGET))


def first_destined(q: Queue, target: Endpoint) -> int | None:
    """Position of the first item of ``q`` aimed at ``target``.

    Items aimed at distinct endpoints commute, so this item heads the part
    of the queue ``target`` sees: it is what a rule acting at ``target``
    reads, whatever precedes it for other endpoints.
    """
    for i, it in enumerate(q):
        if it.target == target:
            return i
    return None


# ---------------------------------------------------------------------------
# Typing contexts


@record
class Entry:
    endpoint: Endpoint
    queue: Queue = ()
    typing: Type | None = None  # None encodes the terminated entry "x:."


def destined(e: Entry | None, x: Endpoint) -> QueueItem | None:
    """The head of the FIFO from ``e``'s endpoint to ``x``, or None."""
    i = None if e is None else first_destined(e.queue, x)
    return None if i is None else e.queue[i]


def take_destined(e: Entry, x: Endpoint) -> tuple[QueueItem | None, Entry]:
    """The first item of ``e``'s queue aimed at ``x`` (None if there is
    none), and ``e`` without it: what a rule acting at ``x`` pops."""
    i = first_destined(e.queue, x)
    if i is None:
        return None, e
    return e.queue[i], Entry(e.endpoint, e.queue[:i] + e.queue[i + 1:], e.typing)


@record
class Context:
    entries: tuple[Entry, ...]
    __slots__ = ("_hash",)  # None until the first ``hash``

    def __post_init__(self):
        names = [e.endpoint for e in self.entries]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate endpoints in context: {names}")
        _set_hash(self, None)

    def __hash__(self) -> int:
        # cached in the ``_hash`` slot: compat's memo hashes a state on lookup
        # and again on store, each time over every type and queue item
        h = self._hash
        if h is None:
            h = hash((self.entries,))
            _set_hash(self, h)
        return h

    def endpoints(self) -> tuple[Endpoint, ...]:
        return tuple(e.endpoint for e in self.entries)

    def get(self, x: Endpoint) -> Entry | None:
        """``x``'s entry, or None when ``x`` has none."""
        for e in self.entries:
            if e.endpoint == x:
                return e
        return None

    def without(self, *xs: Endpoint) -> Context:
        return Context(tuple(e for e in self.entries if e.endpoint not in xs))

    def binds(self, n: Endpoint) -> bool:
        """``n in endpoint_names(self)``, without building the set."""
        for e in self.entries:
            if e.endpoint == n:
                return True
            for it in e.queue:
                if type(it) is MsgBox and n in map(_NAME, it.payloads):
                    return True
        return False

    def replace(self, new: dict[Endpoint, Entry]) -> Context:
        """This context with the entry of each endpoint ``new`` names put in
        place by its value there; kept names are not checked distinct again."""
        ents = tuple(map(new.get, map(_ENDPOINT, self.entries), self.entries))
        if not all(map(eq, new, map(_ENDPOINT, new.values()))):
            return Context(ents)
        return _unchecked(ents)


_ENDPOINT, _NAME, _TARGET = attrgetter("endpoint"), itemgetter(0), attrgetter("target")
_set_entries, _set_hash = Context.entries.__set__, Context._hash.__set__


def _unchecked(entries: tuple[Entry, ...]) -> Context:
    """The context of ``entries``, whose names the caller knows distinct,
    built without ``__post_init__``'s check."""
    g = object.__new__(Context)
    _set_entries(g, entries)
    _set_hash(g, None)
    return g


def ctx(*entries: Entry) -> Context:
    return Context(tuple(entries))


def map_context(g: Context, typ: Callable[[Type], Type] | None = None,
                target: Callable[[Endpoint], Endpoint] | None = None,
                name: Callable[[Endpoint], Endpoint] | None = None) -> Context:
    """Rebuild ``g`` with ``typ`` applied to every type (entry typings and
    boxed payload types), ``target`` to every queue item's target and
    ``name`` to every entry endpoint and boxed payload name.

    It visits the entries in order, each one's name, then its queue, then
    its typing.  A callback left out keeps its parts; a part that comes back
    unchanged is kept as the same object, and so is ``g``.  The renamers and
    scanners below are plain loops instead, because the forwarder rules run
    them on every derivation node; ``_rename`` is this walk's special case.
    """

    def item(it: QueueItem) -> QueueItem:
        u = target(it.target) if target else it.target
        if isinstance(it, MsgBox):
            pls = tuple((name(n) if name else n, typ(t) if typ else t) for n, t in it.payloads)
            return it if u == it.target and pls == it.payloads else MsgBox(u, pls)
        return it if u == it.target else replace(it, target=u)

    ents, changed = [], False
    for e in g.entries:
        x = name(e.endpoint) if name else e.endpoint
        q = tuple(map(item, e.queue))
        t = typ(e.typing) if typ and e.typing is not None else e.typing
        if x != e.endpoint or q != e.queue or t is not e.typing:
            e, changed = Entry(x, q, t), True
        ents.append(e)
    return (Context if name else _unchecked)(tuple(ents)) if changed else g  # else g's names


def context_types(g: Context) -> list[Type]:
    """Entry typings and boxed payload types, in walk order."""
    out: list[Type] = []
    map_context(g, typ=lambda t: out.append(t) or t)
    return out


def endpoint_names(g: Context) -> set[Endpoint]:
    """Entry endpoints and boxed payload names: the names ``g`` binds.  A
    plain loop, as synthesis asks it at every binder."""
    out = set()
    for e in g.entries:
        out.add(e.endpoint)
        for it in e.queue:
            if isinstance(it, MsgBox):
                out.update(n for n, _ in it.payloads)
    return out


def target_names(g: Context) -> set[Endpoint]:
    """Queue-item targets and the annotation targets of every type.

    A plain loop, as ``endpoint_names``: synthesis asks it each time a
    binding rule fires.
    """
    out: set[Endpoint] = set()
    for e in g.entries:
        for it in e.queue:
            out.add(it.target)
            if isinstance(it, MsgBox):
                for _, t in it.payloads:
                    add_targets(t, out)
        if e.typing is not None:
            add_targets(e.typing, out)
    return out


def context_fully_annotated(g: Context) -> bool:
    """Whether ``is_fully_annotated`` holds of every type of ``g``."""
    for e in g.entries:
        for it in e.queue:
            if type(it) is MsgBox:
                for _, t in it.payloads:
                    if not is_fully_annotated(t):
                        return False
        if e.typing is not None and not is_fully_annotated(e.typing):
            return False
    return True


def normalize_context(g: Context) -> Context:
    """Entries in name order with normalized queues; checking is invariant
    under this reordering."""
    ents = tuple(
        Entry(e.endpoint, normalize_queue(e.queue), e.typing)
        for e in sorted(g.entries, key=lambda e: e.endpoint)
    )
    return Context(ents)


def rename_context_targets(g: Context, mapping: dict[Endpoint, Endpoint],
                           new: dict[Endpoint, Entry] | None = None) -> Context:
    """Rename endpoints wherever they occur as forwarding targets (queue item
    labels and type annotations); entry names are untouched.  ``new``
    replaces entries first, as ``Context.replace`` does, in the same pass:
    the ! and ? rules rename the endpoint whose entry they replace, to a
    binder they have checked fresh.  ``new`` must bring no name another
    entry has: the result is built without the duplicate-name check."""
    return _rename(g, mapping, False, new)


def rename_context(g: Context, mapping: dict[Endpoint, Endpoint]) -> Context:
    """Rename endpoints everywhere: entry and payload names as well as
    forwarding targets."""
    return _rename(g, mapping, True)


def _rename(g: Context, mapping: dict[Endpoint, Endpoint], names: bool,
            new: dict[Endpoint, Entry] | None = None) -> Context:
    """The renamers' ``map_context`` walk as one loop, after ``new``
    replaced its entries; what names no renamed endpoint is kept."""
    if not (mapping or new):
        return g
    ents = g.entries if new is None else tuple(map(new.get, map(_ENDPOINT, g.entries), g.entries))
    get = mapping.get
    out = []
    for e in ents:
        x = get(e.endpoint, e.endpoint) if names else e.endpoint
        q = tuple([_rename_item(it, mapping, names) for it in e.queue]) if e.queue else ()
        t = None if e.typing is None else rename_targets(e.typing, mapping)
        out.append(e if x == e.endpoint and q == e.queue and t is e.typing else Entry(x, q, t))
    return g if all(map(is_, out, g.entries)) else (Context if names else _unchecked)(tuple(out))


def _rename_item(it: QueueItem, mapping: dict[Endpoint, Endpoint], names: bool) -> QueueItem:
    u = mapping.get(it.target, it.target)
    if type(it) is not MsgBox:
        return it if u == it.target else type(it)(u)
    pls = tuple([(mapping.get(n, n) if names else n, rename_targets(t, mapping))
                 for n, t in it.payloads])
    return it if u == it.target and pls == it.payloads else MsgBox(u, pls)


def context_size(g: Context) -> int:
    """Total size: connectives in entry types plus in queued payload types."""
    return sum(size(t) for t in context_types(g))
