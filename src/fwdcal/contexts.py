"""Queues of boxed in-transit items and forwarder typing contexts.

A queue item sits in the queue of the endpoint that received it and is
labelled with the endpoint it must be forwarded to.  Items aimed at distinct
endpoints commute; per-target order is part of the judgement.

``Config`` is the compatibility-checking state: a type environment plus one
FIFO per ordered (target, holder) pair of endpoints.  Its translation into a
typing context is the bridge between the transition semantics and the proof
system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Union

from .syntax import Endpoint, Type, add_targets, erase, is_fully_annotated, rename_targets, size


# ---------------------------------------------------------------------------
# Queue items


@dataclass(frozen=True)
class MsgBox:
    """A boxed message: payload endpoints received here, to forward to target.

    The basic proof system only ever boxes a single typed endpoint; gathered
    boxes with several payloads appear during generalized cut rewriting.
    """

    target: Endpoint
    payloads: tuple[tuple[Endpoint, Type], ...]


def msgbox(target: Endpoint, endpoint: Endpoint, typ: Type) -> MsgBox:
    return MsgBox(target, ((endpoint, typ),))


@dataclass(frozen=True)
class Star:
    target: Endpoint


@dataclass(frozen=True)
class Query:
    target: Endpoint


@dataclass(frozen=True)
class LeftTok:
    target: Endpoint


@dataclass(frozen=True)
class RightTok:
    target: Endpoint


QueueItem = Union[MsgBox, Star, Query, LeftTok, RightTok]
Queue = tuple[QueueItem, ...]


def normalize_queue(q: Queue) -> Queue:
    """Canonical form: stable sort by target name, per-target order kept.

    Items aimed at independent endpoints commute freely, so sorting maximal
    commuting segments by target is a sound canonical representative; the
    subsequence of items sharing a target is never reordered.
    """
    return tuple(sorted(q, key=lambda it: it.target))


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


@dataclass(frozen=True)
class Entry:
    endpoint: Endpoint
    queue: Queue = ()
    typing: Type | None = None  # None encodes the terminated entry "x:."


@dataclass(frozen=True)
class Context:
    entries: tuple[Entry, ...]

    def __post_init__(self):
        names = [e.endpoint for e in self.entries]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate endpoints in context: {names}")

    def endpoints(self) -> tuple[Endpoint, ...]:
        return tuple(e.endpoint for e in self.entries)

    def get(self, x: Endpoint) -> Entry:
        for e in self.entries:
            if e.endpoint == x:
                return e
        raise KeyError(x)

    def has(self, x: Endpoint) -> bool:
        return any(e.endpoint == x for e in self.entries)

    def without(self, *xs: Endpoint) -> Context:
        return Context(tuple(e for e in self.entries if e.endpoint not in xs))

    def replace(self, x: Endpoint, new: Entry) -> Context:
        return Context(tuple(new if e.endpoint == x else e for e in self.entries))

    def add(self, *new: Entry) -> Context:
        return Context(self.entries + tuple(new))


def ctx(*entries: Entry) -> Context:
    return Context(tuple(entries))


def map_context(g: Context, typ: Callable[[Type], Type] | None = None,
                target: Callable[[Endpoint], Endpoint] | None = None,
                name: Callable[[Endpoint], Endpoint] | None = None) -> Context:
    """Rebuild ``g`` with ``typ`` applied to every type (entry typings and
    boxed payload types), ``target`` to every queue item's target and
    ``name`` to every entry endpoint and boxed payload name.

    This is the one walk over contexts: the renamers and scanners below are
    built on it.  It visits the entries in order, each one's name, then its
    queue, then its typing.  A callback left out keeps its parts; a part that
    comes back unchanged is kept as the same object, and so is ``g``.
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
    return Context(tuple(ents)) if changed else g


def _recorder(out: list) -> Callable:
    def record(v):
        out.append(v)
        return v

    return record


def context_types(g: Context) -> list[Type]:
    """Entry typings and boxed payload types, in walk order."""
    out: list[Type] = []
    map_context(g, typ=_recorder(out))
    return out


def endpoint_names(g: Context) -> set[Endpoint]:
    """Entry endpoints and boxed payload names: the names ``g`` binds.

    A plain loop rather than a ``map_context`` walk: every rule that binds
    a name asks it for freshness, so it is on the checkers' hot path.
    """
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
    return all(is_fully_annotated(t) for t in context_types(g))


def normalize_context(g: Context) -> Context:
    """Entries in name order with normalized queues; checking is invariant
    under this reordering."""
    ents = tuple(
        Entry(e.endpoint, normalize_queue(e.queue), e.typing)
        for e in sorted(g.entries, key=lambda e: e.endpoint)
    )
    return Context(ents)


def rename_context_targets(g: Context, mapping: dict[Endpoint, Endpoint]) -> Context:
    """Rename endpoints wherever they occur as forwarding targets (queue item
    labels and type annotations); entry names are untouched."""
    if not mapping:
        return g
    return map_context(g, typ=lambda t: rename_targets(t, mapping),
                       target=lambda u: mapping.get(u, u))


def rename_context(g: Context, mapping: dict[Endpoint, Endpoint]) -> Context:
    """Rename endpoints everywhere: entry and payload names as well as
    forwarding targets."""
    if not mapping:
        return g
    return map_context(g, typ=lambda t: rename_targets(t, mapping),
                       target=lambda u: mapping.get(u, u), name=lambda n: mapping.get(n, n))


def context_size(g: Context) -> int:
    """Total size: connectives in entry types plus in queued payload types."""
    return sum(size(t) for t in context_types(g))


def erase_context(g: Context) -> tuple[tuple[Endpoint, Type], ...]:
    """Erasure into a CP environment.

    Boxed messages become standalone typed endpoints, tokens vanish, and
    terminated entries contribute only their queue contents.
    """
    out: list[tuple[Endpoint, Type]] = []
    for e in g.entries:
        for it in e.queue:
            if isinstance(it, MsgBox):
                out.extend((p, erase(t)) for p, t in it.payloads)
        if e.typing is not None:
            out.append((e.endpoint, erase(e.typing)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Compatibility configurations


@dataclass(frozen=True)
class Config:
    """Type environment plus per ordered (target, holder) pair FIFOs.

    ``sigma[(u, x)]`` holds the items received at ``x`` still to be forwarded
    to ``u``; in the translation they become ``x``'s queue with brackets
    labelled ``u``.  Both maps are stored as sorted tuples so configs hash.
    """

    delta: tuple[tuple[Endpoint, Type], ...]
    sigma: tuple[tuple[tuple[Endpoint, Endpoint], Queue], ...] = ()

    @staticmethod
    def make(
        delta: Iterable[tuple[Endpoint, Type]],
        sigma: Iterable[tuple[tuple[Endpoint, Endpoint], Queue]] = (),
    ) -> Config:
        d = tuple(sorted(delta))
        s = tuple(sorted((k, tuple(q)) for k, q in sigma if q))
        return Config(d, s)

    def delta_map(self) -> dict[Endpoint, Type]:
        return dict(self.delta)

    def sigma_map(self) -> dict[tuple[Endpoint, Endpoint], Queue]:
        return {k: q for k, q in self.sigma}

    def is_empty(self) -> bool:
        return not self.delta and not self.sigma


EMPTY_CONFIG = Config((), ())


def translate_config(c: Config) -> Context:
    """Forwarder context of a configuration.

    Each endpoint's pending queues are concatenated grouped by bracket label
    in canonical name order; holders absent from delta become terminated
    entries that persist until their queues drain.
    """
    delta = c.delta_map()
    sigma = c.sigma_map()
    known = set(delta) | {x for (_, x) in sigma} | {u for (u, _) in sigma}
    for (u, x), q in sigma.items():
        if u == x:
            raise ValueError(f"self-directed queue at {x}")
        if u not in known:
            raise ValueError(f"queue target {u} unknown to the configuration")
    entries = []
    holders = sorted(set(delta) | {x for (_, x), q in c.sigma if q})
    for x in holders:
        queue: list[QueueItem] = []
        for u in sorted({u for (u, h) in sigma if h == x}):
            queue.extend(sigma[(u, x)])
        entries.append(Entry(x, tuple(queue), delta.get(x)))
    return Context(tuple(entries))


def config_of_context(g: Context) -> Config:
    """Inverse of ``translate_config`` on its image."""
    delta = []
    sigma: dict[tuple[Endpoint, Endpoint], list[QueueItem]] = {}
    for e in g.entries:
        if e.typing is not None:
            delta.append((e.endpoint, e.typing))
        for it in e.queue:
            sigma.setdefault((it.target, e.endpoint), []).append(it)
    return Config.make(delta, ((k, tuple(v)) for k, v in sigma.items()))
