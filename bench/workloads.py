"""Seeded generators for the benchmark's workloads.

Each generator returns a list of ``Item``s: one declaration in ``.fwd`` text
plus the verdict the paper's theory fixes for it.  Expected verdicts come
from the construction, never from the ``compat`` code under test:

* ``relay``: a positive relay or criss-cross delivers every message it sends;
  its negative twin's receiver expects one message fewer, so a message is
  left in transit and no forwarder exists.
* ``kparty``: environments are projections of a choice protocol between two
  parties; with exactly one waiter the forwarder closes it after waiting on
  the closers, with zero or two waiters no forwarder can end.
* ``cut``: every cut conclusion is derivable and realized by a cut-free
  forwarder, and every composition of a forwarder with eta-link parts reduces
  to a CP process (the cut and composition theorems).

``relay`` and ``kparty`` text is written by this module's own small type
printer, so their inputs do not depend on the program's printer.  ``cut``
declarations are built from forwarders that the program synthesizes for dual
pairs, so they are printed by the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Largest relay whose negative twin is confirmed by synthesis at generation
# time.  Synthesis exhausts its search on those negatives in 0.9 s at n=8,
# 17 s at n=10 and over 100 s at n=12 (2 cores, Python 3.11); the larger
# negatives rest on the message-count argument, which ``gen_relay`` asserts.
RELAY_SYNTH_CHECK_MAX = 7

_ATOMS = ("a", "b", "c", "d", "name", "cost", "price", "addr", "data", "ack",
          "book", "title", "quote", "item", "date", "id")
_ENDPOINTS = ("x", "y", "z", "u", "v", "w", "p", "q", "r", "s", "t", "k", "m",
              "n", "buyer", "seller", "bank", "ship", "alice", "bob", "carol")


@dataclass(frozen=True)
class Item:
    """One declaration and the verdict the theory fixes for it."""

    kind: str        # compat | synth | cut | sim
    text: str        # one declaration, ending in ';'
    expected: bool
    tag: str         # family and size, e.g. "relay-12+" or "cut-par-4"
    synth_check: bool = False  # confirm ``expected`` by synthesis on the dual


# -- a small plain-type algebra, independent of the program --------------------
# ("atom", name) | ("natom", name) | ("1",) | ("bot",) | (op, left, right)
# with op in "*", "|", "+", "&".

_DUAL_OP = {"*": "|", "|": "*", "+": "&", "&": "+"}


def dual(t):
    match t:
        case ("atom", a):
            return ("natom", a)
        case ("natom", a):
            return ("atom", a)
        case ("1",):
            return ("bot",)
        case ("bot",):
            return ("1",)
        case (op, l, r):
            return (_DUAL_OP[op], dual(l), dual(r))
    raise ValueError(t)


def show(t) -> str:
    """Print the way the program's printer does: binaries are
    right-associative at one tier, so only a binary left operand is
    parenthesized."""
    match t:
        case ("atom", a):
            return a
        case ("natom", a):
            return "~" + a
        case ("1",):
            return "1"
        case ("bot",):
            return "bot"
        case (op, l, r):
            left = f"({show(l)})" if len(l) == 3 else show(l)
            return f"{left} {op} {show(r)}"
    raise ValueError(t)


def _chain(op, heads, last):
    t = last
    for h in reversed(heads):
        t = (op, h, t)
    return t


def _env_text(env) -> str:
    return ", ".join(f"{x} : {show(t)}" for x, t in env)


def _pair_items(env, expected: bool, tag: str, synth_check: bool) -> list[Item]:
    """A compat declaration, and for a positive the synth declaration of its
    dual (the forwarder's context), both with the same expected verdict."""
    out = [Item("compat", f"compat {_env_text(env)};", expected, tag, synth_check)]
    if expected:
        denv = [(x, dual(t)) for x, t in env]
        out.append(Item("synth", f"synth {_env_text(denv)};", True, tag, True))
    return out


# -- relay ---------------------------------------------------------------------

RELAY_SIZES = range(2, 13)


def _payloads(rng: random.Random, n: int):
    return [(rng.choice(("atom", "natom")), rng.choice(_ATOMS)) for _ in range(n)]


def _relay(rng: random.Random, n: int):
    """x sends n payloads then closes; y receives them then waits.  Returns
    x's type and y's positive and negative (one message fewer) types."""
    xs = _payloads(rng, n)
    x_t = _chain("*", xs, ("1",))
    return x_t, [_chain("|", [dual(m) for m in got], ("bot",)) for got in (xs, xs[:-1])]


def _crisscross(rng: random.Random, n: int):
    """n messages in all; each party alternately sends and then receives, so
    each sends before it receives.  x sends ceil(n/2) and y floor(n/2); the
    negative y receives one fewer of x's messages."""
    k, m = (n + 1) // 2, n // 2
    a, b = _payloads(rng, k), _payloads(rng, m)
    x_steps, y_steps = [], []
    for i in range(k):
        x_steps.append(("*", a[i]))
        if i < m:
            x_steps.append(("|", dual(b[i])))
    for i in range(m):
        y_steps.append(("*", b[i]))
        y_steps.append(("|", dual(a[i])))
    if k > m:
        y_steps.append(("|", dual(a[k - 1])))
    last = max(i for i, (op, _) in enumerate(y_steps) if op == "|")
    y_neg = y_steps[:last] + y_steps[last + 1:]

    def build(steps, end):
        t = end
        for op, h in reversed(steps):
            t = (op, h, t)
        return t

    return build(x_steps, ("1",)), [build(y_steps, ("bot",)), build(y_neg, ("bot",))]


def _sends(t) -> int:
    return 0 if len(t) < 3 else (t[0] == "*") + _sends(t[2])


def _receives(t) -> int:
    return 0 if len(t) < 3 else (t[0] == "|") + _receives(t[2])


def gen_relay(rng: random.Random) -> list[Item]:
    items = []
    for fam, make in (("relay", _relay), ("criss", _crisscross)):
        for n in RELAY_SIZES:
            # the sender's name sorts first, as the solvers try names in order
            x, y = sorted(rng.sample(_ENDPOINTS, 2))
            x_t, (y_pos, y_neg) = make(rng, n)
            for y_t, negative in ((y_pos, False), (y_neg, True)):
                # the message-count argument behind the expected verdict
                balanced = _sends(x_t) == _receives(y_t) and _sends(y_t) == _receives(x_t)
                if balanced == negative:
                    raise RuntimeError(f"{fam}-{n}: message counts contradict the verdict")
                check = not negative or n <= RELAY_SYNTH_CHECK_MAX
                items += _pair_items([(x, x_t), (y, y_t)], not negative,
                                     f"{fam}-{n}{'-' if negative else '+'}", check)
    return items


# -- kparty --------------------------------------------------------------------
# Each shape is the projection, onto parties 0, 1 and 2, of a choice protocol
# between two of them: one party selects (+) where its partner branches (&),
# and the third party takes no part.  A party's leaves are all 1 (a closer)
# or all bot (a waiter); L marks a leaf.  The shapes are the one without a
# choice, the six with one choice (every ordered pair of parties) and six
# with two (one per ordered pair, the four two-choice forms in turn).  With
# exactly one waiter the forwarder closes it after waiting on the closers,
# so the positive makes the party outside the choices the waiter.  With zero
# or two waiters no forwarder can end: each row lists its negatives' waiter
# sets.

L = "L"
KPARTY_SHAPES = (
    # (party 0, party 1, party 2), positive's waiter, negatives' waiter sets
    ((L, L, L), 0, ({0, 1}, set())),
    ((("+", L, L), ("&", L, L), L), 2, ({0, 1}, set())),
    ((("+", L, L), L, ("&", L, L)), 1, ({0, 2}, set())),
    ((("&", L, L), ("+", L, L), L), 2, ({0, 1}, set())),
    ((L, ("+", L, L), ("&", L, L)), 0, ({1, 2}, set())),
    ((("&", L, L), L, ("+", L, L)), 1, ({0, 2}, set())),
    ((L, ("&", L, L), ("+", L, L)), 0, ({1, 2}, set())),
    ((("+", L, ("&", L, L)), ("&", L, ("+", L, L)), L), 2, (set(),)),
    ((("+", L, ("+", L, L)), L, ("&", L, ("&", L, L))), 1, ({0, 1},)),
    ((("&", ("&", L, L), L), ("+", ("+", L, L), L), L), 2, (set(),)),
    ((L, ("+", ("+", L, L), L), ("&", ("&", L, L), L)), 0, ({0, 1},)),
    ((("&", L, ("&", L, L)), L, ("+", L, ("+", L, L))), 1, (set(),)),
    ((L, ("&", L, ("+", L, L)), ("+", L, ("&", L, L))), 0, ({0, 2},)),
)


def _choices(t) -> int:
    return 0 if t == L else 1 + _choices(t[1]) + _choices(t[2])


def _fill_leaves(t, leaf):
    if t == L:
        return leaf
    return (t[0], _fill_leaves(t[1], leaf), _fill_leaves(t[2], leaf))


def _kparty_env(names, shape, waiters):
    return [(names[p], _fill_leaves(shape[p], ("bot",) if p in waiters else ("1",)))
            for p in range(3)]


def gen_kparty(rng: random.Random) -> list[Item]:
    """Every shape of ``KPARTY_SHAPES`` with one waiter, and with each of its
    negatives' waiter sets.

    The seed draws the party names and the declaration order only.  Names
    are assigned in sorted order, because both solvers try endpoints in name
    order: so every seed measures the same work, and the spread between
    seeds stays below the benchmark's bounds."""
    items = []
    for shape, waiter, negs in KPARTY_SHAPES:
        names = sorted(rng.sample(_ENDPOINTS, 3))
        n_ch = sum(_choices(t) for t in shape)
        items += _pair_items(_kparty_env(names, shape, {waiter}), True,
                             f"kparty-{n_ch}+", True)
        for waiters in negs:
            items += _pair_items(_kparty_env(names, shape, waiters), False,
                                 f"kparty-{n_ch}-{len(waiters)}w", True)
    return items


# -- cut -----------------------------------------------------------------------

CUT_SIZES = range(1, 7)
CUT_ROOTS = ("tensor", "par", "plus", "with", "ofcourse", "whynot")
CUT_PER_SHAPE = 3  # formulas per size and root connective


def _plain_type(S, rng: random.Random, size: int, root: str | None = None):
    """A random erased type with ``size`` connectives over one atom.  ``one``
    and ``bot`` count as a connective each; an atom is size 0."""
    if size == 0:
        return rng.choice((S.Atom("a"), S.DualAtom("a")))
    kinds = ["tensor", "par", "plus", "with", "ofcourse", "whynot"]
    if size == 1:
        kinds += ["one", "bot"]
    kind = root or rng.choice(kinds)
    if kind == "one":
        return S.One()
    if kind == "bot":
        return S.Bot()
    if kind in ("ofcourse", "whynot"):
        body = _plain_type(S, rng, size - 1)
        return S.OfCourse(body) if kind == "ofcourse" else S.WhyNot(body)
    ls = rng.randint(0, size - 1)
    l, r = _plain_type(S, rng, ls), _plain_type(S, rng, size - 1 - ls)
    return {"tensor": S.Tensor, "par": S.Par, "plus": S.Plus, "with": S.With}[kind](l, r)


def gen_cut(rng: random.Random) -> list[Item]:
    """For ``CUT_PER_SHAPE`` formulas of every size and root connective (and
    for the units): a cut of two synthesized dual-pair forwarders, realized at
    every conclusion, and a composition of a synthesized dual-pair forwarder
    with eta-link parts."""
    from fwdcal import parsing as PA
    from fwdcal import syntax as S
    from fwdcal.checker import eta_link, synth_with_annotations
    from fwdcal.cutelim import Judged, freshen_judgement, judgement_names

    formulas = [(f"{root}-1", _plain_type(S, rng, 1, root)) for root in ("one", "bot")]
    for size in CUT_SIZES:
        for root in CUT_ROOTS:
            formulas += [(f"{root}-{size}", _plain_type(S, rng, size, root))
                         for _ in range(CUT_PER_SHAPE)]

    def synth(env):
        got = synth_with_annotations(env)
        if got is None:
            raise RuntimeError(f"no forwarder for the dual pair {env}")
        return Judged(got[1], got[0])

    items = []
    for tag, a in formulas:
        w, x, v, y = rng.sample(_ENDPOINTS, 4)
        left = synth(((w, S.dual(a)), (x, a)))
        right = synth(((v, a), (y, S.dual(a))))
        right = freshen_judgement(right, judgement_names(left))
        text = PA.print_declaration(PA.CutDecl(left.term, left.ctx, right.term, right.ctx))
        items.append(Item("cut", text, True, f"cut-{tag}"))

        x, y = rng.sample(_ENDPOINTS, 2)
        ex, ey = f"{x}_e", f"{y}_e"
        fwd = synth(((x, a), (y, S.dual(a))))
        parts = (
            PA.SimPart(eta_link(ex, x, S.dual(a)), ((ex, a), (x, S.dual(a))), x),
            PA.SimPart(eta_link(ey, y, a), ((ey, S.dual(a)), (y, a)), y),
        )
        text = PA.print_declaration(PA.SimDecl(fwd.term, fwd.ctx, parts))
        items.append(Item("sim", text, True, f"sim-{tag}"))
    return items


GENERATORS = {"relay": gen_relay, "kparty": gen_kparty, "cut": gen_cut}


def workload_text(items: list[Item]) -> str:
    """The ``.fwd`` file the program under test reads."""
    return "".join(it.text + "\n" for it in items)


def generate(workload: str, seed: int) -> list[Item]:
    """The workload's declarations for ``seed``, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    items = GENERATORS[workload](rng)
    rng.shuffle(items)
    return items
