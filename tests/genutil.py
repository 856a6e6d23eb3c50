"""Generators shared by the test modules: random plain types, compatible
environments, derivable judgements (with queues, sampled from derivation
trees), and cut-pair material; and two oracles, brute-force compatibility
and cut reduction by search."""

from __future__ import annotations

import random
from itertools import product

from fwdcal import syntax as S
from fwdcal import checker as K
from fwdcal import compat as CM
from fwdcal import cutelim as CE
from fwdcal.contexts import (
    Context, Entry, MsgBox, context_size, endpoint_names, normalize_context, rename_context,
)
from fwdcal.records import replace
from fwdcal.syntax import (
    Atom, Bot, DualAtom, OfCourse, One, Par, Plus, Tensor, WhyNot, With, dual, erase,
)

CONNECTIVES = ("tensor", "par", "plus", "with", "ofcourse", "whynot", "one", "bot")


def random_plain_type(rng: random.Random, size: int, atom: str = "a",
                      units=True, additives=True, exponentials=True,
                      head: str | None = None) -> S.Type:
    """A random erased type of exactly the given size; ``head`` (one of
    ``CONNECTIVES``) fixes its head connective when ``size`` allows it."""
    if size == 0:
        return rng.choice((Atom(atom), DualAtom(atom)))
    choices = ["tensor", "par"]
    if additives:
        choices += ["plus", "with"]
    if exponentials:
        choices += ["ofcourse", "whynot"]
    if units:
        choices += ["one", "bot"]
    kind = head or rng.choice(choices)
    if kind == "one":
        if size == 1:
            return One()
        kind = "tensor"
    if kind == "bot":
        if size == 1:
            return Bot()
        kind = "par"
    if kind in ("ofcourse", "whynot"):
        body = random_plain_type(rng, size - 1, atom, units, additives, exponentials)
        return OfCourse(body) if kind == "ofcourse" else WhyNot(body)
    ls = rng.randint(0, size - 1)
    l = random_plain_type(rng, ls, atom, units, additives, exponentials)
    r = random_plain_type(rng, size - 1 - ls, atom, units, additives, exponentials)
    return {"tensor": Tensor, "par": Par, "plus": Plus, "with": With}[kind](l, r)


def enumerate_plain_types(size: int, atom: str = "a"):
    """Every erased type of exactly the given size over one atom."""
    if size == 0:
        yield Atom(atom)
        yield DualAtom(atom)
        return
    if size == 1:
        yield One()
        yield Bot()
    for cls in (Tensor, Par, Plus, With):
        for ls in range(size):
            for l in enumerate_plain_types(ls, atom):
                for r in enumerate_plain_types(size - 1 - ls, atom):
                    yield cls(l, r)
    for cls in (OfCourse, WhyNot):
        for b in enumerate_plain_types(size - 1, atom):
            yield cls(b)


# The type walks of ``syntax`` by their definitions over ``map_slots``: the
# reference the property tests compare the walks with.


def erase_by_slots(t: S.Type) -> S.Type:
    return S.map_slots(t, lambda _, ts: ())


def size_by_slots(t: S.Type) -> int:
    return len(S.slots(t))


def fully_annotated_by_slots(t: S.Type) -> bool:
    return all(ts and not S.is_hole(ts) for ts in S.slots(t))


def rename_targets_by_slots(t: S.Type, mapping: dict[str, str]) -> S.Type:
    if not mapping:
        return t
    return S.map_slots(t, lambda _, ts: tuple(mapping.get(u, u) for u in ts))


def is_dual_by_erasure(t: S.Type, u: S.Type) -> bool:
    return erase_by_slots(t) == dual(erase_by_slots(u))


def erase_context(g: Context) -> tuple[tuple[S.Endpoint, S.Type], ...]:
    """Erasure into a CP environment.

    Boxed messages become standalone typed endpoints, tokens vanish, and
    terminated entries contribute only their queue contents.
    """
    out: list[tuple[S.Endpoint, S.Type]] = []
    for e in g.entries:
        for it in e.queue:
            if isinstance(it, MsgBox):
                out.extend((p, erase(t)) for p, t in it.payloads)
        if e.typing is not None:
            out.append((e.endpoint, erase(e.typing)))
    return tuple(out)


def is_cut_free(p: S.Process) -> bool:
    return not isinstance(p, S.Cut) and all(is_cut_free(q) for _, q in S.scope(p)[1])


def derivation_nodes(d: K.Derivation):
    yield d.process, d.context
    for p in d.premises:
        yield from derivation_nodes(p)


def dual_pair_judgement(rng: random.Random, max_size: int = 4,
                        exponentials: bool = True):
    """A derivable two-endpoint judgement (an annotated dual pair)."""
    t = random_plain_type(rng, rng.randint(1, max_size), exponentials=exponentials)
    got = K.synth_with_annotations((("p", dual(t)), ("q", t)))
    assert got is not None, f"dual pair must be compatible: {t}"
    return got


def sample_derivable_judgements(rng: random.Random, n: int, max_size: int = 4,
                                exponentials: bool = True):
    """Derivable forwarder judgements with queues, as derivation nodes."""
    out = []
    while len(out) < n:
        ctx, proc = dual_pair_judgement(rng, max_size, exponentials)
        d = K.check_forwarder(proc, ctx)
        nodes = list(derivation_nodes(d))
        rng.shuffle(nodes)
        out.extend(nodes[: max(1, len(nodes) // 2)])
    return out[:n]


def rename_judgement(proc, ctx: Context, suffix: str):
    """Consistently rename every endpoint of a judgement (alpha on free names)."""
    mapping = {n: n.split("#")[0] + suffix + (("x" + n.split("#")[1]) if "#" in n else "")
               for n in endpoint_names(ctx)}
    return S.rename_free(proc, mapping), rename_context(ctx, mapping), mapping


def sample_cut_pairs(rng: random.Random, n: int, max_formula: int = 4,
                     exponentials: bool = True, left_head: type | None = None):
    """Pairs of derivable judgements with dual cut formulas (renamed apart).

    ``left_head`` restricts the left cut formula to one head connective (for
    instance ``Tensor``); the right formula is its dual.  Without it, both
    sides are drawn from the whole pool, so the draws for a seed stay those
    of the unrestricted sampler."""
    pool = []
    want = max(24, n)
    while len(pool) < want:
        ctx, proc = dual_pair_judgement(rng, max_formula, exponentials)
        d = K.check_forwarder(proc, ctx)
        for p, g in derivation_nodes(d):
            for e in g.entries:
                if e.typing is not None and S.size(erase(e.typing)) <= max_formula:
                    pool.append((p, g, e.endpoint))
    left_pool = pool if left_head is None else [
        (p, g, z) for p, g, z in pool if isinstance(g.get(z).typing, left_head)]
    pairs = []
    attempts = 0
    while left_pool and len(pairs) < n and attempts < 60 * n:
        attempts += 1
        p1, g1, x = rng.choice(left_pool)
        p2, g2, y = rng.choice(pool)
        if erase(g1.get(x).typing) != dual(erase(g2.get(y).typing)):
            continue
        yi = list(g2.endpoints()).index(y)
        j2 = CE.freshen_judgement(CE.Judged(p2, g2), CE.judgement_names(CE.Judged(p1, g1)))
        pairs.append((p1, g1, x, j2.term, j2.ctx, j2.ctx.entries[yi].endpoint))
    return pairs


def fresh_cut_sides(a_plain, left_names=("w", "x"), right_names=("y", "v")):
    """The derivations of two synthesized dual-pair judgements with disjoint
    name spaces, cutting the second entry of each."""
    lw, lx = left_names
    ry, rv = right_names
    lc, lp = K.synth_with_annotations(((lw, dual(a_plain)), (lx, a_plain)))
    rc, rp = K.synth_with_annotations(((ry, dual(a_plain)), (rv, a_plain)))
    j1 = CE.Judged(lp, lc)
    yi = list(rc.endpoints()).index(ry)
    j2 = CE.freshen_judgement(CE.Judged(rp, rc), CE.judgement_names(j1))
    return (K.check_forwarder(lp, lc), lx, K.check_forwarder(j2.term, j2.ctx),
            j2.ctx.entries[yi].endpoint)


# ---------------------------------------------------------------------------
# Compatibility oracle: every annotation, every interleaving


def _annotation_variants(t: S.Type, owner: str, others: tuple[str, ...]):
    """All spine-slot annotations of a plain type, in the lexicographic
    order of their slots in ``map_slots`` order; payload slots are pinned to
    an arbitrary endpoint, since they are erased when the payload is sent."""
    dummy = (others[0],) if others else (owner,)
    choices: list[list[tuple[str, ...]]] = []
    in_payload = 0  # payload slots still to be visited

    def plan(s, ts):
        nonlocal in_payload
        if in_payload:
            in_payload -= 1
            choices.append([dummy])
            return ts
        if isinstance(s, S.MULTI_TARGET):
            choices.append(list(K.nonempty_subsets(others)))
        else:
            choices.append([(u,) for u in others])
        if isinstance(s, (Tensor, Par)):
            in_payload = S.size(s.left)  # the next slots visited are the payload's
        return ts

    S.map_slots(t, plan)
    for combo in product(*choices):
        slot = iter(combo)
        yield S.map_slots(t, lambda _, ts: next(slot))


def annotation_variants(env):
    """All initial configurations over the spine annotations of ``env``: the
    eager product the lazy solver of ``compat`` must agree with."""
    names = tuple(sorted(x for x, _ in env))
    per_entry = []
    for x, t in sorted(env):
        others = tuple(n for n in names if n != x)
        per_entry.append([(x, v) for v in _annotation_variants(erase(t), x, others)])
    for combo in product(*per_entry):
        yield Context(tuple(Entry(x, (), t) for x, t in combo))


def exhaustively_compatible(env) -> bool:
    """Multiparty compatibility by brute force: some annotation of the dual
    (``annotation_variants``) is executable along every interleaving (the
    full ``compat.transitions``), every send carrying an environment with an
    executable annotation."""
    executable: dict = {}
    send_ok: dict = {}

    def some(env) -> bool:
        return any(is_executable(c) for c in annotation_variants(env))

    def carried_ok(env) -> bool:
        if env not in send_ok:
            send_ok[env] = some(env)
        return send_ok[env]

    def is_executable(c) -> bool:
        if c not in executable:
            trs = CM.transitions(c)
            executable[c] = not c.entries or bool(trs) and all(
                (not lab.carried or carried_ok(lab.carried)) and is_executable(c2)
                for lab, c2 in trs)
        return executable[c]

    return some(tuple((x, dual(erase(t))) for x, t in env))


def random_env(rng: random.Random, parties: int, head: str, max_size: int = 2):
    """A random plain environment whose first party's type has head
    connective ``head`` (unit heads have size 1)."""
    size = 1 if head in ("one", "bot") else rng.randint(1, max_size)
    env = [("e0", random_plain_type(rng, size, head=head))]
    env += [(f"e{i}", random_plain_type(rng, rng.randint(0, max_size)))
            for i in range(1, parties)]
    return tuple(env)


def choice_projection_env(rng: random.Random, parties: int, waiters: int,
                          events: int = 2, depth: int = 2):
    """The projections of a random global protocol, as in the ``kparty``
    workload: a sequence of events, each a message (the sender's type gets a
    * with the payload, the receiver's a | with its dual) or a tree of up to
    ``depth`` nested choices within one pair of parties (the chooser's type gets a
    +, the receiver's a &).  A party no event involves sees the protocol's
    end, which is ``bot`` for the ``waiters`` first parties of a random order
    and ``1`` for the others.  With one waiter the environment is compatible
    by construction; with none or two, a closing party is missing or
    doubled."""
    names = [f"p{i}" for i in range(parties)]
    evs = []
    for _ in range(events):
        i, j = rng.sample(names, 2)
        if rng.random() < 0.4:
            evs.append(("msg", i, j, random_plain_type(rng, rng.randint(0, 1))))
        else:
            evs.append(("choice", _choice_tree(rng, i, j, depth)))
    order = names[:]
    rng.shuffle(order)
    ends = {p: Bot() if p in order[:waiters] else One() for p in names}

    def proj(k: int, p: str) -> S.Type:
        if k == len(evs):
            return ends[p]
        ev, rest = evs[k], proj(k + 1, p)
        if ev[0] == "msg":
            _, i, j, a = ev
            return Tensor(a, rest) if p == i else Par(dual(a), rest) if p == j else rest
        return _project_tree(ev[1], p, rest)

    return tuple((p, proj(0, p)) for p in names)


def _choice_tree(rng: random.Random, i: str, j: str, depth: int):
    """A choice by ``i`` to ``j`` whose branches hold choices within the same
    pair (either party may choose), or None (the branch ends the tree)."""
    if depth == 0 or rng.random() < 0.4:
        return None
    if rng.random() < 0.5:
        i, j = j, i
    return (i, j, _choice_tree(rng, i, j, depth - 1), _choice_tree(rng, i, j, depth - 1))


def _project_tree(node, p: str, cont: S.Type) -> S.Type:
    if node is None:
        return cont
    i, j, l, r = node
    lt, rt = _project_tree(l, p, cont), _project_tree(r, p, cont)
    if p == i:
        return Plus(lt, rt)
    if p == j:
        return With(lt, rt)
    return lt  # a party outside the pair sees the same continuation either way


# ---------------------------------------------------------------------------
# Cut-reduction oracle: every step of the figure, with backtracking


def search_reduce_cut(left: K.Derivation, x: str, right: K.Derivation, y: str,
                      gamma: Context):
    """``cutelim.reduce_cut`` as a search, the reference its one step per
    redex is compared against: at each redex, try the steps of
    ``cutelim._table`` in order, backtracking past every one that fails, and
    keep the first that realizes its goal.  Returns the term and its trace,
    or None; running out of fuel (a step tried, failed or not, costs one)
    raises ``FuelExhausted``."""
    fuel = [4 * (context_size(left.context) + context_size(right.context)
                 + CE.proc_size(left.process) + CE.proc_size(right.process) + 4)]
    got = _search(CE._Cut(left, x, right, y), gamma, (), fuel, {})
    return None if got is None else got[:2]


def _search(r, gamma: Context, receives: tuple[str, ...], fuel: list[int], idents):
    """(term, trace, idents) of the first step at ``r`` that realizes
    ``gamma``, or None."""
    for step in CE._table(r):
        fuel[0] -= 1
        if fuel[0] < 0:
            raise CE.FuelExhausted("fuel exhausted", ())
        try:
            got = _search_step(step, gamma, receives, fuel, idents)
        except CE.FuelExhausted:
            raise
        except (K.CheckError, CE.CutError):
            got = None
        if got is not None:
            return got
    return None


def _search_step(step, gamma: Context, receives: tuple[str, ...], fuel: list[int], idents):
    """(term, trace, idents) of ``step`` at ``gamma``, or None; a check that
    fails raises."""
    trace = (step.tag,)
    if step.leaf is not None:
        K.check_forwarder(step.leaf, gamma)
        return step.leaf, trace, idents
    if step.redex is not None:
        r = step.redex
        if step.box is not None:
            c, payload, a = step.box

            def box_cut(payload, a, message, c, concl):
                nonlocal trace, idents
                got = _search(CE._Cut(payload, a, message, c), concl, (), fuel, idents)
                if got is None:
                    raise CE.CutError("inner box cut failed")
                term, more, idents = got
                trace += more
                return term

            r = replace(r, right=CE._cut_in_box(payload, a, r.right, c, box_cut))
            idents = dict(idents)  # a failed branch must not keep its identification
            gamma = CE._identify(gamma, c, payload, a, receives, idents)
        got = _search(r, gamma, receives, fuel, idents)
        return None if got is None else (got[0], trace + got[1], got[2])
    term, out = step.head, []
    _, goals = K.forwarder_step(term, gamma)
    if isinstance(term, S.Recv):
        receives += (term.fresh,)
    for (bs, sub), (_, g2) in zip(step.subs, goals):
        if isinstance(sub, CE._Cut):
            got = _search(sub, g2, receives, fuel, idents)
            if got is None:
                return None
            q, more, idents = got
            trace += more
        elif normalize_context(sub.context) == normalize_context(g2):
            q = sub.process
        else:
            return None
        out.append((bs, q))
    if isinstance(term, S.Recv) and term.fresh in idents:
        c = idents[term.fresh]
        idents = {s: n for s, n in idents.items() if s != term.fresh}
        out = [((c,), S.rename_free(out[0][1], {term.fresh: c}))]
    return S.from_scope(term, S.scope(term)[0], tuple(out)), trace, idents
