"""Generators shared by the test modules: random plain types, compatible
environments, derivable judgements (with queues, sampled from derivation
trees), and cut-pair material."""

from __future__ import annotations

import random
from itertools import product

from fwdcal import syntax as S
from fwdcal import checker as K
from fwdcal.contexts import Context, endpoint_names, rename_context
from fwdcal.syntax import (
    Atom, Bot, DualAtom, OfCourse, One, Par, Plus, Tensor, WhyNot, With, dual, erase,
)

CONNECTIVES = ("tensor", "par", "plus", "with", "ofcourse", "whynot", "one", "bot")


def random_plain_type(rng: random.Random, size: int, atom: str = "a",
                      units=True, additives=True, exponentials=True) -> S.Type:
    """A random erased type of exactly the given size."""
    if size == 0:
        return rng.choice((Atom(atom), DualAtom(atom)))
    choices = ["tensor", "par"]
    if additives:
        choices += ["plus", "with"]
    if exponentials:
        choices += ["ofcourse", "whynot"]
    if units:
        choices += ["one", "bot"]
    kind = rng.choice(choices)
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
    from fwdcal.cutelim import Judged, freshen_judgement, judgement_names

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
        j2 = freshen_judgement(Judged(p2, g2), judgement_names(Judged(p1, g1)))
        pairs.append((p1, g1, x, j2.term, j2.ctx, j2.ctx.entries[yi].endpoint))
    return pairs


def fresh_cut_sides(a_plain, left_names=("w", "x"), right_names=("y", "v")):
    """Two synthesized dual-pair judgements with disjoint name spaces, cutting
    the second entry of each."""
    from fwdcal.cutelim import Judged, freshen_judgement, judgement_names

    lw, lx = left_names
    ry, rv = right_names
    lc, lp = K.synth_with_annotations(((lw, dual(a_plain)), (lx, a_plain)))
    rc, rp = K.synth_with_annotations(((ry, dual(a_plain)), (rv, a_plain)))
    j1 = Judged(lp, lc)
    yi = list(rc.endpoints()).index(ry)
    j2 = freshen_judgement(Judged(rp, rc), judgement_names(j1))
    return j1, lx, j2, j2.ctx.entries[yi].endpoint
