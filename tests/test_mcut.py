"""Multiparty composition: a part whose head acts on one of its own external
endpoints emits that action outside the composition (one continuation stays
in it) or, for a case, forks the run into one composition per branch."""

import pytest

from fwdcal import mcut as MC
from fwdcal import parsing as P
from fwdcal import syntax as S
from fwdcal.cutelim import Judged

LINK = "(x<->y) |- x : ~a, y : a"
PEER_Y = "(y<->f) |- f : a, y : ~a @ y"

# the part at x acts on its external endpoint u before the axiom step joins
# it to the peer at y; the result term is the one the composition gave when
# each commuting case still had its own arm
COMMUTING = {
    "wait": ("(wait u; x<->e) |- u : bot, e : ~a, x : a @ x",
             "wait u; e<->f"),
    "recv": ("(u(v). wait v; wait u; x<->e) |- u : bot | bot, e : ~a, x : a @ x",
             "u(v). wait v; wait u; e<->f"),
    "send-bound-in-continuation": (
        "(u[v].(close v | wait u; x<->e)) |- u : 1 * bot, e : ~a, x : a @ x",
        "u[v].(close v | wait u; e<->f)"),
    "send-bound-in-payload": ("(u[v].(x<->v | close u)) |- u : ~a * 1, x : a @ x",
                              "u[v].(v<->f | close u)"),
    "inl": ("(u.inl. wait u; x<->e) |- u : bot + 1, e : ~a, x : a @ x",
            "u.inl. wait u; e<->f"),
    "inr": ("(u.inr. wait u; x<->e) |- u : 1 + bot, e : ~a, x : a @ x",
            "u.inr. wait u; e<->f"),
    "client": ("(?u[v]. wait v; x<->e) |- u : ? bot, e : ~a, x : a @ x",
               "?u[v]. wait v; e<->f"),
    "case-forks": (
        "(case u {inl: wait u; x<->e; inr: u[v].(close v | wait u; x<->e)}) "
        "|- u : bot & (1 * bot), e : ~a, x : a @ x",
        "case u {inl: wait u; e<->f; inr: u[v].(close v | wait u; e<->f)}"),
}


def run_sim(fwd: str, parts: list[str]):
    (d,) = P.parse_file(f"sim {fwd} parts {', '.join(parts)};").decls
    entries = tuple(
        MC.PartEntry(p.proc, tuple((n, t) for n, t in p.env if n != p.endpoint),
                     p.endpoint, dict(p.env)[p.endpoint])
        for p in d.parts)
    bound = tuple(e.endpoint for e in d.fwd_ctx.entries)
    term, trace = MC.run_mcut(MC.MCutConfig(bound, Judged(d.fwd, d.fwd_ctx), (), entries))
    return S.print_process(term), trace


@pytest.mark.parametrize("case", sorted(COMMUTING))
def test_part_head_on_external_endpoint_leaves_the_composition(case):
    part, want = COMMUTING[case]
    term, trace = run_sim(LINK, [part, PEER_Y])
    assert term == want
    assert trace[0] == "comm" and trace[-1] == "Ax"


def test_part_server_on_external_endpoint():
    # the forwarder serves x; the part at x first serves its own external u
    fwd = "(!x(x1). ?y[y1]. wait y1; close x1) |- x : !{y} 1{y1}, y : ?{x} bot{x1}"
    part_x = "(!u(v). ?x[w]. wait w; close v) |- u : ! 1, x : ? bot @ x"
    part_y = "(!y(s). ?f[t]. wait t; close s) |- f : ? bot, y : ! 1 @ y"
    term, trace = run_sim(fwd, [part_x, part_y])
    assert term == "!u(v). ?f[t]. wait t; close v"
    assert trace == ("comm", "Quest", "Bang", "comm", "comm", "One", "Bot")
