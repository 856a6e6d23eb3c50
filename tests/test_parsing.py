"""Declaration files, contexts and environments: printing then parsing gives
the same tree back, the formatter is a fixed point, and parse errors keep
their positions and texts."""

import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fwdcal import parsing as P
from fwdcal import syntax as S
from fwdcal.contexts import (
    Context, Entry, LeftTok, MsgBox, Query, RightTok, Star, endpoint_names, target_names,
)
from fwdcal.records import replace
from fwdcal.syntax import Atom, Close, One, Tensor
from test_bench_inputs import load_workloads
from test_syntax import names, scoped_procs, types

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# every queue-item kind; boxes carry one to three payloads, each named once
# in its box (``bound_once`` makes it once in its context)
payloads = st.lists(st.tuples(st.sampled_from(["p", "q", "r'", "m#1"]), types),
                    min_size=1, max_size=3, unique_by=lambda pl: pl[0]).map(tuple)
items = st.one_of(st.builds(MsgBox, names, payloads), names.map(Star), names.map(Query),
                  names.map(LeftTok), names.map(RightTok))
queues = st.lists(items, max_size=4).map(tuple)


def bound_once(d) -> Context:
    """The context of ``d`` (endpoint -> queue and typing), in which a
    payload name that an earlier box binds takes a "0" more: a context binds
    each name once.  Payload names are drawn apart from endpoint names."""
    seen: set[str] = set()

    def fresh(pn: str) -> str:
        while pn in seen:
            pn += "0"
        seen.add(pn)
        return pn

    def item(it):
        if not isinstance(it, MsgBox):
            return it
        return MsgBox(it.target, tuple((fresh(pn), pt) for pn, pt in it.payloads))

    return Context(tuple(Entry(x, tuple(map(item, q)), t) for x, (q, t) in d.items()))


# an entry with no typing is terminated, ``x : .``
contexts = st.dictionaries(names, st.tuples(queues, st.none() | types),
                           min_size=1, max_size=4).map(bound_once)
envs = st.dictionaries(names, types, min_size=1, max_size=4).map(lambda d: tuple(d.items()))


def sims(pending: int):
    """sim declarations with one or two parts and ``pending`` pending processes."""
    parts = st.builds(P.SimPart, scoped_procs, envs, names)
    pend = st.builds(P.SimPending, names, scoped_procs, envs)
    return st.builds(P.SimDecl, scoped_procs, contexts,
                     st.lists(parts, min_size=1, max_size=2).map(tuple),
                     st.lists(pend, min_size=pending, max_size=pending).map(tuple))


# The contexts each declaration states for a term: the term's field, then
# the context's
JUDGEMENTS = {P.CheckDecl: [("proc", "context")], P.SimDecl: [("fwd", "fwd_ctx")],
              P.CutDecl: [("left", "left_ctx"), ("right", "right_ctx")]}


def known_targets(d):
    """``d`` with a terminated entry ``n : .`` in a term's context for each
    target ``n`` there that names no endpoint or payload of the context and
    no name of the term, which the parser refuses."""
    for term, ctx in JUDGEMENTS.get(type(d), ()):
        g = getattr(d, ctx)
        unknown = target_names(g) - endpoint_names(g) - S.names(getattr(d, term))
        d = replace(d, **{ctx: Context(g.entries + tuple(Entry(n, (), None)
                                                         for n in sorted(unknown)))})
    return d


declarations = st.one_of(
    st.builds(P.CheckDecl, scoped_procs, contexts),
    st.builds(P.CheckCllDecl, scoped_procs, envs),
    st.builds(P.SynthDecl, contexts),
    st.builds(P.CompatDecl, envs),
    st.builds(P.CutDecl, scoped_procs, contexts, scoped_procs, contexts),
    sims(0),
    sims(2),
).map(known_targets)

# definition names differ from every name the strategies above draw, so a
# printed term never reads back as a reference to a definition
files = st.builds(
    lambda t, q, ds: P.DeclarationFile((P.TypeDef("Ty", t), P.ProcDef("Pr", q), *ds)),
    types, scoped_procs, st.lists(declarations, max_size=4))


@settings(max_examples=150, deadline=None)
@given(contexts)
def test_context_roundtrip(g):
    assert P.parse_context(P.print_context(g)) == g


@settings(max_examples=200, deadline=None)
@given(envs)
def test_plain_env_roundtrip(env):
    assert P.parse_plain_env(P.print_plain_env(env)) == env


@settings(max_examples=60, deadline=None)
@given(files)
def test_declaration_file_roundtrip(f):
    assert P.parse_file(P.print_file(f)) == f


def test_definitions_are_referenced_by_later_declarations():
    f = P.parse_file("type T = a * 1; proc Q = close x;\n"
                     "check Q |- x : T;\ncheckcll (Q) |- x : T;\n")
    t = Tensor(Atom("a"), One())
    assert f.decls == (P.TypeDef("T", t), P.ProcDef("Q", Close("x")),
                       P.CheckDecl(Close("x"), Context((Entry("x", (), t),))),
                       P.CheckCllDecl(Close("x"), (("x", t),)))
    assert f.lines == (1, 1, 2, 3)
    # a printed file states the definitions' bodies where they are used
    assert P.print_file(f) == ("type T = a * 1;\nproc Q = close x;\n"
                               "check (close x) |- x : a * 1;\ncheckcll (close x) |- x : a * 1;\n")


def test_a_form_slots_its_fields_in_field_order():
    # the printer formats and the parser builds by position
    with pytest.raises(ValueError, match="does not slot Link's fields in order"):
        S.Forms("Process", {S.Link: "{y}<->{x}"}, {"Endpoint": None})


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.fwd")), ids=lambda p: p.name)
def test_fmt_is_a_fixed_point_on_the_corpus(path):
    f = P.parse_file(path.read_text(encoding="utf-8"))
    once = P.print_file(f)
    assert P.parse_file(once) == f
    assert P.print_file(P.parse_file(once)) == once


@pytest.mark.parametrize("text,message", [
    ("check x ; close x |- x : 1;", "1:9: got ';' (expected one of: <->, (, [, .inl, .inr)"),
    ("check close x |- x : 1 [to=y Q];", "1:30: got 'Q' (expected one of: msg, *, L, R, ?)"),
    ("frob x;",
     "1:1: got 'frob' (expected one of: type, proc, check, checkcll, synth, compat, cut, sim)"),
    ("check x(y) close y |- x : 1;", "1:12: got 'close' (expected one of: .)"),
    ("check case x {inl: close x; inr close x} |- x : 1;",
     "1:33: got 'close' (expected one of: :)"),
    ("sim x<->y |- x : ~a, y : a parts y<->e |- e : a, y : ~a;",
     "1:56: got ';' (expected one of: @)"),
    ("type T = a; type T = b;", "1:20: duplicate type T"),
    ("proc P = close x; proc P = close y;", "1:26: duplicate proc P"),
    ("check |- x : 1;", "1:7: got '|-' (expected one of: process)"),
    ("synth x : 1 [y];", "1:13: got '[' (expected one of: ;)"),
    ("check close x |- x : 1, y : . [to=x msg e : a; f : b ;];",
     "1:55: got ']' (expected one of: endpoint)"),
    ("cut close x |- x : 1 close y |- y : 1;", "1:22: got 'close' (expected one of: with)"),
    # a label that is no selection lists both selections
    ("check x.foo. close x |- x : 1;", "1:9: got 'foo' (expected one of: inl, inr)"),
    # the end of the input is named, not shown as an empty token
    ("check close x |- x : 1", "1:23: got end of input (expected one of: ;)"),
    ("check x(", "1:9: got end of input (expected one of: endpoint)"),
    # a queue has no "[]" before its first item
    ("synth x : 1 [] [to=y *];", "1:13: got '[' (expected one of: ;)"),
    # pending processes are separated by ",", and there is at least one
    ("sim x<->y |- x : ~a, y : a parts (y<->e) |- e : a, y : ~a @ y pending "
     "(m <- (u<->m) |- u : a, m : ~a n <- (v<->n) |- v : a, n : ~a);",
     "1:102: got 'n' (expected one of: ))"),
    ("sim x<->y |- x : ~a, y : a parts (y<->e) |- e : a, y : ~a @ y pending ();",
     "1:72: got ')' (expected one of: endpoint)"),
    # a second target on a single-target connective is named, with the connective
    ("synth x : a |{u,v} b, u : 1;", "1:17: | takes a single target"),
    # a "," in a list goes on to one more item
    ("synth x : 1, ;", "1:14: got ';' (expected one of: endpoint)"),
    ("synth x : bot{u,}, u : 1;", "1:17: got '}' (expected one of: endpoint)"),
    ("sim x<->y |- x : ~a, y : a parts (y<->e) |- e : a, y : ~a @ y,;",
     "1:63: got ';' (expected one of: process)"),
    ("compat x : a, x : ~a;", "1:15: duplicate endpoint x"),
    # a context binds each name once: an entry's endpoint, or a payload of
    # one of its boxes
    ("synth x : a | b, y : . [to=x msg m : a; m : b];", "1:41: duplicate endpoint m"),
    ("synth x : a | b, y : . [to=x msg m : a], z : . [to=x msg m : b];",
     "1:58: duplicate endpoint m"),
    ("synth x : a | b, y : . [to=x msg x : a];", "1:34: duplicate endpoint x"),
    ("synth y : . [to=x msg x : a], x : a | b;", "1:31: duplicate endpoint x"),
    # the end of the input after a comment is where the text ends
    ("check close x |- x : 1\n## trailing\n", "3:1: got end of input (expected one of: ;)"),
    ("check close x |- x : 1 ## trailing", "1:35: got end of input (expected one of: ;)"),
    # a judgement's target names an endpoint or payload of its context or a
    # name of its term; a queue item's target too
    ("check close x |- x : 1{zz};", "1:24: target zz names no endpoint, payload or name of "
     "the term"),
    ("cut (close x) |- u : . [to=x *], x : 1{u} with (wait y; close v) |- v : 1{y}, "
     "y : bot{v} [to=q *];", "1:94: target q names no endpoint, payload or name of the term"),
    # lines are counted by "\n"; a "\r", a tab or a "\xa0" is one column
    ("synth x : 1;\r\n\r\n  compat x : a\r\n y : ~a;", "4:2: got 'y' (expected one of: ;)"),
    ("## one\n\n\tsynth x :\xa0\xa0| ;", "3:13: got '|' (expected one of: type)"),
], ids=["after-name", "queue-item", "declaration", "recv", "case", "sim-part", "dup-type",
        "dup-proc", "process", "queue-bracket", "payload", "cut-with", "select", "end-of-input",
        "end-of-input-in-term", "empty-queue", "pending-comma", "pending-empty", "single-target",
        "context-comma", "target-comma", "part-comma", "dup-endpoint", "dup-payload",
        "dup-payload-across-boxes", "payload-after-endpoint", "endpoint-after-payload",
        "end-after-comment-line",
        "end-in-comment", "unknown-target", "unknown-item-target", "crlf-lines", "tab-and-nbsp"])
def test_parse_errors_keep_their_position_and_text(text, message):
    with pytest.raises(P.ParseError) as e:
        P.parse_file(text)
    assert str(e.value) == message


@pytest.mark.parametrize("bad", ["$", "é", "#", "2"])
@pytest.mark.parametrize("text,at", [
    ("## one\n## two\nsynth y : {};", "3:11"),
    ("synth x : 1,\r\n y : {};", "2:6"),
    ("synth x : 1,\n\ty : {};", "2:6"),
    ("synth x : 1,\n\xa0\xa0y :\xa0{};", "2:7"),
], ids=["after-comment-lines", "after-crlf", "after-tab", "after-nbsp"])
def test_an_unexpected_character_keeps_its_line_and_column(text, at, bad):
    with pytest.raises(P.ParseError) as e:
        P.parse_file(text.format(bad))
    assert str(e.value) == f"{at}: unexpected character {bad!r}"


def test_a_target_may_name_a_binder_of_the_term_or_a_payload():
    # derivable judgements whose targets name the binders m and w of their
    # terms, and a boxed payload m; a synth context has no term, so its
    # targets may name binders still to be found
    text = ("check n(m). x[w].(wait m; close w | x<->n) |- x : 1{m} *{n} ~a, "
            "n : bot{w} |{x} a;\n"
            "check x[w].(wait m; close w | close x) |- x : 1{m} *{y} 1{y}, "
            "y : . [to=x msg m : bot{w}] [to=x *];\n"
            "synth x : 1{w}, y : bot{x};\n")
    assert len(P.parse_file(text).decls) == 3


def test_declaration_lines_skip_blank_and_comment_lines():
    text = ("\n## head\n\nsynth x : 1;  ## one\n\n\n  compat x : a,\n y : ~a;\r\n"
            "## mid\n\tsynth y : bot; synth z : 1;\n\n")
    assert P.parse_file(text).lines == (4, 7, 10, 10)


def test_a_parse_holds_little_beyond_the_tree_it_builds():
    # ``relay`` seed 1 fourteen times over is 106 KB.  The tree parse_file
    # returns is made of slotted records with no __dict__: it holds about
    # 19 B per input byte on 3.10 and 3.11, where dataclass nodes held 48
    # and 30.  Beyond the tree, the line scanner holds about 6 B per input
    # byte at the peak; a Token object per token would hold 43 (3.11) to 61
    # (3.10).
    wl = load_workloads()
    text = wl.workload_text(wl.generate("relay", 1)) * 14
    assert len(text) >= 100_000
    tracemalloc.start()
    try:
        f = P.parse_file(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(f.decls) == 14 * 66
    assert held / len(text) < 24
    assert (peak - held) / len(text) < 20


def doubling_chain(kind: str, levels: int) -> str:
    """``T0``/``P0`` and ``levels`` more definitions, each using the one
    before twice, so that the expanded size doubles with each level."""
    name, first, step = {"type": ("T", "a", "{0} * {0}"),
                         "proc": ("P", "close x", "x[w].({0} | {0})")}[kind]
    return "".join([f"{kind} {name}0 = {first};\n"] + [
        f"{kind} {name}{i} = {step.format(f'{name}{i - 1}')};\n" for i in range(1, levels + 1)])


@pytest.mark.parametrize("kind", ["type", "proc"])
def test_a_definition_is_sized_once(kind, monkeypatch):
    # a use of an earlier definition counts its recorded size, so sizing a
    # definition walks only the text that wrote it
    walked = []
    monkeypatch.setattr(S, "scope", lambda p, f=S.scope: walked.append(p) or f(p))
    monkeypatch.setattr(S, "children", lambda t, f=S.children: walked.append(t) or f(t))
    P.parse_file(doubling_chain(kind, 12))
    # one node a definition, and "close x" in P0
    assert len(walked) == (12 if kind == "type" else 13)
