"""Surface syntax: tokenizer and recursive-descent parsers.

Types use infix ``*{targets}`` ``|{t}`` ``+{t}`` ``&{targets}`` (one
right-associative tier), prefix ``!{targets}`` ``?{t}``, ``~`` on atom names,
and units ``1{targets}`` ``bot{t}``; braces are omitted on erased types.
Processes follow the grammar in grammar.ebnf.  Declaration files hold ``type``,
``proc``, ``check``, ``checkcll``, ``synth``, ``compat``, ``cut`` and ``sim``
items terminated by ``;``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import syntax as S
from . import contexts as C

KEYWORDS = {
    "bot", "close", "wait", "case", "inl", "inr", "res", "to", "msg",
    "type", "proc", "check", "checkcll", "synth", "compat", "cut", "with",
    "sim", "parts", "pending",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#\#[^\n]*)
  | (?P<ident>[a-zA-Z][a-zA-Z0-9_']*(?:\#[0-9]+)?)
  | (?P<op><->|<-|\|-|[(){}\[\],;:.=*+&~!?@|]|1)
    """,
    re.VERBOSE,
)


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line, self.col, self.expected = line, col, expected
        exp = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {msg}{exp}")


@dataclass
class Token:
    kind: str  # 'ident', 'op', 'eof'
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        if m.lastgroup != "ws":
            toks.append(Token(m.lastgroup, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


@dataclass
class Parser:
    toks: list[Token]
    i: int = 0
    names: dict[str, object] = field(default_factory=dict)  # proc/type definitions

    @property
    def cur(self) -> Token:
        return self.toks[self.i]

    def error(self, msg: str, expected: tuple[str, ...] = ()) -> ParseError:
        return ParseError(msg, self.cur.line, self.cur.col, expected)

    def at(self, text: str) -> bool:
        return self.cur.text == text and self.cur.kind != "eof"

    def eat(self, text: str) -> Token:
        if not self.at(text):
            raise self.error(f"got {self.cur.text!r}", (text,))
        t = self.cur
        self.i += 1
        return t

    def eat_ident(self, what: str = "identifier") -> str:
        if self.cur.kind != "ident" or self.cur.text in KEYWORDS:
            raise self.error(f"got {self.cur.text!r}", (what,))
        t = self.cur
        self.i += 1
        return t.text

    # -- types --------------------------------------------------------------

    def targets(self) -> tuple[str, ...]:
        if not self.at("{"):
            return ()
        self.eat("{")
        ts: list[str] = []
        if not self.at("}"):
            ts.append(self.eat_ident("endpoint"))
            while self.at(","):
                self.eat(",")
                ts.append(self.eat_ident("endpoint"))
        self.eat("}")
        return tuple(ts)

    def opt_target(self) -> str | None:
        ts = self.targets()
        if len(ts) > 1:
            raise self.error("connective takes a single target")
        return ts[0] if ts else None

    def type_atom(self) -> S.Type:
        if self.at("("):
            self.eat("(")
            t = self.type_()
            self.eat(")")
            return t
        if self.at("1"):
            self.eat("1")
            return S.One(self.targets())
        if self.at("bot"):
            self.eat("bot")
            return S.Bot(self.opt_target())
        if self.at("~"):
            self.eat("~")
            return S.DualAtom(self.eat_ident("atom name"))
        if self.at("!"):
            self.eat("!")
            ts = self.targets()
            return S.OfCourse(self.type_atom(), ts)
        if self.at("?"):
            self.eat("?")
            u = self.opt_target()
            return S.WhyNot(self.type_atom(), u)
        if self.cur.kind == "ident" and self.cur.text not in KEYWORDS:
            name = self.eat_ident()
            if ("type", name) in self.names:
                return self.names[("type", name)]  # type: ignore[return-value]
            return S.Atom(name)
        raise self.error(f"got {self.cur.text!r}", ("type",))

    def type_(self) -> S.Type:
        left = self.type_atom()
        for op, single in (("*", False), ("|", True), ("+", True), ("&", False)):
            if self.at(op):
                self.eat(op)
                if single:
                    u = self.opt_target()
                    right = self.type_()
                    cls = S.Par if op == "|" else S.Plus
                    return cls(left, right, u)
                ts = self.targets()
                right = self.type_()
                cls = S.Tensor if op == "*" else S.With
                return cls(left, right, ts)
        return left

    # -- processes ------------------------------------------------------------

    def process(self) -> S.Process:
        if self.at("close"):
            self.eat("close")
            return S.Close(self.eat_ident("endpoint"))
        if self.at("wait"):
            self.eat("wait")
            x = self.eat_ident("endpoint")
            self.eat(";")
            return S.Wait(x, self.process())
        if self.at("case"):
            self.eat("case")
            x = self.eat_ident("endpoint")
            self.eat("{")
            self.eat("inl")
            self.eat(":")
            l = self.process()
            self.eat(";")
            self.eat("inr")
            self.eat(":")
            r = self.process()
            self.eat("}")
            return S.Case(x, l, r)
        if self.at("!"):
            self.eat("!")
            x = self.eat_ident("endpoint")
            self.eat("(")
            f = self.eat_ident("endpoint")
            self.eat(")")
            self.eat(".")
            return S.Server(x, f, self.process())
        if self.at("?"):
            self.eat("?")
            x = self.eat_ident("endpoint")
            self.eat("[")
            f = self.eat_ident("endpoint")
            self.eat("]")
            self.eat(".")
            return S.Client(x, f, self.process())
        if self.at("res"):
            self.eat("res")
            x = self.eat_ident("endpoint")
            y = self.eat_ident("endpoint")
            self.eat(":")
            a = self.type_()
            self.eat("(")
            l = self.process()
            self.eat("|")
            r = self.process()
            self.eat(")")
            return S.Cut(x, y, a, l, r)
        if self.at("("):
            self.eat("(")
            p = self.process()
            self.eat(")")
            return p
        name = self.eat_ident("process")
        if ("proc", name) in self.names and not (
            self.at("<->") or self.at("(") or self.at("[") or self.at(".")
        ):
            return self.names[("proc", name)]  # type: ignore[return-value]
        if self.at("<->"):
            self.eat("<->")
            return S.Link(name, self.eat_ident("endpoint"))
        if self.at("("):
            self.eat("(")
            f = self.eat_ident("endpoint")
            self.eat(")")
            self.eat(".")
            return S.Recv(name, f, self.process())
        if self.at("["):
            self.eat("[")
            f = self.eat_ident("endpoint")
            self.eat("]")
            self.eat(".")
            self.eat("(")
            pl = self.process()
            self.eat("|")
            cont = self.process()
            self.eat(")")
            return S.Send(name, f, pl, cont)
        if self.at("."):
            self.eat(".")
            if self.at("inl"):
                self.eat("inl")
                self.eat(".")
                return S.Inl(name, self.process())
            self.eat("inr")
            self.eat(".")
            return S.Inr(name, self.process())
        raise self.error(f"got {self.cur.text!r}", ("<->", "(", "[", ".inl", ".inr"))

    # -- contexts -------------------------------------------------------------

    def queue_items(self) -> C.Queue:
        items: list[C.QueueItem] = []
        while self.at("["):
            save = self.i
            self.eat("[")
            if self.at("]") and not items:
                self.eat("]")
                continue
            if not self.at("to"):
                self.i = save
                break
            self.eat("to")
            self.eat("=")
            u = self.eat_ident("endpoint")
            if self.at("msg"):
                self.eat("msg")
                payloads = []
                while True:
                    e = self.eat_ident("endpoint")
                    self.eat(":")
                    payloads.append((e, self.type_()))
                    if self.at(";"):
                        self.eat(";")
                        continue
                    break
                items.append(C.MsgBox(u, tuple(payloads)))
            elif self.at("*"):
                self.eat("*")
                items.append(C.Star(u))
            elif self.at("?"):
                self.eat("?")
                items.append(C.Query(u))
            elif self.cur.text in ("L", "R"):
                items.append(C.LeftTok(u) if self.cur.text == "L" else C.RightTok(u))
                self.i += 1
            else:
                raise self.error(f"got {self.cur.text!r}", ("msg", "*", "L", "R", "?"))
            self.eat("]")
        return tuple(items)

    def bound_endpoint(self, seen: set[str]) -> str:
        """The endpoint an entry of a context or environment binds: each
        names an endpoint once."""
        if self.cur.text in seen:
            raise self.error(f"duplicate endpoint {self.cur.text}")
        x = self.eat_ident("endpoint")
        seen.add(x)
        self.eat(":")
        return x

    def context_entry(self, seen: set[str]) -> C.Entry:
        x = self.bound_endpoint(seen)
        if self.at("."):
            self.eat(".")
            typ = None
        else:
            typ = self.type_()
        return C.Entry(x, self.queue_items(), typ)

    def context(self) -> C.Context:
        seen: set[str] = set()
        entries = [self.context_entry(seen)]
        while self.at(","):
            self.eat(",")
            entries.append(self.context_entry(seen))
        return C.Context(tuple(entries))

    def plain_env(self) -> tuple[tuple[str, S.Type], ...]:
        seen: set[str] = set()
        out = [(self.bound_endpoint(seen), self.type_())]
        # a "," before NAME "<-" starts a sim's next pending process
        while self.at(",") and self.toks[min(self.i + 2, len(self.toks) - 1)].text != "<-":
            self.eat(",")
            out.append((self.bound_endpoint(seen), self.type_()))
        return tuple(out)


# ---------------------------------------------------------------------------
# Declaration files


@dataclass(frozen=True)
class TypeDef:
    name: str
    typ: S.Type


@dataclass(frozen=True)
class ProcDef:
    name: str
    proc: S.Process


@dataclass(frozen=True)
class CheckDecl:
    proc: S.Process
    context: C.Context


@dataclass(frozen=True)
class CheckCllDecl:
    proc: S.Process
    env: tuple[tuple[str, S.Type], ...]


@dataclass(frozen=True)
class SynthDecl:
    context: C.Context


@dataclass(frozen=True)
class CompatDecl:
    env: tuple[tuple[str, S.Type], ...]


@dataclass(frozen=True)
class CutDecl:
    left: S.Process
    left_ctx: C.Context
    right: S.Process
    right_ctx: C.Context


@dataclass(frozen=True)
class SimPart:
    proc: S.Process
    env: tuple[tuple[str, S.Type], ...]
    endpoint: str


@dataclass(frozen=True)
class SimDecl:
    fwd: S.Process
    fwd_ctx: C.Context
    parts: tuple[SimPart, ...]
    pending: tuple[tuple[str, S.Process, tuple[tuple[str, S.Type], ...]], ...] = ()


Declaration = (
    TypeDef | ProcDef | CheckDecl | CheckCllDecl | SynthDecl | CompatDecl | CutDecl | SimDecl
)


@dataclass(frozen=True)
class DeclarationFile:
    decls: tuple[Declaration, ...]
    # the line each declaration starts on, for messages
    lines: tuple[int, ...] = field(default=(), compare=False)


def _guarded(p: Parser, parse):
    """``parse()``, with a recursion overflow (input nested too deeply for
    the recursive-descent parser) turned into a ParseError at the token
    reached."""
    try:
        return parse()
    except RecursionError:
        raise p.error("input nests too deeply") from None


def parse_file(text: str) -> DeclarationFile:
    p = Parser(tokenize(text))
    return _guarded(p, lambda: _declarations(p))


def _declarations(p: Parser) -> DeclarationFile:
    decls: list[Declaration] = []
    lines: list[int] = []
    while p.cur.kind != "eof":
        lines.append(p.cur.line)
        if p.at("type"):
            p.eat("type")
            name = p.eat_ident("name")
            if ("type", name) in p.names:
                raise p.error(f"duplicate type {name}")
            p.eat("=")
            t = p.type_()
            p.names[("type", name)] = t
            decls.append(TypeDef(name, t))
        elif p.at("proc"):
            p.eat("proc")
            name = p.eat_ident("name")
            if ("proc", name) in p.names:
                raise p.error(f"duplicate proc {name}")
            p.eat("=")
            q = p.process()
            p.names[("proc", name)] = q
            decls.append(ProcDef(name, q))
        elif p.at("check"):
            p.eat("check")
            q = p.process()
            p.eat("|-")
            decls.append(CheckDecl(q, p.context()))
        elif p.at("checkcll"):
            p.eat("checkcll")
            q = p.process()
            p.eat("|-")
            decls.append(CheckCllDecl(q, p.plain_env()))
        elif p.at("synth"):
            p.eat("synth")
            decls.append(SynthDecl(p.context()))
        elif p.at("compat"):
            p.eat("compat")
            decls.append(CompatDecl(p.plain_env()))
        elif p.at("cut"):
            p.eat("cut")
            l = p.process()
            p.eat("|-")
            lc = p.context()
            p.eat("with")
            r = p.process()
            p.eat("|-")
            rc = p.context()
            decls.append(CutDecl(l, lc, r, rc))
        elif p.at("sim"):
            p.eat("sim")
            fwd = p.process()
            p.eat("|-")
            fctx = p.context()
            p.eat("parts")
            parts = []
            while True:
                q = p.process()
                p.eat("|-")
                env = p.plain_env()
                p.eat("@")
                parts.append(SimPart(q, env, p.eat_ident("endpoint")))
                if p.at(","):
                    p.eat(",")
                    continue
                break
            pend = []
            if p.at("pending"):
                p.eat("pending")
                p.eat("(")
                while not p.at(")"):
                    y = p.eat_ident("endpoint")
                    p.eat("<-")
                    q = p.process()
                    p.eat("|-")
                    pend.append((y, q, p.plain_env()))
                    if p.at(","):
                        p.eat(",")
                p.eat(")")
            decls.append(SimDecl(fwd, fctx, tuple(parts), tuple(pend)))
        else:
            raise p.error(
                f"got {p.cur.text!r}",
                ("type", "proc", "check", "checkcll", "synth", "compat", "cut", "sim"),
            )
        p.eat(";")
    return DeclarationFile(tuple(decls), tuple(lines))


def _parse_with(fn_name: str, text: str):
    p = Parser(tokenize(text))
    out = _guarded(p, getattr(p, fn_name))
    if p.cur.kind != "eof":
        raise p.error(f"trailing input {p.cur.text!r}", ("end of input",))
    return out


def parse_type(text: str) -> S.Type:
    return _parse_with("type_", text)


def parse_process(text: str) -> S.Process:
    return _parse_with("process", text)


def parse_context(text: str) -> C.Context:
    return _parse_with("context", text)


def parse_plain_env(text: str) -> tuple[tuple[str, S.Type], ...]:
    return _parse_with("plain_env", text)


# -- printing of contexts and declarations ----------------------------------


def print_context(g: C.Context) -> str:
    parts = []
    for e in g.entries:
        typ = "." if e.typing is None else S.print_type(e.typing)
        q = " ".join(map(C.print_queue_item, e.queue))
        parts.append(f"{e.endpoint} : {typ}" + (f" {q}" if q else ""))
    return ", ".join(parts)


def print_plain_env(env: tuple[tuple[str, S.Type], ...]) -> str:
    return ", ".join(f"{x} : {S.print_type(t)}" for x, t in env)


def print_declaration(d: Declaration) -> str:
    match d:
        case TypeDef(name, t):
            return f"type {name} = {S.print_type(t)};"
        case ProcDef(name, q):
            return f"proc {name} = {S.print_process(q)};"
        case CheckDecl(q, g):
            return f"check ({S.print_process(q)}) |- {print_context(g)};"
        case CheckCllDecl(q, env):
            return f"checkcll ({S.print_process(q)}) |- {print_plain_env(env)};"
        case SynthDecl(g):
            return f"synth {print_context(g)};"
        case CompatDecl(env):
            return f"compat {print_plain_env(env)};"
        case CutDecl(l, lc, r, rc):
            return (
                f"cut ({S.print_process(l)}) |- {print_context(lc)} "
                f"with ({S.print_process(r)}) |- {print_context(rc)};"
            )
        case SimDecl(fwd, fctx, parts, pending):
            ps = ", ".join(
                f"({S.print_process(q.proc)}) |- {print_plain_env(q.env)} @ {q.endpoint}"
                for q in parts
            )
            out = f"sim ({S.print_process(fwd)}) |- {print_context(fctx)} parts {ps}"
            if pending:
                pp = ", ".join(
                    f"{y} <- ({S.print_process(q)}) |- {print_plain_env(env)}"
                    for y, q, env in pending
                )
                out += f" pending ({pp})"
            return out + ";"
    raise TypeError(d)


def print_file(f: DeclarationFile) -> str:
    return "\n".join(print_declaration(d) for d in f.decls) + "\n"
