"""Surface syntax: tokenizer, parsers and the declaration printer.

Processes, queue items, declarations and a ``sim``'s parts and pending
processes are each written once, as a table of forms (``syntax.PROCESSES``,
``contexts.QUEUE_ITEMS``, ``DECLARATIONS``, ``SIM_PARTS`` and ``PENDING``):
every constructor's printed text with a slot per field.  The printer formats
a table entry; at import, ``_compile`` turns each table into a parse trie
that one loop, ``Parser.form``, walks.  Types are written once as
``syntax.CONNECTIVES``, each connective's symbol, operand count and
annotation slot, which ``Parser.type_atom`` and ``Parser.type_`` parse and
``syntax.print_type`` prints.  Every list with a separator (target sets,
payloads, contexts, environments, parts, pending processes) goes through one
loop, ``Parser.sep``; only a context's entries are parsed by hand.
grammar.ebnf is the user reference.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from string import Formatter
from typing import Callable

from . import syntax as S
from . import contexts as C
from .contexts import Context
from .syntax import Endpoint, Process, Type

KEYWORDS = {
    "bot", "close", "wait", "case", "inl", "inr", "res", "to", "msg",
    "type", "proc", "check", "checkcll", "synth", "compat", "cut", "with",
    "sim", "parts", "pending",
}

# The connectives by symbol: units and prefixes start a type operand, and
# infixes go on from one.
_PREFIXES = {row.symbol: cls for cls, row in S.CONNECTIVES.items() if row.arity < 2}
_INFIXES = {row.symbol: cls for cls, row in S.CONNECTIVES.items() if row.arity == 2}

# The most connectives and process constructors a ``type`` or ``proc``
# definition may stand for with the definitions it names expanded: each use
# copies the whole tree into every printed text.
MAX_DEFINITION_SIZE = 10_000

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
    sizes: dict[int, int] = field(default_factory=dict)  # expanded size by id of a tree in names

    @property
    def cur(self) -> Token:
        return self.toks[self.i]

    def error(self, msg: str, expected: tuple[str, ...] = ()) -> ParseError:
        return ParseError(msg, self.cur.line, self.cur.col, expected)

    def got(self) -> str:
        """What an error found at the current token."""
        return "got end of input" if self.cur.kind == "eof" else f"got {self.cur.text!r}"

    def at(self, text: str) -> bool:
        return self.cur.text == text and self.cur.kind != "eof"

    def eat(self, text: str) -> None:
        if not self.at(text):
            raise self.error(self.got(), (text,))
        self.i += 1

    def eat_ident(self, what: str = "identifier") -> str:
        if self.cur.kind != "ident" or self.cur.text in KEYWORDS:
            raise self.error(self.got(), (what,))
        self.i += 1
        return self.toks[self.i - 1].text

    def sep(self, item: Callable, by: str = ",", go_on: Callable | None = None) -> tuple:
        """One or more ``item()``s with ``by`` between them: a ``by`` goes
        on to the next item, unless ``go_on()`` says it ends the list."""
        out = [item()]
        while self.at(by) and (go_on is None or go_on()):
            self.i += 1
            out.append(item())
        return tuple(out)

    # -- types --------------------------------------------------------------

    def annotation(self, cls: type):
        """The annotation slot after ``cls``'s symbol, ``{u,v}`` or none, as
        ``cls`` holds it."""
        start, ts = self.i, ()
        if self.at("{"):
            self.eat("{")
            ts = () if self.at("}") else self.sep(lambda: self.eat_ident("endpoint"))
            self.eat("}")
        row = S.CONNECTIVES[cls]
        if row.multi:
            return ts
        if len(ts) > 1:
            self.i = start + 3  # at the second target: "{" u "," v
            raise self.error(f"{row.symbol} takes a single target")
        return ts[0] if ts else None

    def type_atom(self) -> S.Type:
        cls = _PREFIXES.get(self.cur.text)
        if cls is not None:
            self.i += 1
            ts = self.annotation(cls)
            return cls(self.type_atom(), ts) if S.CONNECTIVES[cls].arity else cls(ts)
        if self.at("("):
            self.eat("(")
            t = self.type_()
            self.eat(")")
            return t
        if self.at("~"):
            self.eat("~")
            return S.DualAtom(self.eat_ident("atom name"))
        if self.cur.kind == "ident" and self.cur.text not in KEYWORDS:
            name = self.eat_ident()
            if ("type", name) in self.names:
                return self.names[("type", name)]  # type: ignore[return-value]
            return S.Atom(name)
        raise self.error(self.got(), ("type",))

    def type_(self) -> S.Type:
        left = self.type_atom()
        cls = _INFIXES.get(self.cur.text)
        if cls is None:
            return left
        self.i += 1
        ts = self.annotation(cls)
        return cls(left, self.type_(), ts)

    # -- forms --------------------------------------------------------------

    def form(self, node: _Node):
        """A term of the category whose parse trie ``node`` is: a literal
        that goes on from the node is eaten, else its slot is parsed."""
        args: list = []
        while node.build is None:
            nxt = node.edges.get(self.toks[self.i].text)
            if nxt is not None:
                self.i += 1
            elif node.slot is _process:  # parsed from this frame: one frame a nesting level
                args.append(self.form(_PROCESSES))
                nxt = node.then
            elif node.slot is not None:
                args.append(node.slot(self))
                nxt = node.then
            elif node is _PROCESSES.then and ("proc", args[0]) in self.names:
                return self.names[("proc", args[0])]  # a name no form goes on from
            else:
                raise self.error(self.got(), _expected(node))
            node = nxt
        return node.build(*args)

    def process(self) -> S.Process:
        return self.form(_PROCESSES)

    def definition_name(self) -> str:
        """The name a ``type`` or ``proc`` definition gives after its
        keyword, once a file."""
        kind, name = self.toks[self.i - 1].text, self.eat_ident("name")
        if (kind, name) in self.names:
            raise self.error(f"duplicate {kind} {name}")
        return name

    def define(self, at: int, name: str, tree) -> None:
        """Let later declarations use ``tree`` by the name at token ``at``,
        unless it expands beyond ``MAX_DEFINITION_SIZE``."""
        kind, n = self.toks[at - 1].text, self.expanded_size(tree)
        if n > MAX_DEFINITION_SIZE:
            tok = self.toks[at]
            raise ParseError(f"{kind} {name} expands to {n} connectives and constructors "
                             f"(at most {MAX_DEFINITION_SIZE})", tok.line, tok.col)
        self.sizes[id(tree)] = n
        self.names[(kind, name)] = tree

    def expanded_size(self, tree) -> int:
        """The connectives and constructors of a type or process, with the
        definitions it uses expanded.  A definition's tree is counted by its
        recorded size, so this is linear in the text that wrote ``tree``:
        parsing shares no other node."""
        n, todo = 0, [tree]
        while todo:
            x = todo.pop()
            if id(x) in self.sizes:
                n += self.sizes[id(x)]
            elif type(x) in S.CONNECTIVES:
                n += 1
                todo.extend(S.children(x))
            elif not isinstance(x, (S.Atom, S.DualAtom)):  # a process
                n += 1
                todo.extend(q for _, q in S.scope(x)[1])
                if isinstance(x, S.Cut):
                    todo.append(x.formula)
        return n

    # -- contexts -------------------------------------------------------------

    def queue_items(self) -> C.Queue:
        items: list[C.QueueItem] = []
        while self.at("[") and self.toks[self.i + 1].text == "to":
            items.append(self.form(_QUEUE_ITEMS))
        return tuple(items)

    def payloads(self) -> C.Payloads:
        """A box's payloads, ``e : A; f : B``."""
        # a fresh ``seen`` each: payload names are not checked for duplicates
        return self.sep(lambda: (self.bound_endpoint(set()), self.type_()), by=";")

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
        return C.Context(self.sep(lambda: self.context_entry(seen)))

    def plain_env(self) -> Env:
        seen: set[str] = set()
        # a "," before NAME "<-" starts a sim's next pending process
        return self.sep(lambda: (self.bound_endpoint(seen), self.type_()),
                        go_on=lambda: self.toks[min(self.i + 2, len(self.toks) - 1)].text != "<-")

    # -- a sim's parts and pending processes ----------------------------------

    def sim_parts(self) -> Parts:
        return self.sep(lambda: self.form(_SIM_PARTS))

    def sim_pending(self) -> Pending:
        """``pending (`` ... ``)`` around the pending processes; none without
        the keyword."""
        if not self.at("pending"):
            return ()
        self.eat("pending")
        self.eat("(")
        pend = self.sep(lambda: self.form(_PENDING))
        self.eat(")")
        return pend


_process = Parser.process  # the process slot, which ``Parser.form`` parses by calling itself


# ---------------------------------------------------------------------------
# Declaration files

Env = tuple[tuple[Endpoint, Type], ...]


@dataclass(frozen=True)
class TypeDef:
    name: str
    typ: Type


@dataclass(frozen=True)
class ProcDef:
    name: str
    proc: Process


@dataclass(frozen=True)
class CheckDecl:
    proc: Process
    context: Context


@dataclass(frozen=True)
class CheckCllDecl:
    proc: Process
    env: Env


@dataclass(frozen=True)
class SynthDecl:
    context: Context


@dataclass(frozen=True)
class CompatDecl:
    env: Env


@dataclass(frozen=True)
class CutDecl:
    left: Process
    left_ctx: Context
    right: Process
    right_ctx: Context


@dataclass(frozen=True)
class SimPart:
    proc: Process
    env: Env
    endpoint: Endpoint


@dataclass(frozen=True)
class SimPending:
    """A message in transit: the process ``proc`` that provides its payload ``name``."""
    name: Endpoint
    proc: Process
    env: Env


Parts = tuple[SimPart, ...]
Pending = tuple[SimPending, ...]


@dataclass(frozen=True)
class SimDecl:
    fwd: Process
    fwd_ctx: Context
    parts: Parts
    pending: Pending = ()


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
        start = p.i
        d = p.form(_DECLARATIONS)
        match d:
            case TypeDef(name, tree) | ProcDef(name, tree):
                p.define(start + 1, name, tree)  # the name follows the keyword
        decls.append(d)
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


def parse_plain_env(text: str) -> Env:
    return _parse_with("plain_env", text)


# -- printing of contexts and declarations ----------------------------------


def print_context(g: C.Context) -> str:
    parts = []
    for e in g.entries:
        typ = "." if e.typing is None else S.print_type(e.typing)
        q = " ".join(map(C.print_queue_item, e.queue))
        parts.append(f"{e.endpoint} : {typ}" + (f" {q}" if q else ""))
    return ", ".join(parts)


def print_plain_env(env: Env) -> str:
    return ", ".join(f"{x} : {S.print_type(t)}" for x, t in env)


_SIM_SHOWS = {"Endpoint": None, "Process": S.print_process, "Env": print_plain_env}
SIM_PARTS = S.Forms("SimPart", {SimPart: "({proc}) |- {env} @ {endpoint}"}, _SIM_SHOWS)
PENDING = S.Forms("SimPending", {SimPending: "{name} <- ({proc}) |- {env}"}, _SIM_SHOWS)


def _print_parts(parts: Parts) -> str:
    return ", ".join(map(SIM_PARTS.print, parts))


def _print_pending(pending: Pending) -> str:
    return f" pending ({', '.join(map(PENDING.print, pending))})" if pending else ""


# A "(" ")" around a lone process slot is printed and optional on input.
DECLARATIONS = S.Forms("Declaration", {
    TypeDef: "type {name} = {typ};",
    ProcDef: "proc {name} = {proc};",
    CheckDecl: "check ({proc}) |- {context};",
    CheckCllDecl: "checkcll ({proc}) |- {env};",
    SynthDecl: "synth {context};",
    CompatDecl: "compat {env};",
    CutDecl: "cut ({left}) |- {left_ctx} with ({right}) |- {right_ctx};",
    SimDecl: "sim ({fwd}) |- {fwd_ctx} parts {parts}{pending};",
}, {"str": None, "Type": S.print_type, "Process": S.print_process,
    "Context": print_context, "Env": print_plain_env, "Parts": _print_parts,
    "Pending": _print_pending})

print_declaration = DECLARATIONS.print


def print_file(f: DeclarationFile) -> str:
    return "\n".join(print_declaration(d) for d in f.decls) + "\n"


# ---------------------------------------------------------------------------
# Parse tries of the forms


@dataclass
class _Node:
    """A point in parsing a category's forms: the literal tokens that go on
    from it, or the slot that does; or the form that ends at it."""

    edges: dict[str, _Node] = field(default_factory=dict)
    slot: Callable | None = None  # parses the slot, which goes on to ``then``
    then: _Node | None = None
    build: Callable | None = None


def _expected(node: _Node) -> tuple[str, ...]:
    """The literals that go on from ``node``, for messages; one that only
    leads to a further choice is named with it (".inl")."""
    return tuple(lit + e for lit, nxt in node.edges.items()
                 for e in (_expected(nxt) if len(nxt.edges) > 1 else ("",)))


def _compile(forms: S.Forms, lead: Callable | None) -> _Node:
    """The parse trie of a category's forms: each literal token of a form's
    text is an edge, and each slot is parsed by its field's annotation (by
    ``lead`` if it leads the form).  A "(" ")" around a lone process slot is
    only printed, as the process parser takes parentheses anyway."""
    root = _Node()
    for cls, text in forms.texts.items():
        kinds = {f.name: f.type for f in fields(cls)}
        for name, kind in kinds.items():
            if kind == "Process":
                text = text.replace("({" + name + "})", "{" + name + "}")
        node = root
        for lit, name, _, _ in Formatter().parse(text):
            for tok in tokenize(lit)[:-1]:
                node = node.edges.setdefault(tok.text, _Node())
            if name is not None:
                if node.then is None:
                    node.slot = lead if lead and node is root else _SLOTS[kinds[name]]
                    node.then = _Node()
                node = node.then
        node.build = cls
    return root


# A slot parses by its field's annotation; a plain ``str`` is a definition's name.
_SLOTS = {
    "str": Parser.definition_name, "Endpoint": lambda p: p.eat_ident("endpoint"),
    "Type": Parser.type_, "Process": _process, "Payloads": Parser.payloads,
    "Context": Parser.context, "Env": Parser.plain_env, "Parts": Parser.sim_parts,
    "Pending": Parser.sim_pending,
}
_PROCESSES = _compile(S.PROCESSES, lead=lambda p: p.eat_ident("process"))
# "( P )" groups a process
_PROCESSES.edges["("] = _Node(slot=_process, then=_Node({")": _Node(build=lambda q: q)}))
_QUEUE_ITEMS = _compile(C.QUEUE_ITEMS, None)
_DECLARATIONS = _compile(DECLARATIONS, None)
_SIM_PARTS = _compile(SIM_PARTS, None)
_PENDING = _compile(PENDING, None)
