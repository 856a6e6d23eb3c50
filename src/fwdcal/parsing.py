"""Surface syntax: scanner, parsers and the declaration printer.

The scanner, ``_scan``, reads each line's token texts with one ``findall`` of
``_SCAN_RE``, and the parser indexes that list of strings: a token's kind
follows from its text, and "" ends the input.  No token holds its place.
Only a ParseError or a declaration's line asks for one: ``Parser.place``
finds the line from the index of each line's first token, and the column by
scanning that one line again.  ``tokenize`` lists the tokens with their
places.

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
from bisect import bisect_right
from itertools import islice
from string import Formatter
from typing import Callable

from . import syntax as S
from . import contexts as C
from .contexts import Context
from .records import fields, record, uncompared
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

# A token is an identifier, an operator or "1".  ``findall`` over a line
# gives its token texts: blanks match nothing, and a "##" comment (to the
# end of the line) and a character no token starts with each give "".
_SCAN_RE = re.compile(
    r"##[^\n]*"
    r"|([a-zA-Z][a-zA-Z0-9_']*(?:#[0-9]+)?|<->|<-|\|-|[(){}\[\],;:.=*+&~!?@|1])"
    r"|\S"
)


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line, self.col, self.expected = line, col, expected
        exp = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {msg}{exp}")


def _scan(text: str) -> tuple[list[str], list[str], list[int]]:
    """``text``'s token texts, then "" for the end of input; its lines, split
    at ``\\n`` only; and the index of each line's first token."""
    toks: list[str] = []
    lines = text.split("\n")
    first: list[int] = []
    for n, line in enumerate(lines, 1):
        first.append(len(toks))
        found = _SCAN_RE.findall(line)
        if "" in found:  # a comment, or a character no token starts with
            for m in _SCAN_RE.finditer(line):
                if m.group(1) is None and not m.group().startswith("##"):
                    raise ParseError(f"unexpected character {m.group()!r}", n, m.start() + 1)
            found.pop()  # the comment, which ends the line
        toks += found
    toks.append("")
    return toks, lines, first


def _tokens_of(line: str):
    """The column and text of each token of a line."""
    return ((m.start() + 1, m.group(1)) for m in _SCAN_RE.finditer(line) if m.group(1))


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # 'ident', 'op', 'eof'
        self.text, self.line, self.col = text, line, col


def tokenize(text: str) -> list[Token]:
    """``text``'s tokens with their lines and columns, then an "eof" token."""
    _, lines, _ = _scan(text)
    toks = [Token("ident" if t[0].isalpha() else "op", t, n, col)
            for n, line in enumerate(lines, 1) for col, t in _tokens_of(line)]
    toks.append(Token("eof", "", len(lines), len(lines[-1]) + 1))
    return toks


class Parser:
    __slots__ = ("toks", "lines", "first", "i", "names", "sizes", "bound")

    def __init__(self, toks: list[str], lines: list[str], first: list[int]):
        self.toks = toks  # token texts, then "" for the end of input
        # the text's lines and the index of each one's first token, which place a token
        self.lines, self.first = lines, first
        self.i = 0
        self.names: dict[tuple[str, str], object] = {}  # proc/type definitions
        self.sizes: dict[int, int] = {}  # expanded size by id of a tree in names
        self.bound: set[str] = set()  # the names the context being parsed binds

    @property
    def cur(self) -> str:  # a call: the per-token methods index ``toks`` themselves
        return self.toks[self.i]

    def line(self, i: int) -> int:
        """The line of token ``i``: the last whose first token is at most ``i``."""
        return bisect_right(self.first, i)

    def place(self, i: int) -> tuple[int, int]:
        """The line and column of token ``i``; the column scans its line again."""
        n = self.line(i)
        line = self.lines[n - 1]
        if not self.toks[i]:  # the end of input
            return n, len(line) + 1
        return n, next(islice(_tokens_of(line), i - self.first[n - 1], None))[0]

    def error(self, msg: str, expected: tuple[str, ...] = ()) -> ParseError:
        return ParseError(msg, *self.place(self.i), expected)

    def got(self) -> str:
        """What an error found at the current token."""
        return f"got {self.cur!r}" if self.cur else "got end of input"

    def at(self, text: str) -> bool:
        return self.toks[self.i] == text

    def eat(self, text: str) -> None:
        if self.toks[self.i] != text:
            raise self.error(self.got(), (text,))
        self.i += 1

    def eat_ident(self, what: str = "identifier") -> str:
        t = self.toks[self.i]
        if not t[:1].isalpha() or t in KEYWORDS:
            raise self.error(self.got(), (what,))
        self.i += 1
        return t

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
        t = self.toks[self.i]
        cls = _PREFIXES.get(t)
        if cls is not None:
            self.i += 1
            ts = self.annotation(cls)
            return cls(self.type_atom(), ts) if S.CONNECTIVES[cls].arity else cls(ts)
        if t == "(":
            self.i += 1
            typ = self.type_()
            self.eat(")")
            return typ
        if t == "~":
            self.i += 1
            return S.DualAtom(self.eat_ident("atom name"))
        if t[:1].isalpha() and t not in KEYWORDS:
            self.i += 1
            if ("type", t) in self.names:
                return self.names[("type", t)]  # type: ignore[return-value]
            return S.Atom(t)
        raise self.error(self.got(), ("type",))

    def type_(self) -> S.Type:
        left = self.type_atom()
        cls = _INFIXES.get(self.toks[self.i])
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
            nxt = node.edges.get(self.toks[self.i])
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
        kind, name = self.toks[self.i - 1], self.eat_ident("name")
        if (kind, name) in self.names:
            raise self.error(f"duplicate {kind} {name}")
        return name

    def define(self, at: int, name: str, tree) -> None:
        """Let later declarations use ``tree`` by the name at token ``at``,
        unless it expands beyond ``MAX_DEFINITION_SIZE``."""
        kind, n = self.toks[at - 1], self.expanded_size(tree)
        if n > MAX_DEFINITION_SIZE:
            raise ParseError(f"{kind} {name} expands to {n} connectives and constructors "
                             f"(at most {MAX_DEFINITION_SIZE})", *self.place(at))
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
        while self.at("[") and self.toks[self.i + 1] == "to":
            items.append(self.form(_QUEUE_ITEMS))
        return tuple(items)

    def payloads(self) -> C.Payloads:
        """A box's payloads, ``e : A; f : B``, each bound once in its context."""
        return self.sep(lambda: (self.bound_endpoint(self.bound), self.type_()), by=";")

    def bound_endpoint(self, seen: set[str]) -> str:
        """The endpoint an entry of a context or environment binds: each
        names an endpoint once."""
        if self.cur in seen:
            raise self.error(f"duplicate endpoint {self.cur}")
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
        """Entries that bind each name once, as an endpoint or a boxed payload."""
        self.bound = seen = set()
        return C.Context(self.sep(lambda: self.context_entry(seen)))

    def plain_env(self) -> Env:
        seen: set[str] = set()
        # a "," before NAME "<-" starts a sim's next pending process
        return self.sep(lambda: (self.bound_endpoint(seen), self.type_()),
                        go_on=lambda: self.toks[min(self.i + 2, len(self.toks) - 1)] != "<-")

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


@record
class TypeDef:
    name: str
    typ: Type


@record
class ProcDef:
    name: str
    proc: Process


@record
class CheckDecl:
    proc: Process
    context: Context


@record
class CheckCllDecl:
    proc: Process
    env: Env


@record
class SynthDecl:
    context: Context


@record
class CompatDecl:
    env: Env


@record
class CutDecl:
    left: Process
    left_ctx: Context
    right: Process
    right_ctx: Context


@record
class SimPart:
    proc: Process
    env: Env
    endpoint: Endpoint


@record
class SimPending:
    """A message in transit: the process ``proc`` that provides its payload ``name``."""
    name: Endpoint
    proc: Process
    env: Env


Parts = tuple[SimPart, ...]
Pending = tuple[SimPending, ...]


@record
class SimDecl:
    fwd: Process
    fwd_ctx: Context
    parts: Parts
    pending: Pending = ()


Declaration = (
    TypeDef | ProcDef | CheckDecl | CheckCllDecl | SynthDecl | CompatDecl | CutDecl | SimDecl
)


@record
class DeclarationFile:
    decls: tuple[Declaration, ...]
    # the line each declaration starts on, for messages
    lines: tuple[int, ...] = uncompared(())


def _guarded(p: Parser, parse):
    """``parse()``, with a recursion overflow (input nested too deeply for
    the recursive-descent parser) turned into a ParseError at the token
    reached."""
    try:
        return parse()
    except RecursionError:
        raise p.error("input nests too deeply") from None


def parse_file(text: str) -> DeclarationFile:
    p = Parser(*_scan(text))
    return _guarded(p, lambda: _declarations(p))


def _declarations(p: Parser) -> DeclarationFile:
    decls: list[Declaration] = []
    lines: list[int] = []
    while p.cur:
        start = p.i
        lines.append(p.line(start))
        d = p.form(_DECLARATIONS)
        match d:
            case TypeDef(name=name, typ=tree) | ProcDef(name=name, proc=tree):
                p.define(start + 1, name, tree)  # the name follows the keyword
        _known_targets(p, start, d)
        decls.append(d)
    return DeclarationFile(tuple(decls), tuple(lines))


def _known_targets(p: Parser, start: int, d: Declaration) -> None:
    """Refuse a target, in a type or a queue item of a context that a term
    inhabits (``{term} |- {context}`` in the declaration's form), that names
    no endpoint or payload of the context and no name of the term.  A
    ``synth`` context has no term: its targets may name binders of a
    forwarder not found yet.  The error is placed at the target's first use
    after the context's "|-"."""
    at, fs = start, fields(type(d))
    for term, ctx in zip(fs, fs[1:]):
        if (term.type, ctx.type) != ("Process", "Context"):
            continue
        at = p.toks.index("|-", at) + 1
        g = getattr(d, ctx.name)
        unknown = C.target_names(g) - C.endpoint_names(g)
        if unknown and (unknown := unknown - S.names(getattr(d, term.name))):
            k = next((k for k in range(at, p.i) if p.toks[k] in unknown), at)
            name = p.toks[k] if p.toks[k] in unknown else min(unknown)
            raise ParseError(f"target {name} names no endpoint, payload or name of the term",
                             *p.place(k))


def _parse_with(fn_name: str, text: str):
    p = Parser(*_scan(text))
    out = _guarded(p, getattr(p, fn_name))
    if p.cur:
        raise p.error(f"trailing input {p.cur!r}", ("end of input",))
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


class _Node:
    """A point in parsing a category's forms: the literal tokens that go on
    from it, or the slot that does; or the form that ends at it."""

    __slots__ = ("edges", "slot", "then", "build")

    def __init__(self, edges: dict[str, _Node] | None = None, slot: Callable | None = None,
                 then: _Node | None = None, build: Callable | None = None):
        self.edges = {} if edges is None else edges
        self.slot = slot  # parses the slot, which goes on to ``then``
        self.then, self.build = then, build


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
            for tok in _scan(lit)[0][:-1]:
                node = node.edges.setdefault(tok, _Node())
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
