"""The record contract of ``fwdcal.records``: slots, construction, match
patterns, immutability, and the equality, hashes and reprs a frozen
dataclass of the same fields gives."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fwdcal import contexts as C
from fwdcal import mcut as MC
from fwdcal import parsing as P
from fwdcal import syntax as S
from fwdcal.records import Record, fields, record, replace

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def nodes(x):
    """Every record reachable from ``x`` through fields and tuples."""
    if isinstance(x, tuple):
        for y in x:
            yield from nodes(y)
    elif isinstance(x, Record):
        yield x
        for f in fields(x):
            yield from nodes(getattr(x, f.name))


def corpus_nodes() -> list:
    out = [n for path in sorted(CORPUS.glob("*.fwd"))
           for n in nodes(P.parse_file(path.read_text(encoding="utf-8")))]
    state = C.Context((C.Entry("x", (), S.Atom("a")), C.Entry("y", (C.Star("x"),))))
    return out + [state, S.CONNECTIVES[S.Tensor],
                  MC.PartEntry(S.Close("x"), (), "x", S.One(), None)]


def test_a_record_differs_from_a_record_of_another_class_with_equal_fields():
    assert S.Atom("a") != S.DualAtom("a")
    assert S.Atom("a") == S.Atom("a") and hash(S.Atom("a")) == hash(S.Atom("a"))
    assert S.Link("x", "y") != ("x", "y")
    assert len({S.Atom("a"), S.DualAtom("a"), S.Atom("a")}) == 2


def test_hash_repr_and_equality_are_those_of_a_frozen_dataclass():
    seen = set()
    for node in corpus_nodes():
        cls, fs = type(node), fields(node)
        vals = [getattr(node, f.name) for f in fs]
        mirror = dataclasses.make_dataclass(
            cls.__name__, [(f.name, f.type, dataclasses.field(compare=f.compare)) for f in fs],
            frozen=True)
        assert hash(node) == hash(mirror(*vals))
        assert hash(node) == hash(tuple(v for f, v in zip(fs, vals) if f.compare))
        assert repr(node) == repr(mirror(*vals))
        assert node == cls(*vals) and node == cls(**{f.name: v for f, v in zip(fs, vals)})
        seen.add(cls)
    assert len(seen) >= 30  # every type and process constructor, and more


def record_classes() -> list[type]:
    """Every record class the modules of ``fwdcal`` define."""
    import importlib
    import pkgutil

    import fwdcal

    seen = {}
    for m in pkgutil.iter_modules(fwdcal.__path__):
        for v in vars(importlib.import_module(f"fwdcal.{m.name}")).values():
            if isinstance(v, type) and issubclass(v, Record) and v is not Record:
                seen[v] = None
    return list(seen)


def test_every_record_class_prints_the_generic_repr():
    # ``cut_conclusions`` orders conclusions by repr, so each class's own
    # ``__repr__`` must print what ``Record.__repr__`` does
    classes = record_classes()
    assert len(classes) >= 46
    for cls in classes:
        x = object.__new__(cls)  # every field set, ``__post_init__`` skipped
        for i, n in enumerate(cls.__match_args__):
            getattr(cls, n).__set__(x, (i, "v", None, S.Atom("a")) if i % 2 else f"v{i}")
        assert repr(x) == Record.__repr__(x), cls
    for node in corpus_nodes():
        assert repr(node) == Record.__repr__(node)


def test_a_record_class_of_an_arity_already_built_compiles_nothing(monkeypatch):
    # a compiled ``__repr__`` per class once cost start-up: import time is a
    # benchmark metric
    import builtins

    calls = []
    real = builtins.compile

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counted)

    @record
    class Pair:  # two fields, both compared, as ``Link``
        left: int
        right: int = 0

    assert calls == []
    assert repr(Pair(1)) == Record.__repr__(Pair(1))
    assert repr(Pair(1)).endswith("Pair(left=1, right=0)")


def test_no_node_of_a_parsed_file_has_a_dict():
    for node in corpus_nodes():
        assert not hasattr(node, "__dict__"), type(node)


def test_assignment_and_deletion_raise():
    t = S.Tensor(S.Atom("a"), S.One())
    with pytest.raises(AttributeError, match="cannot assign to field 'left'"):
        t.left = S.Atom("b")
    with pytest.raises(AttributeError, match="cannot delete field 'left'"):
        del t.left
    with pytest.raises(AttributeError):
        t.extra = 1
    assert t.left == S.Atom("a")


def test_construction_takes_positions_keywords_and_defaults():
    assert S.Tensor(S.Atom("a"), S.One()) == S.Tensor(right=S.One(), left=S.Atom("a"), targets=())
    assert C.Entry("x").queue == () and C.Entry("x").typing is None
    with pytest.raises(TypeError):
        S.Tensor(S.Atom("a"))
    with pytest.raises(TypeError):
        S.Atom("a", name="b")
    with pytest.raises(ValueError, match="duplicate endpoints"):  # __post_init__ runs
        C.Context((C.Entry("x"), C.Entry("x")))
    with pytest.raises(TypeError, match="without a default follows"):
        @record
        class Bad:
            a: int = 0
            b: int


def test_positional_match_patterns_bind_the_fields_in_order():
    match S.Cut("x", "y", S.One(), S.Close("x"), S.Wait("y", S.Close("z"))):
        case S.Cut(x, y, S.One(ts), S.Close(c), S.Wait(w, _)):
            assert (x, y, ts, c, w) == ("x", "y", (), "x", "y")
        case _:
            pytest.fail("no match")
    assert S.Send.__match_args__ == ("x", "fresh", "payload", "cont")


def test_replace_keeps_the_fields_it_is_not_given():
    t = S.Tensor(S.Atom("a"), S.One(), ("x",))
    assert replace(t, targets=("y",)) == S.Tensor(S.Atom("a"), S.One(), ("y",))
    assert replace(t) == t
    with pytest.raises(TypeError):
        replace(t, target="y")


def test_uncompared_fields_are_left_out_of_equality_and_hash():
    p = MC.PartEntry(S.Close("x"), (), "x", S.One())
    q = replace(p, deriv="a derivation")
    assert p == q and hash(p) == hash(q)
    f = P.parse_file("synth x : 1;\n\nsynth y : 1;")
    assert f.lines == (1, 3)
    assert f == P.DeclarationFile(f.decls) and hash(f) == hash(P.DeclarationFile(f.decls))
    assert [(g.name, g.compare) for g in fields(P.DeclarationFile)] == [
        ("decls", True), ("lines", False)]


def test_fields_give_names_and_annotations_in_order():
    assert [(f.name, f.type) for f in fields(S.Tensor)] == [
        ("left", "Type"), ("right", "Type"), ("targets", "tuple[Endpoint, ...]")]
    assert fields(S.Atom("a")) == fields(S.Atom)


def test_context_caches_its_hash_in_a_slot():
    # built by ``__init__`` and by ``replace``'s fast path, which skips it
    built = C.Context((C.Entry("x", (), S.One()), C.Entry("y", (C.Star("x"),))))
    for g in (built, built.replace({"x": C.Entry("x", (), S.Bot())})):
        assert g._hash is None
        assert hash(g) == hash((g.entries,)) == g._hash
        assert not hasattr(g, "__dict__")


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # building classes with either module is most of what start-up once cost;
    # so does a typing.NamedTuple, which compiles each field's annotation
    code = ("import fwdcal.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)),"
            " sorted(f'{m.__name__}.{n}' for m in list(sys.modules.values())"
            " if m.__name__.startswith('fwdcal') for n, c in vars(m).items()"
            " if isinstance(c, type) and issubclass(c, tuple) and hasattr(c, '_fields')))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[] []"
