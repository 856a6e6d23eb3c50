"""Immutable records: the one definition behind every type, process,
queue item, context, declaration and derivation.

A record class is written as a plain class under ``@record`` that lists its
fields as annotations, in order.  A field may have a default; one written
``uncompared(default)`` is left out of ``==`` and ``hash``.  ``record``
builds the class again from that body, deriving from ``Record``, and gives
it:

- ``__slots__`` for its fields, so an instance has no ``__dict__``;
- an ``__init__`` that takes the fields by position or keyword, with their
  defaults, sets each through its slot descriptor, and then calls
  ``__post_init__`` if the class defines one;
- ``__match_args__``, every field name in order, for positional ``match``
  patterns;
- ``__eq__``, true only between instances of the same class whose compared
  fields are equal, compared as one tuple in field order, and ``__hash__``,
  the hash of that tuple: the values a frozen dataclass gives, so sets and
  dicts of records behave as they did.  A class that writes its own
  ``__hash__`` keeps it;
- ``__repr__`` in the form a dataclass prints, ``Name(field=value, ...)``;
- immutability: assigning or deleting an attribute raises AttributeError.
  A class may list further ``__slots__`` (a cache), which it writes with
  ``object.__setattr__``.

The methods are not generated per class.  ``__init__``, ``__eq__`` and
``__hash__`` are compiled once per arity (how many fields, how many of them
compared, whether ``__post_init__`` runs) over fields named ``_0``, ``_1``,
...; each class gets functions over that code with its own field names put
in by ``CodeType.replace``, and its own defaults.  ``__repr__`` and
immutability are inherited from ``Record``.  ``fields`` and ``replace``
stand in for their ``dataclasses`` namesakes.
"""

from __future__ import annotations

from types import CodeType, FunctionType

_MISSING = object()


class Field:
    """A record field: its name, its annotation as written, its default
    (``_MISSING`` for none) and whether ``==`` and ``hash`` read it."""

    __slots__ = ("name", "type", "default", "compare")

    def __init__(self, name: str, type: str, default=_MISSING, compare: bool = True):
        self.name, self.type, self.default, self.compare = name, type, default, compare


def uncompared(default) -> Field:
    """A field with ``default`` that ``==`` and ``hash`` do not read, as a
    class body writes it: ``lines: tuple[int, ...] = uncompared(())``."""
    return Field("", "", default, compare=False)


_GLOBALS: dict = {}  # those of __eq__ and __hash__, which read builtins only
# (fields, compared fields, post-init) -> the code of __init__, __eq__ and
# __hash__ over fields named _0, _1, ...
_TEMPLATES: dict[tuple[int, int, bool], tuple[CodeType, CodeType, CodeType]] = {}


def _template(n: int, m: int, post_init: bool) -> tuple[CodeType, CodeType, CodeType]:
    key = (n, m, post_init)
    if key not in _TEMPLATES:
        args = [f"_{i}" for i in range(n)]
        init = "".join(f"\n    _set{a}(self, {a})" for a in args)
        if post_init:
            init += "\n    self.__post_init__()"
        ref = "".join(f"{{0}}._{i}," for i in range(m))
        src = (f"def __init__(self, {', '.join(args)}):{init or ' pass'}\n"
               f"def __eq__(self, other):\n"
               f"    if other.__class__ is self.__class__:\n"
               f"        return ({ref.format('self')}) == ({ref.format('other')})\n"
               f"    return NotImplemented\n"
               f"def __hash__(self):\n"
               f"    return hash(({ref.format('self')}))\n")
        _TEMPLATES[key] = tuple(c for c in compile(src, "<record>", "exec").co_consts
                                if isinstance(c, CodeType))
    return _TEMPLATES[key]


def _method(code: CodeType, names: tuple[str, ...], defaults: tuple = (),
            globals_: dict = _GLOBALS) -> FunctionType:
    """A function over a template's code with its fields ``_0``, ``_1``, ...
    named ``names``: as parameters and attributes."""
    to = {f"_{i}": n for i, n in enumerate(names)}

    def sub(xs: tuple) -> tuple:
        return tuple(to.get(x, x) for x in xs)

    code = code.replace(co_names=sub(code.co_names), co_varnames=sub(code.co_varnames))
    return FunctionType(code, globals_, code.co_name, defaults or None)


class Record:
    """The base of every record class: its repr and its immutability."""

    __slots__ = ()

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__) + ")")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def record(cls: type) -> type:
    """The record class of ``cls``'s body, as the module docstring says.

    A decorator rather than a metaclass: ``isinstance`` and ``match`` test a
    class of a custom metaclass through a method call, twice as slow when
    the test fails, and the checkers' ``match`` statements fail most tests.
    """
    extra = vars(cls).get("__slots__", ())  # the plain class's own descriptors for these
    ns = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__", *extra)}
    fs = []
    for n, t in ns.get("__annotations__", {}).items():
        v = ns.pop(n, _MISSING)
        f = v if isinstance(v, Field) else Field("", "", v)
        f.name, f.type = n, t
        fs.append(f)
    names = tuple(f.name for f in fs)
    defaults = tuple(f.default for f in fs if f.default is not _MISSING)
    # defaults bind to the last parameters, so none may be missing there
    if any(f.default is _MISSING for f in fs[len(fs) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    compared = tuple(f.name for f in fs if f.compare)
    init, eq, hsh = _template(len(names), len(compared), "__post_init__" in ns)
    ns.setdefault("__eq__", _method(eq, compared))
    ns.setdefault("__hash__", _method(hsh, compared))
    ns["__slots__"] = names + tuple(extra)
    ns["__match_args__"] = names
    ns["__qualname__"] = cls.__qualname__
    ns["_fields"] = tuple(fs)
    out = type(cls.__name__, (Record,), ns)
    # __init__ sets field i by its slot descriptor's __set__, _set_i in its
    # globals; the descriptors exist once the class does
    setters = {f"_set_{i}": vars(out)[n].__set__ for i, n in enumerate(names)}
    out.__init__ = _method(init, names, defaults, setters)
    return out


def fields(x) -> tuple[Field, ...]:
    """The fields of a record class or instance, in order."""
    return x._fields


def replace(obj: Record, **changes) -> Record:
    """``obj`` with the fields named in ``changes`` set to their values;
    a name that is no field is a TypeError."""
    return type(obj)(*[changes.pop(n) if n in changes else getattr(obj, n)
                       for n in obj.__match_args__], **changes)
