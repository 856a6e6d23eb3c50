"""Spans and counters around the program's public entry points.

``install`` replaces each entry point with a wrapper everywhere it is bound:
its own module attribute and every name another ``fwdcal`` module bound with
``from ... import`` (``cli``, ``cutelim`` and ``mcut`` import the checkers
that way).  A call made while a span of the same name is open (recursion)
is not recorded, so each span is the outermost call.  Spans stay in memory
until ``summarize`` reduces them; nothing is written while a pass runs.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute, span name).  synth_forwarder and synth_with_annotations
# share one span name, so a synthesis that calls the other counts once.
SPANNED = (
    ("fwdcal.parsing", "parse_file", "parsing.parse"),
    ("fwdcal.checker", "check_forwarder", "checker.check_forwarder"),
    ("fwdcal.checker", "check_cll", "checker.check_cll"),
    ("fwdcal.checker", "synth_forwarder", "checker.synth"),
    ("fwdcal.checker", "synth_with_annotations", "checker.synth"),
    ("fwdcal.compat", "multiparty_compatible", "compat.multiparty_compatible"),
    ("fwdcal.compat", "stuck_path", "compat.stuck_path"),
    ("fwdcal.cutelim", "cut_conclusions", "cutelim.cut_conclusions"),
    ("fwdcal.cutelim", "reduce_cut", "cutelim.reduce_cut"),
    ("fwdcal.mcut", "run_mcut", "mcut.run_mcut"),
)
# Called once per explored configuration: counted, not spanned, to keep the
# traced run close to the untraced one.
COUNTED = (("fwdcal.compat", "transitions", "compat.transitions"),)

NAME, START, END, PARENT, RAISED, RESULT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        if name in self._open:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, False, None]
        self.spans.append(span)
        self._stack.append(idx)
        self._open.add(name)
        try:
            span[RESULT] = fn(*args, **kwargs)
            return span[RESULT]
        except BaseException:
            span[RAISED] = True
            raise
        finally:
            span[END] = perf_counter()
            self._stack.pop()
            self._open.discard(name)

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Bind a wrapper in place of every entry point, wherever it is bound."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "fwdcal" or n.startswith("fwdcal."))]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for modname, attr, name in table:
                orig = getattr(sys.modules[modname], attr)
                wrapper = make(name, orig)
                for m in mods:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, k, wrapper)
                            self._patched.append((m, k, orig))

    def uninstall(self) -> None:
        for m, k, orig in reversed(self._patched):
            setattr(m, k, orig)
        self._patched.clear()

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, dict(self.counts)
        self.spans = []
        self.counts.clear()
        return spans, counts


def derivation_size(d) -> int:
    n, todo = 0, [d]
    while todo:
        x = todo.pop()
        n += 1
        todo.extend(x.premises)
    return n


def summarize(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer totals of one traced pass (times in seconds)."""
    out: dict[str, float] = {}

    def add(key, v):
        out[key] = out.get(key, 0.0) + v

    covered = [0.0] * len(spans)
    for s in spans:
        dur = s[END] - s[START]
        if s[PARENT] >= 0:
            covered[s[PARENT]] += dur
    for i, s in enumerate(spans):
        name, dur, res, ok = s[NAME], s[END] - s[START], s[RESULT], not s[RAISED]
        add(name + "_s", dur)
        add(name + "_calls", 1)
        if name == "cli":
            add("cli.self_s", dur - covered[i])
        elif name in ("checker.check_forwarder", "checker.check_cll") and ok:
            add("checker.derivation_nodes", derivation_size(res))
        elif name == "checker.synth":
            add("checker.synth_found", res is not None)
        elif name == "cutelim.cut_conclusions" and ok:
            add("cutelim.conclusions", len(res))
        elif name == "cutelim.reduce_cut":
            add("cutelim.realized", ok)
            if ok:
                add("cutelim.reduce_steps", len(res[1]))
        elif name == "mcut.run_mcut":
            add("mcut.ok", ok)
            if ok:
                add("mcut.steps", len(res[1]))
    for name, n in counts.items():
        add(name + "_calls", n)
    return out
