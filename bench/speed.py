"""A fixed reference job that measures how fast the machine runs right now.

The benchmark runs on a shared virtual machine whose speed moves by a fifth
or more over minutes, as other tenants load the host.  ``child.py`` runs this
job right after each measured call, for a fixed share of the call's CPU
time, and scales its end-to-end times by the job's speed against
``NOMINAL_S_PER_UNIT``.  The job
is code of the same kind as the program's (searches over hashed immutable
states, recursion over type trees, string building), but it never calls the
program, so a change to the program cannot move it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter, process_time

# CPU seconds one unit took on the machine the baseline was measured on
# (Intel Xeon, Sapphire Rapids, 2 vCPUs, Python 3.11.7).  Only ratios of
# scaled figures are meaningful; this constant keeps them near milliseconds.
NOMINAL_S_PER_UNIT = 0.003


@dataclass(frozen=True)
class _Cfg:
    queues: tuple
    sent: tuple


def _search(n: int = 2, parties: int = 3) -> int:
    """Every configuration of ``parties`` parties that each send ``n``
    messages into the next party's queue, which delivers them in order."""
    start = _Cfg(((),) * parties, (0,) * parties)
    seen, todo = {start}, [start]
    while todo:
        c = todo.pop()
        for p in range(parties):
            nxt = []
            if c.sent[p] < n:
                q = list(c.queues)
                q[(p + 1) % parties] += (("msg", p, c.sent[p]),)
                s = list(c.sent)
                s[p] += 1
                nxt.append(_Cfg(tuple(q), tuple(s)))
            if c.queues[p]:
                q = list(c.queues)
                q[p] = q[p][1:]
                nxt.append(_Cfg(tuple(q), c.sent))
            for d in nxt:
                if d not in seen:
                    seen.add(d)
                    todo.append(d)
    return len(seen)


_DUAL = {"*": "|", "|": "*", "+": "&", "&": "+", "1": "bot", "bot": "1"}


def _tree(depth: int, i: int = 0):
    if depth == 0:
        return ("1",) if i % 2 else ("bot",)
    return ("*|+&"[i % 4], _tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1))


def _dual(t):
    if len(t) == 1:
        return (_DUAL[t[0]],)
    return (_DUAL[t[0]], _dual(t[1]), _dual(t[2]))


def _show(t) -> str:
    return t[0] if len(t) == 1 else f"({_show(t[1])} {t[0]} {_show(t[2])})"


_TYPE = _tree(10)


def unit() -> int:
    """One unit of reference work."""
    return _search() + len(_show(_dual(_TYPE)))


class Reference:
    """Runs the reference job right after each measured call, for ``share``
    of the call's CPU time, so that the job samples the machine at the same
    moments as the program does.

    Calls are grouped in chunks of about ``chunk_s`` of reference CPU time;
    each call's slowdown is that of its chunk: the chunk's CPU time per unit
    against ``NOMINAL_S_PER_UNIT``, above 1 when the machine ran slower than
    when the baseline was measured."""

    def __init__(self, share: float, chunk_s: float):
        self.share, self.chunk_s = share, chunk_s
        self.factors: list[float] = []   # slowdown of each followed call
        self.wall_s = 0.0                # to leave out of the program's wall time
        self.units, self.cpu_s = 0, 0.0  # over the whole run
        self._calls = 0                  # in the open chunk
        self._units, self._cpu_s = 0, 0.0
        self._owed = 0.0
        unit()  # warm

    def follow(self, call_cpu_s: float) -> None:
        self._owed += self.share * call_cpu_s
        self._calls += 1
        w0 = perf_counter()
        while self._owed > 0:
            t0 = process_time()
            unit()
            dt = process_time() - t0
            self._units += 1
            self._cpu_s += dt
            self._owed -= dt
        self.wall_s += perf_counter() - w0
        if self._cpu_s >= self.chunk_s:
            self.close()

    def close(self) -> None:
        """Close the open chunk; call once more after the last call."""
        if not self._units:
            # calls too short to be owed a unit since the last chunk
            self.factors += self.factors[-1:] * self._calls
            self._calls = 0
            return
        f = self._cpu_s / self._units / NOMINAL_S_PER_UNIT
        self.factors += [f] * self._calls
        self.units += self._units
        self.cpu_s += self._cpu_s
        self._calls, self._units, self._cpu_s = 0, 0, 0.0

    def slowdown(self) -> float:
        """The whole run's slowdown."""
        return self.cpu_s / self.units / NOMINAL_S_PER_UNIT
