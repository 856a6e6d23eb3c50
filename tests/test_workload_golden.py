"""The benchmark's handler records, compared with recorded hashes.

``workload_golden.json`` holds, for seed 1 of each workload, the sha256 of
every JSON record the handlers print: ``cli.run_compat``, ``cli.run_synth``,
``cli.run_cut`` with every conclusion, and ``cli.run_sim`` with and without
``--step``.  A change meant to keep every output keeps every hash.  Record
it again with

    PYTHONPATH=src python tests/test_workload_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from fwdcal import cli
from fwdcal import parsing as PA
from test_bench_inputs import load_workloads

GOLDEN = Path(__file__).resolve().parent / "workload_golden.json"
WORKLOADS = ("relay", "kparty", "cut")
SEED = 1


def _calls(decl):
    """The handler calls the benchmark makes for ``decl``, with a label each;
    a ``sim`` also runs one step."""
    if isinstance(decl, PA.CompatDecl):
        return [("compat", lambda: cli.run_compat(decl, True))]
    if isinstance(decl, PA.SynthDecl):
        return [("synth", lambda: cli.run_synth(decl, True))]
    if isinstance(decl, PA.CutDecl):
        return [("cut", lambda: cli.run_cut(decl, True, True))]
    if isinstance(decl, PA.SimDecl):
        return [("sim", lambda: cli.run_sim(decl, True, False)),
                ("sim --step", lambda: cli.run_sim(decl, True, True))]
    raise TypeError(decl)


def records(workload: str) -> dict[str, str]:
    wl = load_workloads()
    decls = PA.parse_file(wl.workload_text(wl.generate(workload, SEED))).decls
    out = {}
    for i, decl in enumerate(decls):
        for label, call in _calls(decl):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                call()
            out[f"{i} {label}"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_handler_records_match_the_recorded_hashes(workload):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[workload]
    got = records(workload)
    assert sorted(got) == sorted(want)
    assert [k for k in want if got[k] != want[k]] == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({w: records(w) for w in WORKLOADS}, indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
    sys.exit(0)
