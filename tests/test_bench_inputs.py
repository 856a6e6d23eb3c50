"""The benchmark's pinned inputs still come out of the program.

``bench/inputs.json`` records the text sha256 of every workload seed, and
the benchmark refuses to measure a seed whose text moved.  The ``cut``
workload is printed by the program's own synthesizer and printer, so a
change to either that moves it fails here, not only in a benchmark run.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_workloads():
    """``bench/workloads.py`` as a module, leaving ``sys.path`` as it is."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("workload", ["relay", "kparty", "cut"])
def test_generated_inputs_match_the_recorded_hashes(workload):
    wl = load_workloads()
    recorded = json.loads((BENCH / "inputs.json").read_text(encoding="utf-8"))[workload]
    for seed in (1, 2, 3):
        text = wl.workload_text(wl.generate(workload, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == recorded[str(seed)], seed
