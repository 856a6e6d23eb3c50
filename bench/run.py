"""fwdcal benchmark: one workload, one seed, one process tree.

    python3 bench/run.py --workload relay|kparty|cut --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   (every workload, both runs)
    python3 bench/run.py --self-test

Run it from the root of a checkout; it imports ``fwdcal`` from ``src/``.
Every step runs in a fresh interpreter under ``PYTHONHASHSEED=0``:

1. ``gen`` writes the seeded workload as ``.fwd`` text with the verdict the
   theory expects for each declaration, and confirms those verdicts by
   synthesis on the dual (never by the ``compat`` code under test).
2. With ``--trace 0``, ``setup_probe.py`` children each import ``fwdcal.cli``
   and parse that text; ``setup_s`` is the median, over ``SETUP_PROBES`` of them, of the
   time from starting the interpreter to the parsed file, half of them
   before the run and half after.
3. ``run`` calls the CLI handlers on one declaration at a time for about
   ``--seconds`` (see ``child.py``).  Its times are scaled by the slowdown
   of a reference job run next to the calls (``speed.py``), because the
   shared machine's speed moves under the benchmark.  With ``--trace 1`` it
   alternates untraced and traced passes and reports the per-layer metrics
   instead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts the
workload's declarations and ``failed`` those that, in any pass, raised, timed
out, gave an unexpected verdict or returned a witness that does not check.
Both count declarations, not handler calls, so they do not depend on how many
passes the run's time allowed.  ``correct`` is false when the program claimed something
false: a wrong compat or synth verdict, a witness that does not check, or a
synthesis on the dual that contradicts an expected verdict.  A cut or sim
record that reports an error is a failed declaration, not a false claim.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SETUP_PROBE = HERE / "setup_probe.py"
INPUTS = HERE / "inputs.json"   # text sha256 per workload and seed; see child.py
HASH_SEED = "0"
SETUP_PROBES = 11
WORKLOADS = ("relay", "kparty", "cut")
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "verdict_ms.p50": "ms", "verdict_ms.p90": "ms", "verdicts_per_s": "1/s",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def _env(hash_seed: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    # setup_s times an import from cached bytecode, as an installed package has
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(args: list[str], hash_seed: str = HASH_SEED) -> None:
    proc = subprocess.run([sys.executable, str(CHILD), *args], env=_env(hash_seed),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed ({proc.returncode}):\n{proc.stderr[-3000:]}")


def _setup_probe(path: Path) -> float:
    """Seconds from starting an interpreter to its parsed declaration file."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(SETUP_PROBE), str(path)],
                          env=_env(HASH_SEED), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = perf_counter() - t0
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("setup child failed")
    return dt


def measure(workload: str, seed: int, seconds: float, trace: bool,
            max_decls: int = 0, passes: int = 0, hash_seed: str = HASH_SEED) -> dict:
    work = HERE / "_work" / f"{workload}-{seed}-{os.getpid()}-{int(trace)}-{hash_seed}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        _child(["gen", workload, str(seed), str(work)], hash_seed)
        meta = json.loads((work / "expected.json").read_text(encoding="utf-8"))
        recorded = json.loads(INPUTS.read_text(encoding="utf-8"))[workload].get(str(seed))
        if recorded not in (None, meta["sha256"]):
            raise RuntimeError(
                f"the {workload} input text of seed {seed} differs from the one recorded in "
                f"{INPUTS.name}; cut is built by the program's synthesizer and printer, so "
                f"numbers measured before and after would compare different inputs. If the "
                f"change is meant, record the inputs again (child.py record-inputs) and "
                f"measure the baseline again")
        setup = []
        probe = not trace and not max_decls
        if probe:
            _setup_probe(work / "decls.fwd")  # warm the OS caches; not counted
            setup = [_setup_probe(work / "decls.fwd") for _ in range(SETUP_PROBES // 2)]
        _child(["run", str(work), str(seconds), str(int(trace)), str(max_decls), str(passes)],
               hash_seed)
        if probe:  # half the probes after the run, so a burst of load meets only some
            setup += [_setup_probe(work / "decls.fwd")
                      for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        res = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass
    res["meta"] = meta
    if setup:
        res["setup_s"] = statistics.median(setup)
    return res


def report(workload: str, seed: int, trace: bool, res: dict) -> dict:
    """Print the run's context lines; return the contract's result object."""
    meta = res["meta"]
    kinds = Counter(it["kind"] for it in meta["items"])
    mix = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
    print(f"# {workload} seed {seed} trace {int(trace)}: {res['decls_per_pass']} declarations "
          f"per pass ({mix}), {res['passes']} passes, {res['samples']} samples, "
          f"PYTHONHASHSEED={HASH_SEED}, text sha256 {meta['sha256'][:16]}")
    print(f"# synthesis confirmed {meta['synth_checked']} expected verdicts, "
          f"contradicted {len(meta['synth_disagree'])}")
    print(f"# attempted {res['attempted']}, failed {res['failed']} "
          f"(fail_ratio {res['failed'] / res['attempted']:.4f}); outcomes {res['outcomes']}")
    if res["failed_tags"]:
        print(f"# failing declarations: {' '.join(res['failed_tags'])}")
    if res["wrong_claims"]:
        print(f"# false claims: {' '.join(res['wrong_claims'])}")
    if trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in res["layers"].items()}
    else:
        print(f"# {res['above_p90']} samples above p90; as measured: p50 {res['raw_ms.p50']:.6g} ms, "
              f"p90 {res['raw_ms.p90']:.6g} ms, {res['raw_per_s']:.6g} decided/s; the reference "
              f"job took {res['slowdown']:.4f} times its nominal time")
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
    for k, m in metrics.items():
        print(f"# {workload:7s} {k:36s} {m['value']:.6g} {m['unit']}")
    correct = not res["wrong_claims"] and not meta["synth_disagree"]
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "trace_overhead":
        return "ratio"
    return "count"


def self_test() -> int:
    """A slice of each workload under two hash seeds: the generated text, the
    verdicts and every per-layer counter must be identical."""
    ok = True
    for w in WORKLOADS:
        runs = [measure(w, 1, 0, True, max_decls=12, passes=2, hash_seed=h)
                for h in ("0", "4242")]
        a, b = runs
        same_text = a["meta"]["sha256"] == b["meta"]["sha256"]
        keys = [k for k in a["layers"] if _layer_unit(k) != "s" and k != "trace_overhead"]
        diff = [k for k in keys if a["layers"][k] != b["layers"][k]]
        same_verdicts = (a["outcomes"], a["failed_tags"]) == (b["outcomes"], b["failed_tags"])
        good = same_text and same_verdicts and not diff
        ok &= good
        print(f"{w}: text {'same' if same_text else 'DIFFERS'}, verdicts "
              f"{'same' if same_verdicts else 'DIFFER'}, counters "
              f"{'same' if not diff else 'DIFFER: ' + ', '.join(diff)}")
    spec = Path.cwd() / "BENCHMARK.json"
    if spec.is_file():
        bench = json.loads(spec.read_text(encoding="utf-8"))
        named = ({m["name"] for m in bench["end_to_end"]}, {m["name"] for m in bench["per_layer"]})
        same_names = named == (set(END_TO_END), set(a["layers"]))
        ok &= same_names
        print(f"metric names {'match' if same_names else 'DIFFER from'} BENCHMARK.json")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (Path.cwd() / "src" / "fwdcal" / "cli.py").is_file():
        print("run from the root of an fwdcal checkout: src/fwdcal is missing",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    if args.workload == "all":
        for w in WORKLOADS:
            for trace in (False, True):
                report(w, args.seed, trace, measure(w, args.seed, args.seconds, trace))
        return 0
    trace = bool(args.trace)
    out = report(args.workload, args.seed, trace,
                 measure(args.workload, args.seed, args.seconds, trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
