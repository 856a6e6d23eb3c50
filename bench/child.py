"""The benchmark's worker process; ``run.py`` starts one per step.

    child.py gen   WORKLOAD SEED DIR   write DIR/decls.fwd and DIR/expected.json
    child.py run   DIR SECONDS TRACE [MAX_DECLS PASSES]
                                       run the declarations, write DIR/result.json
    child.py record-inputs LAST        write the text sha256 of seeds 1..LAST of
                                       every workload to INPUTS

Each step is a fresh interpreter.  ``run`` is a closed loop with one client:
it calls the handler ``fwdcal --json`` dispatches to for one declaration,
waits for its JSON record, compares the verdict with the expected one, and
only then starts the next.  It makes whole passes over the declarations,
always at least one and at least ``MIN_SAMPLES`` handler calls.  After each
untraced call it runs the reference job of ``speed.py`` for ``REF_SHARE`` of
the call's CPU time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

INPUTS = Path(__file__).resolve().parent / "inputs.json"
MIN_SAMPLES = 100
REF_SHARE = 0.25            # reference job's CPU time per CPU second measured
REF_CHUNK_S = 0.5           # reference CPU time behind each slowdown factor
DECL_TIME_LIMIT_S = 20      # per declaration, enforced with SIGALRM
HARD_STOP_S = 120           # no new declaration starts after this


class DeclTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the program
    mistakes it for one of its own errors."""


def _on_alarm(signum, frame):
    raise DeclTimeout()


# -- gen -------------------------------------------------------------------------

def _synth_verdict(decl) -> bool:
    """Synthesis on the forwarder's context: the dual of a compat
    environment, or a synth declaration's own (plain) context."""
    from fwdcal import parsing as PA
    from fwdcal import syntax as S
    from fwdcal.checker import synth_with_annotations

    if isinstance(decl, PA.CompatDecl):
        env = tuple((x, S.dual(S.erase(t))) for x, t in decl.env)
    else:
        env = tuple((e.endpoint, e.typing) for e in decl.context.entries)
    return synth_with_annotations(env) is not None


def cmd_gen(workload: str, seed: int, out: Path) -> None:
    import fwdcal.cli  # noqa: F401  (compiles every module once, before timing)
    from fwdcal import parsing as PA
    from workloads import generate, workload_text

    items = generate(workload, seed)
    text = workload_text(items)
    parsed = PA.parse_file(text)
    kinds = {PA.CompatDecl: "compat", PA.SynthDecl: "synth", PA.CutDecl: "cut",
             PA.SimDecl: "sim"}
    got = [kinds.get(type(d)) for d in parsed.decls]
    if got != [it.kind for it in items]:
        raise RuntimeError("the generated text does not parse to the generated declarations")
    # fresh names such as p#1 must survive printing and parsing again
    printed = PA.print_file(parsed)
    if PA.print_file(PA.parse_file(printed)) != printed:
        raise RuntimeError("parse_file and print_file do not round-trip the generated text")
    disagree = []
    for i, (it, d) in enumerate(zip(items, parsed.decls)):
        if it.synth_check and _synth_verdict(d) != it.expected:
            disagree.append(i)
    (out / "decls.fwd").write_text(text, encoding="utf-8")
    meta = {
        "items": [{"kind": it.kind, "expected": it.expected, "tag": it.tag}
                  for it in items],
        "synth_checked": sum(it.synth_check for it in items),
        "synth_disagree": [items[i].tag for i in disagree],
        "sha256": _sha256(text),
    }
    (out / "expected.json").write_text(json.dumps(meta), encoding="utf-8")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cmd_record_inputs(last: int) -> None:
    """Record the input text of seeds 1..last.  ``cut`` is built by the
    program's synthesizer and printer, so a change to either can change it;
    ``run.py`` refuses to measure a recorded seed whose text differs."""
    from workloads import GENERATORS, generate, workload_text

    got = {w: {str(seed): _sha256(workload_text(generate(w, seed)))
               for seed in range(1, last + 1)} for w in GENERATORS}
    INPUTS.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")


# -- run -------------------------------------------------------------------------

def _handler(decl):
    from fwdcal import cli
    from fwdcal import parsing as PA

    if isinstance(decl, PA.CompatDecl):
        return lambda: cli.run_compat(decl, True)
    if isinstance(decl, PA.SynthDecl):
        return lambda: cli.run_synth(decl, True)
    if isinstance(decl, PA.CutDecl):
        return lambda: cli.run_cut(decl, True, True)
    if isinstance(decl, PA.SimDecl):
        return lambda: cli.run_sim(decl, True, False)
    raise TypeError(decl)


def _verdict(kind: str, rec: dict) -> bool:
    return rec.get("sim") == "ok" if kind == "sim" else bool(rec.get("ok"))


def _recheck(kind: str, decl, rec: dict) -> bool:
    """Check a returned compat witness or synthesized forwarder with
    check_forwarder at its annotated context."""
    from fwdcal import parsing as PA
    from fwdcal.checker import CheckError, check_forwarder

    def holds(proc_text: str, ctx) -> bool:
        try:
            if isinstance(ctx, str):
                ctx = PA.parse_context(ctx)
            check_forwarder(PA.parse_process(proc_text), ctx)
            return True
        except (CheckError, PA.ParseError, ValueError, KeyError):
            return False

    if kind == "compat" and rec.get("ok"):
        # a positive verdict without a witness means synthesis disagrees
        return "witness" in rec and holds(rec["witness"], rec["annotated"])
    if kind == "synth" and rec.get("ok"):
        return holds(rec["forwarder"], rec.get("annotated", decl.context))
    return True


def _quantile(xs: list[float], q: float) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]


def cmd_run(work: Path, seconds: float, trace: bool, max_decls: int = 0,
            passes: int = 0) -> None:
    from fwdcal import cli  # noqa: F401
    from fwdcal import parsing as PA
    import spans as T
    import speed

    meta = json.loads((work / "expected.json").read_text(encoding="utf-8"))
    text = (work / "decls.fwd").read_text(encoding="utf-8")
    tracer = T.Tracer()
    layers: dict[str, float] = {}
    if trace:
        tracer.install()
        parse_s = []
        for _ in range(5):
            decls = PA.parse_file(text).decls
            spans, _ = tracer.take()
            parse_s.append(spans[0][T.END] - spans[0][T.START])
        tracer.uninstall()
        layers["parsing.parse_s"] = statistics.median(parse_s)
        layers["parsing.tokens"] = len(PA.tokenize(text))
        layers["parsing.decls"] = len(decls)
    else:
        decls = PA.parse_file(text).decls
    items = meta["items"]
    if max_decls:
        decls, items = decls[:max_decls], items[:max_decls]
    calls = [_handler(d) for d in decls]

    signal.signal(signal.SIGALRM, _on_alarm)
    # verdict times are CPU time: it leaves out the time the hypervisor takes
    # from this VM (steal), which otherwise shows as bursts in the tail.
    # ``ref`` runs the reference job after each untraced call; its slowdown
    # scales the end-to-end figures (see speed.py).
    samples_ms: list[float] = []
    first: list[tuple[str, dict | None]] = []   # outcome and record, first pass
    outcomes: dict[str, int] = {}
    bad: set[int] = set()   # declarations that failed in any pass
    decided = 0
    walls = {False: [], True: []}
    rates: list[tuple[int, float, int, int]] = []  # untraced passes: decided, wall, samples
    totals: dict[str, float] = {}
    ref = None if trace else speed.Reference(REF_SHARE, REF_CHUNK_S)
    t_start = perf_counter()
    n_pass = 0
    while True:
        traced = trace and n_pass % 2 == 1
        if traced:
            tracer.install()
        t_pass = perf_counter()
        ref_wall = ref.wall_s if ref else 0.0
        decided_before, first_sample = decided, len(samples_ms)
        for i, call in enumerate(calls):
            if perf_counter() - t_start > HARD_STOP_S:
                break
            kind, expected = items[i]["kind"], items[i]["expected"]
            buf = io.StringIO()
            rec = None
            with contextlib.redirect_stdout(buf):
                try:
                    signal.setitimer(signal.ITIMER_REAL, DECL_TIME_LIMIT_S)
                    t0 = process_time()
                    if traced:
                        tracer.call("cli", call)
                    else:
                        call()
                    dt = process_time() - t0
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    rec = json.loads(buf.getvalue().splitlines()[-1])
                    outcome = "ok" if _verdict(kind, rec) == expected else "wrong"
                    decided += 1
                except DeclTimeout:
                    dt = DECL_TIME_LIMIT_S
                    outcome = "timeout"
                except Exception as e:  # the program raised: a failed declaration
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    dt = process_time() - t0
                    outcome = "raised:" + type(e).__name__
            samples_ms.append(dt * 1e3)
            if ref:
                ref.follow(dt)
            if outcome != "ok":
                bad.add(i)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            if n_pass == 0:
                first.append((outcome, rec))
        wall = perf_counter() - t_pass - ((ref.wall_s - ref_wall) if ref else 0.0)
        if traced:
            tracer.uninstall()
        walls[traced].append(wall)
        if not traced:
            rates.append((decided - decided_before, wall, first_sample, len(samples_ms)))
        if traced:
            for k, v in T.summarize(*tracer.take()).items():
                totals[k] = totals.get(k, 0.0) + v
        n_pass += 1
        elapsed = perf_counter() - t_start
        if elapsed > HARD_STOP_S:
            break
        if passes:
            if n_pass >= passes:
                break
            continue
        mean_pass = elapsed / n_pass
        if len(samples_ms) < MIN_SAMPLES or (trace and n_pass < 2):
            continue
        if elapsed + mean_pass > seconds:
            break
    signal.setitimer(signal.ITIMER_REAL, 0)
    if ref:
        ref.close()

    # outside the timed region: re-check the witnesses of the first pass
    wrong_claims = []
    for i, (outcome, rec) in enumerate(first):
        kind = items[i]["kind"]
        if outcome == "wrong" and kind in ("compat", "synth"):
            wrong_claims.append(items[i]["tag"])
        if outcome == "ok" and not _recheck(kind, decls[i], rec):
            bad.add(i)
            wrong_claims.append(items[i]["tag"] + ":witness")
    # Declarations, not handler calls: every pass repeats the same ones, so
    # the counts do not depend on how many passes the run's time allowed.
    attempted, failed = len(first), len(bad)
    result = {
        "attempted": attempted,
        "failed": failed,
        "wrong_claims": wrong_claims,
        "outcomes": outcomes,
        "failed_tags": sorted({items[i]["tag"] for i in bad}),
        "decls_per_pass": len(first),
        "passes": n_pass,
        "samples": len(samples_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if samples_ms:
        result["raw_ms.p50"] = statistics.median(samples_ms)
        result["raw_ms.p90"] = _quantile(samples_ms, 0.90)
    untraced_wall = sum(walls[False])
    if not trace:
        # the median pass resists bursts of load from outside the process
        result["raw_per_s"] = statistics.median(n / w for n, w, _, _ in rates)
        # Scale each call's time, and each pass's rate, by how much slower
        # than nominal the machine ran the reference job next to it.
        f = ref.factors
        scaled = [x / k for x, k in zip(samples_ms, f)]
        result["verdict_ms.p50"] = statistics.median(scaled)
        result["verdict_ms.p90"] = _quantile(scaled, 0.90)
        result["above_p90"] = sum(x > result["verdict_ms.p90"] for x in scaled)

        def pass_slowdown(a: int, b: int) -> float:  # weighted by CPU time
            return sum(samples_ms[j] * f[j] for j in range(a, b)) / sum(samples_ms[a:b])
        result["verdicts_per_s"] = statistics.median(
            n / w * pass_slowdown(a, b) for n, w, a, b in rates if b > a)
        result["slowdown"] = ref.slowdown()
    else:
        n_tr = len(walls[True])
        per_pass = {k: v / n_tr for k, v in totals.items()}
        layers.update(_layer_metrics(per_pass))
        layers["fail_ratio"] = failed / attempted if attempted else 0.0
        layers["trace_overhead"] = (sum(walls[True]) / n_tr) / (untraced_wall / len(walls[False]))
        result["layers"] = layers
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")


# Per-layer metrics in report order: a total from ``spans.summarize``, or a
# ratio of two of them (0 where the layer never ran).
LAYER_METRICS = (
    "checker.check_forwarder_s", "checker.check_forwarder_calls",
    "checker.derivation_nodes", "checker.check_cll_s", "checker.check_cll_calls",
    "checker.synth_s", "checker.synth_calls",
    ("checker.synth_found_ratio", "checker.synth_found", "checker.synth_calls"),
    "compat.multiparty_compatible_s", "compat.multiparty_compatible_calls",
    "compat.transitions_calls", "compat.stuck_path_s",
    "cutelim.cut_conclusions_s", "cutelim.conclusions", "cutelim.reduce_cut_s",
    "cutelim.reduce_cut_calls", "cutelim.reduce_steps",
    ("cutelim.realized_ratio", "cutelim.realized", "cutelim.reduce_cut_calls"),
    "mcut.run_mcut_s", "mcut.run_mcut_calls", "mcut.steps",
    ("mcut.ok_ratio", "mcut.ok", "mcut.run_mcut_calls"),
    "cli.self_s",
)


def _layer_metrics(per_pass: dict[str, float]) -> dict[str, float]:
    out = {}
    for m in LAYER_METRICS:
        if isinstance(m, str):
            out[m] = per_pass.get(m, 0.0)
        else:
            name, num, den = m
            d = per_pass.get(den, 0.0)
            out[name] = per_pass.get(num, 0.0) / d if d else 0.0
    return out


def main(argv: list[str]) -> None:
    match argv:
        case ["gen", workload, seed, out]:
            cmd_gen(workload, int(seed), Path(out))
        case ["record-inputs", last]:
            cmd_record_inputs(int(last))
        case ["run", work, seconds, trace, *rest]:
            cmd_run(Path(work), float(seconds), trace == "1", *map(int, rest))
        case _:
            raise SystemExit(f"usage: see {__file__}")


if __name__ == "__main__":
    main(sys.argv[1:])
