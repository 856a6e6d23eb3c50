"""Command-line front end over declaration files.

Subcommands: ``fmt`` pretty-prints a file, ``check`` runs judgement checks,
``synth`` searches for forwarders, ``compat`` decides multiparty
compatibility, ``cut`` computes and realizes binary cut conclusions, ``sim``
runs multiparty compositions.  Exit status: 0 all passed, 1 some negative
verdict, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import compat as CM
from . import cutelim as CE
from . import mcut as MC
from . import parsing as PA
from . import syntax as S
from .checker import CheckError, Derivation, check_cll, check_forwarder, synth_context
from .contexts import Context, context_fully_annotated
from .cutelim import CutError, Judged
from .mcut import McutError


def _color_enabled() -> bool:
    if os.environ.get("FWD_COLOR", "") == "0":
        return False
    return sys.stdout.isatty()


def _verdict(ok: bool) -> str:
    word = "ok" if ok else "FAIL"
    if _color_enabled():
        code = "32" if ok else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def deriv_json(d: Derivation):
    if isinstance(d.context, Context):
        concl = PA.print_context(d.context)
    else:
        concl = PA.print_plain_env(d.context)
    return {
        "rule": d.rule,
        "conclusion": f"{S.print_process(d.process)} |- {concl}",
        "children": [deriv_json(p) for p in d.premises],
    }


def deriv_trace(d: Derivation, indent: int = 0) -> str:
    lines = [" " * indent + d.rule]
    for p in d.premises:
        lines.append(deriv_trace(p, indent + 2))
    return "\n".join(lines)


def _emit(record, as_json: bool, text: str):
    if as_json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def run_check(decl, as_json: bool) -> bool:
    if isinstance(decl, PA.CheckDecl):
        what = f"check {S.print_process(decl.proc)}"
        try:
            d = check_forwarder(decl.proc, decl.context)
            _emit({"check": what, "ok": True, "rules": list(d.rules_preorder()),
                   "derivation": deriv_json(d)},
                  as_json, f"{_verdict(True)} {what}\n{deriv_trace(d, 2)}")
            return True
        except CheckError as e:
            _emit({"check": what, "ok": False, "error": str(e)},
                  as_json, f"{_verdict(False)} {what}: {e}")
            return False
    what = f"checkcll {S.print_process(decl.proc)}"
    try:
        d = check_cll(decl.proc, decl.env)
        _emit({"check": what, "ok": True, "rules": list(d.rules_preorder())},
              as_json, f"{_verdict(True)} {what}\n{deriv_trace(d, 2)}")
        return True
    except CheckError as e:
        _emit({"check": what, "ok": False, "error": str(e)},
              as_json, f"{_verdict(False)} {what}: {e}")
        return False


def run_synth(decl: PA.SynthDecl, as_json: bool) -> bool:
    src = PA.print_context(decl.context)
    got = synth_context(decl.context)
    if got is None:
        _emit({"synth": src, "ok": False}, as_json, f"{_verdict(False)} synth {src}")
        return False
    ctx2, proc = got
    if context_fully_annotated(decl.context):
        d = check_forwarder(proc, decl.context)
        _emit({"synth": src, "ok": True, "forwarder": S.print_process(proc),
               "derivation": deriv_json(d)},
              as_json, f"{_verdict(True)} synth {src}\n  {S.print_process(proc)}")
        return True
    _emit({"synth": src, "ok": True, "forwarder": S.print_process(proc),
           "annotated": PA.print_context(ctx2)},
          as_json,
          f"{_verdict(True)} synth {src}\n  {S.print_process(proc)}\n"
          f"  at {PA.print_context(ctx2)}")
    return True


def run_compat(decl: PA.CompatDecl, as_json: bool) -> bool:
    from .checker import synth_with_annotations

    src = PA.print_plain_env(decl.env)
    chk = CM.CompatChecker()
    ok = CM.multiparty_compatible(decl.env, chk)
    if ok:
        denv = tuple((x, S.dual(S.erase(t))) for x, t in decl.env)
        witness = synth_with_annotations(denv)
        text = f"{_verdict(True)} compat {src}"
        rec = {"compat": src, "ok": True}
        if witness is not None:
            rec["witness"] = S.print_process(witness[1])
            rec["annotated"] = PA.print_context(witness[0])
            text += f"\n  witness {S.print_process(witness[1])}"
        rec["stats"] = chk.stats()
        _emit(rec, as_json, text)
        return True
    stuck = CM.stuck_path(decl.env, chk)
    rec = {"compat": src, "ok": False}
    text = f"{_verdict(False)} compat {src}"
    if stuck is not None:
        from .contexts import translate_config

        c0, labels, final = stuck
        rec["stuck_labels"] = [lab.rule for lab in labels]
        rec["stuck_at"] = PA.print_context(translate_config(final))
        text += "\n  stuck after " + (", ".join(rec["stuck_labels"]) or "no steps")
        text += f"\n  at {rec['stuck_at']}"
    rec["stats"] = chk.stats()
    _emit(rec, as_json, text)
    return False


def run_cut(decl: PA.CutDecl, as_json: bool, all_gammas: bool) -> bool:
    lx = decl.left_ctx.entries[-1].endpoint
    ry = decl.right_ctx.entries[-1].endpoint
    src = f"cut {lx} against {ry}"
    try:
        left = check_forwarder(decl.left, decl.left_ctx)
        right = check_forwarder(decl.right, decl.right_ctx)
        concl = CE.cut_conclusions(decl.left_ctx, lx, decl.right_ctx, ry)
    except (CheckError, CutError) as e:
        _emit({"cut": src, "ok": False, "error": str(e)}, as_json,
              f"{_verdict(False)} {src}: {e}")
        return False
    chosen = concl if all_gammas else concl[:1]
    ok = True
    results = []
    for g in chosen:
        try:
            term, trace = CE.reduce_cut(left, lx, right, ry, g)
            check_forwarder(term, g)
            results.append({"gamma": PA.print_context(g), "trace": list(trace),
                            "term": S.print_process(term)})
        except (CheckError, CutError) as e:
            ok = False
            results.append({"gamma": PA.print_context(g), "error": str(e)})
    rec = {"cut": src, "ok": ok, "conclusions": [PA.print_context(g) for g in concl],
           "runs": results}
    lines = [f"{_verdict(ok)} {src}", f"  conclusions: {len(concl)}"]
    for g in concl:
        lines.append(f"    {PA.print_context(g)}")
    for rr in results:
        if "term" in rr:
            lines.append(f"  at {rr['gamma']}")
            lines.extend(f"    {t}" for t in rr["trace"])
            lines.append(f"    => {rr['term']}")
        else:
            lines.append(f"  at {rr['gamma']}: {rr['error']}")
    _emit(rec, as_json, "\n".join(lines))
    return ok


def _sim_config(decl: PA.SimDecl) -> MC.MCutConfig:
    def entry(what: str, proc: S.Process, env, x: str) -> MC.PartEntry:
        typ = dict(env).get(x)
        if typ is None:
            raise McutError(f"{what} {x} must list its own endpoint type")
        return MC.PartEntry(proc, tuple((n, t) for n, t in env if n != x), x, typ)

    parts = tuple(entry("part at", p.proc, p.env, p.endpoint) for p in decl.parts)
    pending = tuple(entry("pending", proc, env, name) for name, proc, env in decl.pending)
    bound = tuple(e.endpoint for e in decl.fwd_ctx.entries)
    return MC.MCutConfig(bound, Judged(decl.fwd, decl.fwd_ctx), pending, parts)


def _print_sim_state(c: MC.MCutConfig) -> str:
    return PA.print_declaration(PA.SimDecl(
        c.fwd.process, c.fwd.context,
        tuple(PA.SimPart(p.term, p.env + ((p.endpoint, p.typ),), p.endpoint) for p in c.parts),
        tuple((p.endpoint, p.term, p.env + ((p.endpoint, p.typ),)) for p in c.pending)))


def run_sim(decl: PA.SimDecl, as_json: bool, step: bool) -> bool:
    stats = MC.McutStats()
    try:
        cfg = _sim_config(decl)
        rec, text = _sim_step(cfg, stats) if step else _sim_run(cfg, stats)
    except (CutError, CheckError) as e:
        rec, text = {"sim": "error", "error": str(e)}, f"{_verdict(False)} sim: {e}"
    rec["stats"] = asdict(stats)
    _emit(rec, as_json, text)
    return rec["sim"] != "error"


def _sim_run(cfg: MC.MCutConfig, stats: MC.McutStats) -> tuple[dict, str]:
    term, trace = MC.run_mcut(cfg, stats)
    return ({"sim": "ok", "trace": list(trace), "term": S.print_process(term)},
            f"{_verdict(True)} sim\n  " + "\n  ".join(trace)
            + f"\n  => {S.print_process(term)}")


def _sim_step(cfg: MC.MCutConfig, stats: MC.McutStats) -> tuple[dict, str]:
    match MC.mcutq_step(cfg, stats):
        case ("final", term, tag):
            return ({"sim": "final", "tag": tag, "term": S.print_process(term)},
                    f"{tag}: final {S.print_process(term)}")
        case ("continue", c2, tag):
            return ({"sim": "step", "tag": tag, "state": _print_sim_state(c2)},
                    f"{tag}:\n{_print_sim_state(c2)}")
        case ("emit", _, c2, tag):
            return ({"sim": "emit", "tag": tag, "state": _print_sim_state(c2)},
                    f"{tag}: action emitted\n{_print_sim_state(c2)}")
        case ("fork", _, cl, cr, tag):
            return ({"sim": "fork", "tag": tag,
                     "left": _print_sim_state(cl), "right": _print_sim_state(cr)},
                    f"{tag}: fork\n{_print_sim_state(cl)}\n{_print_sim_state(cr)}")


GRAMMAR_NOTE = "see the grammar reference shipped as fwdcal/grammar.ebnf"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="fwdcal", description=__doc__, epilog=GRAMMAR_NOTE)
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("fmt", "check", "synth", "compat", "sim"):
        p = sub.add_parser(name)
        p.add_argument("file")
        if name == "sim":
            p.add_argument("--step", action="store_true",
                           help="apply a single step to the saved state")
    pc = sub.add_parser("cut")
    pc.add_argument("file")
    pc.add_argument("--all-gammas", action="store_true",
                    help="realize every conclusion of each cut declaration")
    args = ap.parse_args(argv)

    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
        decls = PA.parse_file(text)
    except OSError as e:
        print(f"cannot read {args.file}: {e}", file=sys.stderr)
        return 2
    except PA.ParseError as e:
        print(f"{args.file}:{e}", file=sys.stderr)
        print(GRAMMAR_NOTE, file=sys.stderr)
        return 2

    if args.cmd == "fmt":
        sys.stdout.write(PA.print_file(decls))
        return 0

    jobs: list = []
    for d, line in zip(decls.decls, decls.lines):
        if args.cmd == "check" and isinstance(d, (PA.CheckDecl, PA.CheckCllDecl)):
            jobs.append((line, lambda d=d: run_check(d, args.json)))
        elif args.cmd == "synth" and isinstance(d, PA.SynthDecl):
            jobs.append((line, lambda d=d: run_synth(d, args.json)))
        elif args.cmd == "compat" and isinstance(d, PA.CompatDecl):
            jobs.append((line, lambda d=d: run_compat(d, args.json)))
        elif args.cmd == "cut" and isinstance(d, PA.CutDecl):
            jobs.append((line, lambda d=d: run_cut(d, args.json, args.all_gammas)))
        elif args.cmd == "sim" and isinstance(d, PA.SimDecl):
            jobs.append((line, lambda d=d: run_sim(d, args.json, args.step)))
    if not jobs:
        print(f"no {args.cmd} declarations in {args.file}", file=sys.stderr)
        return 2
    oks = []
    for line, f in jobs:
        try:
            oks.append(f())
        except RecursionError:
            print(f"{args.file}:{line}: {args.cmd} declaration nests too deeply to handle",
                  file=sys.stderr)
            return 2
    return 0 if all(oks) else 1


if __name__ == "__main__":
    sys.exit(main())
