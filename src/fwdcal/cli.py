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
from typing import Callable

from . import compat as CM
from . import cutelim as CE
from . import mcut as MC
from . import parsing as PA
from . import syntax as S
from .checker import CheckError, Derivation, check_cll, check_forwarder, synth_context
from .contexts import Context, context_fully_annotated
from .cutelim import CutError, Judged
from .mcut import McutError
from .records import record


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


def run_fmt(decl: PA.Declaration) -> bool:
    print(PA.print_declaration(decl))
    return True


def run_check(decl: PA.CheckDecl | PA.CheckCllDecl, as_json: bool) -> bool:
    fwd = isinstance(decl, PA.CheckDecl)
    what = f"{'check' if fwd else 'checkcll'} {S.print_process(decl.proc)}"
    try:
        d = check_forwarder(decl.proc, decl.context) if fwd else check_cll(decl.proc, decl.env)
    except CheckError as e:
        _emit({"check": what, "ok": False, "error": str(e)},
              as_json, f"{_verdict(False)} {what}: {e}")
        return False
    rec = {"check": what, "ok": True, "rules": list(d.rules_preorder())}
    if fwd:
        rec["derivation"] = deriv_json(d)
    _emit(rec, as_json, f"{_verdict(True)} {what}\n{deriv_trace(d, 2)}")
    return True


def run_synth(decl: PA.SynthDecl, as_json: bool) -> bool:
    src = PA.print_context(decl.context)
    got = synth_context(decl.context)
    if got is None:
        _emit({"synth": src, "ok": False}, as_json, f"{_verdict(False)} synth {src}")
        return False
    ctx2, proc = got
    fwd = S.print_process(proc)
    text = f"{_verdict(True)} synth {src}\n  {fwd}"
    if context_fully_annotated(decl.context):
        d = check_forwarder(proc, decl.context)
        _emit({"synth": src, "ok": True, "forwarder": fwd, "derivation": deriv_json(d)},
              as_json, text)
        return True
    annotated = PA.print_context(ctx2)
    _emit({"synth": src, "ok": True, "forwarder": fwd, "annotated": annotated},
          as_json, f"{text}\n  at {annotated}")
    return True


def run_compat(decl: PA.CompatDecl, as_json: bool) -> bool:
    """Decide one environment, then read the record of that one run: a
    positive's witness forwarder and the annotated dual it inhabits
    (``compat.witness``), or a negative's stuck path (``compat.stuck_path``).
    Nothing is searched a second time; ``stats`` reports the checker's counters."""
    src = PA.print_plain_env(decl.env)
    chk = CM.CompatChecker()
    ok = CM.multiparty_compatible(decl.env, chk)
    if ok:
        witness = CM.witness(decl.env, chk)
        text = f"{_verdict(True)} compat {src}"
        rec = {"compat": src, "ok": True}
        if witness is not None:
            rec["witness"] = S.print_process(witness[1])
            rec["annotated"] = PA.print_context(witness[0])
            text += f"\n  witness {rec['witness']}"
        rec["stats"] = chk.stats()
        _emit(rec, as_json, text)
        return True
    stuck = CM.stuck_path(decl.env, chk)
    rec = {"compat": src, "ok": False}
    text = f"{_verdict(False)} compat {src}"
    if stuck is not None:
        c0, labels, final = stuck
        rec["stuck_labels"] = [lab.rule for lab in labels]
        rec["stuck_at"] = PA.print_context(final)
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
    shown = [PA.print_context(g) for g in concl]
    ok = True
    results = []
    for g, gamma in zip(concl if all_gammas else concl[:1], shown):
        try:
            term, trace = CE.reduce_cut(left, lx, right, ry, g)
            check_forwarder(term, g)
            results.append({"gamma": gamma, "trace": list(trace), "term": S.print_process(term)})
        except (CheckError, CutError) as e:
            ok = False
            results.append({"gamma": gamma, "error": str(e)})
    rec = {"cut": src, "ok": ok, "conclusions": shown, "runs": results}
    lines = [f"{_verdict(ok)} {src}", f"  conclusions: {len(concl)}"]
    lines.extend(f"    {gamma}" for gamma in shown)
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
    pending = tuple(entry("pending", p.proc, p.env, p.name) for p in decl.pending)
    bound = tuple(e.endpoint for e in decl.fwd_ctx.entries)
    return MC.MCutConfig(bound, Judged(decl.fwd, decl.fwd_ctx), pending, parts)


def _print_sim_state(c: MC.MCutConfig) -> str:
    return PA.print_declaration(PA.SimDecl(
        c.fwd.process, c.fwd.context,
        tuple(PA.SimPart(p.term, p.env + ((p.endpoint, p.typ),), p.endpoint) for p in c.parts),
        tuple(PA.SimPending(p.endpoint, p.term, p.env + ((p.endpoint, p.typ),))
              for p in c.pending)))


def run_sim(decl: PA.SimDecl, as_json: bool, step: bool) -> bool:
    stats = MC.McutStats()
    try:
        cfg = _sim_config(decl)
        rec, text = _sim_step(cfg, stats) if step else _sim_run(cfg, stats)
    except (CutError, CheckError) as e:
        rec, text = {"sim": "error", "error": str(e)}, f"{_verdict(False)} sim: {e}"
    rec["stats"] = {name: getattr(stats, name) for name in stats.__slots__}
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
            shown = S.print_process(term)
            return {"sim": "final", "tag": tag, "term": shown}, f"{tag}: final {shown}"
        case ("continue", c2, tag):
            shown = _print_sim_state(c2)
            return {"sim": "step", "tag": tag, "state": shown}, f"{tag}:\n{shown}"
        case ("emit", _, c2, tag):
            shown = _print_sim_state(c2)
            return ({"sim": "emit", "tag": tag, "state": shown},
                    f"{tag}: action emitted\n{shown}")
        case ("fork", _, cl, cr, tag):
            left, right = _print_sim_state(cl), _print_sim_state(cr)
            return ({"sim": "fork", "tag": tag, "left": left, "right": right},
                    f"{tag}: fork\n{left}\n{right}")


@record
class Command:
    decls: tuple[type, ...]  # the declarations it runs
    run: Callable  # (declaration, parsed arguments) -> verdict
    flag: tuple[str, str] | None  # an option of its own, and its help


# The commands, each over the declarations it runs; fmt prints any file.
COMMANDS = {
    "fmt": Command(tuple(PA.DECLARATIONS.texts), lambda d, a: run_fmt(d), None),
    "check": Command((PA.CheckDecl, PA.CheckCllDecl), lambda d, a: run_check(d, a.json), None),
    "synth": Command((PA.SynthDecl,), lambda d, a: run_synth(d, a.json), None),
    "compat": Command((PA.CompatDecl,), lambda d, a: run_compat(d, a.json), None),
    "sim": Command((PA.SimDecl,), lambda d, a: run_sim(d, a.json, a.step),
                   ("--step", "apply a single step to the saved state")),
    "cut": Command((PA.CutDecl,), lambda d, a: run_cut(d, a.json, a.all_gammas),
                   ("--all-gammas", "realize every conclusion of each cut declaration")),
}

GRAMMAR_NOTE = "see the grammar reference shipped as fwdcal/grammar.ebnf"


def read_source(path: str) -> str:
    """A declaration file's text, read as ``open`` reads UTF-8 text: a
    carriage return, alone or before a newline, ends a line as a newline
    does.  A byte that is not UTF-8 is a ParseError at its line and column."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _newlines(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        before = _newlines(data[:e.start].decode("utf-8"))
        raise PA.ParseError("not UTF-8 text", before.count("\n") + 1,
                            len(before) - before.rfind("\n")) from None


def _newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="fwdcal", description=__doc__, epilog=GRAMMAR_NOTE)
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("file")
        if cmd.flag:
            p.add_argument(cmd.flag[0], action="store_true", help=cmd.flag[1])
    args = ap.parse_args(argv)

    try:
        decls = PA.parse_file(read_source(args.file))
    except OSError as e:
        print(f"cannot read {args.file}: {e}", file=sys.stderr)
        return 2
    except PA.ParseError as e:
        print(f"{args.file}:{e}", file=sys.stderr)
        print(GRAMMAR_NOTE, file=sys.stderr)
        return 2

    cmd = COMMANDS[args.cmd]
    jobs = [(d, line) for d, line in zip(decls.decls, decls.lines) if isinstance(d, cmd.decls)]
    if not jobs and args.cmd != "fmt":
        print(f"no {args.cmd} declarations in {args.file}", file=sys.stderr)
        return 2
    oks = []
    for d, line in jobs:
        try:
            oks.append(cmd.run(d, args))
        except RecursionError:
            print(f"{args.file}:{line}: {args.cmd} declaration nests too deeply to handle",
                  file=sys.stderr)
            return 2
    return 0 if all(oks) else 1


if __name__ == "__main__":
    sys.exit(main())
