"""The command-line front end over the corpus, in process."""

import contextlib
import io
import json
import random
import re
import sys
from pathlib import Path

import pytest

from fwdcal import cli
from fwdcal import parsing as P
from test_parsing import doubling_chain

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# The declarations each subcommand acts on; fmt prints any file.
KINDS = {
    "fmt": None,
    "check": (P.CheckDecl, P.CheckCllDecl),
    "synth": (P.SynthDecl,),
    "compat": (P.CompatDecl,),
    "cut": (P.CutDecl,),
    "sim": (P.SimDecl,),
}


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.fwd")), ids=lambda p: p.name)
def test_every_subcommand_on_corpus(path, capsys):
    decls = P.parse_file(path.read_text(encoding="utf-8")).decls
    for cmd, kinds in KINDS.items():
        has = kinds is None or any(isinstance(d, kinds) for d in decls)
        for mode in ([], ["--json"]):
            code = cli.main(mode + [cmd, str(path)])
            out, err = capsys.readouterr()
            assert code == (0 if has else 2), (cmd, mode, out, err)
            assert "Traceback" not in out + err
            if mode and has and cmd != "fmt":
                assert out
                for line in out.splitlines():
                    json.loads(line)


def test_result_terms(capsys):
    assert cli.main(["--json", "cut", str(CORPUS / "units.fwd")]) == 0
    (rec,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert [run["term"] for run in rec["runs"]] == ["close v"]
    assert cli.main(["--json", "sim", str(CORPUS / "compose.fwd")]) == 0
    (rec,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert rec["term"] == "ey(v#1). wait ey; ex[v].(v#1<->v | close ex)"
    assert cli.main(["--json", "sim", str(CORPUS / "contract.fwd")]) == 0
    (rec,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert rec["term"] == "z[w].(?t[r]. w<->r | ?t[r#5]. z<->r#5)"


@pytest.mark.parametrize("cmd,decl", [
    ("compat", "compat x : 1, x : bot;"),
    ("synth", "synth x : 1, x : bot;"),
])
def test_duplicate_endpoint_is_a_located_parse_error(cmd, decl, tmp_path, capsys):
    path = tmp_path / "dup.fwd"
    path.write_text(decl + "\n", encoding="utf-8")
    assert cli.main([cmd, str(path)]) == 2
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert f"{path}:1:{decl.rindex('x') + 1}: duplicate endpoint x" in err


def test_a_payload_name_repeated_in_one_box_is_a_located_parse_error(tmp_path, capsys):
    # it once reached synthesis, which printed FAIL with exit code 1
    decl = "synth x : a | b, y : . [to=x msg m : a; m : b];"
    path = tmp_path / "dup.fwd"
    path.write_text(decl + "\n", encoding="utf-8")
    assert cli.main(["synth", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err and "FAIL" not in out
    assert f"{path}:1:{decl.rindex('m :') + 1}: duplicate endpoint m" in err


@pytest.mark.parametrize("cmd,decl,at", [
    # m in two boxes once ended sim in a TypeError traceback
    ("sim", "sim (x[w].(m<->w | x[w2].(w2<->m | wait y; wait z; close x))) "
     "|- x : a *{y} (~a *{z} 1{y,z}), y : bot{x} [to=x msg m : ~a], z : bot{x} [to=x msg m : a] "
     "parts (x(u). x(u2). wait x; ex[v].(u<->v | ex[v2].(v2<->u2 | close ex))) "
     "|- ex : a * (~a * 1), x : ~a | (a | bot) @ x pending (m <- m<->k |- m : a, k : ~a);",
     "msg m : a"),
    # check once printed ok
    ("check", "check close x |- x : 1{y}, y : bot{x} [to=x msg y : ~a];", "msg y"),
])
def test_a_name_bound_twice_in_one_context_is_a_located_parse_error(cmd, decl, at, tmp_path,
                                                                     capsys):
    path = tmp_path / "dup.fwd"
    path.write_text(decl + "\n", encoding="utf-8")
    assert cli.main([cmd, str(path)]) == 2
    out, err = capsys.readouterr()
    name = at.split()[1]
    assert "Traceback" not in out + err and out == ""
    assert f"{path}:1:{decl.index(at) + 5}: duplicate endpoint {name}" in err


@pytest.mark.parametrize("cmd,decl,name", [
    ("check", "check close x |- x : 1{zz};", "zz"),
    ("cut", "cut (close x) |- u1 : . [to=x *], x : 1{u1,zz} "
     "with (wait y; close v) |- v : 1{y}, y : bot{v};", "zz"),
    ("sim", "sim (wait x; close y) |- x : bot{q}, y : 1{x} "
     "parts (close x) |- x : 1 @ x, (wait y; close e) |- y : bot, e : 1 @ y;", "q"),
])
def test_an_unknown_target_is_a_located_parse_error(cmd, decl, name, tmp_path, capsys):
    # it once reached the checkers, which printed FAIL with exit code 1
    path = tmp_path / "target.fwd"
    path.write_text(decl + "\n", encoding="utf-8")
    assert cli.main([cmd, str(path)]) == 2
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err and "FAIL" not in out
    assert (f"{path}:1:{decl.index(name + '}') + 1}: target {name} names no endpoint, "
            "payload or name of the term") in err


def test_compat_json_records_carry_the_checker_counters(tmp_path, capsys):
    path = tmp_path / "c.fwd"
    path.write_text("compat x : 1, y : bot;\ncompat x : 1, y : 1;\n", encoding="utf-8")
    assert cli.main(["--json", "compat", str(path)]) == 1
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["ok"] for r in recs] == [True, False]
    for r in recs:
        assert set(r["stats"]) == {"configs", "memo_hits", "resolutions"}
        assert r["stats"]["configs"] > 0
    assert cli.main(["compat", str(path)]) == 1
    assert "configs" not in capsys.readouterr().out


@pytest.mark.parametrize("cmd,decl", [
    ("compat", "compat x : " + "(" * 3000 + "1" + ")" * 3000 + ", y : bot;"),
    ("check", "check " + "wait x; " * 3000 + "close y |- y : 1{x}, x : bot{y};"),
], ids=["compat-type", "check-process"])
def test_deep_input_is_a_located_parse_error(cmd, decl, tmp_path, capsys):
    path = tmp_path / "deep.fwd"
    path.write_text(decl + "\n", encoding="utf-8")
    assert cli.main([cmd, str(path)]) == 2
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert re.match(rf"{re.escape(str(path))}:1:\d+: input nests too deeply\n", err), err


@pytest.mark.parametrize("cmd,decl,want", [
    ("check", "check x<->y |- x : a, y : a;", "Ax needs x:~a and y:a, got a and a"),
    ("check", "checkcll res a b : a | b (e<->a | b<->f) |- e : bot, f : 1;",
     "link e<->a needs dual types, got bot / a | b"),
    ("cut", "cut (w<->x) |- w : ~a, x : a with (wait y; close v) |- v : 1{y}, y : bot{v};",
     "cut formulas are not dual: a vs bot"),
    ("check", "check x.inl. close x |- x : 1{y} +{y} 1{y}, y : .;",
     "head of y's queue must be [to=x L], got nothing"),
    ("check", "check x[w].(w<->v | close x) |- x : a *{y} 1{y}, y : . [to=x *];",
     "head of y's queue must be a message for x, got [to=x *]"),
    ("check", "check close x |- x : 1{zz}, y : . [to=x *], zz : .;",
     "1 at x must gather every other endpoint, got {zz}"),
])
def test_rule_failures_print_types_in_surface_syntax(cmd, decl, want, tmp_path, capsys):
    path = tmp_path / "bad.fwd"
    path.write_text(decl + "\n", encoding="utf-8")
    assert cli.main(["--json", cmd, str(path)]) == 1
    (rec,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert rec["error"] == want


def test_sim_json_records_carry_the_run_counters(capsys):
    assert cli.main(["--json", "sim", str(CORPUS / "compose.fwd")]) == 0
    (rec,) = map(json.loads, capsys.readouterr().out.splitlines())
    # the two parts as given and the result of the Par step's transport; the
    # message the Tensor step parks and the continuation the transport
    # composes carry their renamed premises
    assert rec["stats"] == {"steps": len(rec["trace"]), "forwarder_checks": 1, "part_checks": 3}
    assert cli.main(["--json", "sim", "--step", str(CORPUS / "compose.fwd")]) == 0
    (rec,) = map(json.loads, capsys.readouterr().out.splitlines())
    # the two parts as given; the part the step left carries its premise
    assert rec["stats"] == {"steps": 1, "forwarder_checks": 1, "part_checks": 2}
    # the two parts as given; the Contract step's rewritten client, the
    # composition that served the first use and the server's copy.  The
    # renamed premises of the four Quest and Bang steps carry their renamed
    # derivations
    assert cli.main(["--json", "sim", str(CORPUS / "contract.fwd")]) == 0
    (rec,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert rec["stats"] == {"steps": len(rec["trace"]), "forwarder_checks": 2, "part_checks": 5}
    assert cli.main(["sim", str(CORPUS / "compose.fwd")]) == 0
    assert "checks" not in capsys.readouterr().out


def test_deep_declaration_is_named_when_handling_overflows(tmp_path, capsys):
    # shallow enough to parse, too deep for the recursive checker and printer
    xs = [f"x{i}" for i in range(sys.getrecursionlimit() * 3 // 5)]
    path = tmp_path / "wide.fwd"
    path.write_text(
        "check close z |- z : 1{x0}, x0 : . [to=z *];\n"
        "check " + "".join(f"wait {x}; " for x in xs) + "close z |- "
        f"z : 1{{{','.join(xs)}}}, " + ", ".join(f"{x} : bot{{z}}" for x in xs) + ";\n",
        encoding="utf-8")
    assert cli.main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("ok check close z")
    assert err == f"{path}:2: check declaration nests too deeply to handle\n"


def test_fmt_prints_a_deep_prefix_chain_back(tmp_path, capsys):
    # parsing takes one Python frame a "!", and so does printing
    decl = "type T = " + "! " * (sys.getrecursionlimit() * 3 // 5) + "a;\n"
    path = tmp_path / "bangs.fwd"
    path.write_text(decl, encoding="utf-8")
    assert cli.main(["fmt", str(path)]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (decl, "")


def test_fmt_names_a_declaration_too_deep_to_print(tmp_path, capsys):
    # each definition parses on its own; the second holds the first, so it
    # is too deep to print
    bangs = "! " * (sys.getrecursionlimit() * 3 // 5)
    path = tmp_path / "bangs.fwd"
    path.write_text(f"type T = {bangs}a;\ntype U = {bangs}T;\n", encoding="utf-8")
    assert cli.main(["fmt", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == f"type T = {bangs}a;\n"
    assert err == f"{path}:2: fmt declaration nests too deeply to handle\n"


def test_sim_step_walks_compose_to_final(tmp_path, capsys):
    # feed each printed state back in: every state parses and steps, and the
    # walk ends in the composition's last action
    state = (CORPUS / "compose.fwd").read_text(encoding="utf-8")
    path = tmp_path / "state.fwd"
    for _ in range(20):
        path.write_text(state, encoding="utf-8")
        assert cli.main(["sim", "--step", str(path)]) == 0
        head, _, state = capsys.readouterr().out.partition("\n")
        if ": final " in head:
            break
    assert head == "Bot: final close ex"


def test_negative_compat_names_the_forwarder_rules_of_its_stuck_path(tmp_path, capsys):
    path = tmp_path / "neg.fwd"
    path.write_text("compat x : a * a * 1, y : ~a | bot;\n", encoding="utf-8")
    stuck_at = "x : . [to=y msg m1 : ~a] [to=y *], y : 1{x}"
    assert cli.main(["compat", str(path)]) == 1
    assert capsys.readouterr().out == (
        "FAIL compat x : a * a * 1, y : ~a | bot\n"
        f"  stuck after Par, Par, Bot, Tensor\n  at {stuck_at}\n")
    assert cli.main(["--json", "compat", str(path)]) == 1
    (rec,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert rec["stuck_labels"] == ["Par", "Par", "Bot", "Tensor"]
    assert rec["stuck_at"] == stuck_at
    assert rec["stats"] == {"configs": 7, "memo_hits": 1, "resolutions": 0}


@pytest.mark.parametrize("decl,out", [
    # the given bot{y} stays: y can never take x's star
    ("synth x : bot{y}, y : bot, z : 1;", "FAIL synth x : bot{y}, y : bot, z : 1\n"),
    # the queued star stays, and x's 1 cannot gather it after the send
    ("synth x : a * 1, y : ~a | bot [to=x *];",
     "FAIL synth x : a * 1, y : ~a | bot [to=x *]\n"),
    # a terminated entry is kept, not erased
    ("synth x : 1, y : . [to=x *];",
     "ok synth x : 1, y : . [to=x *]\n  close x\n  at x : 1{y}, y : . [to=x *]\n"),
], ids=["given-target", "queue", "terminated"])
def test_synth_keeps_what_a_partly_annotated_context_gives(decl, out, tmp_path, capsys):
    path = tmp_path / "synth.fwd"
    path.write_text(decl + "\n", encoding="utf-8")
    assert cli.main(["synth", str(path)]) == (0 if out.startswith("ok") else 1)
    assert capsys.readouterr().out == out


def test_a_cp_cut_states_its_formula(tmp_path, capsys):
    cut = "res a b : 1 (wait e; close a | wait b; close f)"
    path = tmp_path / "cut.fwd"
    path.write_text(f"checkcll {cut} |- e : bot, f : 1;\n", encoding="utf-8")
    assert cli.main(["fmt", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == f"checkcll ({cut}) |- e : bot, f : 1;\n"
    assert P.parse_file(out).decls == P.parse_file(path.read_text(encoding="utf-8")).decls
    assert cli.main(["check", str(path)]) == 0
    assert capsys.readouterr().out == (
        f"ok checkcll {cut}\n  Cut\n    Bot\n      One\n    Bot\n      One\n")
    # the formula is not optional: the old form is a located parse error
    path.write_text("checkcll res a b (wait e; close a | wait b; close f) |- e : bot, f : 1;\n",
                    encoding="utf-8")
    assert cli.main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert err.startswith(f"{path}:1:18: got '(' (expected one of: :)\n")


@pytest.mark.parametrize("kind,at", [("type", "T14"), ("proc", "P13")])
def test_fmt_refuses_a_definition_that_expands_beyond_the_bound(tmp_path, capsys, kind, at):
    # the 16-level type chain is 336 bytes, and would print 655,482
    path = tmp_path / "chain.fwd"
    path.write_text(doubling_chain(kind, 16), encoding="utf-8")
    assert cli.main(["fmt", str(path)]) == 2
    out, err = capsys.readouterr()
    line = int(at[1:]) + 1
    assert out == ""
    assert err.splitlines()[0] == (f"{path}:{line}:6: {kind} {at} expands to 16383 "
                                   f"connectives and constructors (at most 10000)")


@pytest.mark.parametrize("kind", ["type", "proc"])
def test_fmt_prints_a_ten_level_chain(tmp_path, capsys, kind):
    path = tmp_path / "chain.fwd"
    path.write_text(doubling_chain(kind, 10), encoding="utf-8")
    assert cli.main(["fmt", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert P.parse_file(out) == P.parse_file(path.read_text(encoding="utf-8"))
    assert out.splitlines()[-1].count("*" if kind == "type" else "[w]") == 1023


def test_a_byte_that_is_not_utf8_is_a_located_input_error(tmp_path, capsys):
    # the column counts characters, "é" one; "\r\n" ends a line as "\n" does
    path = tmp_path / "bad.fwd"
    path.write_bytes(b"synth x : 1;\r\nsynth \xc3\xa9y : \xff;\n")
    assert cli.main(["fmt", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0] == f"{path}:2:12: not UTF-8 text"


# Tokens a mutation may insert, besides the file's own.
_INSERTS = ("(", ")", "{", "}", "[", "]", ";", ",", ":", ".", "|", "*", "&", "+", "!", "?", "~",
            "1", "bot", "res", "to", "msg", "with", "parts", "pending", "x", "<->", "<-", "|-", "@")


def _mutant(rng: random.Random, text: str) -> str:
    """``text`` with one token deleted, duplicated, swapped with another of
    its kind (name or operator) or inserted, the tokens joined by blanks."""
    toks = [t.text for t in P.tokenize(text)[:-1]]
    i = rng.randrange(len(toks))
    op = rng.choice(("delete", "duplicate", "swap", "insert"))
    if op == "delete":
        del toks[i]
    elif op == "duplicate":
        toks.insert(i, toks[i])
    elif op == "swap":
        j = rng.choice([j for j, t in enumerate(toks) if t[0].isalpha() == toks[i][0].isalpha()])
        toks[i], toks[j] = toks[j], toks[i]
    else:
        toks.insert(i, rng.choice(_INSERTS + tuple(toks)))
    return " ".join(toks)


def test_mutated_corpus_files_end_with_an_exit_code_and_no_exception(tmp_path):
    # 100 seeds, three mutants each, every subcommand: 1,800 runs in process
    texts = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.fwd"))]
    path, codes = tmp_path / "mutant.fwd", set()
    for seed in range(100):
        rng = random.Random(seed)
        for _ in range(3):
            path.write_text(_mutant(rng, rng.choice(texts)), encoding="utf-8")
            for cmd in KINDS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main([cmd, str(path)])
                assert code in (0, 1, 2), (seed, cmd, path.read_text(encoding="utf-8"))
                codes.add(code)
    assert codes == {0, 1, 2}  # mutants reach every verdict, not only parse errors
