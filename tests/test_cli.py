"""The command-line front end over the corpus, in process."""

import json
import re
import sys
from pathlib import Path

import pytest

from fwdcal import cli
from fwdcal import parsing as P

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


def test_sim_json_records_carry_the_run_counters(capsys):
    assert cli.main(["--json", "sim", str(CORPUS / "compose.fwd")]) == 0
    (rec,) = map(json.loads, capsys.readouterr().out.splitlines())
    # the two parts as given, the message the Tensor step parks, and the
    # continuation and the result of the Par step's transport
    assert rec["stats"] == {"steps": len(rec["trace"]), "forwarder_checks": 1, "part_checks": 5}
    assert cli.main(["--json", "sim", "--step", str(CORPUS / "compose.fwd")]) == 0
    (rec,) = map(json.loads, capsys.readouterr().out.splitlines())
    # the two parts as given; the part the step left carries its premise
    assert rec["stats"] == {"steps": 1, "forwarder_checks": 1, "part_checks": 2}
    # the two parts as given; the Contract step's rewritten client, the
    # composition that served the first use and the server's copy; and the
    # renamed premise of each of the four Quest and Bang steps
    assert cli.main(["--json", "sim", str(CORPUS / "contract.fwd")]) == 0
    (rec,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert rec["stats"] == {"steps": len(rec["trace"]), "forwarder_checks": 2, "part_checks": 9}
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
    assert rec["stats"] == {"configs": 7, "memo_hits": 5, "resolutions": 0}


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
