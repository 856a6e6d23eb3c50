"""The command-line front end over the corpus, in process."""

import json
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
