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
