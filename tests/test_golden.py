"""Every corpus file through every subcommand, compared with recorded output.

``corpus_golden.json`` holds, for each corpus file, subcommand and output
mode, the exit code, stdout and stderr of ``fwdcal.cli.main``, with the
corpus directory stripped from the text.  Record it again with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from fwdcal import cli

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
GOLDEN = HERE / "corpus_golden.json"

COMMANDS = (["fmt"], ["check"], ["synth"], ["compat"], ["cut"], ["cut", "--all-gammas"],
            ["sim"], ["sim", "--step"])


def _run(path: Path, mode: list[str], cmd: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(mode + cmd[:1] + [str(path)] + cmd[1:])
    strip = str(CORPUS) + "/"
    return {"code": code, "stdout": out.getvalue().replace(strip, ""),
            "stderr": err.getvalue().replace(strip, "")}


def outputs() -> dict:
    return {f"{path.name} {' '.join(mode + cmd)}": _run(path, mode, cmd)
            for path in sorted(CORPUS.glob("*.fwd"))
            for cmd in COMMANDS for mode in ([], ["--json"])}


def test_corpus_outputs_match_the_recorded_ones():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = outputs()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
