"""README's ``ctr`` example block runs as written, in an empty directory."""

import json
import shlex
from pathlib import Path

from ctrules.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The ``ctr`` lines of README's first sh block that runs ``ctr``, with
    backslash continuations joined and comments dropped, as argv lists."""
    text = README.read_text(encoding="utf-8")
    blocks = text.split("```sh\n")[1:]
    block = next(b.split("```", 1)[0] for b in blocks if "\nctr " in "\n" + b)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("ctr ")]


def test_readme_ctr_example_block_runs_verbatim(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["gen", "solve", "check", "bounds", "gen", "sweep", "oracle-verify"]
    for argv in commands:
        capsys.readouterr()
        code = main(argv)
        if argv[0] == "check":
            # the demo's Nash outcome may legitimately violate an axiom (core)
            reports = json.loads(capsys.readouterr().out)
            assert code == (0 if all(r["holds"] for r in reports) else 2), argv
        else:
            assert code == 0, (argv, capsys.readouterr().err)
