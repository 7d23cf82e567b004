"""The README's library example and CLI examples run exactly as written."""

import re
import shlex
from pathlib import Path

from hoisearch.cli import main as cli_main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_library_example_runs(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.split() == ["2", "True", "True"]


def test_readme_cli_examples_run(tmp_path, capsys):
    commands = [
        shlex.split(line)[1:]
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("hoisearch ")
    ]
    assert len(commands) == 4
    for argv in commands:
        if "--out" in argv:  # write into the test's directory, not the checkout
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        assert cli_main(argv) == 0, argv
    capsys.readouterr()
