"""Every ``flrwave`` command line of the README runs and exits 0."""

import json
import re
import shlex
from pathlib import Path

import pytest

from flrwave.cli import LEAVES, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)
COMMANDS = [
    shlex.split(line, comments=True)
    for _, block in BLOCKS for line in block.splitlines() if line.startswith("flrwave ")
]
# the run.json that the README's ``pde run --config run.json`` line reads
RUN_JSON = next(json.loads(block) for language, block in BLOCKS if language == "json")


def test_readme_shows_every_command():
    shown = {argv[1] for argv in COMMANDS} | {" ".join(argv[1:3]) for argv in COMMANDS}
    assert {leaf.name for leaf in LEAVES} <= shown


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_0(tmp_path, monkeypatch, capsys, argv):
    (tmp_path / "run.json").write_text(json.dumps(RUN_JSON), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main([*argv[1:], "--out", str(tmp_path / "out")]) == 0, capsys.readouterr().err
