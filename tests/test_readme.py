import argparse
import re
import shlex
from pathlib import Path

import qbcommit.cli as cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_library_tour_runs():
    # Running the tour's python block keeps its imports and calls in step
    # with the package.
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md:library-tour", "exec"), {})


def test_readme_command_lines_run(tmp_path, capsys):
    # Each `qbcommit ...` line of the Command line block exits 0, with its
    # file arguments read from the repository and its --output sent to tmp_path.
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line") :]
    block = re.search(r"```\n(.*?)```", section, re.S)
    assert block is not None
    lines = [line for line in block.group(1).splitlines() if line.startswith("qbcommit ")]
    assert lines
    for line in lines:
        argv = shlex.split(line)[1:]
        for i, arg in enumerate(argv):
            if i and argv[i - 1] == "--output":
                argv[i] = str(tmp_path / arg)
            elif arg.endswith(".json"):
                argv[i] = str(ROOT / arg)
        assert cli.main(argv) == 0, line
    capsys.readouterr()


def test_readme_flags_are_cli_options():
    # Every --flag the README names from its Command line section onward is
    # an option of some subcommand, so a removed option cannot linger there.
    text = README.read_text(encoding="utf-8")
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text[text.index("## Command line") :]))
    assert flags
    (subcommands,) = [
        action.choices
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {flag for sub in subcommands.values() for flag in sub._option_string_actions}
    assert sorted(flags - options) == []
