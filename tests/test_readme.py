"""README's ``python`` code blocks run, in order, in one namespace, as a
reader pasting them into one session would run them, and its command
lines parse."""

import re
from pathlib import Path

from blocksvd import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 4
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the block-diagonalization example splits 200 x 80 at k = 20, a
    # trailing block of 60 columns, and reports every Lemma 11 check passed
    assert namespace["check_lemma11"](namespace["res"].trace).all_passed


def test_readme_command_lines_parse():
    # every `blocksvd ...` line of the "Command line" block, its comment
    # dropped, is accepted by the CLI's own parser
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    lines = [ln.split("#", 1)[0].split() for ln in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["blocksvd"]]
    assert len(commands) >= 5
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"README command does not parse: blocksvd {' '.join(argv)}")
