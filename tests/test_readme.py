"""README's ``python`` code blocks run, in order, in one namespace, as a
reader pasting them into one session would run them."""

import re
from pathlib import Path

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
