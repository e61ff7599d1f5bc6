"""The README's examples run as written: the Python quick start, and each
`homposet zhom` line under Subcommands prints the answer in its comment."""
import re
from pathlib import Path

from homposet.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_python_quick_start_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(block, {})
    assert capsys.readouterr().out.splitlines()[-1] == "n:12"


def zhom_examples():
    """(argv, answer) for each zhom line of the Subcommands block; the
    answer ends its comment, after any ": "."""
    block = README.split("Subcommands:", 1)[1].split("```")[1]
    for line in block.splitlines():
        if line.startswith("homposet zhom "):
            command, comment = line.split("#", 1)
            yield command.split()[1:], comment.strip().rsplit(": ", 1)[-1]


def test_zhom_examples_print_their_answers(capsys):
    examples = list(zhom_examples())
    assert [answer for _, answer in examples] == [
        "true", "0:coP=5", "n:4", "{2:2, 3:1, 0slot:0}",
    ]
    for argv, answer in examples:
        assert main(argv) == 0
        assert capsys.readouterr().out == answer + "\n", argv
