"""README's python code blocks run as written, in order, as one session, and
its console examples print what it shows."""

import re
import shlex
from pathlib import Path

from multiport.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)


def _console_examples():
    """Each ``$ multiport ...`` line of README's text blocks, with the lines shown under it."""
    examples = []
    for block in re.findall(r"```text\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for example in re.split(r"\n\n(?=\$ )", block.strip("\n")):
            if example.startswith("$ multiport "):
                command, *shown = example.split("\n")
                examples.append((command[2:], shown))
    return examples


def _matches(out, shown):
    """Whether ``out`` is ``shown``, where a line ``...`` stands for any run of lines."""
    if "..." not in (line.strip() for line in shown):
        return out == shown
    cut = [line.strip() for line in shown].index("...")
    head, tail = shown[:cut], shown[cut + 1 :]
    return len(out) >= len(head) + len(tail) and out[: len(head)] == head and out[len(out) - len(tail) :] == tail


def test_readme_console_examples_print_what_readme_shows(tmp_path, monkeypatch, capsys):
    examples = _console_examples()
    assert [shlex.split(command)[1] for command, _ in examples] == ["predict", "prepare", "simulate", "contexts"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPORT_JSON", raising=False)
    for command, shown in examples:
        command, _, head = command.partition(" | head -")  # the one pipe README shows
        assert main(shlex.split(command)[1:]) == 0, command
        out = capsys.readouterr().out.splitlines()[: int(head) if head else None]
        assert _matches(out, shown), f"{command}\n" + "\n".join(out)
