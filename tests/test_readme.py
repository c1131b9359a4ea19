"""The README's Python example runs as written, and its CLI commands parse."""

import re
import shlex
from pathlib import Path

from lunarforge.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], f"{README}:library", "exec"), namespace)
    view_a, view_b = namespace["view_a"], namespace["view_b"]
    assert view_a.image.shape == view_b.image.shape == (128, 128)
    assert len(namespace["matches"]) > 8


def test_readme_cli_commands_parse():
    # Parsing checks every flag's value, so README cannot show a flag or a
    # value the CLI rejects.  Nothing is run.
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.DOTALL)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("lunarforge ")
    ]
    parsed = [build_parser().parse_args(argv).command for argv in commands]
    assert set(parsed) == {"generate", "evaluate", "render-pair", "synth-dem", "visualize"}
