"""The README's Python example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], f"{README}:library", "exec"), namespace)
    view_a, view_b = namespace["view_a"], namespace["view_b"]
    assert view_a.image.shape == view_b.image.shape == (128, 128)
    assert len(namespace["matches"]) > 8
