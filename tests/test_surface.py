import re
from pathlib import Path

import gradedcenter

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_names_resolve_and_readme_example_runs():
    missing = [name for name in gradedcenter.__all__ if not hasattr(gradedcenter, name)]
    assert missing == []
    match = re.search(r"## Library use\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert match is not None
    exec(compile(match.group(1), str(README), "exec"), {})
