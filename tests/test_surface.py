import importlib.util
import re
from pathlib import Path

import gradedcenter

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_public_names_resolve_and_readme_example_runs():
    missing = [name for name in gradedcenter.__all__ if not hasattr(gradedcenter, name)]
    assert missing == []
    match = re.search(r"## Library use\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert match is not None
    exec(compile(match.group(1), str(README), "exec"), {})


def test_benchmark_tracer_names_resolve():
    # The benchmark's tracer rebinds these names in the library's modules;
    # a name that went missing would fail only the benchmark's own tests.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, name) for module, name, _span, _count in tracing.BOUNDARIES
             if module.startswith("gradedcenter.")]
    assert names
    missing = [(module, name) for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
