import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import gradedcenter

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src" / "gradedcenter"


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


def test_every_import_is_read():
    # a name a module imports is read there, exported in its __all__, or
    # rebound there by the benchmark's tracer; anything else is dead
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    rebound = {(module, name) for module, name, _span, _count in tracing.BOUNDARIES}
    dead = []
    for path in sorted((ROOT / "src" / "gradedcenter").glob("*.py")):
        module = "gradedcenter" + ("" if path.stem == "__init__" else "." + path.stem)
        tree = ast.parse(path.read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = set(getattr(importlib.import_module(module), "__all__", ()))
        dead += [(module, name) for name in imported
                 if name not in read and name not in exported and (module, name) not in rebound]
    assert dead == []


def test_every_local_is_read():
    # a name a function or method of src/ stores is loaded there or in a
    # function nested in it; parameters, global and nonlocal names and
    # _-prefixed names are exempt, and anything else is dead
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    functions, dead = 0, []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, scopes):
                continue
            functions += 1
            args = fn.args
            exempt = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None}
            stored, stack = set(), list(ast.iter_child_nodes(fn))
            while stack:
                # the function's own body: a nested function is a scope of its own
                node = stack.pop()
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    stored.add(node.id)
                elif isinstance(node, ast.ExceptHandler) and node.name:
                    stored.add(node.name)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    stored.add(node.name)
                elif isinstance(node, (ast.Global, ast.Nonlocal)):
                    exempt.update(node.names)
                if not isinstance(node, scopes):
                    stack.extend(ast.iter_child_nodes(node))
            loaded = {node.id for node in ast.walk(fn)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            dead += [(path.stem, getattr(fn, "name", "<lambda>"), name)
                     for name in sorted(stored - loaded - exempt) if not name.startswith("_")]
    assert functions > 100
    assert dead == []


def test_every_definition_is_read():
    # each function and class that src/ defines at module level, and each
    # non-dunder method of such a class, is loaded by name or attribute
    # somewhere in src/, exported in gradedcenter.__all__, or rebound by
    # the benchmark's tracer; anything else is read only by tests, which
    # keep their own code in tests/, or by nothing.  argparse calls
    # cli._Parser.error.  Names are matched, not bindings, so a member
    # whose name src/ loads in another role passes unseen: SolveReport.rows
    # while acceptance.py has a local rows, and a Morphism.is_zero would
    # pass for CenterElement.is_zero's callers
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    kept = {name for _module, name, _span, _count in tracing.BOUNDARIES} | set(gradedcenter.__all__)
    exempt = {("cli", "_Parser.error")}
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(path.stem, f"{node.name}.{item.name}", item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert len(defined) > 100
    unread = [(module, qualname) for module, qualname, name in defined
              if name not in read and qualname not in kept and (module, qualname) not in exempt]
    assert unread == []


def test_every_private_name_is_read():
    # a private name defined at module level, or a private method of a
    # module-level class, is read somewhere in src/; anything else is dead
    defined, read = [], set()
    for path in sorted((ROOT / "src" / "gradedcenter").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                if isinstance(node, ast.ClassDef):
                    names += [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(path.stem, name) for name in names
                        if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert len(defined) > 50
    assert [(module, name) for module, name in defined if name not in read] == []


def test_no_module_imports_a_private_name():
    # a _-prefixed name belongs to the module that defines it: no module
    # of src/gradedcenter/ imports one from another
    found = []
    for path in sorted((ROOT / "src" / "gradedcenter").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                found += [(path.stem, alias.name) for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert found == []


def test_hom_has_one_statement():
    # Hom(v, Sigma^p v) is stated once: only hom.py calls model.hom_gaps,
    # to build the per-degree frame, and only model.py, where it is
    # defined, calls arrow_of_degree
    calls = {"hom_gaps": set(), "arrow_of_degree": set()}
    for path in sorted((ROOT / "src" / "gradedcenter").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in calls:
                    calls[name].add(path.name)
    assert calls == {"hom_gaps": {"hom.py"}, "arrow_of_degree": {"model.py"}}


def test_the_sign_laws_are_written_once():
    # the pair of sign laws is center.VARIANTS, which every variant check,
    # loop over both laws and CLI choice reads
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                values = [getattr(elt, "value", None) for elt in node.elts]
                if sorted(map(str, values)) == ["commutative", "graded"]:
                    found.append((path.stem, node.lineno))
    assert len(found) == 1 and found[0][0] == "center", found


def test_a_line_span_is_written_once():
    # the a of a line in a box is stated once, in center._span: no other
    # function of center.py takes a gap from a negated bound (-W - t, -W -
    # min(t, 0)), a min or max of a gap and 0 from a bound (W - max(t,
    # 0)), or |t| (2W + 1 - |t|, a line's length).  A block's
    # one-component count is stated once, in center._held; the forest's
    # unite counts a range's roots too, to size the component it hangs
    tree = ast.parse((SRC / "center.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    functions += [item for node in tree.body if isinstance(node, ast.ClassDef)
                  for item in node.body if isinstance(item, ast.FunctionDef)]
    span, count = set(), set()
    for function in functions:
        for node in ast.walk(function):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                left, right = node.left, node.right
                negated = isinstance(left, ast.UnaryOp) and isinstance(left.op, ast.USub)
                if negated and isinstance(left.operand, ast.Name):
                    span.add(function.name)
                if isinstance(right, ast.Call) and getattr(right.func, "id", None) in ("min", "max") and any(
                        isinstance(arg, ast.Constant) and arg.value == 0 for arg in right.args):
                    span.add(function.name)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "abs":
                span.add(function.name)
            elif isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.Call) and getattr(side.func, "attr", None) == "count"
                    for side in (node.left, *node.comparators)):
                count.add(function.name)
    assert span == {"_span"}
    assert count == {"_held", "unite"}


def test_only_law_sign_compares_a_law():
    # the sign law is stated once, in center.law_sign: no other
    # comparison in src/ names the graded or the commutative law
    laws = {"graded", "commutative"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "law_sign" and path.stem == "center":
                inside.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and id(node) not in inside:
                named = [getattr(side, "value", None) for side in (node.left, *node.comparators)]
                if laws.intersection(v for v in named if isinstance(v, str)):
                    found.append((path.stem, node.lineno))
    assert found == []


def test_cache_inventory():
    # every cache in src/, by module, function and the parameters that
    # make its key, and every attribute worked out on its first read and
    # then kept, by module, class and name; adding, splitting or dropping
    # one is an edit of these sets, made with its reason
    caches, lazy, uses, lazy_uses = set(), set(), 0, 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = [node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)]
        uses += sum(name in ("lru_cache", "cache") for name in names)
        lazy_uses += names.count("cached_property")
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    func = dec.func if isinstance(dec, ast.Call) else dec
                    if getattr(func, "id", getattr(func, "attr", None)) in ("lru_cache", "cache"):
                        caches.add((path.stem, node.name, tuple(arg.arg for arg in node.args.args)))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and any(
                            getattr(dec, "id", getattr(dec, "attr", None)) == "cached_property"
                            for dec in item.decorator_list):
                        lazy.add((path.stem, node.name, item.name))
    assert caches == {
        ("model", "_tables", ("r", "n", "m")),
        ("hom", "frame", ("omega", "p")),
        ("center", "_plan_pieces", ("omega", "p", "f", "i")),
        ("center", "_build_system", ("omega", "W", "inner", "p")),
    }
    assert lazy == {
        ("center", "SolveReport", "basis"),
        ("center", "SolveReport", "visibility"),
    }
    # no cache is made other than by decorating a function, and no lazy
    # attribute other than by decorating a method
    assert uses == len(caches) and lazy_uses == len(lazy)


def test_the_library_runs_without_numpy(tmp_path):
    # the library itself is pure integer Python (README, Install): only
    # the acceptance suite imports numpy.  Every other module is imported,
    # and each command but check runs, in a fresh process
    code = """
import importlib, io, pkgutil, sys
from contextlib import redirect_stdout
import gradedcenter
from gradedcenter import cli
for module in pkgutil.iter_modules(gradedcenter.__path__):
    if module.name != "acceptance":
        importlib.import_module("gradedcenter." + module.name)
params = ["--r", "1", "--n", "2", "--m", "0"]
with redirect_stdout(io.StringIO()) as out:
    assert cli.main(["lambda", *params]) == 0
    open("lambda.txt", "w").write(out.getvalue())
    for argv in (["center", *params, "--p", "2"], ["hom", *params, "--family", "Y", "--i", "0",
                 "--a", "0", "--b", "2", "--p", "1"], ["ring", *params], ["validate", "lambda.txt"]):
        assert cli.main(argv) == 0, argv
assert "numpy" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=tmp_path)
