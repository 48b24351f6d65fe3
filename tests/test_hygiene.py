"""Source-level rules for the library.

`assert` statements vanish under `python -O`, so a self-check that protects a
result must raise an exception or live in a test.  The benchmark's tracer
finds the functions it wraps by name, so a rename must fail here first.  A
module imports only names it uses, every top-level definition and every
method is used somewhere, and every parameter is read, so a refactor cannot
leave one behind.  The modules
form layers, each importing only the ones below it.  Every string key of a
graph's cache is named where the cache is declared."""

import ast
import importlib.util
import inspect
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import toppling

SRC = Path(toppling.__file__).parent


def test_no_assert_in_library():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_no_unused_parameters():
    # the receiver of a method is fixed by the language, and the CLI's
    # _cmd_* handlers share the dispatch signature (g, args)
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)) or \
                    getattr(fn, "name", "").startswith("_cmd_"):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            if id(fn) in methods:
                params = params[1:]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)}
            unused += [f"{path.name}:{fn.lineno} {getattr(fn, 'name', 'lambda')}({p})"
                       for p in params if p not in read]
    assert unused == []


def test_tracer_names_resolve():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [(mod, name) for mod, names in tracing.SPANS.items() for name in names]
    wrapped += [(mod, name) for mod, name, _, _ in tracing.COUNTERS.values()]
    missing = [f"{mod}.{name}" for mod, name in wrapped if not inspect.isfunction(
        getattr(importlib.import_module(f"toppling.{mod}"), name, None))]
    assert missing == []
    unders = {under for _, _, under, _ in tracing.COUNTERS.values()} - {None}
    assert unders <= set(tracing.NAME_ID)


def test_readme_api_names_resolve():
    # every backticked name in README's paragraph on the public API for the
    # paper's definitions is a function of its module; a bare name takes the
    # module of the last dotted name before it
    readme = (SRC.parent.parent / "README.md").read_text()
    start = readme.index("Public API for the paper's definitions")
    paragraph = readme[start:readme.index("\n\n", start)]
    names = re.findall(r"`([\w.]+)`", paragraph)
    assert names and "." in names[0]
    missing, module = [], None
    for name in names:
        if "." in name:
            module, name = name.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(f"toppling.{module}"), name, None)):
            missing.append(f"{module}.{name}")
    assert missing == []


TRACED_ROUND = """
import importlib.util, json, sys
src, bench, graph_file = sys.argv[1:]
sys.path[:0] = [src, bench]
spec = importlib.util.spec_from_file_location("bench_round", bench + "/round.py")
bench_round = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_round)
import toppling, toppling.cli, tracing
tracer = tracing.Tracer()
tracer.install([toppling] + [getattr(toppling, m) for m in bench_round.MODULES])
cycle5 = toppling.build_graph(5, [(i, (i + 1) % 5) for i in range(5)], 0)
k4 = toppling.build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)], 0)
toppling.betti_table(cycle5)
toppling.format_resolution(toppling.build_resolution(k4))
code = toppling.cli.main(["verify", "--graph", graph_file])
print(json.dumps([code, sorted(tracer.layer_metrics())]))
"""


def test_traced_round_emits_every_metric(tmp_path):
    # bench/run.py keeps a per-layer metric only if every traced round has
    # it, so a round of betti_table, the resolution text and verify, traced
    # as bench/round.py traces one, must yield every metric BENCHMARK.json
    # names
    root = SRC.parent.parent
    graph_file = tmp_path / "c4.txt"
    graph_file.write_text("v 4\nq 1\ne 1 2\ne 1 3\ne 2 4\ne 3 4\n")
    run = subprocess.run([sys.executable, "-c", TRACED_ROUND, str(SRC.parent),
                          str(root / "bench"), str(graph_file)],
                         capture_output=True, text=True, check=True, timeout=120)
    code, names = json.loads(run.stdout.splitlines()[-1])
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    assert code == 0
    assert sorted({m["name"] for m in declared} - set(names)) == []


def _is_cache(node):
    return isinstance(node, ast.Attribute) and node.attr == "_cache"


def test_cache_keys_documented():
    # the string constants in each key src subscripts, tests for membership
    # or passes to a method of a graph's `_cache`; a key held in a local
    # name is read from that name's assignment
    used = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            bound = {target.id: node.value for node in ast.walk(fn)
                     if isinstance(node, ast.Assign)
                     for target in node.targets if isinstance(target, ast.Name)}
            for node in ast.walk(fn):
                if isinstance(node, ast.Subscript) and _is_cache(node.value):
                    key = node.slice
                elif isinstance(node, ast.Compare) and _is_cache(node.comparators[-1]):
                    key = node.left
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                        and _is_cache(node.func.value) and node.args:
                    key = node.args[0]
                else:
                    continue
                if isinstance(key, ast.Name):
                    key = bound.get(key.id, key)
                used.update(sub.value for sub in ast.walk(key)
                            if isinstance(sub, ast.Constant) and isinstance(sub.value, str))
    assert {"pairs", "bfs", "splits", "moves"} <= used
    lines = (SRC / "graphs.py").read_text().splitlines()
    end = next(i for i, line in enumerate(lines) if line.strip().startswith("_cache: dict"))
    start = end
    while lines[start - 1].strip().startswith("#"):
        start -= 1
    documented = set(re.findall(r'"(\w+)"', "\n".join(lines[start:end])))
    assert documented == used


LAYERS = ("graphs", "fields", "poly", "flags", "divisors", "resolution",
          "oracle", "cli")


def test_module_layers():
    assert {path.stem for path in SRC.glob("*.py")} == {"__init__", "__main__", *LAYERS}
    upward = []
    for rank, name in enumerate(LAYERS):
        tree = ast.parse((SRC / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 1:
                targets = [module.split(".")[0]] if module else \
                    [alias.name for alias in node.names]
            elif module.startswith("toppling."):
                targets = [module.split(".")[1]]
            else:
                continue
            upward += [f"{name}:{node.lineno} imports {target}"
                       for target in targets if target not in LAYERS[:rank]]
    assert upward == []


def _referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def test_no_dead_definitions():
    # a reference is a name, an attribute or a string constant (the tracer's
    # SPANS, __all__) anywhere in src/, tests/ or bench/, outside the
    # definition itself
    root = SRC.parent.parent
    files = [*SRC.glob("*.py"), *(root / "tests").glob("*.py"),
             *(root / "bench").glob("*.py")]
    defined, used = [], set()
    for path in sorted(files):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            own = getattr(top, "name", None)
            if path.parent == SRC and isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, own))
            used.update(name for name in _referenced_names(top) if name != own)
    assert [f"{mod}:{name}" for mod, name in defined if name not in used] == []


def test_no_dead_members():
    # a method or property of a class without bases (a subclass may be
    # overriding a hook its base calls) is referenced as an attribute
    # somewhere in src/, tests/ or bench/ outside its own definition;
    # dunders are called by the language
    root = SRC.parent.parent
    files = [*SRC.glob("*.py"), *(root / "tests").glob("*.py"),
             *(root / "bench").glob("*.py")]

    def attrs(node):
        return Counter(sub.attr for sub in ast.walk(node)
                       if isinstance(sub, ast.Attribute))

    used, members = Counter(), []
    for path in sorted(files):
        tree = ast.parse(path.read_text(), filename=str(path))
        used += attrs(tree)
        if path.parent != SRC:
            continue
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.bases:
                members += [(f"{path.name}:{cls.name}.{fn.name}", fn)
                            for fn in cls.body if isinstance(fn, ast.FunctionDef)
                            and not fn.name.startswith("__")]
    assert [name for name, fn in members
            if used[fn.name] - attrs(fn)[fn.name] <= 0] == []
