"""Static checks on the source and the tests, run without a linter."""

import argparse
import ast
import fnmatch
import importlib
import inspect
from pathlib import Path

from fibrecount.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "fibrecount").glob("*.py"))
    files += sorted((ROOT / "tests").glob("*.py"))
    unused = [u for path in files for u in _unused_imports(path)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_no_unreferenced_private_functions():
    # a private function that nothing in the package names is dead code
    files = sorted((ROOT / "src" / "fibrecount").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in files}
    defined = {}
    referenced = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined[node.name] = f"{path.relative_to(ROOT)}:" \
                                         f"{node.lineno}"
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = [f"{where}: {name}" for name, where in sorted(defined.items())
                    if name not in referenced]
    assert not unreferenced, "defined but never referenced:\n" + \
        "\n".join(unreferenced)


def test_module_constants_are_read():
    # a module-level assignment that no source, test or bench file reads is
    # left over from deleted code
    assigned = {}
    for path in sorted((ROOT / "src" / "fibrecount").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and \
                            not name.id.startswith("__"):
                        assigned[name.id] = f"{path.relative_to(ROOT)}:" \
                                            f"{node.lineno}"
    read = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(),
                                           filename=str(path))):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read.update(alias.name for alias in node.names)
    unread = [f"{where}: {name}" for name, where in sorted(assigned.items())
              if name not in read]
    assert not unread, "assigned but never read:\n" + "\n".join(unread)


def test_imports_are_at_module_level_and_acyclic():
    # every module imports at its top, and no chain of intra-package
    # imports leads back to where it started
    package = ROOT / "src" / "fibrecount"
    modules = {path.stem for path in package.glob("*.py")}
    nested, graph = [], {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.relative_to(ROOT)}:{node.lineno}"
                           for node in ast.walk(func)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:  # from .x import y
                    targets.add(node.module.split(".")[0])
                else:  # from . import x: a module, or a name of __init__
                    targets.update(alias.name if alias.name in modules
                                   else "__init__" for alias in node.names)
        graph[path.stem] = targets
    assert not nested, "imports inside a function:\n" + "\n".join(nested)
    done, cycles = set(), []

    def visit(module, chain):
        if module in chain:
            cycles.append(" -> ".join(chain[chain.index(module):] + [module]))
        elif module not in done:
            for target in sorted(graph[module]):
                visit(target, chain + [module])
            done.add(module)

    for module in sorted(graph):
        visit(module, [])
    assert not cycles, "import cycles:\n" + "\n".join(cycles)


def test_working_block_size_is_written_once():
    # every chunk and block size of a hot loop is blocks.WORK_BLOCK; the one
    # other size is the Monte Carlo chunk, which defines the random streams
    sizes = []
    for path in sorted((ROOT / "src" / "fibrecount").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and \
                            any(fnmatch.fnmatchcase(name.id, pattern)
                                for pattern in ("*CHUNK*", "*BLOCK*")) and \
                            path.name != "blocks.py" and \
                            (path.name, name.id) != ("archimedean.py",
                                                     "_CHUNK"):
                        sizes.append(f"{path.relative_to(ROOT)}:"
                                     f"{node.lineno}: {name.id}")
    assert not sizes, "chunk or block sizes outside blocks.py:\n" + \
        "\n".join(sizes)


def test_public_functions_are_plain():
    # perfbench's tracer wraps the public functions that inspect.isfunction
    # accepts; a decorator such as lru_cache would hide one from the trace
    hidden = []
    for path in sorted((ROOT / "src" / "fibrecount").glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"fibrecount.{path.stem}")
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and \
                    not node.name.startswith("_") and \
                    not inspect.isfunction(getattr(module, node.name)):
                hidden.append(f"{path.relative_to(ROOT)}:{node.lineno}: "
                              f"{node.name}")
    assert not hidden, "public but not plain functions:\n" + "\n".join(hidden)


# the memos of src and why each stays: perfbench asserts that a second
# birch_sum_table call returns the same table object
MEMOS = {"expsums._birch_table"}


def test_memos_are_the_listed_ones():
    memos = []
    for path in sorted((ROOT / "src" / "fibrecount").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                name = ast.unparse(dec.func if isinstance(dec, ast.Call)
                                   else dec)
                if name.removeprefix("functools.") in ("lru_cache", "cache"):
                    memos.append(f"{path.stem}.{node.name}")
    assert set(memos) <= MEMOS, f"unlisted memos: {set(memos) - MEMOS}"


def _named(folders) -> dict:
    """name -> [(path, line)] of every Name, Attribute and from-import of
    it in the .py files under the folders; a re-export in __init__.py does
    not count as a use."""
    named = {}
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    named.setdefault(name, []).append((path, node.lineno))
    return named


def _unnamed(named: dict, keep) -> list:
    """The functions, methods and classes of src/fibrecount whose name
    passes keep and that named holds no use of outside their own body."""
    unnamed = []
    for path in sorted((ROOT / "src" / "fibrecount").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and keep(node.name) and \
                    not any(where != path or
                            not node.lineno <= line <= node.end_lineno
                            for where, line in named.get(node.name, [])):
                unnamed.append(f"{path.relative_to(ROOT)}:{node.lineno}: "
                               f"{node.name}")
    return unnamed


def test_public_names_are_referenced():
    # a function, method or class that no source, test or bench file names
    # outside its own body is dead API
    unnamed = _unnamed(_named(("src", "tests", "perfbench")),
                       lambda name: not name.startswith("__"))
    assert not unnamed, "defined but never named elsewhere:\n" + \
        "\n".join(unnamed)


# public names that no code in src reads: perfbench/test_perfbench.py
# calls both, so they stay in src until the benchmark changes
READ_ONLY_BY_PERFBENCH = {"joint_value_distribution", "evaluate"}


def test_public_names_have_a_reader_in_src():
    # a public function, method or class that only tests call belongs in
    # tests/oracles.py, so src names it outside its own body
    unread = _unnamed(_named(("src",)), lambda name: not name.startswith("_")
                      and name not in READ_ONLY_BY_PERFBENCH)
    assert not unread, "public but read by no code in src:\n" + \
        "\n".join(unread)
    # an exception lapses once the benchmark stops naming it
    assert READ_ONLY_BY_PERFBENCH <= set(_named(("perfbench",)))


def test_every_cli_option_is_named_in_a_test_or_a_bench_job():
    # an option that no test and no benchmark job passes is a setting that
    # nothing checks; option names are matched as whole string literals
    options, parsers = set(), [build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
            elif not isinstance(action, argparse._HelpAction):
                options.update(action.option_strings)
    named = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")) + \
            [ROOT / "perfbench" / "workloads.py"]:
        if path.name != "test_lint.py":
            named.update(node.value for node in ast.walk(ast.parse(
                path.read_text(), filename=str(path)))
                if isinstance(node, ast.Constant))
    assert not options - named, "options no test or bench job names: " + \
        ", ".join(sorted(options - named))


def test_heavy_modules_are_named_in_one_place():
    # numpy.random is named only where the 2^18-point chunks are drawn, and
    # one statement in forms imports sha256, so a run that draws no chunk
    # loads neither numpy.random nor hashlib's OpenSSL
    randoms, hashes = [], []
    for path in sorted((ROOT / "src" / "fibrecount").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {id(node): func.name for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef)
                  for node in ast.walk(func)}
        randoms += [(path.name, inside.get(id(node)))
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and
                    node.attr == "random" and
                    isinstance(node.value, ast.Name) and
                    node.value.id in ("np", "numpy")]
        for statement in tree.body:
            modules = {alias.name for node in ast.walk(statement)
                       if isinstance(node, ast.Import)
                       for alias in node.names} | \
                {node.module for node in ast.walk(statement)
                 if isinstance(node, ast.ImportFrom)}
            if modules & {"hashlib", "_sha256", "_sha2"}:
                hashes.append(path.name)
    assert randoms and set(randoms) == {("archimedean.py", "_chunk_rng")}, \
        f"np.random named at {sorted(set(randoms))}"
    assert hashes == ["forms.py"], f"sha256 imported in {hashes}"


def test_the_budget_only_refuses():
    # a refusal is caught only where what follows is exact: the fallback
    # paths of the box count and the CLI's exit code 2.  Anywhere else a
    # caught refusal would turn a budget into a different answer
    handlers = []
    for path in sorted((ROOT / "src" / "fibrecount").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {id(node): func.name for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef)
                  for node in ast.walk(func)}
        handlers += [(path.name, inside.get(id(node)))
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ExceptHandler) and node.type
                     for name in ast.walk(node.type)
                     if isinstance(name, ast.Name) and
                     name.id == "BudgetExceededError"]
    assert set(handlers) == {("counting.py", "_count_box"),
                             ("cli.py", "main")}, \
        f"BudgetExceededError caught at {sorted(set(handlers))}"
