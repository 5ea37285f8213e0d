"""The documentation as a checked artifact: README's examples run, the names the
docstrings and README cite resolve, and both stay within their size budgets."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import curvbound
from curvbound import cli

from report_digests import docstring_lines, docstring_nodes

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SOURCES = sorted((ROOT / "src" / "curvbound").glob("*.py"))
MODULES = {path.stem: importlib.import_module(f"curvbound.{path.stem}")
           for path in SOURCES if path.stem != "__init__"}
# the docstrings state contracts, README the usage and the design: each well below
# the sizes they had when they also carried the history (849 lines, 41,298 bytes)
DOCSTRING_LINE_BUDGET = 600
README_BYTE_BUDGET = 25_000
ROLE = re.compile(r":(?:func|meth|class|mod|attr):`~?([\w.]+)`")
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")


def fenced(language: str) -> list:
    """The bodies of README's code blocks fenced as ``language``, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def resolves(owner, dotted: str) -> bool:
    """Whether each name of ``dotted`` is an attribute (or a dataclass field) of the last."""
    for name in dotted.split("."):
        fields = getattr(owner, "__dataclass_fields__", {})
        if hasattr(owner, name):
            owner = getattr(owner, name)
        elif name in fields:
            owner = fields[name]
        else:
            return False
    return True


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    (example,) = fenced("python")
    exec(compile(example, "README.md", "exec"), {})
    ratio, bound = re.fullmatch(r"(\S+) >= (\S+)\n", capsys.readouterr().out).groups()
    assert float(ratio) >= float(bound) == 1.0
    assert round(float(ratio), 4) == 1.4529
    # the command line block: its output paths go to tmp_path, and only the
    # placeholder path of a custom scenario is a usage error
    block = next(b for b in fenced("sh") if re.search(r"^curvbound ", b, re.M))
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("curvbound ")]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        for i, arg in enumerate(argv[:-1]):
            if arg.startswith("--emit-"):
                argv[i + 1] = str(tmp_path / Path(argv[i + 1]).name)
        expected = 3 if "/path/to/custom.json" in argv else 0
        assert cli.main(argv) == expected, argv
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "samples.csv",
                                                          "sturm.csv"]


def test_doc_references_resolve():
    # a docstring's role target names an object of its module, a curvbound.<module>
    # attribute or an attribute of the enclosing class
    unresolved, checked = [], 0
    for path in SOURCES:
        module = curvbound if path.stem == "__init__" else MODULES[path.stem]
        tree = ast.parse(path.read_text())
        classes = {id(node): top.name for top in tree.body if isinstance(top, ast.ClassDef)
                   for node in ast.walk(top)}
        for owner, doc in docstring_nodes(tree):
            scopes = [module]
            if id(owner) in classes:
                scopes.append(getattr(module, classes[id(owner)]))
            for target in ROLE.findall(doc.value.value):
                checked += 1
                if target.startswith("curvbound."):
                    ok = resolves(curvbound, target.removeprefix("curvbound."))
                else:
                    ok = any(resolves(scope, target) for scope in scopes)
                if not ok:
                    unresolved.append(f"{path.name}:{doc.lineno} {target}")
    assert checked >= 40
    # a backticked dotted name in README whose head is a curvbound module or a
    # name the package exports resolves there
    for dotted in DOTTED.findall(README.read_text()):
        head, rest = dotted.split(".", 1)
        owner = MODULES.get(head, getattr(curvbound, head, None) if head in curvbound.__all__
                            else None)
        if owner is not None:
            checked += 1
            if not resolves(owner, rest):
                unresolved.append(f"README.md {dotted}")
    assert checked >= 90
    assert unresolved == []


def test_doc_budgets():
    lines = sum(docstring_lines(path.read_text()) for path in SOURCES)
    assert lines < DOCSTRING_LINE_BUDGET, lines
    assert README.stat().st_size < README_BYTE_BUDGET, README.stat().st_size
