"""Repository self-consistency checks.

Documentation and structure rot silently; these tests pin the claims
the docs make to the code that backs them.
"""

import ast
import importlib
import pathlib
import re
from collections import Counter

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestDocsExist:
    @pytest.mark.parametrize(
        "name",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md",
         "docs/THEORY.md"],
    )
    def test_present_and_substantial(self, name):
        path = REPO / name
        assert path.exists(), name
        assert len(path.read_text()) > 1000, name


class TestDesignExperimentIndex:
    def test_every_bench_target_exists(self):
        design = (REPO / "DESIGN.md").read_text()
        targets = re.findall(r"`benchmarks/(bench_\w+\.py)`", design)
        assert targets
        for target in targets:
            assert (REPO / "benchmarks" / target).exists(), target

    def test_every_bench_file_indexed_or_extension(self):
        design = (REPO / "DESIGN.md").read_text()
        for path in (REPO / "benchmarks").glob("bench_*.py"):
            assert path.name in design, path.name


class TestTheoryMapResolves:
    def test_referenced_modules_import(self):
        theory = (REPO / "docs" / "THEORY.md").read_text()
        modules = set(re.findall(r"`(repro(?:\.\w+)+)`", theory))
        for dotted in sorted(modules):
            parts = dotted.split(".")
            # Walk down until the remaining parts are attributes.
            for cut in range(len(parts), 0, -1):
                try:
                    mod = importlib.import_module(".".join(parts[:cut]))
                except ImportError:
                    continue
                obj = mod
                ok = True
                for attr in parts[cut:]:
                    if not hasattr(obj, attr):
                        ok = False
                        break
                    obj = getattr(obj, attr)
                assert ok, dotted
                break
            else:
                pytest.fail(f"cannot import {dotted}")

    def test_cited_methods_exist(self):
        """Every bare ``Class.method`` THEORY.md cites (not under a
        ``repro.*`` path) names a ``src/repro`` class that has the
        attribute.  The dead-code guard exempts any word THEORY.md
        mentions, so a stale cite would hide dead code."""
        theory = (REPO / "docs" / "THEORY.md").read_text()
        cites = {
            match
            for span in re.findall(r"`([^`]+)`", theory)
            if not re.search(r"\.(md|py|json)$", span)
            for match in re.findall(r"(?<![\w.])([A-Z]\w*)\.(\w+)", span)
        }
        assert cites
        package = REPO / "src" / "repro"
        modules = {}
        for path in package.rglob("*.py"):
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.ClassDef):
                    parts = path.relative_to(REPO / "src").with_suffix("").parts
                    if parts[-1] == "__init__":
                        parts = parts[:-1]
                    modules.setdefault(node.name, ".".join(parts))
        for cls_name, attr in sorted(cites):
            assert cls_name in modules, f"no src class {cls_name}"
            cls = getattr(importlib.import_module(modules[cls_name]), cls_name)
            assert hasattr(cls, attr), f"{cls_name}.{attr}"


class TestNoTestOnlyCode:
    def test_every_src_definition_has_a_caller_outside_tests(self):
        """A top-level def or class of ``src/repro`` is referenced from
        ``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/``
        beyond its own definition and package re-exports, or named in
        ``docs/THEORY.md`` as public API.  Test-only code and oracles
        live in ``tests/``."""
        package = REPO / "src" / "repro"
        texts = {
            path: path.read_text()
            for top in ("src", "examples", "benchmarks", "perfbench")
            for path in (REPO / top).rglob("*.py")
        }
        words = {
            path: Counter(re.findall(r"\w+", text))
            for path, text in texts.items()
            if not (path.name == "__init__.py" and path.is_relative_to(package))
        }
        theory = Counter(re.findall(r"\w+", (REPO / "docs" / "THEORY.md").read_text()))
        unused = []
        for path, text in texts.items():
            if path not in words or not path.is_relative_to(package):
                continue
            lines, tree = text.splitlines(), ast.parse(text)
            exports = [n for n in tree.body if isinstance(n, ast.Assign)
                       and "__all__" in [getattr(t, "id", None) for t in n.targets]]
            for node in tree.body:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    continue
                name, own = node.name, words[path][node.name]
                for span in [node, *exports]:  # its definition, its re-export
                    own -= re.findall(r"\w+", "\n".join(
                        lines[span.lineno - 1 : span.end_lineno])).count(name)
                elsewhere = sum(c[name] for p, c in words.items() if p != path)
                if not (theory[name] or own > 0 or elsewhere):
                    unused.append(f"{path.relative_to(REPO)}::{name}")
        assert not unused, "no caller outside tests: " + ", ".join(unused)

    def test_every_src_method_has_a_caller_outside_tests(self):
        """A method or property of a ``src/repro`` class is referenced
        from ``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/``
        outside its own body, or named in ``docs/THEORY.md``.  A
        reference is an AST identifier (a ``Name`` or ``Attribute``) or
        a bare-word string constant, so ``getattr`` and ``__all__``
        count but a docstring mention does not.  Matching is by name,
        so an override counts as used when any same-named method is;
        dunder methods are exempt."""
        package = REPO / "src" / "repro"
        trees = {
            path: ast.parse(path.read_text())
            for top in ("src", "examples", "benchmarks", "perfbench")
            for path in (REPO / top).rglob("*.py")
        }
        refs = Counter()
        for tree in trees.values():
            refs.update(_identifiers(tree))
        theory = set(re.findall(r"\w+", (REPO / "docs" / "THEORY.md").read_text()))
        unused = []
        for path, tree in trees.items():
            if not path.is_relative_to(package):
                continue
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for node in cls.body:
                    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    name = node.name
                    if name.startswith("__") and name.endswith("__") or name in theory:
                        continue
                    if refs[name] - _identifiers(node)[name] <= 0:
                        unused.append(f"{path.relative_to(REPO)}::{cls.name}.{name}")
        assert not unused, "no caller outside tests: " + ", ".join(unused)


def _identifiers(tree):
    """Count the names ``tree`` references: ``Name`` ids, ``Attribute``
    attrs, and string constants that are a single identifier."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found[node.value] += 1
    return found


class TestExamplesListed:
    def test_readme_lists_every_example(self):
        readme = (REPO / "README.md").read_text()
        for path in (REPO / "examples").glob("*.py"):
            if path.name == "autotune_kernel.py":
                continue  # extension example beyond the README table
            assert path.name.replace(".py", "") in readme, path.name


class TestPackageSurface:
    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_alls_resolve(self):
        for pkg in ("repro.core", "repro.f2", "repro.layouts",
                    "repro.codegen", "repro.gpusim", "repro.mxfp",
                    "repro.engine", "repro.kernels"):
            mod = importlib.import_module(pkg)
            for name in getattr(mod, "__all__", []):
                assert hasattr(mod, name), f"{pkg}.{name}"
