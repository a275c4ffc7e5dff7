"""Documentation and shape consistency checks.

Cheap guards that keep the docs honest: every public module has a
docstring, DESIGN.md's experiment index covers every experiment module,
and the README's architecture block names every subpackage.  One guard
keeps the record tier out of ``src/``: observers are reached through
``observe_columns`` alone.
"""

import ast
import importlib
import pathlib
import pkgutil

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def iter_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it would execute the CLI
        yield info.name


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        missing = []
        for name in iter_modules():
            module = importlib.import_module(name)
            doc = getattr(module, "__doc__", None)
            if not doc or len(doc.strip()) < 20:
                missing.append(name)
        assert not missing, f"modules without real docstrings: {missing}"

    def test_public_api_documented(self):
        for name in repro.__all__:
            if name.startswith("__"):
                continue
            obj = getattr(repro, name)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"repro.{name} lacks a docstring"


class TestDesignDoc:
    def test_design_lists_every_experiment(self):
        from repro.experiments import ALL_EXPERIMENTS

        text = (REPO_ROOT / "DESIGN.md").read_text()
        for name in ALL_EXPERIMENTS:
            # table2 -> "Table 2", figure04 -> "Fig. 4"
            if name.startswith("table"):
                label = f"Table {int(name.removeprefix('table'))}"
            else:
                label = f"Fig. {int(name.removeprefix('figure'))}"
            assert label in text, f"DESIGN.md missing {label}"

    def test_design_documents_substitutions(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        for keyword in ("simulator", "half-open", "anonymis", "signature"):
            assert keyword in text.lower()


class TestReadme:
    def test_architecture_names_every_subpackage(self):
        text = (REPO_ROOT / "README.md").read_text()
        for package in (
            "repro.simkernel", "repro.net", "repro.campus", "repro.traffic",
            "repro.passive", "repro.active", "repro.webclassify",
            "repro.trace", "repro.core", "repro.datasets", "repro.experiments",
            "repro.telemetry",
        ):
            assert package in text, f"README missing {package}"

    def test_readme_mentions_paper(self):
        text = (REPO_ROOT / "README.md").read_text()
        assert "Bartlett" in text
        assert "IMC 2007" in text

    def test_examples_table_matches_directory(self):
        text = (REPO_ROOT / "README.md").read_text()
        for example in (REPO_ROOT / "examples").glob("*.py"):
            assert example.name in text, f"README missing {example.name}"


class TestOneObserverEntryPoint:
    """Per-record observer methods live in ``tests/passive_reference.py``;
    only the table's ``observe`` (the benchmark's record-tier row)
    stays in ``src/``."""

    #: Classes allowed an ``observe``: the table, and the metric
    #: instruments, which observe a value, not a record.
    ALLOWED = {
        ("monitor.py", "PassiveServiceTable"),
        ("metrics.py", "Histogram"),
        ("metrics.py", "_NullMetric"),
    }

    def test_no_per_record_observe_in_src(self):
        offenders = []
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    offenders += [
                        f"{path.name}:{node.name}.observe"
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and item.name == "observe"
                        and (path.name, node.name) not in self.ALLOWED
                    ]
                name = getattr(node, "name", None) or getattr(
                    node, "id", None
                ) or getattr(node, "attr", None)
                if name == "observe_each":
                    offenders.append(f"{path.name}:observe_each")
        assert not offenders, f"record-tier observers in src/: {offenders}"
