"""Documentation and shape consistency checks.

Cheap guards that keep the docs honest: every public module has a
docstring, DESIGN.md's experiment index covers every experiment module,
and the README's architecture block names every subpackage.  AST
guards keep ``src/`` to what runs: observers are reached through
``observe_columns`` alone, a pass is thinned in one place each, and
every definition is called from ``src/``, ``bench/`` or ``examples/``
unless ``TestSrcHoldsWhatRuns.KEPT`` names it with a reason.
"""

import ast
import functools
import importlib
import pathlib
import pkgutil
import re

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

    def test_every_implemented_extension_names_its_ablation(self):
        """Section 7 says every deferred feature it lists is built and
        measured here: each bullet names the ``ablations.<name>`` rows
        that measure it, and the runner runs that ablation."""
        from repro.experiments import ABLATIONS

        text = (REPO_ROOT / "DESIGN.md").read_text()
        section = text.split("\n## 7. ", 1)[1].split("\n## ", 1)[0]
        bullets = section.split("\n* ")[1:]
        assert bullets, "DESIGN.md section 7 lists no features"
        for bullet in bullets:
            named = set(re.findall(r"`(ablations\.[a-z_]+)", bullet))
            assert named and named <= set(ABLATIONS), (
                f"DESIGN.md section 7 bullet names no ablation that runs "
                f"(ABLATIONS: {ABLATIONS}): {bullet.splitlines()[0]}"
            )

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


def _class_options(node: ast.ClassDef) -> set[str]:
    """Names a class accepts or stores: its fields, its methods'
    parameters and the ``self.X`` it assigns."""
    names: set[str] = set()
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            names.add(item.target.id)
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        arguments = item.args
        names.update(
            arg.arg
            for arg in (*arguments.posonlyargs, *arguments.args,
                        *arguments.kwonlyargs)
        )
        for sub in ast.walk(item):
            targets = (
                sub.targets if isinstance(sub, ast.Assign)
                else [sub.target] if isinstance(sub, ast.AnnAssign)
                else ()
            )
            names.update(
                target.attr for target in targets
                if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            )
    return names


class TestOneWayToThinAPass:
    """Records are dropped by capture faults only where a pass applies
    them (``replay_columnar(faults=)``; the stream route masks instead),
    and sampled only by ``SamplingTable``: no passive class takes a
    fault filter, and no passive class but ``SamplingTable`` a
    sampler."""

    def test_filter_columns_only_in_replay_columnar(self):
        offenders = []
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for function in ast.walk(tree):
                if not isinstance(function, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                    continue
                if (path.name, function.name) == ("monitor.py",
                                                  "replay_columnar"):
                    continue
                offenders += [
                    f"{path.name}:{function.name}"
                    for call in ast.walk(function)
                    if isinstance(call, ast.Call)
                    and getattr(call.func, "attr",
                                getattr(call.func, "id", None))
                    == "filter_columns"
                ]
        assert not offenders, f"filter_columns outside replay_columnar: {offenders}"

    def test_no_passive_class_takes_faults_or_a_sampler(self):
        offenders = []
        for path in sorted((REPO_ROOT / "src" / "repro" / "passive").rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                options = _class_options(node)
                if "faults" in options:
                    offenders.append(f"{node.name}: faults")
                if "sampler" in options and node.name != "SamplingTable":
                    offenders.append(f"{node.name}: sampler")
        assert not offenders, f"passive classes that thin a pass: {offenders}"


@functools.cache
def _definitions_and_names() -> tuple[dict[str, list[str]], frozenset[str]]:
    """Every ``def`` / ``class`` name in ``src/repro`` (methods
    included, dunders excluded) mapped to where it is defined, and
    every name the code in ``src/``, ``bench/`` and ``examples/`` uses.

    A name is used when it appears as an ``ast.Name``, as an
    ``ast.Attribute`` or as the constant of a ``getattr(x, "name")``
    call.  Imports and ``__all__`` strings do not count.
    """
    defined: dict[str, list[str]] = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                where = f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
                defined.setdefault(node.name, []).append(where)
    named: set[str] = set()
    for top in ("src", "bench", "examples"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif (isinstance(node, ast.Call)
                      and getattr(node.func, "id", None) == "getattr"
                      and len(node.args) > 1
                      and isinstance(node.args[1], ast.Constant)):
                    named.add(node.args[1].value)
    return defined, frozenset(named)


class TestSrcHoldsWhatRuns:
    """``src/`` holds the code that runs; what only tests call lives
    in ``tests/`` (the ``*_reference.py`` modules, or the test itself).

    Every definition in ``src/repro`` must be called from ``src/``,
    ``bench/`` or ``examples/``, be an ablation that ``ABLATIONS``
    runs by name, or be in ``KEPT`` with its reason.  Name matching is
    conservative: a parameter, local or attribute anywhere in those
    trees that shares a name hides a dead definition, and that is
    accepted.  A ``KEPT`` entry that is no longer defined, or that has
    gained a caller, fails too, so the list cannot rot.
    """

    KEPT = {
        # Oracles: the definition that faster production code is
        # checked against, or the inverse that a round-trip test needs.
        "udp_probe_response": "twin of Host.tcp_probe_response; "
                              "ProbeResponseIndex is checked against it",
        "owning_address": "route_columns is checked against it",
        "shard_of": "route_columns is checked against it",
        "is_syn": "TcpFlags test the passive reference reads",
        "is_synack": "TcpFlags test the passive reference reads",
        "is_rst": "TcpFlags test the passive reference reads",
        "contains": "CampusTopology.campus_predicate is checked against it",
        "hour_of_day": "the diurnal factor is checked against it",
        "is_weekend": "the diurnal factor is checked against it",
        "to_traceparent": "inverse of parse_traceparent, for round trips",
        "deanonymize_campus_address": "inverse of the anonymiser, for "
                                      "round trips",
        "tcp_syn": "record constructor tests/traffic_reference.py builds with",
        "tcp_synack": "record constructor tests/traffic_reference.py "
                      "builds with",
        "tcp_rst": "record constructor tests/traffic_reference.py builds with",
        "udp_datagram": "record constructor tests/traffic_reference.py "
                        "builds with",
        "icmp_port_unreachable": "record constructor "
                                 "tests/traffic_reference.py builds with",
        "write_trace": "the trace-file API DESIGN.md section 12 names",
        "read_trace": "the trace-file API DESIGN.md section 12 names",
        "disable": "pairs with telemetry.enable()",
        "telemetry_enabled": "pairs with telemetry.enable()",
        "tracing_enabled": "pairs with enable_tracing()",
        # asyncio.Protocol callbacks of query/http.py's _Connection:
        # the event loop calls them.
        "connection_made": "asyncio.Protocol callback",
        "connection_lost": "asyncio.Protocol callback",
        "data_received": "asyncio.Protocol callback",
        "eof_received": "asyncio.Protocol callback",
        "pause_writing": "asyncio.Protocol callback",
        "resume_writing": "asyncio.Protocol callback",
    }

    def test_every_definition_runs_or_is_kept(self):
        from repro.experiments import ABLATIONS

        defined, named = _definitions_and_names()
        run_by_name = {name.rpartition(".")[2] for name in ABLATIONS}
        offenders = {
            name: where for name, where in defined.items()
            if name not in named | self.KEPT.keys() | run_by_name
        }
        assert not offenders, (
            "definitions in src/ that only tests call (move them into "
            f"tests/, or name them in KEPT with a reason): {offenders}"
        )

    def test_kept_entries_are_defined_and_uncalled(self):
        defined, named = _definitions_and_names()
        stale = sorted(name for name in self.KEPT if name not in defined)
        called = sorted(name for name in self.KEPT if name in named)
        assert not stale, f"KEPT names no definition in src/: {stale}"
        assert not called, f"KEPT names definitions that now run: {called}"
