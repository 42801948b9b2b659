"""Documentation consistency checks.

Docs drift silently; these tests pin the load-bearing references so a
rename breaks CI instead of the README.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (REPO / name).read_text(encoding="utf-8")


class TestReadme:
    def test_quickstart_imports_exist(self):
        import repro

        text = _read("README.md")
        block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
        imported = re.findall(r"from repro import \(([^)]*)\)", block)
        assert imported, "README quickstart should import from repro"
        names = [n.strip() for n in imported[0].replace("\n", " ").split(",") if n.strip()]
        for name in names:
            assert hasattr(repro, name), f"README imports missing name {name}"

    def test_referenced_files_exist(self):
        text = _read("README.md")
        for link in re.findall(r"\]\(([^)#]+)\)", text):
            if link.startswith("http"):
                continue
            assert (REPO / link).exists(), f"README links to missing {link}"

    def test_bench_files_listed_in_readme_exist(self):
        text = _read("README.md")
        for name in re.findall(r"`(bench_\w+\.py)`", text):
            assert (REPO / "benchmarks" / name).exists(), name


class TestDesignDoc:
    def test_every_bench_target_exists(self):
        text = _read("DESIGN.md")
        for path in re.findall(r"`benchmarks/(bench_\w+\.py)`", text):
            assert (REPO / "benchmarks" / path).exists(), path

    def test_mentions_title_verification(self):
        assert "ContraTopic" in _read("DESIGN.md")


class TestBenchmarkCoverage:
    def test_one_bench_per_paper_artefact(self):
        benches = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
        required = {
            "bench_table1_datasets.py",
            "bench_fig2_interpretability.py",
            "bench_fig3_clustering.py",
            "bench_table2_ablation.py",
            "bench_fig4_sensitivity.py",
            "bench_fig5_sensitivity.py",
            "bench_fig6_backbone.py",
            "bench_table3_intrusion.py",
            "bench_tables456_casestudy.py",
        }
        missing = required - benches
        assert not missing, f"missing benchmarks for paper artefacts: {missing}"

    def test_examples_present(self):
        examples = {p.name for p in (REPO / "examples").glob("*.py")}
        assert "quickstart.py" in examples
        assert len(examples) >= 3  # the deliverable's minimum


class TestDocstringCoverage:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.tensor.tensor",
            "repro.nn.layers",
            "repro.data.corpus",
            "repro.metrics.npmi",
            "repro.core.contrastive",
            "repro.core.contratopic",
            "repro.core.subset_sampling",
            "repro.models.base",
            "repro.training.protocol",
            "repro.training.trainer",
            "repro.parallel.pool",
            "repro.extensions.online",
            "repro.serving.service",
            "repro.serving.breaker",
            "repro.serving.registry",
            "repro.serving.config",
            "repro.serving.loadgen",
        ],
    )
    def test_public_items_documented(self, module_name):
        import importlib
        import inspect

        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if getattr(obj, "__module__", None) != module_name:
                    continue  # re-exports documented at their home
                assert obj.__doc__, f"{module_name}.{name} lacks a docstring"


class TestApiGuide:
    def test_documented_import_paths_exist(self):
        """Every `from repro... import ...` line in the API guide resolves."""
        import importlib

        text = _read("docs/API_GUIDE.md")
        for match in re.finditer(r"from (repro[\w.]*) import ([\w, ]+)", text):
            module = importlib.import_module(match.group(1))
            for name in match.group(2).split(","):
                name = name.strip()
                if name:
                    assert hasattr(module, name), f"{match.group(1)}.{name}"

    def test_registry_names_in_guide_are_valid(self):
        from repro.models import available_models

        text = _read("docs/API_GUIDE.md")
        documented = re.search(r"Registry names: (.*?)\.\n", text, re.S).group(1)
        names = re.findall(r"`(\w+)`", documented)
        assert set(names) == set(available_models())


class TestExamples:
    def test_every_example_compiles(self):
        """Examples are run manually; at minimum they must always parse."""
        import ast

        for path in sorted((REPO / "examples").glob("*.py")):
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def test_every_example_has_module_docstring_with_run_line(self):
        for path in sorted((REPO / "examples").glob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert text.startswith('"""'), path.name
            assert f"python examples/{path.name}" in text, (
                f"{path.name} docstring should show how to run it"
            )
