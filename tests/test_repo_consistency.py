"""Repository-consistency checks: docs, benches, and examples stay in sync.

Cheap guards against the classic bit-rot failure where DESIGN.md promises a
bench module that was renamed, or the README lists an example that no
longer exists.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def readme():
    return (ROOT / "README.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def design():
    return (ROOT / "DESIGN.md").read_text(encoding="utf-8")


class TestRequiredDocuments:
    @pytest.mark.parametrize(
        "name", ["README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml"]
    )
    def test_exists_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text(encoding="utf-8")) > 200, name


class TestBenchInventory:
    def test_every_design_bench_target_exists(self, design):
        for match in re.finditer(r"`benchmarks/(bench_\w+\.py)`", design):
            assert (ROOT / "benchmarks" / match.group(1)).exists(), match.group(1)

    def test_every_paper_artifact_has_a_bench(self):
        benches = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        expected = {
            "bench_table2_datasets.py",
            "bench_table3_improvement.py",
            "bench_fig3_degree_distribution.py",
            "bench_fig4_seeds_ic.py",
            "bench_fig5_time_ic.py",
            "bench_fig6_seeds_lt.py",
            "bench_fig7_time_lt.py",
            "bench_fig8_spread_distribution.py",
            "bench_fig9_spread_ic.py",
            "bench_fig10_marginal_spread.py",
            "bench_ablation_rounding.py",
            "bench_ablation_truncated_vs_vanilla.py",
        }
        assert expected <= benches

    def test_experiments_md_covers_every_artifact(self):
        text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for artifact in (
            "Table 2", "Table 3", "Figure 3", "Figure 4", "Figure 5",
            "Figure 6", "Figure 8", "Figure 9", "Figure 10",
        ):
            assert artifact in text, artifact


class TestExampleInventory:
    def test_readme_examples_exist(self, readme):
        for match in re.finditer(r"examples/(\w+\.py)", readme):
            assert (ROOT / "examples" / match.group(1)).exists(), match.group(1)

    def test_at_least_three_examples(self):
        examples = list((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3
        names = {p.name for p in examples}
        assert "quickstart.py" in names

    def test_examples_have_main_guard(self):
        for path in (ROOT / "examples").glob("*.py"):
            text = path.read_text(encoding="utf-8")
            assert '__name__ == "__main__"' in text, path.name
            assert text.startswith('"""'), f"{path.name} missing docstring"


class TestDocumentedPaths:
    """Every backticked ``*.py`` path the prose documents names a real file."""

    SEARCH_ROOTS = ("src", "benchmarks", "examples", "tests", "perfbench")

    @pytest.mark.parametrize("name", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_backticked_python_paths_resolve(self, name):
        text = (ROOT / name).read_text(encoding="utf-8")
        bare = {
            path.name
            for top in self.SEARCH_ROOTS
            for path in (ROOT / top).rglob("*.py")
        }
        missing = []
        for match in re.finditer(r"`([\w./-]+\.py)`", text):
            path = match.group(1)
            if "/" in path:
                found = any(
                    (base / path).is_file()
                    for base in (ROOT, ROOT / "src", ROOT / "src" / "repro")
                )
            else:
                found = path in bare
            if not found:
                missing.append(path)
        assert not missing, f"{name} cites missing files: {sorted(set(missing))}"


class TestVersionConsistency:
    def test_pyproject_matches_package(self):
        import repro

        pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        match = re.search(r'^version = "([^"]+)"', pyproject, re.MULTILINE)
        assert match
        assert match.group(1) == repro.__version__
