"""Tests for the experiment runner CLI."""

import pytest

from repro.experiments.common import clear_caches
from repro.experiments.runner import main


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestRunnerMain:
    def test_only_subset_writes_report(self, tmp_path):
        out = tmp_path / "report.md"
        code = main([
            "--scale", "0.03", "--seed", "5",
            "--only", "table1", "table3",
            "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "Table 1: List of datasets" in text
        assert "Table 3: 12-hour address categorisation" in text
        assert "Figure 4" not in text
        assert "| metric | ours | paper |" in text

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--only", "table99", "--out", str(tmp_path / "x.md")])

    def test_jobs_rejects_non_positive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--jobs", "0", "--out", str(tmp_path / "x.md")])

    def test_jobs_report_matches_sequential(self, tmp_path):
        """A process-pool run produces the same report as a sequential one."""
        sequential = tmp_path / "seq.md"
        pooled = tmp_path / "pool.md"
        base = ["--scale", "0.03", "--seed", "5", "--only", "table1", "table3"]
        assert main(base + ["--out", str(sequential)]) == 0
        clear_caches()
        assert main(base + ["--out", str(pooled), "--jobs", "2"]) == 0
        assert pooled.read_text() == sequential.read_text()

    def test_header_records_parameters(self, tmp_path):
        out = tmp_path / "report.md"
        main(["--scale", "0.03", "--seed", "9", "--only", "table1",
              "--out", str(out)])
        text = out.read_text()
        assert "seed=9" in text
        assert "scale=0.03" in text


class TestSeriesExport:
    def test_series_csvs_written(self, tmp_path):
        out = tmp_path / "report.md"
        series_dir = tmp_path / "series"
        code = main([
            "--scale", "0.03", "--seed", "5",
            "--only", "figure09", "figure10",
            "--out", str(out),
            "--series-dir", str(series_dir),
        ])
        assert code == 0
        files = sorted(p.name for p in series_dir.glob("*.csv"))
        assert files == ["figure09.csv", "figure10.csv"]
        text = (series_dir / "figure10.csv").read_text()
        header, first = text.splitlines()[:2]
        assert header == "series,x,y"
        assert len(first.split(",")) == 3

    def test_table_experiments_export_nothing(self, tmp_path):
        from repro.experiments.runner import export_series, run_experiment

        result = run_experiment("table1", 5, 0.03)
        written = export_series([result], str(tmp_path / "s"))
        assert written == []
