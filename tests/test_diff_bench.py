"""The benchmark diff tool: regression detection and summary rendering."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "diff_bench", REPO_ROOT / "benchmarks" / "diff_bench.py")
diff_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_spec and diff_bench)

BASE = {"ticks_per_sec": 100_000.0, "batched_ticks_per_sec": 1_000_000.0,
        "campaign_wall_s": 2.0, "campaign_wall_serial_s": 4.0}


class TestDiffBenchmarks:
    def test_no_regression_on_improvement(self):
        current = {**BASE, "ticks_per_sec": 150_000.0, "campaign_wall_s": 1.0}
        _rows, regressions = diff_bench.diff_benchmarks(BASE, current, 10.0)
        assert regressions == []

    def test_throughput_drop_is_a_regression(self):
        current = {**BASE, "ticks_per_sec": 80_000.0}
        _rows, regressions = diff_bench.diff_benchmarks(BASE, current, 10.0)
        assert len(regressions) == 1
        assert "ticks_per_sec" in regressions[0]

    def test_wall_time_growth_is_a_regression(self):
        current = {**BASE, "campaign_wall_s": 2.5}
        _rows, regressions = diff_bench.diff_benchmarks(BASE, current, 10.0)
        assert len(regressions) == 1
        assert "campaign_wall_s" in regressions[0]

    def test_within_threshold_passes(self):
        current = {**BASE, "ticks_per_sec": 95_000.0,
                   "campaign_wall_s": 2.1}
        _rows, regressions = diff_bench.diff_benchmarks(BASE, current, 10.0)
        assert regressions == []

    def test_missing_metric_is_not_a_regression(self):
        base = {"ticks_per_sec": 100_000.0}
        current = {"ticks_per_sec": 100_000.0}
        rows, regressions = diff_bench.diff_benchmarks(base, current, 10.0)
        assert regressions == []
        assert any(change == "n/a" for _m, _b, _n, change, _f in rows)

    def test_markdown_mentions_regressions(self):
        current = {**BASE, "ticks_per_sec": 50_000.0}
        rows, regressions = diff_bench.diff_benchmarks(BASE, current, 10.0)
        markdown = diff_bench.render_markdown(rows, regressions, 10.0)
        assert "regressed more than 10%" in markdown
        assert "| ticks_per_sec |" in markdown


class TestMain:
    def test_exit_codes_and_summary(self, tmp_path, monkeypatch):
        baseline = tmp_path / "base.json"
        current = tmp_path / "current.json"
        summary = tmp_path / "summary.md"
        baseline.write_text(json.dumps(BASE))
        current.write_text(json.dumps({**BASE, "ticks_per_sec": 50_000.0}))
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        assert diff_bench.main([str(baseline), str(current)]) == 1
        assert "regression" in summary.read_text()
        current.write_text(json.dumps(BASE))
        assert diff_bench.main([str(baseline), str(current)]) == 0

    def test_missing_baseline_is_benign(self, tmp_path):
        current = tmp_path / "current.json"
        current.write_text(json.dumps(BASE))
        assert diff_bench.main(
            [str(tmp_path / "missing.json"), str(current)]) == 0


class TestCustomMetricLists:
    CONTROL_BASE = {"mean_adherence": 1.0,
                    "mean_throughput_loss_pct": 20.0,
                    "worst_overshoot_pct": 3.0}

    def test_custom_higher_metric_regression(self):
        current = {**self.CONTROL_BASE, "mean_adherence": 0.80}
        _rows, regressions = diff_bench.diff_benchmarks(
            self.CONTROL_BASE, current, 10.0,
            higher=("mean_adherence",),
            lower=("mean_throughput_loss_pct", "worst_overshoot_pct"))
        assert len(regressions) == 1
        assert "mean_adherence" in regressions[0]

    def test_custom_lower_metric_regression(self):
        current = {**self.CONTROL_BASE, "mean_throughput_loss_pct": 30.0}
        _rows, regressions = diff_bench.diff_benchmarks(
            self.CONTROL_BASE, current, 10.0,
            higher=("mean_adherence",),
            lower=("mean_throughput_loss_pct",))
        assert len(regressions) == 1
        assert "mean_throughput_loss_pct" in regressions[0]

    def test_default_metrics_unchanged(self):
        # The positional call the CI sim-diff uses keeps its behaviour.
        current = {**BASE, "ticks_per_sec": 80_000.0}
        _rows, regressions = diff_bench.diff_benchmarks(BASE, current, 10.0)
        assert len(regressions) == 1

    def test_cli_metric_lists(self, tmp_path):
        baseline = tmp_path / "base.json"
        current = tmp_path / "current.json"
        baseline.write_text(json.dumps(self.CONTROL_BASE))
        current.write_text(json.dumps(
            {**self.CONTROL_BASE, "mean_adherence": 0.5}))
        argv = [str(baseline), str(current),
                "--higher", "mean_adherence",
                "--lower", "mean_throughput_loss_pct,worst_overshoot_pct"]
        assert diff_bench.main(argv) == 1
        current.write_text(json.dumps(self.CONTROL_BASE))
        assert diff_bench.main(argv) == 0


_lines_spec = importlib.util.spec_from_file_location(
    "src_lines", REPO_ROOT / "benchmarks" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_lines_spec)
_lines_spec.loader.exec_module(src_lines)


class TestSrcLines:
    def _tree(self, root):
        (root / "repro" / "core").mkdir(parents=True)
        (root / "repro" / "__init__.py").write_text("")
        (root / "repro" / "cli.py").write_text("a\nb\n")
        (root / "repro" / "core" / "x.py").write_text("a\nb\nc\n")
        (root / "repro" / "core" / "y.py").write_text("a\n")
        (root / "repro" / "core" / "notes.txt").write_text("a\n" * 99)
        return root

    def test_counts_total_and_per_package(self, tmp_path):
        counts = src_lines.count_lines(self._tree(tmp_path / "src"))
        assert counts == {"src_lines": 6, "src_lines_repro": 2,
                          "src_lines_core": 4}

    def test_main_writes_the_headline(self, tmp_path):
        output = tmp_path / "BENCH_src.json"
        assert src_lines.main(["--src", str(self._tree(tmp_path / "src")),
                               "--output", str(output)]) == 0
        assert json.loads(output.read_text())["src_lines"] == 6

    def test_growth_is_a_lower_is_better_regression(self, tmp_path):
        baseline = tmp_path / "base.json"
        current = tmp_path / "current.json"
        baseline.write_text(json.dumps({"src_lines": 1000,
                                        "src_lines_core": 400}))
        current.write_text(json.dumps({"src_lines": 900,
                                       "src_lines_core": 500}))
        argv = [str(baseline), str(current), "--threshold", "5",
                "--higher", "", "--lower", "src_lines,src_lines_core"]
        assert diff_bench.main(argv) == 1  # core grew 25%
        current.write_text(json.dumps({"src_lines": 900,
                                       "src_lines_core": 380}))
        assert diff_bench.main(argv) == 0  # deletions never regress
