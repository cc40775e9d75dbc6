"""tools/bench_pairs.py on synthetic pairs; no benchmark is run."""

import importlib.util
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "fits_per_s": "higher"}


def pair(parent, change):
    return {"parent": {"metrics": parent}, "change": {"metrics": change}}


def timed_pairs():
    # the change is faster in pairs 0, 1 and 3
    walls = [(1.0, 0.9), (2.0, 1.0), (3.0, 3.5), (4.0, 2.0), (5.0, 5.0)]
    return [pair({"wall_s": b, "fits_per_s": 1.0 / b}, {"wall_s": c, "fits_per_s": 1.0 / c})
            for b, c in walls]


class TestSummarise:
    def test_wins_follow_each_metrics_direction(self):
        summary = bench_pairs.summarise(timed_pairs(), BETTER)
        assert summary["wall_s"]["change_wins"] == 3
        assert summary["fits_per_s"]["change_wins"] == 3
        assert summary["wall_s"]["better"] == "lower"
        assert summary["fits_per_s"]["better"] == "higher"

    def test_medians_and_quartiles(self):
        entry = bench_pairs.summarise(timed_pairs(), BETTER)["wall_s"]
        assert entry["pairs"] == 5
        assert entry["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
        assert entry["change"] == {"median": 2.0, "q1": 1.0, "q3": 3.5}
        assert entry["median_change"] == pytest.approx(2.0 / 3.0 - 1.0)

    @pytest.mark.parametrize("failed", [0, 2])
    def test_a_failed_run_drops_only_its_pair(self, failed):
        pairs = timed_pairs()
        pairs[failed]["change"]["metrics"] = {}
        summary = bench_pairs.summarise(pairs, BETTER)
        kept = [p for k, p in enumerate(timed_pairs()) if k != failed]
        assert summary == bench_pairs.summarise(kept, BETTER)
        assert summary["wall_s"]["pairs"] == 4


class TestSeeds:
    def test_ranges_and_lists(self):
        assert bench_pairs.parse_seeds("9301-9303,7") == [9301, 9302, 9303, 7]
        assert bench_pairs.parse_seeds("5-5") == [5]

    def test_a_backward_range_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main(["--parent", "HEAD", "--change", "HEAD", "--workload", "paper_sim",
                              "--seeds", "5-3", "--output", "unused.json"])
        assert exit_info.value.code == 2
        assert "5-3" in capsys.readouterr().err


class TestEnvironment:
    def test_the_cpu_model_is_the_first_model_name(self, tmp_path):
        cpuinfo = tmp_path / "cpuinfo"
        cpuinfo.write_text("processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\n\n"
                           "processor\t: 1\nmodel name\t: Other CPU\n")
        env = bench_pairs.environment(cpuinfo)
        assert env["cpu_model"] == "Example CPU @ 2.0GHz"
        assert env["cpu_count"] >= 1
        assert set(env["blas_threads"]) == set(bench_pairs.BLAS_VARIABLES)

    def test_a_missing_cpuinfo_or_model_name_gives_null(self, tmp_path):
        assert bench_pairs.environment(tmp_path / "absent")["cpu_model"] is None
        (tmp_path / "bare").write_text("processor\t: 0\n")
        assert bench_pairs.cpu_model(tmp_path / "bare") is None

    def test_the_blas_is_the_one_numpy_reports(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        want = {key: blas.get(key) for key in bench_pairs.BLAS_KEYS}
        assert bench_pairs.environment()["blas"] == want
        assert isinstance(want["name"], str)


class TestExportDir:
    def test_a_temp_dir_is_removed_when_the_block_ends(self):
        with bench_pairs.export_dir(None, "export-dir-test-") as workdir:
            (workdir / "tree").mkdir()
            (workdir / "tree" / "file").write_text("x")
            assert workdir.name.startswith("export-dir-test-")
        assert not workdir.exists()

    def test_a_temp_dir_is_removed_when_the_block_raises(self):
        with pytest.raises(RuntimeError, match="^stop$"):
            with bench_pairs.export_dir(None, "export-dir-test-") as workdir:
                (workdir / "file").write_text("x")
                raise RuntimeError("stop")
        assert not workdir.exists()

    def test_a_sigterm_inside_the_block_removes_the_temp_dir(self, tmp_path):
        # a child process makes the temp dir under tmp_path and signals itself inside the block
        script = (
            "import os, signal, sys, tempfile, time\n"
            f"sys.path.insert(0, {str(_PATH.parent)!r})\n"
            "import bench_pairs\n"
            f"tempfile.tempdir = {str(tmp_path)!r}\n"
            "with bench_pairs.export_dir(None, 'export-dir-test-') as workdir:\n"
            "    (workdir / 'file').write_text('x')\n"
            "    print(workdir, flush=True)\n"
            "    os.kill(os.getpid(), signal.SIGTERM)\n"
            "    time.sleep(30)\n"
            "print('not reached')\n"
        )
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               timeout=60)
        workdir = Path(child.stdout.splitlines()[0])
        assert workdir.parent == tmp_path and workdir.name.startswith("export-dir-test-")
        assert child.returncode == 128 + signal.SIGTERM
        assert "not reached" not in child.stdout and child.stderr == ""
        assert list(tmp_path.iterdir()) == []

    def test_the_previous_sigterm_handler_is_restored(self):
        def handler(signum, frame):
            pass

        previous = signal.signal(signal.SIGTERM, handler)
        try:
            with bench_pairs.export_dir(None, "export-dir-test-"):
                assert signal.getsignal(signal.SIGTERM) is bench_pairs._exit_on_sigterm
            assert signal.getsignal(signal.SIGTERM) is handler
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_a_given_workdir_is_made_and_kept(self, tmp_path):
        target = tmp_path / "a" / "b"
        with pytest.raises(RuntimeError):
            with bench_pairs.export_dir(str(target), "unused-") as workdir:
                (workdir / "file").write_text("x")
                raise RuntimeError
        assert workdir == target and (target / "file").read_text() == "x"

    def test_a_run_whose_export_fails_leaves_no_temp_dir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(subprocess.CalledProcessError):
            bench_pairs.main(["--parent", "no-such-revision", "--change", "HEAD",
                              "--workload", "paper_sim", "--seeds", "1",
                              "--output", str(tmp_path / "unused.json")])
        assert list(tmp_path.iterdir()) == []
