"""tools/ab_units.py: its summary on synthetic times, and a short run of HEAD against HEAD."""

import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_PATH = ROOT / "tools" / "ab_units.py"
sys.path.insert(0, str(_PATH.parent))  # for its sibling bench_pairs
_SPEC = importlib.util.spec_from_file_location("ab_units", _PATH)
ab_units = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_units)


def test_summary_of_synthetic_times():
    # the change is faster in units 0, 1 and 3
    times = {"parent": [1.0, 2.0, 3.0, 4.0, 5.0], "change": [0.5, 1.0, 4.5, 3.0, 5.0]}
    summary = ab_units.summarise(times)
    assert summary["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert summary["change"] == {"median": 3.0, "q1": 1.0, "q3": 4.5}
    assert summary["median_ratio"] == 0.75  # of 0.5, 0.5, 1.5, 0.75 and 1.0
    assert summary["change_win_share"] == 0.6


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout")
def test_two_units_of_head_against_head(tmp_path):
    done = subprocess.run([sys.executable, str(_PATH), "--parent", "HEAD", "--change", "HEAD",
                           "--workload", "paper_sim", "--units", "2", "--workdir", str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    assert len(lines) == 1
    line = json.loads(lines[0])
    assert (line["workload"], line["units"]) == ("paper_sim", 2)
    assert line["parent_sha"] == line["change_sha"]
    for side in ("parent", "change"):
        assert 0.0 < line[side]["q1"] <= line[side]["median"] <= line[side]["q3"]
    assert line["median_ratio"] > 0.0
    assert line["change_win_share"] in (0.0, 0.5, 1.0)


def test_fewer_than_two_units_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        ab_units.main(["--parent", "HEAD", "--change", "HEAD", "--workload", "paper_sim",
                       "--units", "1"])
    assert exit_info.value.code == 2
    assert "--units" in capsys.readouterr().err


def test_a_run_whose_export_fails_leaves_no_temp_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(subprocess.CalledProcessError):
        ab_units.main(["--parent", "no-such-revision", "--change", "HEAD",
                       "--workload", "paper_sim", "--units", "2"])
    assert list(tmp_path.iterdir()) == []
