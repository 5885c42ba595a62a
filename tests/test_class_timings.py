"""tools/class_timings.py serves a workload in-process and reports its
per-class medians with the benchmark's tasks_per_s formula, then its
process's peak RSS."""
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_rank_survey_pass(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the requests name bench/scenarios relatively
    monkeypatch.setattr(sys, "path", list(sys.path))  # restored afterwards
    sys.path.insert(0, str(ROOT / "tools"))
    import class_timings
    assert class_timings.main(["rank-survey", "--passes", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rank-survey: seed 1, 1 passes, median ms per class"
    classes = lines[1:-2]
    assert [int(line.split()[0]) for line in classes] == list(range(10))
    assert all(line.split()[2] == "rank" for line in classes)
    medians = [float(line.split()[1]) for line in classes]
    words = lines[-2].split()
    total_ms, tasks_per_s = float(words[4]), float(words[-1])
    assert abs(total_ms - sum(medians)) <= 0.01 * len(medians)
    assert abs(tasks_per_s - 1e4 / total_ms) <= 0.01 * tasks_per_s
    words = lines[-1].split()
    assert words[:2] == ["peak", "RSS"] and words[-1] == "MB"
    # the peak only grows, so the one printed is at most the peak now
    peak_mb = float(words[2])
    assert 0.0 < peak_mb <= resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0 + 0.005
