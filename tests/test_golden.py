"""The CLI outputs of the tree against a fixed reference.

tests/data/cli_outputs.json.gz holds the outputs of the requests of
tools/compare_outputs.py as `compare_outputs.py --write` served them at
one commit (CHANGES.md names it). Here the tree serves the same requests
in this process: exit codes and all text outside the numbers must be
equal, and no printed number may move by more than BOUND relative to the
larger of the two (numbers below the tool's FLOOR in both outputs are
compared absolutely). A change checked against its parent alone can move
the last digits a little each time; this holds the sum of those moves
against one reference.
"""
import gzip
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "cli_outputs.json.gz"
BOUND = 1e-10  # largest relative change of a printed number


def test_cli_outputs_match_the_golden_reference(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the requests name bench/scenarios relatively
    monkeypatch.setattr(sys, "path", list(sys.path))  # restored afterwards
    sys.path.insert(0, str(ROOT / "tools"))
    import compare_outputs as co

    def placed(text):
        return text.replace(str(tmp_path), co.WITNESS_DIR)

    reference = json.loads(gzip.decompress(GOLDEN.read_bytes()))["requests"]
    co.write_witness_files(tmp_path)
    argvs = co.requests(tmp_path)
    assert [[placed(a) for a in argv] for argv in argvs] == [
        r["argv"] for r in reference]
    rel = small = 0.0
    worst = None
    for argv, want, (rc, out, err) in zip(argvs, reference,
                                          co.serve_all(argvs)):
        label = " ".join(placed(a) for a in argv)
        assert rc == want["exit"], label
        for got, text in ((out, want["stdout"]), (err, want["stderr"])):
            changes = co.number_changes(text, placed(got))
            assert changes is not None, f"text differs outside its numbers: {label}"
            if changes[0] > rel:
                rel, worst = changes[0], label
            small = max(small, changes[1])
    print(f"largest relative change of a printed number: {rel:.3g}"
          + (f" ({worst})" if worst else "")
          + f"; largest absolute change below {co.FLOOR:g}: {small:.3g}")
    assert rel <= BOUND, worst
    assert small <= co.FLOOR
