"""tools/output_digests.py --compare: which differences between two
listings fail, which a waiver file excuses, and a waiver left stale."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"

PARENT = """\
$ slidescreen cv --features features.csv --k 3 --out cv
exit 0
wrote cv/report.csv
{digest}  cv/report.csv
"""


@pytest.mark.parametrize("difference, waivers, code, shown", [
    ("unwaived", "", 1, "[file cv/report.csv: NOT WAIVED]"),
    ("waived", "# a comment\nfile cv/*\n", 0, "[file cv/report.csv: waived]"),
    ("stale", "stderr cv *\n", 1, "stale waiver 'stderr cv *'"),
])
def test_compare(tmp_path, difference, waivers, code, shown):
    """Two listings that differ in one digest, but in none for the stale
    case, whose waiver then names a line that is the same in both."""
    parent, change, waiver_file = (tmp_path / name for name in ("a.txt", "b.txt", "w.txt"))
    parent.write_text(PARENT.format(digest="0" * 64), encoding="utf-8")
    change.write_text(PARENT.format(digest=("0" if difference == "stale" else "1") * 64),
                      encoding="utf-8")
    waiver_file.write_text(waivers, encoding="utf-8")
    done = subprocess.run([sys.executable, TOOL, "--compare", parent, change, waiver_file],
                          capture_output=True, text=True)
    assert done.returncode == code
    assert shown in done.stdout
    assert len(done.stdout.splitlines()) == (1 if difference == "stale" else 2)
