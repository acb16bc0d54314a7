"""List what the slidescreen commands write at small fixed configs: each
command's exit code, stdout and stderr, then `sha256  path` for every file
written. The commands that succeed come first, then a fixed set that fails,
one per kind of fault, on bad inputs that the listing writes to bad/.

Two trees list the same iff their commands exit alike, print alike and
write the same bytes, so comparing the listings of two src/ directories
checks that a change keeps every output:

    python3 tools/output_digests.py ../parent/src > parent.txt
    python3 tools/output_digests.py src > change.txt
    python3 tools/output_digests.py --compare parent.txt change.txt tools/output_waivers.txt

--compare prints every line that is in one listing only, marked waived
when its name matches a pattern of the waiver file, and exits 1 if any is
not waived. A line's name is `command CMD`, `exit CMD`, `stdout CMD` or
`stderr CMD` for a command's own line, exit code and output lines (a
stderr line is listed after `2> `), with CMD the command after
`slidescreen`, and `file PATH` for a digest line. The
waiver file holds one fnmatch-style pattern over names per line; blank
lines and lines starting with # are skipped. A change that alters an
output on purpose names it there, and the next change empties the file:
a pattern that matches no line in one listing only is stale, and
--compare names it and exits 1.

Each command runs in a subprocess, with the given src/ first on sys.path,
OPENBLAS_NUM_THREADS=1 (trained bits depend on the BLAS thread count)
and COLUMNS=80 (argparse wraps its usage text to it), in a fresh
temporary directory and with paths relative to it, so that no listing
holds the directory's name. Needs only the standard library and the
package's own dependencies.
"""

from __future__ import annotations

import csv
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from fnmatch import fnmatchcase
from pathlib import Path

RUN = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
       "from slidescreen.cli import main; sys.exit(main(sys.argv[1:]))")
FIT = ["--seed", "7", "--epochs", "20"]
SLIDES = ["malignant_000", "normal_006"]
COMMANDS = [
    ["synth", "--out", "data", "--seed", "3", "--slides-per-label", "6", "--grid", "16"],
    ["extract", "--manifest", "data/noisy.csv", "--out", "features.csv"],
    ["extract", "--manifest", "data/noisy.csv", "--out", "features-jobs2.csv", "--jobs", "2"],
    *(["cv", "--features", "features.csv", "--model", kind, "--k", "3", *FIT, "--out", f"cv-{kind}"]
      for kind in ("widedeep", "ann", "svm", "rf", "knn")),
    ["compare", "--features", "features.csv", "--k", "3", *FIT, "--jobs", "2", "--out", "compare"],
    ["train", "--features", "features.csv", *FIT, "--out", "model.bin"],
    *(["predict", "--model", "model.bin", "--slide", f"data/{slide}.csv"] for slide in SLIDES),
    *(["heatmap", "--slide", f"data/{slide}.csv", "--out", f"heatmap-{slide}.csv"]
      for slide in SLIDES),
]
# each fails, on the inputs of write_bad_inputs: a bad row, a repeated id,
# one class, a truncated model, a missing file, a flag out of range
FAILING = [
    ["heatmap", "--slide", "bad/patches.csv", "--out", "bad/heatmap.csv"],
    ["extract", "--manifest", "bad/manifest.csv", "--out", "bad/features.csv"],
    *(["cv", "--features", "bad/one-class.csv", "--model", kind, "--k", "3", *FIT,
       "--out", f"bad/cv-{kind}"] for kind in ("widedeep", "knn")),
    ["predict", "--model", "bad/model.bin", "--slide", "data/malignant_000.csv"],
    ["heatmap", "--slide", "data/missing.csv", "--out", "bad/heatmap.csv"],
    ["cv", "--features", "features.csv", "--k", "1", *FIT, "--out", "bad/cv-k1"],
]


def write_noisy_manifest(data: Path) -> None:
    """synth's manifest with the label of its first slide of each class
    swapped, and a comma in those two slides' ids. Without the swap every
    classifier scores 100 % on synth's slides, so all five reports would be
    the same file; the commas make the table writer quote."""
    with open(data / "manifest.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    swapped = {"malignant": "normal", "normal": "malignant"}
    for row in [next(row for row in rows if row[1] == label) for label in swapped]:
        row[0], row[1] = f"{row[0]}, as {swapped[row[1]]}", swapped[row[1]]
    with open(data / "noisy.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_bad_inputs(work: Path) -> None:
    """The inputs of the failing commands, in bad/: a patch CSV whose
    second row holds a probability above 1, a manifest that names a slide
    twice, the malignant rows of features.csv, and model.bin cut off
    halfway through its payload."""
    bad = work / "bad"
    bad.mkdir()
    (bad / "patches.csv").write_text("x,y,prob_malignant\n0,0,0.5\n100,0,1.5\n",
                                     encoding="utf-8")
    (bad / "manifest.csv").write_text(
        "slide_id,label,predictions_path\n"
        "s1,malignant,../data/malignant_000.csv\ns1,normal,../data/normal_006.csv\n",
        encoding="utf-8")
    with open(work / "features.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(bad / "one-class.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [rows[0], *(row for row in rows[1:] if row[1] == "malignant")])
    model = (work / "model.bin").read_bytes()
    header_end = model.index(b"\n") + 1
    (bad / "model.bin").write_bytes(model[:(header_end + len(model)) // 2])


def named_lines(listing: str) -> Counter:
    """The (name, line) pairs of a listing, counted; see the module
    docstring for the names."""
    named, command = Counter(), ""
    for line in listing.splitlines():
        digest = re.fullmatch(r"[0-9a-f]{64}  (.*)", line)
        if line.startswith("$ slidescreen "):
            command = line[len("$ slidescreen "):]
            named[f"command {command}", line] += 1
        elif digest:
            named[f"file {digest[1]}", line] += 1
        elif line.startswith("2> "):
            named[f"stderr {command}", line] += 1
        else:
            kind = "exit" if re.fullmatch(r"exit -?\d+", line) else "stdout"
            named[f"{kind} {command}", line] += 1
    return named


def compare(parent: Path, change: Path, waivers: Path) -> int:
    patterns = [line.strip() for line in waivers.read_text(encoding="utf-8").splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    a, b = (named_lines(p.read_text(encoding="utf-8")) for p in (parent, change))
    unwaived, stale = 0, set(patterns)
    for sign, only in (("-", a - b), ("+", b - a)):
        for name, line in sorted(only):
            waived = {pattern for pattern in patterns if fnmatchcase(name, pattern)}
            stale -= waived
            unwaived += not waived
            print(f"{sign} {line}    [{name}: {'waived' if waived else 'NOT WAIVED'}]")
    for pattern in sorted(stale):
        print(f"stale waiver {pattern!r}: no line that differs matches it")
    return 1 if unwaived or stale else 0


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--compare":
        return compare(*map(Path, argv[1:]))
    if len(argv) != 1 or not (Path(argv[0]) / "slidescreen").is_dir():
        print("usage: output_digests.py SRC_DIR (the directory that holds slidescreen/)\n"
              "       output_digests.py --compare PARENT_LISTING CHANGE_LISTING WAIVERS",
              file=sys.stderr)
        return 64
    src = Path(argv[0]).resolve()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", COLUMNS="80")
    with tempfile.TemporaryDirectory() as work:
        for command in COMMANDS + FAILING:
            if command is FAILING[0]:
                write_bad_inputs(Path(work))
            done = subprocess.run([sys.executable, "-c", RUN, str(src), *command], cwd=work,
                                  env=env, capture_output=True, text=True)
            print(f"$ slidescreen {' '.join(command)}\nexit {done.returncode}")
            print(done.stdout, end="")
            for line in done.stderr.splitlines():
                print(f"2> {line}")
            if command[0] == "synth":
                write_noisy_manifest(Path(work) / "data")
        for path in sorted(p for p in Path(work).rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(work).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
