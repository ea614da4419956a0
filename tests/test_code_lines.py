"""tools/code_lines.py counts the package's code lines, and refuses a
folder with no modules, such as a checkout root, instead of counting 0."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CODE_LINES = ROOT / "tools" / "code_lines.py"


def count(folder):
    return subprocess.run([sys.executable, str(CODE_LINES), str(folder)],
                          capture_output=True, text=True)


def test_counts_the_package():
    out = count(ROOT / "src" / "coulomb1d")
    assert out.returncode == 0
    rows = [line.split() for line in out.stdout.splitlines()]
    assert rows[-1][1] == "total" and int(rows[-1][0]) > 0
    assert int(rows[-1][0]) == sum(int(n) for n, _ in rows[:-1])
    assert ["gridsolver.py" in row for row in rows].count(True) == 1


def test_folder_without_modules_is_refused(tmp_path):
    # a checkout root holds packages and tools, but no module of its own
    (tmp_path / "src").mkdir()
    (tmp_path / "README.md").write_text("no code here\n")
    out = count(tmp_path)
    assert out.returncode == 1
    assert out.stdout == ""
    assert str(tmp_path) in out.stderr and "no *.py files" in out.stderr
