"""The side-by-side timer of tools/abtime.py, at the census's quick size:
a tree matches itself and is timed, and a tree whose projector moves a
nearest point by one float is refused before timing."""

import subprocess
import sys

from test_census import ROOT, mutated

ABTIME = ROOT / "tools" / "abtime.py"


def abtime(base) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ABTIME), "--base", str(base), "--quick"],
        capture_output=True, text=True, timeout=120, check=False,
    )


def test_tree_is_timed_against_itself():
    out = abtime(ROOT)
    assert out.returncode == 0 and out.stderr == ""
    lines = out.stdout.splitlines()
    assert lines[0] == "276 states, every distance_general field bit-identical"
    assert lines[1].startswith("time ratio head/base ")
    assert [line.split()[0] for line in lines[3:]] == ["2", "3", "5", "8", "32", "64"]


def test_differing_tree_is_refused(tmp_path):
    base = mutated(
        tmp_path,
        "distance.py",
        "\n\n_exact = _project_cut\n\n\n"
        + "def _project_cut(r, data, floor):\n"
        + "    x = _exact(r, data, floor)\n"
        + "    return [math.nextafter(x[0], 2.0), *x[1:]]\n",
    )
    out = abtime(base)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.startswith("abtime: ") and " states differ\n" in out.stderr
