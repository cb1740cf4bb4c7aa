"""The output census of tools/census.py, at its quick size: a tree matches
itself in every family, and a one-ulp change in the closed form's
distances or in the projector's nearest points, and a reordered sum of the
projector's slope, are reported."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CENSUS = ROOT / "tools" / "census.py"
FAMILIES = ["scan", "qutrit-points", "cli-short", "general", "sample-min"]


def mutated(tmp_path: Path, module: str, patch: str, before: str | None = None) -> Path:
    """A copy of the source tree with `patch` appended to ncdist/`module`,
    or inserted before the one line `before` there."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "ncdist" / module
    text = path.read_text()
    if before is None:
        text += patch
    else:
        assert text.count(before) == 1
        text = text.replace(before, patch + before)
    path.write_text(text)
    return tmp_path


def census(base: Path) -> tuple[int, list[dict]]:
    """Exit status and per-family summaries of a quick census of this tree
    against the source directory `base`."""
    out = subprocess.run(
        [sys.executable, str(CENSUS), "--base", str(base), "--quick"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert out.stderr == ""
    return out.returncode, [json.loads(line) for line in out.stdout.splitlines()]


def test_tree_matches_itself():
    code, summary = census(ROOT)
    assert code == 0
    assert [s["family"] for s in summary] == FAMILIES
    for s in summary:
        assert s["cases"] > 0 and s["differ"] == 0 and s["examples"] == []


def test_one_ulp_distance_change_is_reported(tmp_path):
    """A base whose `_cut_projection` returns every distance one float up:
    qutrit_distance's fields differ wherever the distance is nonzero, and
    the scan bytes where a 12-digit text moves; the projector's commands
    and states do not change."""
    base = mutated(
        tmp_path,
        "geometry.py",
        "\n\nimport math\n\n_exact = _cut_projection\n\n\n"
        + "def _cut_projection(xi3, xi8, frame):\n"
        + "    ends, d = _exact(xi3, xi8, frame)\n"
        + "    return ends, [math.nextafter(v, 1.0) for v in d]\n",
    )
    code, summary = census(base)
    assert code == 1
    scan, points, short, general, _ = summary
    assert scan["differ"] > 0 and points["differ"] > 0
    assert short["differ"] == 0 and general["differ"] == 0
    example = points["examples"][0]
    assert example["base"][1] != example["head"][1]  # distance_paper
    assert example["base"][0] == example["head"][0]  # region


def test_one_ulp_nearest_point_change_is_reported(tmp_path):
    """A base whose projector returns every nearest point with its first
    entry one float up: `distance_general`'s fields differ on nonclassical
    states, while the closed form's scans and points do not change."""
    base = mutated(
        tmp_path,
        "distance.py",
        "\n\n_exact = _project_cut\n\n\n"
        + "def _project_cut(r, data, floor):\n"
        + "    x = _exact(r, data, floor)\n"
        + "    return [math.nextafter(x[0], 2.0), *x[1:]]\n",
    )
    code, summary = census(base)
    assert code == 1
    scan, points, _, general, _ = summary
    assert scan["differ"] == 0 and points["differ"] == 0 and general["differ"] > 0
    example = general["examples"][0]
    assert example["base"][5] != example["head"][5]  # nearest


def test_reordered_start_slope_is_reported(tmp_path):
    """A base whose projector sums g's slope in reverse block order, in
    `_read`, the one statement of it: at the start, where the kernel's
    record takes it over single entries, and after each step that merges
    blocks. The nearest points of some `general` states move by rounding,
    while the closed form's scans and points and the short commands do
    not change."""
    base = mutated(
        tmp_path,
        "distance.py",
        "    slope = 0.0\n"
        + "    for start, end in reversed(list(zip([0, *ends], ends))):\n"
        + "        slope += (end - start) * ((pa[end] - pa[start]) / (end - start) - mean_t) ** 2\n",
        before="    return math.fsum(terms), slope\n",
    )
    code, summary = census(base)
    assert code == 1
    scan, points, short, general, _ = summary
    assert scan["differ"] == 0 and points["differ"] == 0 and short["differ"] == 0
    assert general["differ"] > 0


def test_one_ulp_sampler_change_is_reported(tmp_path):
    """A base whose block evaluator returns every sampled Wigner value one
    float up: the printed `sample-min` output does not change, since the
    eigenbasis candidate beats every draw, but the record of the minimum
    over the draws alone does, in every case that draws; the other
    families do not change."""
    base = mutated(
        tmp_path,
        "wigner.py",
        "\n\n_exact = _block_values\n\n\n"
        + "def _block_values(g, d, e, pi, work):\n"
        + "    import numpy as np\n\n"
        + "    vals = _exact(g, d, e, pi, work)\n"
        + "    vals.real = np.nextafter(vals.real, np.inf)\n"
        + "    return vals\n",
    )
    code, summary = census(base)
    assert code == 1
    *others, sample_min = summary
    assert [s["differ"] for s in others] == [0, 0, 0, 0]
    assert sample_min["differ"] == 12
    for example in sample_min["examples"]:
        assert example["base"][:3] == example["head"][:3]
        assert example["base"][3] != example["head"][3]
