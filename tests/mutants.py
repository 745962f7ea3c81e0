"""One-line source mutants of the method's constants and comparisons, each of
which tier-1 must kill.

Run from anywhere, with the test dependencies installed::

    python3 tests/mutants.py

For each mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory, replaces the mutant's one line there, and runs
tier-1 on the copy with ``-x``. A mutant is killed when that run fails. The
unmutated copy runs first and must pass, or no kill would mean anything. The
script prints one row per mutant and exits non-zero when a mutant survives
that is not marked equivalent, or when a mutant's line is no longer in its
file (remove a mutant from the list only when its line leaves ``src/``).

It is not a test module: pytest does not collect it.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str          # under src/miquant
    old: str           # the line's text, found exactly once in the file
    new: str
    why: str
    equivalent: str = ""  # why no test can kill it; empty when one must


MUTANTS = [
    Mutant("segment.py", "OPENING_RADIUS = 1", "OPENING_RADIUS = 2",
           "the coarse mask's opening disk"),
    Mutant("segment.py", "BAR_ANGLES_DEG = (0.0, 30.0, 60.0, 90.0, 120.0, 150.0)",
           "BAR_ANGLES_DEG = (0.0, 30.0, 60.0, 90.0, 120.0)", "the top-hat's 150 degree bar"),
    Mutant("baselines.py", "N_SECTORS = 6", "N_SECTORS = 4", "the remote region's sectors"),
    Mutant("preprocess.py", "GAMMA = 1.5", "GAMMA = 1.4", "the contrast gamma"),
    Mutant("segment.py", "return scar >= need", "return scar > need",
           "the ensemble's majority vote"),
    Mutant("segment.py", "return out & np.asarray(myo, dtype=bool)", "return out",
           "refine keeps the output in the myocardium"),
    Mutant("segment.py", "BOUNDARY_RADIUS = 2", "BOUNDARY_RADIUS = 3", "the refine band"),
    Mutant("segment.py", "TRAINING_BAND_RADIUS = 5", "TRAINING_BAND_RADIUS = 4",
           "the band ensemble training samples"),
    Mutant("segment.py", "PATCH_STRIDE = 3", "PATCH_STRIDE = 2",
           "the lattice of training patch centres"),
    Mutant("segment.py", "xc = (x - mean) * INPUT_SCALE", "xc = x * INPUT_SCALE",
           "training patches centred on their mean"),
    Mutant("segment.py", "ENSEMBLE_MEMBERS = 7", "ENSEMBLE_MEMBERS = 5",
           "the paper's seven members"),
    # NLM moves a phantom pixel by about one grey level at most, which moves
    # no unrefined mask; the trained ensemble still learns it
    Mutant("preprocess.py", "NLM_H_FACTOR = 0.6", "NLM_H_FACTOR = 0.7",
           "the NLM filter strength"),
    Mutant("detect.py", '"diseased" if s >= model.tau else "healthy"',
           '"diseased" if s > model.tau else "healthy"', "a slice scoring tau is diseased"),
    Mutant("volcore.py", "if self.gt_scar is not None and self.gt_scar.data[k].any():",
           "if self.gt_scar is not None and self.gt_scar.data[k].sum() > 1:",
           "a slice with one scar voxel is diseased"),
    Mutant("detect.py",
           'raise DataError(f"a detection model\'s tau must be finite, not {self.tau!r}")',
           "pass", "a detector's tau is finite"),
    Mutant("segment.py", "member.windowed_trunk()", "pass",
           "an ensemble member can run windowed inference"),
    Mutant("baselines.py", "if mean < best_mean:", "if mean <= best_mean:",
           "remote-sector ties break toward the lowest index"),
]


def _tier1(tree: Path) -> tuple[int, float]:
    """The exit code and wall seconds of tier-1 with ``-x`` on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                          cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode, time.perf_counter() - t0


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for top in ("src", "tests"):
        shutil.copytree(ROOT / top, dest / top, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "unmutated"
        _copy(base)
        code, seconds = _tier1(base)
        print(f"unmutated: exit {code} in {seconds:.0f} s", flush=True)
        if code != 0:
            return 1
        bad = 0
        for i, m in enumerate(MUTANTS):
            tree = Path(tmp) / f"m{i}"
            _copy(tree)
            path = tree / "src" / "miquant" / m.file
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"stale     {m.file}: {m.old!r} is not in the file once", flush=True)
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            code, seconds = _tier1(tree)
            shutil.rmtree(tree)
            verdict = "killed" if code else ("equivalent" if m.equivalent else "SURVIVED")
            bad += verdict == "SURVIVED"
            print(f"{verdict:<10}{m.file}: {m.old} -> {m.new} ({m.why}; {seconds:.0f} s)",
                  flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
