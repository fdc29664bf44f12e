"""Planted faults: every check in the package must be pinned by a test.

Each mutant is one exact source-text replacement in ``src/dintervals``.
For each, the repository is copied to a temporary directory, the mutant
is applied there, and the tier-1 suite runs with ``pytest -x -q``, its
acceptance module last.  A mutant is killed when the suite fails and
survives when it passes; one killed only by the timeout shows as such.

Run from the repository root (pytest does not collect this file):

    python tests/mutants.py                  # every mutant
    python tests/mutants.py bound-d-squared  # only the named ones

Every mutant's text is looked up before anything runs, and a text that
is missing or not unique stops the run, since the source it names has
moved.  Prints one row per mutant and exits 1 when any survives or is
killed only by the timeout.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "dintervals"
TIMEOUT_S = 600
ACCEPTANCE = "tests/test_acceptance.py"

# name -> (module, original text, mutated text)
MUTANTS = {
    "tau-skips-search-within-one": (
        "piercing.py",
        "    if best_size > root_lb:\n",
        "    if best_size > root_lb + 1:\n",
    ),
    "tau-witness-check-off": (
        "piercing.py",
        "        if set(s).isdisjoint(picked):\n",
        "        if False:\n",
    ),
    "nu-prune-off": (
        "piercing.py",
        "        if len(best) >= most or len(chosen) + len(allowed) <= len(best):\n",
        "        if len(chosen) + len(allowed) <= len(best):\n",
    ),
    "nu-recheck-meet-replaced": (
        "piercing.py",
        "        if _meet(family[i].runs, family[j].runs) is not None:\n",
        "        if None is not None:\n",
    ),
    "nu-recheck-off-in-place": (
        "piercing.py",
        "        if _meet(family[i].runs, family[j].runs) is not None:\n",
        "        if False and _meet(family[i].runs, family[j].runs) is not None:\n",
    ),
    "lp-overload-check-off": (
        "piercing.py",
        "        if sum(Y[j] for j in through) > q:\n",
        "        if False:\n",
    ),
    "lp-duality-check-off": (
        "piercing.py",
        "    if dual_value * out.value.denominator != out.value.numerator * q:\n",
        "    if False:\n",
    ),
    "bound-d-squared": (
        "piercing.py",
        "    return res.tau <= (d * d - d) * res.nu, res.tau, res.nu\n",
        "    return res.tau <= (d * d) * res.nu, res.tau, res.nu\n",
    ),
    "pierce-sandwich-check-off": (
        "piercing.py",
        "    if not (nu <= lp.value <= tau):\n",
        "    if False:\n",
    ),
    "meet-drops-one-cell-overlaps": (
        "geometry.py",
        "            if first <= last:\n                runs.append((first, last))\n",
        "            if first < last:\n                runs.append((first, last))\n",
    ),
    "walk-meet-drops-one-cell-overlaps": (
        "geometry.py",
        "                            if lo <= hi:\n",
        "                            if lo < hi:\n",
    ),
    "radon-middle-check-off": (
        "helly.py",
        "    if _least_meet([c for c in cells if c != middle], [middle], d) != middle:\n",
        "    if False:\n",
    ),
    "radon-first-middle-below-2d+1": (
        "helly.py",
        "    middle = middles[0] if len(cells) >= 2 * d + 1 else middles[-1]\n",
        "    middle = middles[0]\n",
    ),
    "radon-last-middle-from-2d+1": (
        "helly.py",
        "    middle = middles[0] if len(cells) >= 2 * d + 1 else middles[-1]\n",
        "    middle = middles[-1]\n",
    ),
    "colorful-claim-check-off": (
        "helly.py",
        "            if p not in member:\n",
        "            if False:\n",
    ),
    "maxima-witness-2d-k+1": (
        "helly.py",
        "    if len(indices) > 2 * d - k:\n",
        "    if len(indices) > 2 * d - k + 1:\n",
    ),
    "frac-verdict-alpha-over-r+1": (
        "helly.py",
        "    report.verdict = beta >= alpha / r\n",
        "    report.verdict = beta >= alpha / (r + 1)\n",
    ),
    "cfh-exponent-2d+1": (
        "helly.py",
        "    ok = any((1 - b) ** (2 * d) <= 1 - alpha for b in betas)\n",
        "    ok = any((1 - b) ** (2 * d + 1) <= 1 - alpha for b in betas)\n",
    ),
    "maxima-extremes-check-off": (
        "helly.py",
        "        if runs[j_lo][lvl][0] <= runs[j_hi][lvl][1]:\n",
        "        if False:\n",
    ),
    "maxima-sweep-check-off": (
        "helly.py",
        "    if sub_joint is None or _sweep_key(sub_joint) != target:\n",
        "    if False:\n",
    ),
    "colorful-minimum-check-off": (
        "helly.py",
        "    if len(finite) < k:\n",
        "    if False:\n",
    ),
    "colorful-thin-at-k-levels": (
        "helly.py",
        "        if levels < k:\n            return combo",
        "        if levels <= k:\n            return combo",
    ),
    "k-range-from-0": (
        "helly.py",
        "    if not 1 <= k <= d:\n",
        "    if not 0 <= k <= d:\n",
    ),
    "sweep-rebuilt-nerve-check-off": (
        "complexes.py",
        "        if dead != gone:\n",
        "        if False:\n",
    ),
    "replay-removed-faces-check-off": (
        "complexes.py",
        "            if removed != step.removed_faces:\n",
        "            if False:\n",
    ),
    "collapse-step-refusal-off": (
        "complexes.py",
        "        if not self.free_face <= self.unique_maximal:\n",
        "        if False:\n",
    ),
    "sweep-support-check-off": (
        "complexes.py",
        "        if n > bound:\n",
        "        if False:\n",
    ),
    "sweep-free-check-off": (
        "complexes.py",
        "        if len(maximal) != 1:\n            raise fail(",
        "        if False:\n            raise fail(",
    ),
    "sweep-fallback-block-check-off": (
        "complexes.py",
        "                if pivot not in block or not all(f <= star for f in block):\n",
        "                if False:\n",
    ),
    "sweep-fallback-search-check-off": (
        "complexes.py",
        "                if found is None:\n",
        "                if False:\n",
    ),
    "frac-grouped-past-direct-check-off": (
        "helly.py",
        "    if grouped_best > len(direct_best):",
        "    if False:",
    ),
    "radon-walk-uncharged": (
        "helly.py",
        "        check_guard(\"PQ_WORK\", \"radon subset enumeration\", work)\n",
        "        pass\n",
    ),
    "sampler-walk-uncharged": (
        "generators.py",
        "        _colorful_work([range(n_sets)] * arity)\n",
        "        pass\n",
    ),
    "helly-lower-bound-check-off": (
        "generators.py",
        "    if _joint(t.runs for t in family) is not None:\n",
        "    if False:\n",
    ),
    "radon-lower-bound-check-off": (
        "generators.py",
        "    if radon_partition(ground, points) is not None:\n",
        "    if False:\n",
    ),
    "collapse-suite-replay-check-off": (
        "experiments.py",
        "            if not final.is_terminal:\n",
        "            if False:\n",
    ),
    "radon-suite-partition-check-off": (
        "experiments.py",
        "                if part is None or not part.verify(ground):\n",
        "                if False:\n",
    ),
    "radon-suite-number-check-off": (
        "experiments.py",
        "            if number != 2 * d + 1:\n",
        "            if False:\n",
    ),
    "pierce-suite-pigeonhole-check-off": (
        "experiments.py",
        "                if cover * res.nu_star < total:\n",
        "                if False:\n",
    ),
    "witness-suite-oracle-check-off": (
        "experiments.py",
        "            if not any(\n",
        "            if False and not any(\n",
    ),
    "oracle-suite-replay-downgrade-off": (
        "experiments.py",
        "        if witness is not None and not witness.replays_to_empty():\n",
        "        if False:\n",
    ),
    "witness-prefix-refused-at-k": (
        "experiments.py",
        "        if _levels(joint) < k:\n",
        "        if _levels(joint) <= k:\n",
    ),
    "witness-refused-prefix-kept": (
        "experiments.py",
        "        if _levels(joint) < k:\n",
        "        if False:\n",
    ),
}


def _check_texts(names) -> None:
    for name in names:
        module, old, _ = MUTANTS[name]
        found = (ROOT / PACKAGE / module).read_text(encoding="utf-8").count(old)
        if found != 1:
            raise SystemExit(f"mutant {name}: its text occurs {found} times in {module}, not once")


def _test_paths() -> list[str]:
    """The tier-1 test files (pyproject's testpaths) with the acceptance
    module last: under ``-x`` a fast test that fails stops the run before
    the acceptance suites take their minutes."""
    tests = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "tests").glob("test_*.py"))
    tests.remove(ACCEPTANCE)
    return [*tests, "bench/test_oracles.py", ACCEPTANCE]


def _run(name: str) -> tuple[str, float]:
    module, old, new = MUTANTS[name]
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")
    with tempfile.TemporaryDirectory(prefix="dintervals-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=ignore)
        path = copy / PACKAGE / module
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *_test_paths()],
                cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "killed (timeout)", time.perf_counter() - start
        verdict = "survived" if done.returncode == 0 else "killed"
        return verdict, time.perf_counter() - start


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in MUTANTS]
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(unknown)}")
    names = argv or list(MUTANTS)
    _check_texts(names)
    survivors = 0
    print("| mutant | module | verdict | seconds |\n|---|---|---|---|")
    for name in names:
        verdict, seconds = _run(name)
        survivors += verdict != "killed"
        print(f"| {name} | {MUTANTS[name][0]} | {verdict} | {seconds:.1f} |", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
