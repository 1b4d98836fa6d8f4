#!/usr/bin/env python3
"""Plant one-line mutants in src/qglab and check that the tests kill each of them.

    python3 tools/mutants.py

A mutant is a (file, old, new) triple with the tests that should kill it.
`old` must occur exactly once in src/qglab/<file>.  Each mutant is applied
to a copy of the repository in a temporary directory, and its targeted
tests run there with `pytest -x`: the mutant is killed when they fail.
The unmutated copy runs the union of the targeted tests first, so a test
that fails or no longer exists cannot pass for a kill.

Prints one JSON object: the killed and surviving names, and per mutant its
file, the verdict, the first failing test and the seconds it took.  Exits 1
when a mutant survives or the unmutated tests fail.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/qglab, old, new, targeted tests)
MUTANTS = [
    ("dealias band n/3 -> n/2", "spectral.py", "lim = self.n / 3.0", "lim = self.n / 2.0",
     ("tests/test_spectral.py::test_dealias_two_thirds_rule",)),
    ("csv digits .17g -> .16g", "io.py", 'return f"{x:.17g}"', 'return f"{x:.16g}"',
     ("tests/test_io.py::test_write_series_and_read_back",)),
    ("flux sign", "diagnostics.py", "return 0.0 - float(np.sum(m * m * pairing))",
     "return 0.0 + float(np.sum(m * m * pairing))", ("tests/test_flux.py::test_flux_matches_reference",)),
    ("forcing work trapezoid -> right rectangle", "diagnostics.py",
     "0.5 * h * (prev.forcing_power + forcing_power)", "h * forcing_power",
     ("tests/test_diagnostics.py::test_forced_run_balance_includes_work",)),
    ("blow-up sentinel 1e12 -> 1e300", "stepping.py", "BLOWUP_SENTINEL = 1e12", "BLOWUP_SENTINEL = 1e300",
     ("tests/test_stepping.py::test_step_unstable_past_sentinel",)),
    ("kernel k1 = 0 mirror dropped", "models.py",
     "np.conjugate(adv[grid.n // 2 - 1 : 0 : -1, 0], out=adv[grid.n // 2 + 1 :, 0])", "pass",
     ("tests/test_models.py::test_advection_matches_complex_kernel",)),
    ("|r|_3/2 power 2/3 -> 0.6", "diagnostics.py", "* CELL_AREA_FACTOR) ** (2.0 / 3.0)",
     "* CELL_AREA_FACTOR) ** 0.6", ("tests/test_flux.py::test_flux_matches_reference",)),
    ("Picard horizon mu/(4R) -> mu/(2R)", "stepping.py", "T = p.mu / (4.0 * R)", "T = p.mu / (2.0 * R)",
     ("tests/test_stepping.py::test_picard_steady_datum_converges_immediately",)),
    ("CFL advice x 10", "stepping.py", "limit = 2.8 / (umax", "limit = 28.0 / (umax",
     ("tests/test_stepping.py::test_run_warns_above_the_advisory_cfl_bound",)),
    ("PICARD_RATIO_LIMIT 0.55 -> 0.9", "errors.py", "PICARD_RATIO_LIMIT = 0.55", "PICARD_RATIO_LIMIT = 0.9",
     ("tests/test_stepping.py::test_picard_ratio_limit_is_pinned_by_data",)),
    ("RK4 unit factor 2 -> 2 + 1e-15", "stepping.py", "return 1.0, 1.0, dt, 2.0", "return 1.0, 1.0, dt, 2.0 + 1e-15",
     ("tests/test_stepping.py::test_step_in_work_arrays_matches_reference_expressions",)),
    ("sweep distance without weights", "stepping.py", "    terms *= weights\n", "",
     ("tests/test_stepping.py::test_sup_hs_distance_matches_reference_expression",)),
    ("sweep distance of a single state by rows", "stepping.py", "terms.reshape(*b.shape[:-2], -1).sum(axis=-1)",
     "terms.reshape(len(b), -1).sum(axis=1)",
     ("tests/test_stepping.py::test_sup_hs_distance_of_single_states_is_the_full_norm",)),
    ("sweep distance written into a", "stepping.py", "np.subtract(a, b, out=b)", "np.subtract(a, b, out=a)",
     ("tests/test_stepping.py::test_sup_hs_distance_keeps_a_and_overwrites_b",)),
    ("H^s weight |k|^s in place of |k|^(2s)", "spectral.py",
     "self.parseval_weights * self.sqrt_laplacian(2.0 * s)", "self.parseval_weights * self.sqrt_laplacian(s)",
     ("tests/test_spectral.py::test_grid_sqrt_laplacian_symbol",)),
    ("sampling intervals not checked for integers", "stepping.py",
     "if not isinstance(value, (int, np.integer)):", "if False:",
     ("tests/test_diagnostics.py::test_invalid_input_raises_validation_error",)),
    ("sampling intervals kept as numpy integers", "stepping.py",
     "object.__setattr__(self, name, int(value))", "pass",
     ("tests/test_stepping.py::test_sampling_intervals_are_held_as_python_ints",)),
    ("stacked check on the stack's largest coefficient", "spectral.py",
     "peaks = np.abs(coeffs).max(axis=(-2, -1))", "peaks = np.abs(coeffs).max()",
     ("tests/test_spectral.py::test_node_fields_check_the_stack_as_spectral_field_does",)),
    ("node fields as views of the stack", "spectral.py",
     "_derived_field(grid, np.array(c, dtype=np.complex128))", "_derived_field(grid, c)",
     ("tests/test_stepping.py::test_picard_states_are_read_only_copies_the_work_does_not_reach",)),
    ("record energy as a float power", "diagnostics.py", "energy = lp[2.0] * lp[2.0]", "energy = lp[2.0] ** 2",
     ("tests/test_diagnostics.py::test_make_record_past_the_double_range_of_the_squares",)),
    ("Riesz symbols i k / |k|^0.9, still divergence free", "spectral.py",
     "np.divide(unit * k, self.kabs, out=mj", "np.divide(unit * k, self.kabs ** 0.9, out=mj",
     ("tests/test_hamiltonian.py::test_hamiltonian_is_conserved",)),
]


def _copy(dest: Path) -> None:
    """The repository without its history, caches and test-run leftovers; tests read README.md and benchmarks/."""
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis", "*.egg-info"))


def _pytest(tree: Path, tests) -> tuple[bool, str | None]:
    """Whether `tests` pass in `tree`, stopping at the first failure, and that failure's id."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode == 0, failed.group(1) if failed else None


def _apply(tree: Path, file: str, old: str, new: str) -> None:
    path = tree / "src" / "qglab" / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"mutant site {old!r} occurs {text.count(old)} times in {file}, not once")
    path.write_text(text.replace(old, new), encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="qglab-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        union = list(dict.fromkeys(t for m in MUTANTS for t in m[4]))
        passed, failed = _pytest(clean, union)
        if not passed:
            print(json.dumps({"error": "the unmutated tests fail", "failed": failed}))
            return 1
        results = []
        for i, (name, file, old, new, tests) in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{i}"
            _copy(tree)
            _apply(tree, file, old, new)
            start = time.perf_counter()
            passed, failed = _pytest(tree, tests)
            results.append({"name": name, "file": file, "killed": not passed, "by": failed,
                            "seconds": round(time.perf_counter() - start, 2)})
            shutil.rmtree(tree)
    report = {
        "killed": [r["name"] for r in results if r["killed"]],
        "survived": [r["name"] for r in results if not r["killed"]],
        "mutants": results,
    }
    print(json.dumps(report, indent=1))
    return 1 if report["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
