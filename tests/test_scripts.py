"""The experiment scripts run end to end and print their closing summaries."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script, tmp_path, *args):
    """Run a script from tmp_path; it must exit 0 and leave its temp dir empty."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = dict(os.environ, TMPDIR=str(scratch))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert not list(scratch.iterdir())
    return proc.stdout.splitlines()


@pytest.mark.parametrize("script, last_line", [
    ("run_suite_report.py", "algebra laws (100 samples): pass"),
    ("run_weave_entry_demo.py", "26/26 cylinders entered at their computed exponents"),
])
def test_script_closes_with_its_summary(script, last_line, tmp_path):
    assert _run(script, tmp_path)[-1] == last_line


def test_verify_translation_script_writes_into_out(tmp_path):
    out = tmp_path / "out"
    lines = _run("run_verify_translation.py", tmp_path, "--out", str(out))
    assert lines[-2:] == ["rollup: PASS", f"artifacts in {out.resolve()}"]
    assert (out / "stats.csv").is_file() and (out / "verify.json").is_file()


def test_weave_demo_prints_exponents_past_the_decimal_digit_limit(tmp_path):
    # pattern 2187 enters at an exponent of ~94,600 bits, past int -> str's limit
    lines = _run("run_weave_entry_demo.py", tmp_path, "--patterns", "2187")
    assert lines[-1] == "2187/2187 cylinders entered at their computed exponents"
    assert lines[-3].startswith("pattern 2187 ") and "exponent ~2^94596 entered" in lines[-3]


def _mutants():
    spec = importlib.util.spec_from_file_location("run_mutants", ROOT / "scripts" / "run_mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


@pytest.mark.parametrize("mutant", _mutants(), ids=lambda m: m.name)
def test_each_mutant_still_names_one_line_of_its_file(mutant):
    # the mutant runner is not part of the suite; this keeps its list from
    # going stale when the code it mutates is edited
    assert (ROOT / mutant.path).read_text().count(mutant.original) == 1
    assert mutant.mutated != mutant.original and "\n" not in mutant.original
    for node in mutant.tests:
        path, name = node.split("::")
        assert f"def {name}(" in (ROOT / path).read_text(), node
