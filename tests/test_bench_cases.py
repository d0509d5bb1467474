"""Every benchmark case passes the benchmark's own check, in process.

perfbench/cases.py is loaded read-only. Each workload is built at seeds
0-3 with the traced-only cases included, and each distinct case runs once
through `run_command` with `--format structured`: the goldens, the
independent verdict rules and the expected failures are all checked here,
not only in a benchmark run."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from oddsig.cli import run_command

ROOT = Path(__file__).resolve().parent.parent


def _load_cases():
    spec = importlib.util.spec_from_file_location("bench_cases", ROOT / "perfbench" / "cases.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module of a class through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


cases = _load_cases()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_every_benchmark_case_passes_its_check(workload, tmp_path):
    seen, failures = set(), []
    for seed in range(4):
        # a seed writes its drawn inputs under fixed names, so each gets a directory
        workdir = tmp_path / f"seed{seed}"
        workdir.mkdir()
        for case in cases.build_cases(workload, ROOT, workdir, seed, traced=True):
            # a drawn input is told apart by its content, not by its path
            key = (case.id, tuple(Path(a).read_text(encoding="utf-8") if a.startswith(str(workdir))
                                  else a for a in case.argv))
            if key in seen:
                continue
            seen.add(key)
            argv = case.argv + ["--format", "structured"]
            code, out, err = _run(argv)
            problem = cases.check(case, argv, code, out)
            if problem is not None:
                failures.append(f"{case.id} (seed {seed}): {problem}; {err.strip()[-200:]}")
    assert not failures, failures
    assert seen
