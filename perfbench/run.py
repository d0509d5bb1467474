"""The oddsig benchmark: CLI verdict workloads timed end to end, and a
separate traced pass that gives per-layer counts and self times.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --compare BASE NEW

Run from the root of a source tree (it needs `src/oddsig` and `fixtures/`).
Load model: a closed loop with one client. Each case is a fresh
`python -m oddsig.cli ... --format structured` process, run one at a time,
so every case pays interpreter start, `import oddsig` and cold per-order
tables, as a CLI user does. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the `end_to_end` metrics of
BENCHMARK.json with `--trace 0`, its `per_layer` metrics with `--trace 1`.
Each run also writes a result file (with Python version, CPU count and model,
commit and seed) under `.perfbench/results/`, which `--compare` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import cases as workloads
from tracer import FUNCTIONS, self_times

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench"
# set-up samples per pass, spread evenly between its cases: the median of
# samples spread over the run is steady, where back-to-back samples all
# fall into the same second of the host's speed changes
SETUP_PER_PASS = 24
# a case still running after this long is killed and counts as failed, so a
# run ends within its time limit and leaves no process behind
CASE_TIMEOUT_S = 120
SETUP_SNIPPET = "import oddsig.cli as c; c.build_parser()"
# field orders with their own multiplication count: every order the three
# workloads multiply in; any other order is counted under "Nother"
MUL_ORDERS = (1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 20, 24)
KERNEL_ORDERS = (4, 7, 12, 24)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], workdir: Path) -> tuple[int, float, int, str, str]:
    """Run argv to completion; (exit code, wall s, peak RSS KiB, stdout, stderr)."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        watchdog = threading.Timer(CASE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss,
            out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"))


def setup_samples(workdir: Path, count: int) -> list[float]:
    """Wall times of fresh interpreters importing the CLI and building its
    parser."""
    times = []
    for _ in range(count):
        code, wall, _, _, err = spawn([sys.executable, "-c", SETUP_SNIPPET], workdir)
        if code != 0:
            raise RuntimeError(f"set-up failed: {err.strip()}")
        times.append(wall)
    return times


def run_pass(case_list, workdir: Path, traced: bool, setup_count: int = 0) -> dict:
    """One pass over the cases; per-case records, and spans when traced.
    `setup_count` set-up samples are taken at evenly spaced points between
    the cases; the pass wall time is that of its cases alone."""
    records, spans, setup = [], [], []
    marks = {len(case_list) * k // setup_count for k in range(setup_count)}
    for i, case in enumerate(case_list):
        if i in marks:
            setup += setup_samples(workdir, 1)
        argv = case.argv + ["--format", "structured"]
        if traced:
            spans_path = workdir / "spans.json"
            spans_path.unlink(missing_ok=True)
            command = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *argv]
        else:
            command = [sys.executable, "-m", "oddsig.cli", *argv]
        code, wall, rss_kib, stdout, stderr = spawn(command, workdir)
        problem = workloads.check(case, argv, code, stdout)
        if traced and problem is None and not spans_path.exists():
            problem = "the traced run wrote no spans"
        if problem is not None:
            print(f"FAILED {case.id}: {problem}; stderr: {stderr.strip()[-300:]}",
                  file=sys.stderr)
        record = {"case": case.id, "exit": code, "wall_s": wall,
                  "rss_kib": rss_kib, "ok": problem is None}
        if traced and problem is None and code == 0:
            # the report less `command` and `timing_seconds`, so the size
            # depends neither on where the checkout is nor on the clock
            record["report_bytes"] = len(
                workloads.deterministic_part(stdout).encode("utf-8"))
        records.append(record)
        if traced and spans_path.exists():
            doc = json.loads(spans_path.read_text(encoding="utf-8"))
            doc["case"] = case.id
            spans.append(doc)
    return {"wall_s": sum(r["wall_s"] for r in records), "records": records,
            "spans": spans, "setup": setup}


def end_to_end(passes: list[dict], heavy: str) -> dict:
    """Statistics over the samples of the run: a case of under a few
    seconds runs wholly inside one of the host's fast or slow moments, so
    one sample says little. Every case runs at least twice a pass;
    `verdicts_per_s` is the rate of one pass that takes each case's median
    time and counts only its correct share. The heavy case's samples fall
    into a fast and a slow cluster in shares that change from run to run,
    so their median jumps between the clusters where their mean moves
    smoothly: `case_s.max` is the mean."""
    records = [r for p in passes for r in p["records"]]
    by_case: dict = {}
    for r in records:
        by_case.setdefault(r["case"], []).append(r)
    median_s = {c: statistics.median(r["wall_s"] for r in rs) for c, rs in by_case.items()}
    correct = sum(sum(r["ok"] for r in rs) / len(rs) for rs in by_case.values())
    return {
        "setup_s": statistics.median(s for p in passes for s in p["setup"]),
        "verdicts_per_s": correct / sum(median_s.values()),
        "case_s.p50": statistics.median(r["wall_s"] for r in records),
        "case_s.max": statistics.mean(r["wall_s"] for r in by_case[heavy]),
        "peak_rss_mb": max(r["rss_kib"] for r in records) / 1024,
        "correct_fraction": sum(r["ok"] for r in records) / len(records),
    }


def kernel(seed: int) -> dict:
    """Untraced per-operation time of cyclotomic mul and inverse, in
    microseconds: median over blocks of seed-drawn dense operands, with the
    per-order tables built before timing."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from oddsig.exactnum import CyclotomicElement, euler_phi

    rng = random.Random(f"kernel:{seed}")
    out = {}
    for order in KERNEL_ORDERS:
        phi = euler_phi(order)

        def draw():
            coords = [Fraction(0)] * phi
            while not any(coords):
                coords = [Fraction(rng.randint(-20, 20), rng.randint(1, 6))
                          for _ in range(phi)]
            return CyclotomicElement(order, coords)

        pairs = [(draw(), draw()) for _ in range(64)]
        singles = [a for a, _ in pairs[:16]]
        pairs[0][0] * pairs[0][1]  # builds the tables of this order
        for label, fn, items, blocks in (
                ("mul_us", lambda p: p[0] * p[1], pairs, 9),
                ("inverse_us", lambda a: a.inverse(), singles, 9)):
            per_op = []
            for _ in range(blocks):
                started = time.perf_counter()
                for item in items:
                    fn(item)
                per_op.append((time.perf_counter() - started) / len(items) * 1e6)
            out[f"exactnum.{label}.N{order}"] = statistics.median(per_op)
    return out


def per_layer(untraced: dict, traced: dict, kernel_us: dict) -> dict:
    calls, self_s, counters = Counter(), Counter(), Counter()
    for doc in traced["spans"]:
        c, s = self_times(doc["names"], doc["spans"])
        calls.update(c)
        self_s.update(s)
        counters.update(doc["counters"])
    metrics = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    prefix = "exactnum.mul.calls.N"
    by_order = {k: counters.pop(k) for k in list(counters) if k.startswith(prefix)}
    for order in MUL_ORDERS:
        metrics[f"{prefix}{order}"] = by_order.pop(f"{prefix}{order}", 0)
    metrics[f"{prefix}other"] = sum(by_order.values())
    for key in ("matgroup.closure.elements", "matgroup.cyclic_subgroups.count"):
        metrics[key] = counters[key]
    metrics["serialize.report_bytes"] = sum(
        r.get("report_bytes", 0) for r in traced["records"])
    metrics["cli.import_s"] = statistics.median(d["import_s"] for d in traced["spans"])
    metrics["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    metrics.update(kernel_us)
    return metrics


def environment(seed) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpu_model": cpu, "commit": commit, "seed": seed}


def select(metrics: dict, declared: list[dict]) -> dict:
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    case_list = workloads.build_cases(workload, ROOT, workdir, seed, traced=trace)
    bench = spec()
    if trace:
        untraced = run_pass(case_list, workdir, traced=False)
        traced = run_pass(case_list, workdir, traced=True)
        passes = [untraced, traced]
        metrics = per_layer(untraced, traced, kernel(seed))
        declared = bench["per_layer"]
    else:
        setup_samples(workdir, 1)  # writes bytecode, warms the file cache
        passes = []
        started = time.perf_counter()
        while True:
            passes.append(run_pass(case_list, workdir, traced=False,
                                   setup_count=SETUP_PER_PASS))
            # stop before a pass that would end past the measuring time
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(passes) > seconds:
                break
        metrics = end_to_end(passes, workloads.HEAVY_CASE[workload])
        declared = bench["end_to_end"]
    records = [r for p in passes for r in p["records"]]
    failed = sum(not r["ok"] for r in records)
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "env": environment(seed), "passes": len(passes),
        "records": records, "spans": [s for p in passes for s in p["spans"]],
        "setup_s": [s for p in passes for s in p["setup"]],
        "summary": {"correct": failed == 0, "attempted": len(records),
                    "failed": failed, "metrics": select(metrics, declared)},
    }


def write_results(result: dict) -> Path:
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}-{os.getpid()}"
    spans = result.pop("spans")
    if spans:
        with open(results / f"{stem}.spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh, separators=(",", ":"))
    path = results / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return path


# modes --------------------------------------------------------------------

def smoke(workdir: Path) -> int:
    """One small case per workload untraced, one case traced twice: every
    declared metric is produced, nothing fails, counts repeat exactly, also
    when the inputs sit at a path of another length."""
    bench = spec()

    def first(workload, case_id, where=workdir):
        return [next(c for c in workloads.build_cases(workload, ROOT, where, 1)
                     if c.id == case_id)]

    small = {"signature-sweep": "signature.quartic_c3",
             "descent-sweep": "qgonal-descend.3-2-2",
             "cli-quick": "odd-signature.literal-0"}
    problems = []
    for workload, case_id in small.items():
        one = run_pass(first(workload, case_id), workdir, traced=False, setup_count=1)
        metrics = end_to_end([one], case_id)
        if set(metrics) != {m["name"] for m in bench["end_to_end"]}:
            problems.append(f"{workload}: end-to-end metric names differ")
        if metrics["correct_fraction"] != 1.0:
            problems.append(f"{workload}: a case failed")
    case_list = first("signature-sweep", "signature.quartic_c3")
    untraced = run_pass(case_list, workdir, traced=False)
    elsewhere = workdir / "another-directory"
    elsewhere.mkdir()
    traced = [run_pass(case_list, workdir, traced=True),
              run_pass(first("signature-sweep", "signature.quartic_c3", elsewhere),
                       elsewhere, traced=True)]
    if not all(r["ok"] for p in traced for r in p["records"]):
        problems.append("the traced case failed")
    runs = [per_layer(untraced, p, kernel(1)) for p in traced]
    missing = {m["name"] for m in bench["per_layer"]} - set(runs[0])
    if missing:
        problems.append(f"per-layer metrics not produced: {sorted(missing)}")
    for m in bench["per_layer"]:
        if m["unit"] in ("count", "B") and runs[0][m["name"]] != runs[1][m["name"]]:
            problems.append(f"{m['name']} differs between traced runs")
    if runs[0]["exactnum.mul.calls"] == 0 or runs[0]["ramify.fixed_point_count.calls"] == 0:
        problems.append("the traced case recorded no layer calls")
    for line in problems:
        print(f"smoke: {line}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 0 if not problems else 1


def _load_results(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files
            if not f.name.endswith(".spans.json")]


def compare(base: Path, new: Path) -> int:
    """Median of each (workload, metric) on both sides; flag an end-to-end
    move worse than its bound. Per-layer metrics are listed without bounds."""
    declared = {m["name"]: m for m in spec()["end_to_end"] + spec()["per_layer"]}
    sides = []
    for path in (base, new):
        table: dict = {}
        for result in _load_results(path):
            for name, entry in result["summary"]["metrics"].items():
                table.setdefault((result["workload"], name), []).append(entry["value"])
            env = result["env"]
            print(f"{path}: {result['workload']} seed {env['seed']} commit "
                  f"{env['commit'][:12]} python {env['python']} nproc {env['nproc']} "
                  f"cpu {env['cpu_model']}")
        sides.append(table)
    flagged = 0
    for key in sorted(set(sides[0]) & set(sides[1])):
        workload, name = key
        a, b = (statistics.median(side[key]) for side in sides)
        meta = declared.get(name, {})
        change = (b - a) / a if a else float("inf") if b != a else 0.0
        worse = change if meta.get("better") == "lower" else -change
        bound = meta.get("bound")
        flag = bound is not None and worse > bound
        flagged += flag
        print(f"{'WORSE ' if flag else '      '}{workload:16s} {name:40s} "
              f"{a:14.6g} -> {b:14.6g} {change:+8.2%}"
              f"{'' if bound is None else f'  (bound {bound:.0%})'}")
    print(f"{flagged} end-to-end metric(s) worse than their bound")
    return 1 if flagged else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    missing = [p for p in ("src/oddsig/cli.py", "fixtures", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"not an oddsig source tree (missing {', '.join(missing)}); "
              "run from the repository root", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            return smoke(workdir)
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), workdir)
        path = write_results(result)
        print(f"results: {path}", file=sys.stderr)
        print(json.dumps(result["summary"]))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
