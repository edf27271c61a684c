"""The repro benchmark: four workloads, end-to-end metrics with a noise band,
and a traced per-layer breakdown.

Every repeat runs in a fresh process (``workloads.py``), one at a time.

Usage (from the repository root)::

    python benchmarks/suite/run.py                  # 10 rounds + a traced round
    python benchmarks/suite/run.py --tiny --traced --check
    python benchmarks/suite/run.py --traced         # one round + the traced round
    python benchmarks/suite/run.py --workload des-discovery --seed 3 --trace 0
    python benchmarks/suite/run.py compare PARENT.json CHANGE.json

The protocol runs R rounds; each round runs every workload once, round
robin, so a slow spell of the host lands on every workload alike.  It then
runs one traced repeat per workload: a repeat with one more pass, under the
layer tracer.  The results JSON (``--out``) holds the provenance, every raw
per-repeat sample and the summaries.  With ``--workload`` the command
instead repeats one workload for ``--seconds`` (default: BENCHMARK.json's
``run_seconds``; at least three repeats, the first one traced with
``--trace 1``) and prints, as its last line, the JSON result object
BENCHMARK.json describes.  ``--check`` exits non-zero when any output check
failed.  See README.md for the metrics and layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"

WORKLOAD_NAMES = ["des-discovery", "des-persistent", "sweep-campaign", "profile-store"]
#: Repeats one ``--workload`` run makes at least: set-up time is a median.
MIN_REPEATS = 3
#: A repeat that takes longer has hung (the slowest, traced, takes ~15 s).
CHILD_TIMEOUT_S = 150
#: A ``--workload`` run gives up after this long, even mid-repeat.
RUN_DEADLINE_S = 170
DEFAULT_ROUNDS = 10
#: End-to-end metrics: the samples a repeat's record yields (one per timed
#: pass, or one per process) and how a ``--workload`` run reduces them to
#: its one value.  Other tenants of a shared host only ever slow a pass of
#: this deterministic single-threaded program down, so a run reports its
#: fastest pass; set-up time and memory are medians over its processes.
E2E = {
    "wall_s": (lambda rec: rec["wall_s"], min),
    "tasks_per_s": (lambda rec: [rec["n_tasks"] / w for w in rec["wall_s"]], max),
    "warm_s": (lambda rec: rec["warm_s"], min),
    "setup_s": (lambda rec: [rec["setup_s"]], statistics.median),
    "peak_rss_mb": (lambda rec: [rec["peak_rss_mb"]], statistics.median),
}


class ChildError(RuntimeError):
    """A repeat crashed, hung or printed no record."""


def require_source() -> None:
    """Exit with status 2 unless the program and BENCHMARK.json are present."""
    for path in (SRC / "repro" / "__init__.py", BENCHMARK):
        if not path.is_file():
            print(f"error: {path} is missing; run from a repository checkout",
                  file=sys.stderr)
            raise SystemExit(2)


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


@contextlib.contextmanager
def scratch_dir():
    """A scratch directory inside the checkout, removed afterwards.

    The benchmark reads and writes nothing outside the checkout it runs
    from, so its stores and artifacts do not go to the system temp dir.
    """
    parent = ROOT / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def _child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # Temporary files stay in the checkout (see scratch_dir).  A fixed hash
    # seed removes one source of run-to-run variation (str hashing changes
    # dict layouts); the program is single-threaded, so are numeric
    # libraries.
    env.update(
        TMPDIR=str(tmp), SQLITE_TMPDIR=str(tmp), PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    return env


def spawn(name: str, *, seed: int, size: str, tmp_root: Path,
          trace: bool = False, reference: Path | None = REFERENCE,
          timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one repeat of ``name`` in a fresh process; its record.

    ``reference`` is None only while recording reference.json.
    """
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
    cmd = [sys.executable, str(HERE / "workloads.py"), name,
           "--seed", str(seed), "--size", size, "--tmp", str(tmp)]
    if trace:
        cmd.append("--trace")
    if reference is not None:
        cmd += ["--reference", str(reference)]
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(time.time())], env=_child_env(tmp), cwd=ROOT,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{name}: repeat exceeded {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise ChildError(f"{name}: repeat exited {proc.returncode}\n{tail}")
    return json.loads(lines[-1])


def warm_bytecode() -> None:
    """Compile the sources once so no timed repeat pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro"), str(HERE)],
        check=True, stdout=subprocess.DEVNULL,
    )


# ======================================================================
# statistics
# ======================================================================
def stats(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def summarize(records: list[dict], units: dict) -> dict:
    """One workload's samples, summaries, checks and layer breakdown.

    A traced repeat's untraced passes are ordinary samples; its traced pass
    gives the layer breakdown.
    """
    metrics = {}
    for name, (sample, reduce) in E2E.items():
        samples = [x for rec in records for x in sample(rec)]
        metrics[name] = {"unit": units[name], "value": reduce(samples),
                         **stats(samples), "samples": samples}

    attempted = sum(rec["attempted"] for rec in records)
    failed = sum(rec["failed"] for rec in records)
    failures = sorted({f for rec in records for f in rec["failures"]})
    # Outputs are a function of (size, seed): every process must agree.
    for key in {(rec["size"], rec["seed"]) for rec in records}:
        digests = [rec["digest"] for rec in records
                   if (rec["size"], rec["seed"]) == key]
        attempted += 1
        if any(d != digests[0] for d in digests):
            failed += 1
            failures.append(f"outputs differ across processes at seed {key[1]}")

    layers = next((rec["layers"] for rec in records if "layers" in rec), None)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "layers": layers,
        "runs": records,
    }


# ======================================================================
# provenance and reporting
# ======================================================================
def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except FileNotFoundError:
        return None
    return out.stdout.strip() or None


def provenance(*, seed: int, size: str, repeats: str, records) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": next((rec["numpy"] for rec in records), None),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
        "size": size,
        "repeats": repeats,
    }


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def print_summary(results: dict) -> None:
    print(f"{'workload':<16} {'metric':<12} {'unit':<8} {'value':>10} "
          f"{'median':>10} {'q1':>10} {'q3':>10} {'n':>3}")
    for name, wl in results["workloads"].items():
        for metric, m in wl["metrics"].items():
            print(f"{name:<16} {metric:<12} {m['unit']:<8} {_fmt(m['value']):>10} "
                  f"{_fmt(m['median']):>10} {_fmt(m['q1']):>10} "
                  f"{_fmt(m['q3']):>10} {m['n']:>3}")
        print(f"{name:<16} {'failed_frac':<12} {'ratio':<8} "
              f"{_fmt(wl['failed_frac']):>10}   ({wl['failed']} of "
              f"{wl['attempted']} operations and checks)")
        for failure in wl["failures"]:
            print(f"{name:<16}   FAILED: {failure}")
        if wl["layers"]:
            lm = wl["layers"]["metrics"]
            shares = sorted(
                ((k[:-len(".share")], v) for k, v in lm.items()
                 if k.endswith(".share") and v >= 0.005),
                key=lambda kv: -kv[1],
            )
            print(f"{name:<16}   self-time shares: " + ", ".join(
                f"{layer} {share:.0%}" for layer, share in shares
            ) + f"; trace overhead {lm['trace.overhead_ratio']:.2f}x")
    n = min(m["n"] for wl in results["workloads"].values()
            for m in wl["metrics"].values())
    if n < 100:
        print(f"(n = {n}: no tail percentile has ten samples beyond it, so "
              "none is printed; value is a run's fastest pass for timings, "
              "its median otherwise)")


# ======================================================================
# commands
# ======================================================================
def run_protocol(args) -> dict:
    units = {m["name"]: m["unit"] for m in load_benchmark()["end_to_end"]}
    size = "tiny" if args.tiny else "full"
    rounds = 1 if args.traced else DEFAULT_ROUNDS
    records: dict[str, list] = {name: [] for name in WORKLOAD_NAMES}
    with scratch_dir() as tmp:
        warm_bytecode()
        for r in range(rounds + 1):
            label = f"round {r + 1}/{rounds}" if r < rounds else "traced"
            for name in WORKLOAD_NAMES:
                rec = spawn(name, seed=args.seed, size=size, tmp_root=tmp,
                            trace=r == rounds)
                records[name].append(rec)
                print(f"{label} {name}: fastest pass {min(rec['pass_s']):.3f} s, "
                      f"setup {rec['setup_s']:.3f} s", file=sys.stderr)
    return {
        "provenance": provenance(
            seed=args.seed, size=size, repeats=f"{rounds} rounds + 1 traced",
            records=records[WORKLOAD_NAMES[0]],
        ),
        "workloads": {
            name: summarize(records[name], units) for name in WORKLOAD_NAMES
        },
    }


def run_timed(args) -> dict:
    """Repeat one workload for ``--seconds`` (BENCHMARK.json's command)."""
    bench = load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    size = "tiny" if args.tiny else "full"
    records = []
    start = time.monotonic()
    longest = 0.0
    with scratch_dir() as tmp:
        warm_bytecode()
        while (len(records) < MIN_REPEATS
               or time.monotonic() - start + longest <= seconds):
            t = time.monotonic()
            records.append(spawn(
                args.workload, seed=args.seed, size=size, tmp_root=tmp,
                trace=bool(args.trace) and not records,
                timeout=max(1.0, RUN_DEADLINE_S - (t - start)),
            ))
            longest = max(longest, time.monotonic() - t)
    return {
        "provenance": provenance(
            seed=args.seed, size=size, records=records,
            repeats=f"{len(records)} in {seconds} s"
                    + (", the first traced" if args.trace else ""),
        ),
        "workloads": {args.workload: summarize(records, units)},
    }


def result_line(summary: dict, trace: bool) -> dict:
    """The one-line JSON result BENCHMARK.json's command prints last."""
    bench = load_benchmark()
    if trace:
        values = summary["layers"]["metrics"]
        wanted = bench["per_layer"]
    else:
        values = {k: m["value"] for k, m in summary["metrics"].items()}
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise ChildError(f"metrics not measured: {missing}")
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }


def write_reference() -> None:
    """Record every workload's seed-0 outputs, at both sizes."""
    reference: dict = {}
    with scratch_dir() as tmp:
        for size in ("full", "tiny"):
            reference[size] = {
                name: spawn(name, seed=0, size=size, tmp_root=tmp,
                            reference=None)["digest"]
                for name in WORKLOAD_NAMES
            }
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {REFERENCE}")


# ----------------------------------------------------------------------
def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, share of pairs the change wins) for one metric.

    Improved: the change wins at least nine tenths of the pairs and the
    medians differ by more than the parent's quartile spread.  Unresolved:
    either side's quartile spread is wider than the bound, unless every
    change sample beats every parent sample.  Worse: the change's median is
    worse than the parent's by more than the bound.
    """
    sign = 1.0 if better == "higher" else -1.0
    p, c = stats(parent), stats(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (b - a) > 0 for a, b in pairs) / len(pairs)
    gain = sign * (c["median"] - p["median"])
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (p, c))
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if wins >= 0.9 and gain > p["q3"] - p["q1"]:
        return "improved", wins
    if spread > bound and not all_better:
        return "unresolved", wins
    if -gain / abs(p["median"]) > bound:
        return "worse", wins
    return "within bound", wins


def compare(parent_path: Path, change_path: Path) -> int:
    """Print parent vs change per (workload, end-to-end metric)."""
    bench = load_benchmark()
    parent = json.loads(parent_path.read_text())["workloads"]
    change = json.loads(change_path.read_text())["workloads"]
    print(f"{'workload':<16} {'metric':<12} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>5}  verdict")
    worse = 0
    for name in [w for w in parent if w in change]:
        for m in bench["end_to_end"]:
            key = m["name"]
            if key not in parent[name]["metrics"] or key not in change[name]["metrics"]:
                continue
            ps = parent[name]["metrics"][key]["samples"]
            cs = change[name]["metrics"][key]["samples"]
            v, wins = verdict(ps, cs, m["better"], m["bound"])
            worse += v == "worse"
            cells = [f"{_fmt(s['median'])} [{_fmt(s['q1'])}, {_fmt(s['q3'])}]"
                     for s in (stats(ps), stats(cs))]
            print(f"{name:<16} {key:<12} {cells[0]:>34} {cells[1]:>34} "
                  f"{wins:>5.0%}  {v}")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        ap = argparse.ArgumentParser(prog="run.py compare",
                                     description=compare.__doc__)
        ap.add_argument("parent", type=Path)
        ap.add_argument("change", type=Path)
        args = ap.parse_args(argv[1:])
        return compare(args.parent, args.change)

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="repeat one workload for --seconds and print the result line")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="with --workload: how long to keep starting repeats "
                         "(default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 reports the per-layer metrics")
    ap.add_argument("--traced", action="store_true",
                    help=f"one round, not {DEFAULT_ROUNDS}, then the traced round")
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 when any output check failed")
    ap.add_argument("--out", type=Path,
                    help="results JSON (protocol default: BENCH_suite.json)")
    ap.add_argument("--write-reference", action="store_true",
                    help="record the seed-0 outputs into reference.json")
    args = ap.parse_args(argv)
    require_source()

    try:
        if args.write_reference:
            write_reference()
            return 0
        if args.workload:
            results = run_timed(args)
            line = result_line(results["workloads"][args.workload], bool(args.trace))
        else:
            results = run_protocol(args)
            args.out = args.out or Path("BENCH_suite.json")
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    print_summary(results)
    failed = sum(wl["failed"] for wl in results["workloads"].values())
    if args.workload:
        print(json.dumps(line))
    return 1 if args.check and failed else 0


if __name__ == "__main__":
    sys.exit(main())
