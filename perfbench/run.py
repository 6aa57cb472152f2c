"""helmfem benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a helmfem checkout:

    python3 perfbench/run.py --workload implicit-nested --seed 1 --seconds 45 --trace 0

BENCHMARK.json lists two workloads: ``implicit-nested`` (nested PCG with
IC(0)) and ``paper-cli`` (the seven reference configs through
``helmfem.cli.main``).  A third, ``direct-lu`` (LU of A1 at n=257 and
cached LU back-solves), runs by hand only: on a shared 2-core host its
run-to-run spread exceeded the bound.  perfbench/baseline.json gives the
reasons, the layer-to-metric map and the seed-commit numbers.  Each run:

1. times ``import helmfem`` plus building the workload's inputs in fresh
   interpreters (``setup_s``, the median of probes taken between passes);
2. self-tests the output checks and the tracer's restore;
3. runs whole passes over the workload's fixed op list until the next
   pass would end after ``--seconds``.  Every op output is checked after
   its pass, outside the timed region.  With ``--trace 1`` untraced and
   traced passes alternate;
4. prints a human-readable table, a ``meta`` line, and as the last line
   one JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``: the end-to-end metrics of BENCHMARK.json with
   ``--trace 0``, its per-layer metrics with ``--trace 1``.

Counts (iterations per role, factor and matrix nonzeros) must repeat
exactly across passes and between traced and untraced passes; a mismatch
fails the run.  BLAS is pinned to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Pinned before numpy loads (helmfem imports it); the setup probes inherit it.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

WORKLOADS = ("implicit-nested", "direct-lu", "paper-cli")
SETUP_PROBES = 9            # at least this many timed fresh interpreters per run
PROBES_PER_PASS = 2
PROBE_TIMEOUT_S = 60
COVERAGE_MIN = 0.95         # named spans must cover this share of solve time
RECORD = Path(__file__).resolve().parent / "baseline.json"


def _die(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _checkout_root() -> Path:
    root = Path.cwd()
    for need in ("src/helmfem/__init__.py", "configs/paper", "BENCHMARK.json"):
        if not (root / need).exists():
            _die(f"run from the root of a helmfem checkout; {need} is missing")
    return root


def _import_helmfem(root: Path):
    sys.path.insert(0, str(root / "src"))
    import helmfem
    if not Path(helmfem.__file__).resolve().is_relative_to((root / "src").resolve()):
        _die(f"helmfem imported from {helmfem.__file__}, not from this checkout")
    return helmfem


# ----------------------------------------------------------------------
# Set-up time in fresh interpreters
# ----------------------------------------------------------------------

def _probe(workload: str, seed: int):
    """Child side: time import plus input building, print seconds."""
    t0 = time.perf_counter()
    root = _checkout_root()
    _import_helmfem(root)
    import workloads
    workloads.build(workload, seed, root, root / ".bench_tmp")
    print(repr(time.perf_counter() - t0))


class SetupProbe:
    """Times fresh interpreters; probes are spread over the run so that a
    slow spell of the machine weighs on setup_s no more than on wall_s."""

    def __init__(self, workload: str, seed: int, root: Path):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)]
        self.root = root
        self.times: list[float] = []
        self.run()   # untimed: fills byte-code and file caches

    def run(self) -> float:
        out = subprocess.run(self.cmd, cwd=self.root, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S, check=True)
        return float(out.stdout.strip().splitlines()[-1])

    def sample(self, k: int):
        self.times += [self.run() for _ in range(k)]


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.times: list[float] = []
        self.problems: list[list[str]] = []
        self.counts: list[dict] = []
        self.working_set: list[dict] = []
        self.layers: dict = {}
        self.span_counts: dict = {}
        self.factors: list = []

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(ops, tracer_mod, traced: bool) -> Pass:
    p = Pass(traced)
    tracer = tracer_mod.Tracer() if traced else None
    outputs = []
    if tracer:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                outputs.append((op.run(), None))
            except Exception:   # an op failure is counted, the pass goes on
                outputs.append((None, traceback.format_exc()))
            p.times.append(time.perf_counter() - t0)
    finally:
        if tracer:
            tracer_mod.Tracer.assert_restored(tracer.restore())
    for op, (result, err) in zip(ops, outputs):
        if err is not None:
            p.problems.append([f"{op.name}: raised\n{err}"])
            p.counts.append({})
            continue
        try:
            problems, counts, ws = op.check(result)
        except Exception:   # a check that cannot run counts as a failure
            problems, counts, ws = [f"{op.name}: check raised\n{traceback.format_exc()}"], {}, None
        finally:
            op.cleanup(result)
        p.problems.append(problems)
        p.counts.append(counts)
        if ws:
            p.working_set.append(ws)
    if tracer:
        p.layers, p.span_counts, p.factors = tracer_mod.layer_metrics(tracer.spans)
    return p


def measure(ops, tracer_mod, seconds: float, trace: bool, probe=None):
    """Whole passes until the next one would end after ``seconds``.

    ``probe`` takes setup samples after each pass; their time is not
    counted against ``seconds``.
    """
    passes = []
    busy = 0.0
    durations = []
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(run_pass(ops, tracer_mod, traced))
        durations.append(time.perf_counter() - t0)
        busy += durations[-1]
        if probe:
            probe.sample(PROBES_PER_PASS)
        need_traced = trace and not any(p.traced for p in passes)
        if not need_traced and busy + statistics.median(durations) > seconds:
            if probe:
                probe.sample(max(0, SETUP_PROBES - len(probe.times)))
            return passes


# ----------------------------------------------------------------------
# Guards: count determinism, tracer coverage, expected idle layers
# ----------------------------------------------------------------------

def determinism_problems(ops, passes):
    """Per-op problems where a count differs from the first pass."""
    first = passes[0].counts
    for p in passes[1:]:
        for i, op in enumerate(ops):
            if p.counts[i] != first[i]:
                p.problems[i].append(
                    f"{op.name}: counts {p.counts[i]} differ from first pass {first[i]}")


def traced_count_problems(ops, p: Pass):
    """The traced split of a solve's counts must add up to SolveInfo's."""
    for i, op in enumerate(ops):
        c, s = p.counts[i], p.span_counts.get(i, {})
        if "a1_nnz" not in c:
            continue
        inner = sum(s.get(f"inner.{r}", 0) for r in ("rhs", "schur", "precond", "imag"))
        pairs = {"outer": s.get("outer", 0), "rhs": s.get("inner.rhs", 0),
                 "imag": s.get("inner.imag", 0), "inner": inner,
                 "a1_nnz": s.get("a1_nnz", 0)}
        for key, traced in pairs.items():
            if traced != c[key]:
                p.problems[i].append(
                    f"{op.name}: traced {key} = {traced}, untraced {c[key]}")


def guard_problems(workload, passes):
    problems = []
    traced = [p for p in passes if p.traced]
    if not traced:
        return problems
    ints = {k: v for k, v in traced[0].layers.items() if isinstance(v, int)}
    for p in traced[1:]:
        for k, v in ints.items():
            if p.layers[k] != v:
                problems.append(f"layer count {k} changed between traced passes: {v} -> {p.layers[k]}")
    idle = tuple(json.loads(RECORD.read_text())["workloads"][workload]["expected_zero"])
    for key, v in traced[0].layers.items():
        if key.startswith(idle) and v != 0:
            problems.append(f"{key} = {v} on {workload}, expected 0")
    if workload != "paper-cli":
        for p in traced:
            total, own = p.layers["solve.total_s"], p.layers["solve.self_s"]
            if total <= 0 or (total - own) / total < COVERAGE_MIN:
                problems.append(f"named spans cover {(total - own) / max(total, 1e-300):.3f} "
                                f"of solve.total_s, need {COVERAGE_MIN}")
    return problems


# ----------------------------------------------------------------------
# Metadata
# ----------------------------------------------------------------------

def _llc_bytes():
    best = (0, 0)
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        mult = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1], 1)
        best = max(best, (level, int(size.rstrip("KMG")) * mult))
    return best[1] or None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_metadata(root: Path, seed: int, passes, setup):
    import numpy
    import scipy
    src = sorted((root / "src" / "helmfem").glob("*.py"))
    sha = None
    if (root / ".git").exists():   # benchmark checkouts are often plain trees
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256(b"".join(f.read_bytes() for f in src)).hexdigest()[:16]
    meta = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_sha": sha, "src_sha256": digest, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "llc_bytes": _llc_bytes(), "blas_threads": BLAS_THREADS,
        "src_lines": sum(len(f.read_text().splitlines()) for f in src),
        "setup_probe_s": [round(t, 4) for t in setup],
        "pass_wall_s": [round(p.wall, 4) for p in passes],
        "op_s": [[round(t, 4) for t in p.times] for p in passes],
        "traced_passes": sum(p.traced for p in passes),
        "working_set_bytes_computed": passes[0].working_set,
    }
    traced = [p for p in passes if p.traced]
    if traced:
        meta["factor_bytes_computed"] = sorted(
            {(kind, n, nnz * 12 + (n + 1) * 4) for kind, n, nnz in traced[0].factors},
            key=lambda f: -f[2])[:8]
    return meta


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def _metric_defs(root: Path, trace: bool):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def end_to_end(passes, setup):
    untraced = [p for p in passes if not p.traced]
    return {
        "wall_s": statistics.median(p.wall for p in untraced),
        # typical seconds per op: geometric mean over the ops of each op's
        # median; steadier than the median of all op times, which is the
        # time of whichever op sits in the middle of the sorted list
        "solve_s": statistics.geometric_mean(
            statistics.median(col) for col in zip(*(p.times for p in untraced))),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(ops, passes, configs):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    out = {}
    for key, v in traced[0].layers.items():
        out[key] = v if isinstance(v, int) else statistics.median(p.layers[key] for p in traced)
    for stem in configs:
        idx = [i for i, op in enumerate(ops) if op.name == stem]
        out[f"cli.config_s.{stem}"] = (
            statistics.median(p.times[idx[0]] for p in traced) if idx else 0.0)
    out["trace.overhead_frac"] = (statistics.median(p.wall for p in traced)
                                  / statistics.median(p.wall for p in untraced) - 1.0)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return _probe(args.workload, args.seed)

    root = _checkout_root()
    _import_helmfem(root)
    import tracer as tracer_mod
    import workloads

    tmp_root = root / ".bench_tmp" / f"run-{os.getpid()}"
    try:
        probe = None if args.trace else SetupProbe(args.workload, args.seed, root)
        ops = workloads.build(args.workload, args.seed, root, tmp_root)
        workloads.self_test(root, tmp_root)
        before = tracer_mod.snapshot()
        t = tracer_mod.Tracer()
        t.install()
        tracer_mod.Tracer.assert_restored(t.restore())
        if not all(a[2] is b[2] for a, b in zip(before, tracer_mod.snapshot())):
            raise AssertionError("tracer self-test: attributes differ after restore")
        workloads.warm_up(args.workload)

        passes = measure(ops, tracer_mod, args.seconds, bool(args.trace), probe)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        if tmp_root.parent.is_dir() and not any(tmp_root.parent.iterdir()):
            tmp_root.parent.rmdir()

    determinism_problems(ops, passes)
    for p in passes:
        if p.traced:
            traced_count_problems(ops, p)
    guards = guard_problems(args.workload, passes)
    attempted = sum(len(p.times) for p in passes)
    failed = sum(1 for p in passes for probs in p.problems if probs)
    for msg in guards + [m for p in passes for probs in p.problems for m in probs]:
        print(f"FAIL {msg}", file=sys.stderr)

    setup = probe.times if probe else []
    values = per_layer(ops, passes, workloads.PAPER_CONFIGS) if args.trace else end_to_end(passes, setup)
    defs = _metric_defs(root, bool(args.trace))
    if set(values) != {d["name"] for d in defs}:
        raise AssertionError(f"metrics differ from BENCHMARK.json: "
                             f"{sorted(set(values) ^ {d['name'] for d in defs})}")
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in defs}

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"ops attempted {attempted}  failed {failed}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'fail_frac':34s} {failed / attempted:>14.6g} ratio")
    print("meta " + json.dumps(run_metadata(root, args.seed, passes, setup)))
    print(json.dumps({"correct": failed == 0 and not guards, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
