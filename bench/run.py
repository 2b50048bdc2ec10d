#!/usr/bin/env python3
"""Benchmark of stieltjeskit: one workload, one seeded closed-loop run.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--tiny]

One client runs the workload's ops back to back in a single process (CLI
ops are sequential subprocesses) until the ops have taken ``--seconds``.
Every op's outcome is checked.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds provenance, input digests, the tail percentile and every
failed op with its reason.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs each op once untraced and once traced, alternating
which goes first, and reports the per-layer metrics: span aggregates from
the traced ops, plus probes that call each remaining layer on this
workload's inputs.  Spans are written to ``.bench_run/spans-NAME.npz``.

The library is imported from this checkout's ``src``; the run refuses to
start without it.  BLAS and OpenMP pools are pinned to one thread, and
``STIELTJES_KIT_THREADS`` is removed, in this process and in every child.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads
KIT_THREADS_BEFORE = os.environ.pop("STIELTJES_KIT_THREADS", None)
# One CPU for this process and its children, so the speed reference runs
# where the measured work runs.
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1506
SETUP_REPEATS = 3
WARMUP_OPS = 4
IMPORT_CODE = "import time; t = time.perf_counter(); import stieltjeskit; print(time.perf_counter() - t)"


def die(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        die("BENCHMARK.json not found at the checkout root")


def import_library():
    if not (SRC / "stieltjeskit" / "__init__.py").is_file() or not (ROOT / "tests" / "genutil.py").is_file():
        die(f"no stieltjeskit source under {SRC} or no tests/genutil.py; run from a full checkout")
    sys.path[1:1] = [str(SRC), str(ROOT / "tests")]
    import stieltjeskit

    where = Path(stieltjeskit.__file__).resolve()
    if SRC not in where.parents:
        die(f"stieltjeskit resolved to {where}, outside {SRC}")
    return where


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    return env


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
        if sha.returncode != 0:
            return None, None
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except FileNotFoundError:
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def provenance(lib_file):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    sha, dirty = git_state()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "pinned_cpu": CPU,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "stieltjes_kit_threads": "unset",
        "stieltjes_kit_threads_before": KIT_THREADS_BEFORE,
        "stieltjeskit_file": str(lib_file.relative_to(ROOT)),
    }


def run_python(args, env):
    t0 = time.perf_counter()
    res = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    return time.perf_counter() - t0, res.stdout


# --- set-up and the timed loop ----------------------------------------------


class SpeedReference:
    """A fixed piece of work timed between measured intervals.

    The shared host's speed drifts by tens of percent over seconds to
    minutes.  Each measured interval is scaled by ``nominal / r``, where r
    is the mean of the reference times taken just before and just after
    it: times are reported at the reference's nominal speed.  Neither
    reference runs stieltjeskit code, so a library change cannot move it.

    ``loop`` (Python bytecode and small LAPACK calls) tracks work done in
    this process; ``interp`` (a bare interpreter start-up) tracks work
    done in child processes, which the loop does not.
    """

    NOMINAL = {"loop": 0.45e-3, "interp": 0.05}

    def __init__(self, kind, env):
        import numpy as np

        self.kind = kind
        self.nominal = self.NOMINAL[kind]
        self._env = env
        self._eigvalsh = np.linalg.eigvalsh
        self._A = np.eye(3) + 0.1
        self.times = []

    def sample(self):
        if self.kind == "interp":
            dt = run_python(["-c", "pass"], self._env)[0]
        else:
            t0 = time.perf_counter()
            s = 0
            for i in range(10_000):
                s += i
            for _ in range(20):
                self._eigvalsh(self._A)
            dt = time.perf_counter() - t0
        self.times.append(dt)
        return dt

    def scale(self, dt, r):
        return dt * self.nominal / r


def setup(build, repeats, env):
    """Import time in fresh interpreters plus build time, ``repeats`` each.

    Returns the workload and the set-up time, raw and at nominal speed,
    each the sum of the two medians.
    """
    interp, loop = SpeedReference("interp", env), SpeedReference("loop", env)
    imports, builds = [], []
    for _ in range(repeats):
        r0 = interp.sample()
        dt = float(run_python(["-c", IMPORT_CODE], env)[1])
        imports.append((dt, interp.scale(dt, 0.5 * (r0 + interp.sample()))))
    for _ in range(repeats):
        r0 = loop.sample()
        t0 = time.perf_counter()
        wl = build()
        dt = time.perf_counter() - t0
        builds.append((dt, loop.scale(dt, 0.5 * (r0 + loop.sample()))))
    (raw_i, scaled_i), (raw_b, scaled_b) = zip(*imports), zip(*builds)
    return wl, statistics.median(raw_i) + statistics.median(raw_b), statistics.median(scaled_i) + statistics.median(scaled_b)


def check_digest(workload, now, info):
    """Compare the default seed's input digest with the recorded one."""
    with open(BENCH / "input_digests.json", encoding="utf-8") as fh:
        recorded = json.load(fh).get(workload)
    info["default_seed_digest"] = {"recorded": recorded, "now": now}
    if recorded != now:
        print(f"bench: inputs for seed {DEFAULT_SEED} changed (digest {now}, recorded {recorded})", file=sys.stderr)
    return recorded == now


def run_op(op, tr):
    """Run one op; returns (seconds, failure reason or None)."""
    root = tr.begin("op") if tr is not None else None
    t0 = time.perf_counter()
    try:
        out = op.run(tr)
        reason = None
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op, with its reason
        reason = f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if tr is not None:
        tr.finish(root)
    if reason is None:
        try:
            reason = op.check(out)
        except Exception as exc:  # noqa: BLE001 - an unreadable outcome is a wrong outcome
            reason = f"check raised {type(exc).__name__}: {exc}"
    return dt, reason


def timed_loop(ops, seconds, tr, ref):
    """Cycle through ops until they have taken ``seconds``.

    With a tracer, each op runs untraced and traced, alternating which
    goes first.  Returns (untraced samples, traced samples, failures); a
    sample is (raw seconds, seconds at the reference's nominal speed).
    """
    plain, traced, failures = [], [], []
    busy, i = 0.0, 0
    r_prev = ref.sample()
    while busy < seconds:
        op = ops[i % len(ops)]
        modes = (None,) if tr is None else ((None, tr) if i % 2 == 0 else (tr, None))
        for mode in modes:
            dt, reason = run_op(op, mode)
            r_next = ref.sample()
            (plain if mode is None else traced).append((dt, ref.scale(dt, 0.5 * (r_prev + r_next))))
            r_prev = r_next
            busy += dt
            if reason is not None:
                failures.append({"op": op.label, "cycle_index": i % len(ops), "traced": mode is not None, "reason": reason})
        i += 1
    return plain, traced, failures


def tail(times):
    """Time at the highest percentile with ten ops beyond it, and that percentile."""
    d = sorted(times)
    n = len(d)
    if n <= 10:
        return statistics.median(d), 50.0
    return d[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# --- layer probes (traced run) ----------------------------------------------


def _timed(fn, repeats):
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def probe_measures(wl):
    import stieltjeskit as sk
    from workloads import measure_of

    measures = [measure_of(r) for r in wl.reprs]
    construct = sum(
        statistics.median(_timed(lambda mu=mu: sk.MatrixMeasure(mu.q, mu.support, mu.atoms), 3)) for mu in measures
    )
    reads = [min(_timed(lambda mu=mu: (mu.weights, mu.nodes), 3)) for mu in measures]
    moments = [
        statistics.median(_timed(lambda p=p: sk.moments(measure_of(p), 2), 3)) for p, _ in wl.fixtures.values()
    ]
    return {
        "matmeasure.construct_ms": 1e3 * construct,
        "matmeasure.weights_ms": 1e3 * statistics.fmean(reads),
        "matmeasure.moments_ms": 1e3 * statistics.fmean(moments),
    }


def probe_json(tr, wl):
    import stieltjeskit as sk

    for pair, _ in wl.fixtures.values():
        for _ in range(3):
            with tr.span("representations.json_dump"):
                text = json.dumps(sk.repr_to_json(pair), indent=2, sort_keys=True)
            with tr.span("representations.json_load"):
                sk.repr_from_json(json.loads(text))


def probe_library(tr, wl):
    """Certificates, pinv maps and ladders on the fixtures, where the ops do not reach them."""
    import stieltjeskit as sk
    from stieltjeskit.classifier import sample_points
    from workloads import certify, evaluator_of, ladder, pinv_of

    for pair, path in wl.fixtures.values():
        if "eval" not in wl.reaches:
            with open(path, encoding="utf-8") as fh:
                loaded = sk.repr_from_json(json.load(fh))
            with tr.span("probe.certify"):
                certify(tr, evaluator_of(tr, loaded), loaded.alpha, "s")
        if "pinv" not in wl.reaches:
            with tr.span("probe.pinv"):
                G = pinv_of(tr, pair)
                for z in sample_points(pair.alpha, "right", 16):
                    G(z)
        if "ladder" not in wl.reaches:
            with tr.span("probe.ladder"):
                ladder(tr, evaluator_of(tr, pair), "plain_iy")


def probe_cli(wl, env, run_dir):
    from stieltjeskit import cli

    interp = [run_python(["-c", "pass"], env)[0] for _ in range(5)]
    imp = [run_python(["-c", "import stieltjeskit"], env)[0] for _ in range(5)]
    per_cmd = {"report": [], "certify": [], "eval": [], "convert": []}
    report_bytes = []
    for tag, (_, path) in wl.fixtures.items():
        for cmd in per_cmd:
            argv = [cmd, "--input", path]
            if cmd == "convert":
                argv += ["--kind", "kk_pair", "--out", str(run_dir / f"{tag}.probe.kk.json")]
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
            per_cmd[cmd].append(time.perf_counter() - t0)
            if code != 0:
                raise RuntimeError(f"in-process cli {cmd} on {tag} exited {code}")
            if cmd == "report":
                report_bytes.append(len(buf.getvalue().encode()))
    out = {
        "cli.interp_ms": 1e3 * statistics.median(interp),
        "cli.import_ms": 1e3 * statistics.median(imp),
        "cli.report_bytes": statistics.fmean(report_bytes),
    }
    out.update({f"cli.inproc_ms.{cmd}": 1e3 * statistics.fmean(ts) for cmd, ts in per_cmd.items()})
    return out


# --- main -------------------------------------------------------------------


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = ap.parse_args()

    lib_file = import_library()
    from spans import Tracer, span_metrics
    from workloads import BUILDERS, digest

    env = child_env()
    info = {"workload": args.workload, "seed": args.seed, "default_seed": DEFAULT_SEED, "tiny": args.tiny}
    info.update(provenance(lib_file))
    out_dir = ROOT / ".bench_run"
    run_dir = out_dir / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        builder = BUILDERS[args.workload]
        wl, setup_raw, setup_s = setup(
            lambda: builder(args.seed, args.tiny, str(run_dir), env, ROOT), 1 if args.trace else SETUP_REPEATS, env
        )
        info["input_digest"] = digest(wl.reprs)
        if args.seed == DEFAULT_SEED and not args.tiny:
            default_digest = info["input_digest"]
        else:
            default_digest = digest(builder(DEFAULT_SEED, False, None, env, ROOT).reprs)
        digest_ok = check_digest(args.workload, default_digest, info)

        ref = SpeedReference("interp" if wl.subprocess_ops else "loop", env)
        for op in wl.ops[:WARMUP_OPS]:
            run_op(op, None)
            ref.sample()
        tr = Tracer() if args.trace else None
        plain, traced, failures = timed_loop(wl.ops, args.seconds, tr, ref)
        attempted = len(plain) + len(traced)
        raw = [dt for dt, _ in plain]
        times = [scaled for _, scaled in plain]
        tail_s, tail_pct = tail(times)
        info.update(
            ops_untraced=len(plain),
            ops_traced=len(traced),
            op_tail_percentile=tail_pct,
            reference={"kind": ref.kind, "nominal_s": ref.nominal, "median_s": statistics.median(ref.times)},
            uncorrected={
                "setup_s": setup_raw,
                "ops_per_s": len(raw) / sum(raw),
                "op_p50_ms": 1e3 * statistics.median(raw),
                "op_tail_ms": 1e3 * tail(raw)[0],
            },
            failures=failures,
        )

        if args.trace:
            eval_root = "op" if "eval" in wl.reaches else "probe.certify"
            probe_library(tr, wl)
            probe_json(tr, wl)
            values = span_metrics(tr, eval_root)
            values.update(probe_measures(wl))
            values.update(probe_cli(wl, env, run_dir))
            values["bench.trace_ops_ratio"] = sum(times) / sum(scaled for _, scaled in traced)
            tr.save(out_dir / f"spans-{args.workload}.npz")
            declared = spec["per_layer"]
        else:
            values = {
                "setup_s": setup_s,
                "ops_per_s": len(times) / sum(times),
                "op_p50_ms": 1e3 * statistics.median(times),
                "op_tail_ms": 1e3 * tail_s,
                "pass_rate": (attempted - len(failures)) / attempted,
                "peak_rss_mb": peak_rss_mb(children=wl.subprocess_ops),
            }
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = [m["name"] for m in declared if not math.isfinite(values.get(m["name"], math.nan))]
    if missing:
        die(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": digest_ok and not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
