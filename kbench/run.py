"""Benchmark for ktower: one seeded workload of CLI requests, run in process.

    python3 kbench/run.py --workload groups --seed 1 --seconds 30 --trace 0
    python3 kbench/run.py --quick

Each workload is a fixed-size, seeded list of requests (argv plus a JSON
payload on stdin) sent to ``ktower.cli.main`` one at a time: a closed loop
with one client.  Rounds repeat the same list until ``--seconds`` of
measured time have passed.  The first round checks every output against
independent arithmetic (``oracles``); later rounds must reproduce the
first round's outputs byte for byte.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced round, taken from wrappers installed by ``spans`` and never
from the timed runs.  ``--quick`` runs one request of every class of
every workload, checks it, and exits 0 only if all are correct.

Reads the program from ``src/`` next to this directory, writes spans
under ``kbench/runs/``, and starts at most one child process at a time.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_SPAWNS_PER_ROUND = 6
SETUP_SCRIPT = "import sys; from ktower.cli import main; sys.exit(main())"

COUNT_UNITS = {"intlin.snf.max_out_bits": "bits"}
UNITS = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def load_program():
    if not (SRC / "ktower" / "cli.py").is_file():
        sys.exit(f"error: ktower sources not found under {SRC}")
    compileall.compile_dir(str(SRC / "ktower"), quiet=1)
    sys.path.insert(0, str(SRC))
    import ktower.cli

    return ktower.cli


def setup_time():
    """Wall time of one fresh interpreter that imports ktower and answers
    ``grid 2 2``, as the ``ktower`` console script would."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, "grid", "2", "2"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    dt = time.perf_counter() - t0
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    if proc.returncode != 0 or rows != [["1", "1", "ok", "2"], ["2", "2", "ok", "unproven@2"]]:
        raise RuntimeError(f"grid 2 2 answered {proc.returncode}: {proc.stdout!r} {proc.stderr!r}")
    return dt


class Client:
    """Calls the CLI in process with a substituted stdin and captured output."""

    def __init__(self, cli):
        self.cli = cli

    def call(self, req):
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(req.payload), io.StringIO(), io.StringIO()
        try:
            t0 = time.perf_counter()
            try:
                code = self.cli.main(req.argv)  # looked up per call so tracing wrappers apply
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed request, reported below
                code = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, out, err, dt


class Round:
    """Runs the request list once; the first round checks, later ones compare.

    With ``spawns`` > 0 it also times that many set-up interpreters per
    round, spread evenly between requests, so ``setup_s`` samples the
    machine over the whole run rather than in one burst.  Like checking,
    their time is left out of the round's measured time.
    """

    def __init__(self, client, reqs, errors, spawns=0):
        self.client, self.reqs, self.errors = client, reqs, errors
        self.spawn_at = {len(reqs) * (2 * k + 1) // (2 * spawns) for k in range(spawns)}
        self.setup = []
        self.digests = None
        self.attempted = self.failed = 0
        self.class_time = {}

    def run(self, tracer=None):
        first = self.digests is None
        digests = []
        latencies = []
        side = 0.0
        out_bytes = 0
        gc.collect()
        start = time.perf_counter()
        for i, req in enumerate(self.reqs):
            if i in self.spawn_at:
                t_side = time.perf_counter()
                self.setup.append(setup_time())
                side += time.perf_counter() - t_side
            if tracer is not None:
                tracer.request = i
            code, out, err, dt = self.client.call(req)
            t_side = time.perf_counter()
            latencies.append(dt)
            out_bytes += len(out.encode())
            self.class_time[req.cls] = self.class_time.get(req.cls, 0.0) + dt
            self.attempted += 1
            failed = code not in (0, 2, 3)
            if failed:
                self.failed += 1
                if not req.expect_fail and first:
                    self.errors.append(f"{' '.join(req.argv)}: failed with {code}: {err.strip()[:200]}")
            elif first:
                try:
                    req.check(code, out)
                except (workloads.CheckError, KeyError, TypeError, ValueError) as exc:
                    self.errors.append(f"{' '.join(req.argv)}: {type(exc).__name__}: {exc}")
            digests.append(hashlib.sha1(f"{code}\0{out}".encode()).digest())
            side += time.perf_counter() - t_side
        wall = time.perf_counter() - start - side
        if first:
            self.digests = digests
        elif digests != self.digests:
            bad = next(i for i, (a, b) in enumerate(zip(digests, self.digests)) if a != b)
            self.errors.append(f"{' '.join(self.reqs[bad].argv)}: output differs between rounds")
        return wall, latencies, out_bytes


def warm_up(client, reqs):
    """One request of every class, unchecked, so lazy set-up is done."""
    seen = set()
    for req in reqs:
        if req.cls not in seen:
            seen.add(req.cls)
            client.call(req)


def timed(client, reqs, errors, seconds):
    warm_up(client, reqs)
    rnd = Round(client, reqs, errors, spawns=SETUP_SPAWNS_PER_ROUND)
    walls, latencies = [], []
    while sum(walls) < seconds or not walls:
        wall, lat, _ = rnd.run()
        walls.append(wall)
        latencies.extend(lat)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    metrics = {
        "ops_per_s": len(latencies) / sum(walls),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        # The fastest tenth of the interpreters: slow moments of the
        # machine move it less than they move the median.
        "setup_s": statistics.quantiles(rnd.setup, n=10, method="inclusive")[0],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report(rnd, walls, len(latencies))
    return rnd, {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def traced(client, reqs, errors, seconds, out_path):
    """Alternate untraced and traced rounds; per-layer figures come from the
    traced ones, the overhead from the difference of their wall times."""
    warm_up(client, reqs)
    rnd = Round(client, reqs, errors)
    tracer = Tracer()
    plain, traced_walls, times, counts, out_bytes = [], [], [], [], 0
    elapsed = 0.0
    while elapsed < seconds or not times:
        wall, _, _ = rnd.run()
        plain.append(wall)
        tracer.reset()
        tracer.install()
        try:
            twall, _, out_bytes = rnd.run(tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(twall)
        times.append(tracer.times())
        counts.append(dict(tracer.counts))
        elapsed += wall + twall
    if any(c != counts[0] for c in counts):
        errors.append("per-layer counts differ between traced rounds")
    metrics = {k: {"value": statistics.median(t[k] for t in times), "unit": "s"} for k in times[0]}
    metrics.update({k: {"value": v, "unit": COUNT_UNITS.get(k, "count")} for k, v in counts[0].items()})
    metrics["cli.out_bytes"] = {"value": out_bytes, "unit": "count"}
    metrics["trace.spans"] = {"value": len(tracer.span_start), "unit": "count"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced_walls) - statistics.median(plain), "unit": "s"}
    tracer.dump(out_path, {"rounds": len(times), "requests": len(reqs)})
    print("traced rounds: " + " ".join(f"{w:.2f}" for w in traced_walls), file=sys.stderr)
    report(rnd, plain + traced_walls, rnd.attempted)
    return rnd, metrics


def report(rnd, walls, samples):
    total = sum(rnd.class_time.values())
    shown = " ".join(f"{w:.2f}" for w in walls)
    print(f"rounds {len(walls)}, {samples} requests, measured {sum(walls):.2f} s: {shown}", file=sys.stderr)
    for cls, t in sorted(rnd.class_time.items(), key=lambda kv: -kv[1]):
        print(f"  {cls:28s} {t:8.3f} s  {100 * t / total:5.1f}%", file=sys.stderr)


def quick(client, seed):
    """One request of every class of every workload, checked."""
    ok = True
    for name in workloads.WORKLOADS:
        errors = []
        picked = {}
        for req in workloads.build(name, seed):
            picked.setdefault(req.cls, req)
        rnd = Round(client, list(picked.values()), errors)
        rnd.run()
        status = "ok" if not errors else "FAIL"
        print(f"{name}: {len(picked)} classes, {rnd.failed} failed as expected, {status}")
        for e in errors:
            print(f"  {e}")
        ok = ok and not errors
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="check one request of every class and exit")
    args = ap.parse_args(argv)
    if not args.quick and not args.workload:
        ap.error("--workload is required unless --quick is given")
    client = Client(load_program())
    if args.quick:
        return 0 if quick(client, args.seed) else 1
    reqs = workloads.build(args.workload, args.seed)
    errors = []
    if args.trace:
        path = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
        rnd, metrics = traced(client, reqs, errors, args.seconds, path)
    else:
        rnd, metrics = timed(client, reqs, errors, args.seconds)
    for e in errors[:20]:
        print(f"check: {e}", file=sys.stderr)
    if errors:
        print(f"{len(errors)} check errors", file=sys.stderr)
    result = {"correct": not errors, "attempted": rnd.attempted, "failed": rnd.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
