"""Benchmark of curvemates: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {synth,mate_geometric,analytic_sweep}
                             --seed N --seconds S --trace {0,1} [--quick]

Run it from the root of a checkout; the program is imported from ./src and
nothing needs installing.  One parent process starts one child at a time
(closed loop).  With ``--trace 0`` the last line of standard output holds
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass and the tracing overhead; the line before it carries run metadata.
Reported times are scaled by a speed probe run right before them (probe.py);
raw times are in the metadata.  Outputs are checked after timing stops.
``--quick`` shrinks every workload to the R3 group (and one profile per
family) for the smoke test.  See perfbench/README.md for the metric
definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads as W
from probe import PROBE_REF_S, PROCESS_PROBE_REF_S
from tracer import layer_metrics, read_spans

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
CLI = "import sys; from curvemates.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 90
SETUP_REPEATS = 5          # fresh-process set-ups per run; setup_s is their median
SWEEP_CHILDREN = 5         # analytic_sweep children per untraced run
SWEEP_PER_FAMILY = 2       # analytic_sweep profiles drawn per family (x 3 groups)
CHECK_POINTS = 101         # grid on which analytic mates meet their closed forms


@dataclass
class Child:
    wall_s: float
    rc: int
    rss_mb: float


class Spawner:
    """The children's parent (spawner.py), one per run.  It shares a new
    session with every child, so ``close`` can stop them all."""

    def __init__(self, env: dict, cpu: int):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py"), str(cpu)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=ROOT, env=env, text=True, start_new_session=True)

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> Child:
        self.proc.stdin.write(json.dumps({"argv": argv, "stdout": str(stdout),
                                          "stderr": str(stderr),
                                          "timeout": CHILD_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended early")
        return Child(**json.loads(reply))

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
            self.proc.stdout.close()


def failure_tag(child: Child, stderr: Path):
    """None for a clean exit, else the exception name or the exit code."""
    text = stderr.read_text(encoding="utf-8", errors="replace")
    if "Traceback" in text:
        last = [line for line in text.splitlines() if line.strip()][-1]
        return last.split(":")[0].rsplit(".", 1)[-1]
    return f"exit {child.rc}" if child.rc != 0 else None


def digest(*paths: Path) -> str:
    h = hashlib.blake2b()
    for p in paths:
        h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()


class Run:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.groups = ("r3",) if args.quick else W.GROUPS
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))
        # The probe and the children share one CPU, so that the probe sees
        # the speed the children get (a neighbour may slow one vCPU only).
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.spawner = Spawner(self.env, cpu)
        self.rss_mb = 0.0
        self.failures: dict[str, str] = {}   # op key -> failure tag
        self.attempted = 0
        self.failed = 0
        self.per_op: dict[str, list[int]] = {}   # op key -> [attempted, failed]
        self.correct = True
        self.notes: list[str] = []

    def child(self, argv, name) -> tuple[Child, Path, Path]:
        out, err = self.work / f"{name}.stdout", self.work / f"{name}.stderr"
        c = self.spawner.run([sys.executable] + argv, out, err)
        self.rss_mb = max(self.rss_mb, c.rss_mb)
        return c, out, err

    def count(self, key: str, tag, times: int = 1) -> None:
        tally = self.per_op.setdefault(key, [0, 0])
        tally[0] += times
        self.attempted += times
        if tag is not None:
            tally[1] += times
            self.failed += times
            self.failures[key] = tag
            if not W.known(key, tag):
                self.correct = False

    def process_probe(self) -> float:
        """Wall time of the fresh-process probe.  The CLI workloads' times
        are scaled by it, since each of their operations is a fresh
        process."""
        c = self.spawner.run([sys.executable, str(HERE / "probe.py")],
                             self.work / "probe.stdout", self.work / "probe.stderr")
        if c.rc != 0:
            self.correct = False
            self.notes.append("the speed probe failed")
        return c.wall_s

    # -- CLI workloads -------------------------------------------------------

    def cli_setup(self) -> tuple[float, float]:
        """Median fresh-process start-up of ``curve-mates --show-tolerances``
        (after one unmeasured start that warms the file cache), raw and with
        each start scaled by the probe run right before it."""
        walls, scaled = [], []
        for i in range(1 + (2 if self.args.quick else SETUP_REPEATS)):
            probe = self.process_probe()
            c, out, err = self.child(["-c", CLI, "--show-tolerances"], "setup")
            if c.rc != 0 or not out.read_text().startswith("default tolerances"):
                self.correct = False
                self.notes.append("curve-mates --show-tolerances failed")
            if i:
                walls.append(c.wall_s)
                scaled.append(c.wall_s * PROCESS_PROBE_REF_S / probe)
        return statistics.median(walls), statistics.median(scaled)

    def cli_op(self, op: W.CliOp, spans: Path = None):
        name = op.key.replace(":", "_")
        csv = self.work / f"{name}.csv"
        csv.unlink(missing_ok=True)
        head = ["-c", CLI] if spans is None else [str(HERE / "launch.py"), str(spans)]
        c, out, err = self.child(head + op.argv(csv), name + ("_traced" if spans else ""))
        tag = failure_tag(c, err)
        return c, tag, (digest(csv, out) if tag is None else None), csv, out

    def run_cli(self):
        ops = W.cli_ops(self.args.workload, self.args.seed, self.groups)
        walls = {op.key: [] for op in ops}
        tags = {op.key: [] for op in ops}        # per attempt
        digests = {op.key: set() for op in ops}
        last = {}
        traced = self.args.trace == 1
        units, rows_out, bytes_out, traced_wall, plain_wall = [], 0, 0, 0.0, 0.0
        passes = 0
        probes = []                 # process_probe() before each untraced command
        scaled = {op.key: [] for op in ops}   # walls scaled by that probe
        deadline = time.monotonic() + self.args.seconds
        i = 0
        # Whole passes (traced: of untraced and traced command pairs), a new
        # one started while time is left.  Every command then runs equally
        # often, so a run's failure rate is that of one pass wherever the
        # deadline falls.
        while not i or i % len(ops) or time.monotonic() < deadline:
            op = ops[i % len(ops)]
            i += 1
            if not traced:
                probes.append(self.process_probe())
            c, tag, dig, csv, out = self.cli_op(op)
            walls[op.key].append(c.wall_s)
            if not traced:
                scaled[op.key].append(c.wall_s * PROCESS_PROBE_REF_S / probes[-1])
            tags[op.key].append(tag)
            if dig:
                digests[op.key].add(dig)
                last[op.key] = (csv, out)
            if traced:
                spans = self.work / f"{op.key.replace(':', '_')}.spans.json"
                ct, tag_t, dig_t, csv, out = self.cli_op(op, spans)
                tags[op.key].append(tag_t)
                plain_wall += c.wall_s
                traced_wall += ct.wall_s
                if dig_t:
                    digests[op.key].add(dig_t)
                    rows_out += max(0, csv.read_text(encoding="utf-8").count("\n") - 1)
                    bytes_out += csv.stat().st_size + out.stat().st_size
                units += read_spans(spans) if spans.exists() else []
                if i % len(ops) == 0:
                    passes += 1

        errs, conj_tau = [], []
        for op in ops:
            tag_ok = None
            if len(digests[op.key]) > 1:
                tag_ok = "nondeterministic output"
            elif op.key in last:
                try:
                    res = W.check_cli_output(op, *last[op.key])
                    errs.append(res["err"])
                    conj_tau += [res["conj_tau_diff"]] if "conj_tau_diff" in res else []
                except (W.Invalid, OSError, ValueError) as e:
                    tag_ok = f"invalid: {e}"
            for tag in tags[op.key]:
                self.count(op.key, tag if tag is not None else tag_ok)

        mate_err = max(errs) if errs else float("nan")
        summary = {"per_op_s": walls}
        if self.args.workload == "mate_geometric":
            summary["mate_err"] = mate_err
            summary["conj_tau_diff"] = max(conj_tau) if conj_tau else None
        if traced:
            m = layer_metrics(units, passes)
            cli_self = m["cli.self_s"]
            m.update(self.overhead(traced_wall / passes, plain_wall / passes))
            m["cli.rows_out"] = rows_out / passes
            m["cli.bytes_out"] = bytes_out / passes
            m["cli.us_per_row"] = 1e6 * cli_self * passes / rows_out if rows_out else 0.0
            m["health.conj_tau_diff"] = max(conj_tau) if conj_tau else 0.0
            return m, summary
        setup_raw, setup_s = self.cli_setup()
        wall_raw = sum(statistics.median(v) for v in walls.values())
        summary.update(wall_raw_s=wall_raw, setup_raw_s=setup_raw,
                       probe_s=statistics.median(probes))
        return {
            "wall_s": sum(statistics.median(v) for v in scaled.values()),
            "setup_s": setup_s,
            "ok_frac": self.ok_frac(),
            "peak_rss_mb": self.rss_mb,
            "max_err": max(W.ERR_FLOOR, mate_err),
        }, summary

    def ok_frac(self) -> float:
        """Share of one pass's operations that succeed: each operation
        weighs the same however often the run repeated it."""
        return 1.0 - statistics.fmean(f / a for a, f in self.per_op.values())

    @staticmethod
    def overhead(traced_s: float, plain_s: float) -> dict:
        return {"trace.overhead_s": traced_s - plain_s,
                "trace.overhead_frac": (traced_s - plain_s) / plain_s}

    # -- analytic_sweep --------------------------------------------------------

    def run_sweep(self):
        per_family = 1 if self.args.quick else SWEEP_PER_FAMILY
        profiles = W.draw_profiles(self.args.seed, per_family, self.groups)
        traced = self.args.trace == 1
        children = 1 if traced else (2 if self.args.quick else SWEEP_CHILDREN)
        job = {"profiles": [{"kappa": p.kappa, "tau": p.tau, "domain": p.domain,
                             "group": p.group} for p in profiles],
               "theorems": W.THEOREMS, "trace": traced, "check_points": CHECK_POINTS,
               "budget_s": self.args.seconds / children,
               "spans": str(self.work / "sweep.spans.json")}
        results, setup_probes = [], []
        for k in range(children):
            job["result"] = str(self.work / f"sweep{k}.result.json")
            job_path = self.work / "sweep.job.json"
            job_path.write_text(json.dumps(job), encoding="utf-8")
            pre = None if traced else self.process_probe()
            t0 = time.monotonic()
            c, _, err = self.child([str(HERE / "sweep.py"), str(job_path), repr(t0)], f"sweep{k}")
            if c.rc != 0 or not Path(job["result"]).exists():
                self.correct = False
                self.notes.append(f"sweep child {k}: " + (failure_tag(c, err) or "no result"))
                continue
            results.append(json.loads(Path(job["result"]).read_text(encoding="utf-8")))
            setup_probes.append(pre)
        if not results:
            raise SystemExit("every analytic_sweep child failed: " + "; ".join(self.notes))

        ops = ("classify",) + W.THEOREMS + ("natural", "conjugate")
        s_check = {}
        errs = []
        for res in results:
            if not res["stable"]:
                self.correct = False
                self.notes.append("outcomes differ between passes")
            runs = len(res["pass_s"]) + len(res["traced_s"])
            for p, row, values in zip(profiles, res["outcomes"], res["mate_values"]):
                s = s_check.setdefault(p.domain, np.linspace(*p.domain, CHECK_POINTS))
                for op in ops:
                    tag, err = W.check_sweep_outcome(p, op, row[op], values, s)
                    errs.append(err)
                    self.count(f"{p.key}:{op}", tag, runs)

        summary = {"profiles": [f"{p.key}: kappa={p.kappa} tau={p.tau} domain={p.domain}"
                                for p in profiles if p.group == self.groups[0]],
                   "setup_s": [r["setup_s"] for r in results],
                   "pass_s": [r["pass_s"] for r in results]}
        if traced:
            res = results[0]
            passes = len(res["traced_s"])
            m = layer_metrics(read_spans(job["spans"]), passes)
            m.update(self.overhead(sum(res["traced_s"]) / passes, sum(res["pass_s"]) / passes))
            m.update({"cli.rows_out": 0.0, "cli.bytes_out": 0.0, "cli.us_per_row": 0.0,
                      "health.conj_tau_diff": 0.0})
            return m, summary
        # A child's set-up (a fresh process) scales by the fresh-process
        # probe run before the child, each pass by the in-process probe run
        # right before it.
        setups = [r["setup_s"] * PROCESS_PROBE_REF_S / pre
                  for r, pre in zip(results, setup_probes)]
        passes = [statistics.median(t * PROBE_REF_S / p for t, p in zip(r["pass_s"], r["probe_s"]))
                  for r in results]
        summary.update(wall_raw_s=statistics.median(r["setup_s"] + statistics.median(r["pass_s"])
                                                    for r in results),
                       setup_raw_s=statistics.median(r["setup_s"] for r in results),
                       probe_s=statistics.median(p for r in results for p in r["probe_s"]))
        return {
            "wall_s": statistics.median(s + p for s, p in zip(setups, passes)),
            "setup_s": statistics.median(setups),
            "ok_frac": self.ok_frac(),
            "peak_rss_mb": self.rss_mb,
            "max_err": max(W.ERR_FLOOR, max(errs)),
        }, summary


UNITS = (("_s", "s"), ("us_per_step", "us"), ("us_per_row", "us"), ("_mb", "MB"),
         ("bytes_out", "bytes"), ("_frac", "fraction"), ("calls", "count"),
         ("steps", "count"), ("samples", "count"), ("points", "count"),
         ("rows_out", "count"))


def unit(name: str) -> str:
    return next((u for suffix, u in UNITS if name.endswith(suffix)), "1")


def metadata(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "quick": args.quick, "commit": commit,
            "src_sha256": h.hexdigest(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(), "loadavg": os.getloadavg()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["synth", "mate_geometric", "analytic_sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "curvemates" / "cli.py").is_file():
        print(f"error: no curvemates sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    meta = metadata(args)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(args, work)
    try:
        if args.workload == "analytic_sweep":
            metrics, summary = run.run_sweep()
        else:
            metrics, summary = run.run_cli()
    finally:
        run.spawner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    meta.update(summary, attempted=run.attempted, failed=run.failed,
                failed_frac=run.failed / run.attempted, failures=run.failures,
                notes=run.notes)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
