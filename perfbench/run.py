#!/usr/bin/env python3
"""Benchmark runner: builds the workload program, runs one workload for a
fixed time as a series of fresh processes, checks every output and prints
the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Every repetition is one cold process
(perfbench.exe), the cost a user pays per CLI invocation. With --trace 1
the timed repetitions are followed by one traced process, and the per-layer
metrics replace the end-to-end ones. The last line of standard output is
the result as one JSON object; the lines before it are a readable report.
Scratch files (ledgers, span dumps, trace reports) go to .perfbench/.
"""

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT_DIR = ".perfbench"
BUILD_TIMEOUT_S = 850
REP_TIMEOUT_S = 150
# Stop starting repetitions once this much of the 180 s limit is gone.
DEADLINE_S = 120


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout: dune-project and lib/ are missing")
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    try:
        p = subprocess.run(
            # outside an opam environment, let opam find the switch's dune
            (["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"])
            + ["build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
            # dune's shared cache lives outside the checkout
            env=dict(os.environ, DUNE_CACHE="disabled"),
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if p.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(p.stdout.decode(errors="replace"))
        fail("build failed")


def run_process(args):
    """Run one workload process in its own session; returns (spawn_ns,
    parsed last line or None, error text)."""
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        [EXE] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return spawn_ns, None, "timed out"
    finally:
        # forked scan workers share the session; none may outlive the rep
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        return spawn_ns, None, f"exit {proc.returncode}: {err.decode(errors='replace')[-2000:]}"
    try:
        return spawn_ns, json.loads(lines[-1]), ""
    except ValueError:
        return spawn_ns, None, "unparseable output: " + lines[-1][:200]


class Tally:
    """Operations attempted and failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add_calls(self, calls, tag):
        for c in calls:
            self.attempted += c["ops"]
            self.failed += c["failed"]
            for k in c["checks"]:
                if not k["ok"]:
                    self.problems.append(f"{tag} {c['call']}: {k['what']} ({k['detail']})")

    def add_crash(self, ops, tag, err):
        self.attempted += ops
        self.failed += ops
        self.problems.append(f"{tag}: {err}")


def list_calls(workload):
    p = subprocess.run([EXE, workload, "--list-calls"], stdout=subprocess.PIPE, timeout=60)
    calls = p.stdout.decode().split()
    if p.returncode != 0 or not calls:
        fail(f"cannot list the calls of {workload}")
    return calls


def timed_reps(workload, seed, seconds, tmp, tally):
    """Cold processes, one call each, round-robin over the workload's
    calls until `seconds` have passed and every call ran at least once."""
    calls = list_calls(workload)
    reps = {c: [] for c in calls}
    start = time.monotonic()
    longest = 0.0
    for i in itertools.count():
        call = calls[i % len(calls)]
        elapsed = time.monotonic() - start
        if all(reps.values()) and (elapsed >= seconds or elapsed + 1.5 * longest > DEADLINE_S):
            break
        tag = f"{call} run {len(reps[call]) + 1}"
        spawn_ns, out, err = run_process(
            [workload, "--call", call, "--seed", str(seed), "--tmp", tmp])
        if out is None:
            tally.add_crash(reps[call][-1]["ops"] if reps[call] else 1, tag, err)
            break
        (c,) = out["calls"]
        tally.add_calls(out["calls"], tag)
        longest = max(longest, time.monotonic() - start - elapsed)
        reps[call].append({
            "wall_s": c["wall_s"],
            "setup_s": (out["first_call_ns"] - spawn_ns) / 1e9,
            "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
            "ops": c["ops"],
            "digest": c["digest"],
        })
    return reps


def check_digests(reps, traced_calls, tally):
    """Every repetition of a call, and the traced run, must produce the
    same outputs."""
    for call, runs in reps.items():
        if any(r["digest"] != runs[0]["digest"] for r in runs):
            tally.failed += 1
            tally.problems.append(f"repetitions of {call} disagree")
    for c in traced_calls:
        runs = reps.get(c["call"])
        if not runs or c["digest"] != runs[0]["digest"]:
            tally.failed += 1
            tally.problems.append(f"traced {c['call']} differs from the timed runs: {c['digest']}")


def median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(reps):
    """Per call, the median of its runs; the workload sums set-up and wall
    over its calls and takes the largest resident set."""
    per_call = {
        call: {k: median([r[k] for r in runs]) for k in ("wall_s", "setup_s", "peak_rss_mb", "ops")}
        for call, runs in reps.items() if runs
    }
    values = {
        "setup_s": sum(m["setup_s"] for m in per_call.values()),
        "wall_s": sum(m["wall_s"] for m in per_call.values()),
        "peak_rss_mb": max((m["peak_rss_mb"] for m in per_call.values()), default=0.0),
    }
    return values, per_call


def call_rows(workload, per_call):
    """The per-call medians, under the names the report has always used:
    the census throughput, each analysis task, each ensemble case."""
    walls = {call: m["wall_s"] for call, m in per_call.items()}
    if workload.startswith("census"):
        return [("codes_per_s", m["ops"] / m["wall_s"], "codes/s")
                for m in per_call.values() if m["wall_s"]]
    if workload == "analyse":
        return [(f"{call}_s", wall, "s") for call, wall in walls.items()]
    groups = {}
    for call, wall in walls.items():
        group = call.split(":")[0]
        groups[group] = groups.get(group, 0.0) + wall
    return [(f"ens_{g}_s", wall, "s") for g, wall in groups.items()]


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<40} {value:>16.6g} {unit}")


def trace_report(workload, traced, overhead, untraced_wall):
    t = traced["trace"]
    lines = [f"traced run of {workload}: wall {t['wall_s']:.4f} s, "
             f"untraced median {untraced_wall:.4f} s, overhead {overhead:+.1%}",
             f"  {'span':<36} {'calls':>10} {'total_s':>12} {'self_s':>12} {'self share':>10}"]
    # the per-layer shares' denominator: core-seconds of the traced calls
    core_s = (t["wall_s"] * t["domains"]) or 1.0
    for s in sorted(t["spans"], key=lambda s: -s["self_s"]):
        lines.append(f"  {s['name']:<36} {s['calls']:>10} {s['total_s']:>12.4f} "
                     f"{s['self_s']:>12.4f} {s['self_s'] / core_s:>10.1%}")
    lines.append("  per-layer metrics:")
    for name, value in t["layers"].items():
        if value:
            lines.append(f"    {name:<40} {value:.6g}")
    for name, value in t["report"].items():
        lines.append(f"    {name:<40} {value}")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    spec = load_spec()
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {a.workload}")
    build()
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)

    tally = Tally()
    reps = timed_reps(a.workload, a.seed, a.seconds, tmp, tally)
    values, per_call = end_to_end(reps)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"{a.workload}: {sum(map(len, reps.values()))} cold runs of {len(reps)} calls, "
          f"seed {a.seed}")
    rows = [(n, values[n], units[n]) for n in ("setup_s", "wall_s", "peak_rss_mb")]
    rows += call_rows(a.workload, per_call)
    rows.append(("failed_ratio", tally.failed / max(1, tally.attempted), "share"))
    print_table("end-to-end (per call the median of its cold runs):", rows)
    for call, runs in reps.items():
        walls = " ".join(f"{r['wall_s']:.3f}" for r in runs)
        print(f"  {call}: wall of each run {walls}")

    if a.trace:
        spans_file = os.path.join(OUT_DIR, f"{a.workload}.spans")
        _, traced, err = run_process(
            [a.workload, "--seed", str(a.seed), "--tmp", tmp, "--trace", spans_file])
        layer_names = [m["name"] for m in spec["per_layer"]]
        if traced is None:
            tally.add_crash(1, "traced run", err)
            metrics = {n: 0.0 for n in layer_names}
        else:
            tally.add_calls(traced["calls"], "traced run")
            check_digests(reps, traced["calls"], tally)
            metrics = dict(traced["trace"]["layers"])
            if sorted(metrics) != sorted(layer_names):
                fail("per-layer metrics of the program and BENCHMARK.json differ: "
                     + ", ".join(sorted(set(metrics) ^ set(layer_names))))
            untraced = values["wall_s"]
            metrics["trace.overhead"] = traced["trace"]["wall_s"] / untraced - 1 if untraced else 0.0
            report = trace_report(a.workload, traced, metrics["trace.overhead"], untraced)
            with open(os.path.join(OUT_DIR, f"{a.workload}-trace.txt"), "w") as f:
                f.write(report + "\n")
            print(report)
        names = layer_names
    else:
        check_digests(reps, [], tally)
        metrics = values
        names = [m["name"] for m in spec["end_to_end"]]

    for p in tally.problems:
        print(f"FAILED {p}")
    result = {
        "correct": all(reps.values()) and tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
