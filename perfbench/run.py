"""Benchmark: certificate checking from file bytes to exit code.

    python3 perfbench/run.py --workload res_chain --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 25     # every workload, both modes

Load model: a closed loop with one client.  The inputs of a workload are
generated once per seed, as files, before any timing starts.  One timed
run is one fresh Python process (``child.py``) that imports
``certkernel.cli`` from ``src/`` and calls ``run_one`` on each pair in
turn, which is what ``certkernel --machine`` does per pair; the loop
starts such processes one after another until ``--seconds`` have passed.
Start-up alone is also measured in a few processes that check nothing.
Every verdict, exit code and replayed-step count is compared with what
the generator built (see ``gen.py``); any mismatch or traceback fails the
run, which then exits 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced processes and prints the per-layer metrics of the
traced ones, plus the tracing overhead, and checks that the layer spans
account for the ``run_one`` time within that overhead.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The inputs' sha256 and the interpreter are printed above it
and kept, with the trace, under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150

# (name, unit); end-to-end metrics come from untraced processes.
END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("latency_ms_p50", "ms"),
    ("steps_per_s", "1/s"), ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("frontend.parse_problem_s", "s"), ("frontend.parse_certificate_s", "s"),
    ("frontend.problem_bytes", "bytes"), ("frontend.cert_bytes", "bytes"),
    ("kernel.check_s", "s"), ("kernel.self_s", "s"), ("kernel.steps", "count"),
    ("kernel.trivial_ratio", "ratio"),
    ("resolution.res_s", "s"), ("resolution.res_calls", "count"),
    ("resolution.cnf_s", "s"), ("resolution.cnf_calls", "count"),
    ("euf.check_s", "s"), ("euf.calls", "count"),
    ("lia.check_s", "s"), ("lia.calls", "count"),
    ("bitblast.bb_s", "s"), ("bitblast.calls", "count"),
    ("terms.intern_calls", "count"), ("terms.intern_hit_ratio", "ratio"),
    ("terms.replay_new_nodes", "count"),
    ("cli.self_s", "s"), ("trace.overhead_s", "s"),
)
# Rules that only record bit maps and conclude [true] by design; they are
# left out of kernel.trivial_ratio, which counts wasted or rejected steps.
MAP_ONLY_RULES = frozenset({"bb_var", "bb_const", "bb_not", "bb_and", "bb_or", "bb_xor"})
# Per-layer metric of each replay family: (time metric, call-count metric).
FAMILY_METRICS = {
    "res": ("resolution.res_s", "resolution.res_calls"),
    "cnf": ("resolution.cnf_s", "resolution.cnf_calls"),
    "euf": ("euf.check_s", "euf.calls"),
    "lia": ("lia.check_s", "lia.calls"),
    "bb": ("bitblast.bb_s", "bitblast.calls"),
}


class BenchError(Exception):
    """The program or the trace misbehaved; the run is not valid."""


def spawn(job: Path) -> dict:
    """Run one child process to completion.  Adds its wall time without
    the speed sampling, its set-up time, and the speed factors that scale
    its set-up time and its other times to reference speed."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), str(SRC), str(job)],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"child exceeded {CHILD_TIMEOUT_S}s on {job.name}") from e
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout)
    out["wall"] = wall - out["sampling_s"]
    out["setup"] = out["ready"] - t0
    samples = out["speed_samples"]
    out["setup_speed"] = out["reference_s"] / statistics.median(
        samples[:out["post_import_samples"]])
    out["speed"] = out["reference_s"] / statistics.median(samples)
    return out


def parse_record(report: str) -> dict:
    """Fields of one --machine record."""
    rec = {"verdict": None, "reason": None, "steps": None, "rules": {}}
    for line in report.splitlines():
        key, _, value = line.partition(" ")
        if key in ("verdict", "reason"):
            rec[key] = value
        elif key == "steps":
            rec["steps"] = int(value)
        elif key == "rule":
            name, count = value.split()
            rec["rules"][name] = int(count)
    return rec


def verify(pairs: list, child: dict) -> tuple[int, Counter, list]:
    """(failed pairs, replayed rule counts, first mismatches) of one child;
    records its replayed steps, as --machine reports them, in the child."""
    if len(child["results"]) != len(pairs):
        raise BenchError(f"child checked {len(child['results'])} of {len(pairs)} pairs")
    failed, rules, notes = 0, Counter(), []
    child["steps"] = 0
    for want, (code, report, _) in zip(pairs, child["results"]):
        rec = parse_record(report) if code is not None else {}
        child["steps"] += rec.get("steps") or 0
        got = (code, rec.get("verdict"), rec.get("reason"), rec.get("steps"))
        expected = (want["exit"], want["verdict"], want["reason"], want["steps"])
        if got != expected:
            failed += 1
            if len(notes) < 3:
                notes.append(f"{Path(want['proof']).name}: expected {expected}, "
                             f"got {got}: {report.strip()[:300]!r}")
        for name, count in rec.get("rules", {}).items():
            if name != "input":
                rules[name] += count
    return failed, rules, notes


def tail(samples: list) -> tuple[float, float, int] | None:
    """(value, percentile, samples beyond) for the highest listed
    percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    ordered = sorted(samples)
    for pct in (99.9, 99.5, 99, 98, 95, 90, 75, 50):
        rank = math.ceil(n * pct / 100)
        if rank >= 1 and n - rank >= 10:
            return ordered[rank - 1], pct, n - rank
    return None


def layers(child: dict, manifest: dict, rules: Counter) -> dict:
    """Per-layer totals of one traced child over its pass of the pairs,
    times at reference speed."""
    tr = child["trace"]
    span, seen = Counter(), Counter()
    for _, name, _, start, end in tr["spans"]:
        span[name] += end - start
        seen[name] += 1
    n = len(manifest["pairs"])
    want = {"cli.run_one": n, "cli.read": 2 * n, "frontend.parse_problem": n,
            "frontend.parse_certificate": n, "kernel.check": n, "cli.render": n}
    if any(seen[name] != count for name, count in want.items()):
        raise BenchError(f"traced spans {dict(seen)} do not match one check per "
                         f"pair ({n} pairs): a traced name is no longer called")
    dispatch = tr["dispatch"]
    traced = Counter({rule: rec[0] for rule, rec in dispatch.items()})
    lost = {r: (rules[r], traced[r]) for r in rules | traced if rules[r] != traced[r]}
    if lost:
        raise BenchError(f"traced dispatch calls disagree with --machine rule "
                         f"counts (rule: (machine, traced)): {lost}")
    fam = {f: [0, 0.0] for f in FAMILY_METRICS}
    calls = trivial = concluding = 0
    replay = 0.0
    for rule, (count, seconds, true_results) in dispatch.items():
        calls += count
        replay += seconds
        if rule not in MAP_ONLY_RULES:
            concluding += count
            trivial += true_results
        f = family_of(rule)
        if f in fam:
            fam[f][0] += count
            fam[f][1] += seconds
    pairs = manifest["pairs"]
    out = {
        "frontend.parse_problem_s": span["frontend.parse_problem"],
        "frontend.parse_certificate_s": span["frontend.parse_certificate"],
        "frontend.problem_bytes": sum(p["problem_bytes"] for p in pairs),
        "frontend.cert_bytes": sum(p["cert_bytes"] for p in pairs),
        "kernel.check_s": span["kernel.check"],
        "kernel.self_s": span["kernel.check"] - replay,
        "kernel.steps": calls,
        "kernel.trivial_ratio": trivial / concluding if concluding else 0.0,
        "terms.intern_calls": tr["intern_calls"],
        "terms.intern_hit_ratio": tr["intern_hits"] / max(tr["intern_calls"], 1),
        "terms.replay_new_nodes": tr["new_nodes"],
        "cli.self_s": span["cli.run_one"] - span["frontend.parse_problem"]
        - span["frontend.parse_certificate"] - span["kernel.check"],
    }
    for f, (time_name, calls_name) in FAMILY_METRICS.items():
        out[calls_name] = fam[f][0]
        out[time_name] = fam[f][1]
    out["_run_one_s"] = span["cli.run_one"]
    out["_io_render_s"] = span["cli.read"] + span["cli.render"]
    return {k: v * child["speed"] if k.endswith("_s") else v for k, v in out.items()}


def family_of(rule: str) -> str:
    if rule in ("res", "euf", "lia", "assume"):
        return rule
    return "bb" if rule.startswith("bb_") else "cnf"


def end_to_end(probes: list, plain: list, scaled: bool) -> dict:
    """End-to-end metrics over the untraced processes; with ``scaled``,
    times are at reference speed."""
    def k(c, speed="speed"):
        return c[speed] if scaled else 1.0
    latencies = [r[2] * k(c) for c in plain for r in c["results"]]
    return {
        "wall_s": statistics.median(c["wall"] * k(c) for c in plain),
        "setup_s": statistics.median(c["setup"] * k(c, "setup_speed")
                                     for c in probes + plain),
        "latency_ms_p50": 1000 * statistics.median(latencies),
        "steps_per_s": statistics.median(
            c["steps"] / sum(r[2] * k(c) for r in c["results"]) for c in plain),
        "peak_rss_mb": statistics.median(c["maxrss_kb"] for c in plain) / 1024,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import gen  # imports certkernel, so it waits until src/ is on the path

    t0 = time.monotonic()
    manifest = gen.generate(workload, seed, work / "inputs")
    manifest["generate_s"] = time.monotonic() - t0
    manifest["python"] = platform.python_version()
    manifest["nproc"] = os.cpu_count()
    pairs = manifest["pairs"]
    jobs = {}
    for name, job_pairs, traced in (("setup", [], False), ("plain", pairs, False),
                                     ("traced", pairs, True)):
        jobs[name] = work / f"job_{name}.json"
        jobs[name].write_text(json.dumps({
            "pairs": [[p["problem"], p["proof"]] for p in job_pairs], "trace": traced}))

    spawn(jobs["setup"])  # compiles bytecode and warms the page cache; not counted
    deadline = time.monotonic() + seconds
    probes = [spawn(jobs["setup"]) for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    while True:
        plain.append(spawn(jobs["plain"]))
        if trace:
            traced.append(spawn(jobs["traced"]))
        if time.monotonic() >= deadline:
            break

    failed, notes = 0, []
    rules_per_child = []
    for child in plain + traced:
        f, rules, mismatches = verify(pairs, child)
        failed += f
        notes += mismatches
        rules_per_child.append(rules)
    attempted = len(pairs) * len(plain + traced)

    e2e = end_to_end(probes, plain, scaled=True)
    result = {"manifest": manifest, "attempted": attempted, "failed": failed,
              "notes": notes, "e2e": e2e, "children": len(plain) + len(traced),
              "measured": end_to_end(probes, plain, scaled=False),
              "processes": [{k: c[k] for k in ("wall", "setup", "setup_speed", "speed",
                                               "sampling_s")}
                            for c in probes + plain + traced],
              "setup_samples": len(probes) + len(plain)}
    latencies = [r[2] * c["speed"] for c in plain for r in c["results"]]
    t = tail(latencies)
    result["tail"] = {"samples": len(latencies)}
    if t is not None:
        result["tail"].update(latency_ms_tail=1000 * t[0], percentile=t[1], beyond=t[2])

    if trace:
        per_child = [layers(c, manifest, rules_per_child[len(plain) + i])
                     for i, c in enumerate(traced)]
        overhead = statistics.median(c["wall"] * c["speed"] for c in traced) - e2e["wall_s"]
        per_layer = {name: statistics.median(pc[name] for pc in per_child)
                     for name, _ in PER_LAYER if name != "trace.overhead_s"}
        per_layer["trace.overhead_s"] = overhead
        # Layer accounting, reported per traced process: the spans under
        # run_one (parse, check, file read, rendering) should cover it, and
        # the families should fit in check, within the tracing overhead.
        # That overhead is a difference of two medians and as noisy as they
        # are, so the tolerance is at least 2 % of run_one.  The remainder
        # also holds freeing each pair's store on return, so it is reported
        # rather than enforced.
        rows = []
        for pc in per_child:
            tol = max(overhead, 0.02 * pc["_run_one_s"])
            gap = pc["_run_one_s"] - (pc["frontend.parse_problem_s"]
                                      + pc["frontend.parse_certificate_s"]
                                      + pc["kernel.check_s"] + pc["_io_render_s"])
            rows.append({"run_one_s": pc["_run_one_s"], "unaccounted_s": gap,
                         "kernel.self_s": pc["kernel.self_s"], "tolerance_s": tol,
                         "ok": abs(gap) <= tol and pc["kernel.self_s"] >= -tol})
        result["per_layer"] = per_layer
        result["accounting"] = rows
        result["trace"] = [c["trace"] for c in traced]
    return result


def fmt(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def report(workload: str, trace: bool, res: dict) -> dict:
    """Print one workload's numbers; return its JSON metrics."""
    man = res["manifest"]
    print(f"# {workload} seed {man['seed']}: {len(man['pairs'])} pairs, inputs sha256 "
          f"{man['inputs_sha256']}, generated in {man['generate_s']:.2f}s, "
          f"python {man['python']}, nproc {man['nproc']}, "
          f"{res['children']} timed processes")
    print(f"{workload} attempted {res['attempted']} failed {res['failed']} "
          f"failed_frac {res['failed'] / res['attempted']:.6g}")
    for note in res["notes"]:
        print(f"{workload} MISMATCH {note}")
    if not trace:
        names, values = END_TO_END, res["e2e"]
        t = res["tail"]
        if "percentile" not in t:
            print(f"{workload} latency_ms_tail n/a ms ({t['samples']} samples; "
                  f"needs 10 beyond a percentile)")
        else:
            print(f"{workload} latency_ms_tail {fmt(t['latency_ms_tail'])} ms "
                  f"(p{t['percentile']}, {t['beyond']} of {t['samples']} samples beyond)")
    else:
        names, values = PER_LAYER, res["per_layer"]
        for i, row in enumerate(res["accounting"]):
            print(f"{workload} accounting process {i}: run_one {row['run_one_s']:.4f}s, "
                  f"unaccounted {row['unaccounted_s']:+.5f}s, kernel.self "
                  f"{row['kernel.self_s']:.4f}s, tolerance {row['tolerance_s']:.4f}s, "
                  f"{'within' if row['ok'] else 'OVER'}")
    metrics = {}
    for name, unit in names:
        measured = "" if trace else f" (measured {fmt(res['measured'][name])})"
        print(f"{workload} {name} {fmt(values[name])} {unit}{measured}")
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "res_chain", "smt_lemmas", "bv_blast"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="default: 0 for one workload, both for all")
    args = parser.parse_args(argv)

    if not (SRC / "certkernel" / "__init__.py").is_file():
        print(f"error: no certkernel package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = ["res_chain", "smt_lemmas", "bv_blast"] \
        if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None \
        else ([False, True] if args.workload == "all" else [False])

    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        for trace in modes:
            work = ROOT / ".bench_work" / f"{workload}-s{args.seed}-t{int(trace)}-{os.getpid()}"
            try:
                res = measure(workload, args.seed, args.seconds, trace, work)
            except BenchError as e:
                print(f"{workload}: {e}", file=sys.stderr)
                return 1
            finally:
                shutil.rmtree(work / "inputs", ignore_errors=True)
            (work / "result.json").write_text(json.dumps(res))
            attempted += res["attempted"]
            failed += res["failed"]
            correct = correct and res["failed"] == 0
            got = report(workload, trace, res)
            if len(workloads) == 1:
                metrics.update(got)
            else:
                metrics.update({f"{workload}.{k}": v for k, v in got.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
