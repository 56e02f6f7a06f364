"""aggcheck benchmark: time to verdict of real CLI checks, one fresh
interpreter per check, every verdict checked against perfbench/oracle.py.
Times are corrected for the host's slowdown while each check ran (speed.py).

Run from the root of a checkout:

    python3 perfbench/run.py --workload characterization --seed 1 --seconds 25 --trace 0

--workload is characterization, metatheory, homs or all. With --trace 0 the
last stdout line is a JSON object holding the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of one traced round, measured
against one untraced round of the same checks. Exit code 0 when every
verdict is right, 1 when one is wrong, 2 when the checkout has no program.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
CHECK_LIMIT_S = 60.0  # hard limit per check process
PROBE_LIMIT_S = 5.0  # hard limit per frontier rung
PROBE_MAX_RUNGS = 10
RUN_LIMIT_S = 170.0  # stop starting checks after this; unrun checks fail
MIN_ROUNDS = 3  # repeats per check, so its median has a middle

END_TO_END = {
    "setup_s": "s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "frontier_n": "n",
}

PER_LAYER = (
    "syntax.bounded_closure.self_s",
    "syntax.bounded_closure.formulas",
    "syntax.formula_sort_key.calls",
    "algebra.evaluate.calls",
    "algebra.evaluate.total_s",
    "algebra.op.calls",
    "algebra.product_algebra.self_s",
    "algebra.product_algebra.entries",
    "algebra.enumerate_homomorphisms.self_s",
    "algebra.enumerate_homomorphisms.found",
    "algebra.is_homomorphism.calls",
    "algebra.is_homomorphism.self_s",
    "agenda.pseudo_richness.calls",
    "agenda.pseudo_richness.self_s",
    "aggregation.qualifying_criteria.self_s",
    "aggregation.qualifying_criteria.candidates",
    "aggregation.qualifying_criteria.survivors",
    "aggregation.check_systematicity.calls",
    "aggregation.check_systematicity.self_s",
    "aggregation.criterion_from_aggregator.self_s",
    "aggregation.check_rational_universal.self_s",
    "aggregation.enumerate_rational_profiles.self_s",
    "aggregation.enumerate_rational_profiles.profiles",
    "aggregation.apply.calls",
    "impossibility.classify_dictator.self_s",
    "impossibility.is_ultrafilter.self_s",
    "semantics.check_selfextensionality.self_s",
    "semantics.entails.calls",
    "semantics.entails.self_s",
    "modal.is_consistent.calls",
    "modal.is_consistent.self_s",
    "modal.bao_from_frame.calls",
    "modal.bao_from_frame.self_s",
    "modal.certify_implication_bottom.self_s",
    "fileio.load_matrix.self_s",
    "fileio.load_agenda.self_s",
    "fileio.dump_json.self_s",
    *(f"{layer}.{kind}" for layer in spans.LAYERS for kind in ("self_s", "calls")),
    "process.cpu_s",
    "trace.untraced_checks_per_s",
    "trace.traced_checks_per_s",
    "trace.overhead_x",
)


def per_layer_unit(name: str) -> str:
    if name.endswith("checks_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("overhead_x"):
        return "x"
    return "count"


class Runner:
    """Spawns one check process at a time (a closed loop with one client)."""

    def __init__(self, root: str, tmp: str, deadline: float, check_limit: float = CHECK_LIMIT_S):
        self.root = root
        self.tmp = tmp
        self.deadline = deadline
        self.check_limit = check_limit
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        # Fixed string hashing, so traced counts repeat exactly.
        self.env["PYTHONHASHSEED"] = "0"

    def run(self, check: workloads.Check, trace: bool = False, limit: float = 0.0) -> dict:
        remaining = self.deadline - time.perf_counter()
        record = {"id": check.id, "rc": None, "killed": False, "problems": []}
        if remaining <= 0:
            record["problems"].append("not run: run time limit reached")
            return record
        limit = min(limit or self.check_limit, remaining)
        base = os.path.join(self.tmp, check.id)
        out, result_path = base + ".report.json", base + ".result.json"
        for path in (out, result_path):
            if os.path.exists(path):
                os.remove(path)
        cmd = [sys.executable, "-s", CHILD, self.root, result_path, "1" if trace else "0",
               check.id, "--", *check.argv, "--out", out]
        with open(base + ".stdout", "wb") as fo, open(base + ".stderr", "wb") as fe:
            spawn = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=self.env, cwd=self.root)
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - spawn > limit:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    record["killed"] = True
                    break
                time.sleep(0.005)
        proc.returncode = record["rc"] = os.waitstatus_to_exitcode(status)
        record["rss_mb"] = usage.ru_maxrss / 1024
        record["cpu_s"] = usage.ru_utime + usage.ru_stime
        with open(base + ".stderr", encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        result = _load(result_path)
        if record["killed"]:
            record["limit_s"] = limit
        elif result is None:
            record["problems"].append(f"no result (exit {record['rc']}): {stderr[-300:]}")
        else:
            samples = result["probes"]
            record["setup_s"] = speed.normalize(spawn, result["ready"], samples)
            record["verdict_s"] = speed.normalize(result["ready"], result["done"], samples)
            record["raw_verdict_s"] = result["verdict_s"]
            record["raw_setup_s"] = result["ready"] - spawn
            record["slowdown"] = speed.slowdown(samples)
            record["trace"] = result.get("trace")
        if "Traceback (most recent call last)" in stderr:
            record["problems"].append("traceback: " + stderr.strip().splitlines()[-1])
        return record

    def check(self, check: workloads.Check, trace: bool = False) -> dict:
        record = self.run(check, trace)
        if record["killed"]:
            record["problems"].append(f"killed at the {record['limit_s']:.0f} s time limit")
        if not record["problems"]:
            report = _load(os.path.join(self.tmp, check.id + ".report.json"))
            record["problems"] = oracle.verify(check.expect, record["rc"], report)
        return record

    def frontier(self, probe: workloads.Probe) -> tuple[int, list[dict]]:
        """Climb the ladder until a rung is refused (exit 3) or times out.
        Returns the last scale with a verdict and the rung records."""
        records = []
        best = probe.start - 1
        for n in range(probe.start, probe.start + PROBE_MAX_RUNGS):
            rung = probe.rung(n)
            record = self.run(rung, limit=PROBE_LIMIT_S)
            records.append(record)
            if record["problems"] or record["killed"] or record["rc"] == oracle.RC_BUDGET:
                break  # a refusal or a timeout ends the climb; neither is a failure
            report = _load(os.path.join(self.tmp, rung.id + ".report.json"))
            record["problems"] = oracle.verify(rung.expect, record["rc"], report)
            if record["problems"]:
                break
            best = n
        return best, records


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def rounds_for(workload: workloads.Workload, seconds: float) -> int:
    """Whole rounds sized to --seconds by the workload's reference round time."""
    return max(MIN_ROUNDS, round(seconds / workload.round_s))


def timed_rounds(runner: Runner, workload: workloads.Workload, seconds: float) -> tuple[int, list]:
    """Run rounds_for() rounds, or fewer (never under MIN_ROUNDS) when the
    machine is so slow that --seconds pass first."""
    target, done, records = rounds_for(workload, seconds), 0, []
    start = time.perf_counter()
    while done < target and (done < MIN_ROUNDS or time.perf_counter() - start < seconds):
        records += [runner.check(c) for c in workload.checks]
        done += 1
    return done, records


def typical_times(records: list[dict]) -> dict[str, float]:
    """Each check's median time to verdict over its repeats in the run.

    The times are already corrected for the host's slowdown (speed.py);
    what is left of the noise is spread evenly around the median, so the
    median of the repeats moves less from run to run than their best.
    """
    times: dict[str, list[float]] = {}
    for r in records:
        if "verdict_s" in r:
            times.setdefault(r["id"], []).append(r["verdict_s"])
    return {check: statistics.median(values) for check, values in times.items()}


def rate(times: dict[str, float]) -> float:
    """Checks completed per second of time to verdict."""
    return len(times) / sum(times.values()) if times else 0.0


def timed_run(runner: Runner, workload: workloads.Workload, seconds: float, log) -> tuple[dict, list]:
    rounds, records = timed_rounds(runner, workload, seconds)
    frontier, probe_records = runner.frontier(workload.probe)
    timed = [r for r in records if "verdict_s" in r]
    typical = typical_times(records)
    attempted = records + probe_records
    failed = sum(1 for r in attempted if r["problems"])
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in timed) if timed else 0.0,
        "verdict_p50_s": statistics.median(typical.values()) if typical else 0.0,
        "verdict_tail_s": max(typical.values(), default=0.0),
        "checks_per_s": rate(typical),
        "peak_rss_mb": max((r["rss_mb"] for r in timed), default=0.0),
        "ok_share": (len(attempted) - failed) / len(attempted),
        "frontier_n": frontier,
    }
    log(f"rounds {rounds} x {len(workload.checks)} checks, frontier rungs {len(probe_records)}")
    for check in workload.checks:
        mine = [r for r in timed if r["id"] == check.id]
        if mine:
            times = sorted(r["verdict_s"] for r in mine)
            raw = statistics.median(r["raw_verdict_s"] for r in mine)
            slow = statistics.median(r["slowdown"] for r in mine)
            log(f"  {check.id}: median {statistics.median(times):.4f} s (best {times[0]:.4f}, "
                f"worst {times[-1]:.4f}); measured {raw:.4f} s at slowdown {slow:.3f}")
    raw_setup = statistics.median(r["raw_setup_s"] for r in timed) if timed else 0.0
    notes = {
        "verdict_p50_s": f"  (median over {len(typical)} checks, each its median of {rounds})",
        "verdict_tail_s": f"  (slowest of {len(typical)} checks, each its median of {rounds})",
        "setup_s": f"  (median of {len(timed)} check processes; measured {raw_setup:.4g} s)",
    }
    for name, value in metrics.items():
        log(f"{name} = {value:.6g} {END_TO_END[name]}{notes.get(name, '')}")
    log(f"failed_share = {failed / len(attempted):.6g} ({failed} of {len(attempted)} checks)")
    return metrics, attempted


def traced_run(runner: Runner, workload: workloads.Workload, log) -> tuple[dict, list]:
    untraced = [runner.check(c) for c in workload.checks]
    traced = [runner.check(c, trace=True) for c in workload.checks]
    summary = spans.summarize([r["trace"] for r in traced if r.get("trace")])
    metrics = {name: summary.get(name, 0) for name in PER_LAYER}
    untraced_rate, traced_rate = rate(typical_times(untraced)), rate(typical_times(traced))
    metrics.update({
        "process.cpu_s": sum(r.get("cpu_s", 0.0) for r in untraced),
        "trace.untraced_checks_per_s": untraced_rate,
        "trace.traced_checks_per_s": traced_rate,
        "trace.overhead_x": untraced_rate / traced_rate if traced_rate else 0.0,
    })
    log(f"tracing overhead: {untraced_rate:.4g} checks/s untraced, "
        f"{traced_rate:.4g} traced ({metrics['trace.overhead_x']:.3g}x)")
    for name in PER_LAYER:
        log(f"{name} = {metrics[name]:.6g} {per_layer_unit(name)}")
    return metrics, untraced + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["characterization", "metatheory", "homs", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "aggcheck", "cli.py")):
        print(f"no aggcheck source under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    tmp = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    try:
        compileall.compile_dir(os.path.join(src, "aggcheck"), quiet=1)
        inputs = workloads.generate(args.seed, tmp)
        table = workloads.workloads(inputs)
        names = list(table) if args.workload == "all" else [args.workload]
        runner = Runner(root, tmp, start + RUN_LIMIT_S * len(names))
        metrics_out, attempted = {}, []
        for name in names:
            def log(line, name=name):
                print(f"[{name}] {line}", flush=True)
            log(f"seed {args.seed}, variables {inputs['variables']}, "
                f"dictator {inputs['dictator']}, python {sys.version.split()[0]}")
            run = traced_run(runner, table[name], log) if args.trace else \
                timed_run(runner, table[name], args.seconds, log)
            metrics, records = run
            attempted += records
            for record in records:
                for problem in record["problems"]:
                    log(f"FAILED {record['id']}: {problem}")
            prefix = f"{name}." if args.workload == "all" else ""
            units = per_layer_unit if args.trace else END_TO_END.__getitem__
            metrics_out.update({prefix + k: {"value": v, "unit": units(k)}
                                for k, v in metrics.items()})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    failed = sum(1 for r in attempted if r["problems"])
    print(json.dumps({"correct": failed == 0, "attempted": len(attempted),
                      "failed": failed, "metrics": metrics_out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
