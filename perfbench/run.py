"""Benchmark for kgconflict: three offline eval workloads.

Run from the repository root:

    python3 perfbench/run.py --workload eval_hub_cpu --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload is generated from the seed, then driven through the public
eval path that ``kgconflict eval`` uses: ``parse_config``, ``load_dataset``
and ``build_gateway`` (set-up), then ``run_eval`` and
``write_results_csv``/``write_summary_json``, repeated in a closed loop for
``--seconds``. ``--trace 0`` reports the end-to-end metrics listed in
BENCHMARK.json; ``--trace 1`` runs half the time untraced and half with the
tracer installed and reports the per-layer metrics plus the tracing
overhead. Every run checks the outputs against the generator's plan and
exits 1 if any check fails. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["eval_backend_bound", "eval_hub_cpu", "eval_http_loopback"]
# Set-up is short, so it is repeated (at least SETUP_REPEATS times and for at
# least SETUP_SECONDS) and its median reported.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "kgconflict" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'kgconflict'} not found", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    logger = logging.getLogger("kgconflict")
    logger.addHandler(logging.NullHandler())
    logger.propagate = False
    work = HERE / ".out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        return Run(args, bench, work).execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return worst or (0 if combined["correct"] else 1)


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    record_walls: list[float]
    attempted: int
    failed: int
    calls: int
    prompt_chars: int


class Checks:
    """Output checks; any failure makes the run exit 1."""

    def __init__(self, plan) -> None:
        self.plan = plan
        self.failures: list[str] = []
        self.reference: tuple[bytes, bytes] | None = None

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)

    def against_plan(self, result) -> None:
        rows = {row.record_id: row for row in result.rows}
        for rid, error in result.skipped:
            self.fail(f"record {rid} failed: {error}")
        for rid, want in self.plan.items():
            row = rows.get(rid)
            if row is None:
                continue
            got = (row.prediction, row.correct, row.fallback)
            if got != (want.prediction, want.correct, want.fallback):
                self.fail(f"record {rid}: got {got}, planned "
                          f"{(want.prediction, want.correct, want.fallback)}")
        planned = sum(p.correct for p in self.plan.values()) / len(self.plan)
        if result.accuracy != planned:
            self.fail(f"accuracy {result.accuracy} != planned {planned}")

    def identical(self, outputs: tuple[bytes, bytes], what: str) -> None:
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            self.fail(f"results.csv/summary.json of {what} differ from the first pass")


class Run:
    def __init__(self, args: argparse.Namespace, bench: dict, work: Path) -> None:
        import workloads

        self.args = args
        self.bench = bench
        self.work = work
        self.gen = workloads.generate(args.workload, args.seed, work / "inputs")
        self.shape = self.gen.shape
        self.checks = Checks(self.gen.plan)
        self.passes = 0
        self.server: subprocess.Popen | None = None
        self.server_url = ""

    # --- the program's public eval path

    def setup(self, config: Path):
        from kgconflict import config as config_mod, evaluation, pipeline

        start = time.perf_counter()
        cfg = config_mod.parse_config(config)
        records = evaluation.load_dataset(self.gen.dataset)
        gateway = pipeline.build_gateway(cfg)
        return time.perf_counter() - start, cfg, records, gateway

    def run_pass(self, cfg, records, gateway, tracer=None) -> Pass:
        from kgconflict import evaluation
        from proxy import ProxyGateway

        proxy = ProxyGateway(gateway, self.shape.delay_s, tracer)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        result = evaluation.run_eval(records, cfg, proxy)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        outputs = self.write_outputs(result, f"pass{self.passes}")
        self.passes += 1
        self.checks.against_plan(result)
        self.checks.identical(outputs, f"pass {self.passes}{' (traced)' if tracer else ''}")
        return Pass(wall, cpu, [r.wall_time for r in result.rows], len(records),
                    len(result.skipped), proxy.generate_calls + proxy.embed_calls,
                    proxy.prompt_chars)

    def write_outputs(self, result, name: str) -> tuple[bytes, bytes]:
        """Write results.csv and summary.json as ``kgconflict eval`` does."""
        from kgconflict import evaluation

        out = self.work / name
        out.mkdir(parents=True)
        evaluation.write_results_csv(result, out / "results.csv")
        evaluation.write_summary_json(result, out / "summary.json")
        return (out / "results.csv").read_bytes(), (out / "summary.json").read_bytes()

    def loop(self, seconds: float, cfg, records, gateway, tracer=None) -> list[Pass]:
        """Closed loop of whole eval passes filling about ``seconds``.

        Another pass starts while at least half a pass fits before the
        deadline, so a run measures ``seconds`` give or take half a pass.
        """
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(cfg, records, gateway, tracer))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) / 2 > seconds:
                return passes

    # --- loopback server

    def start_server(self) -> None:
        self.server = subprocess.Popen(
            [sys.executable, str(HERE / "loopback_server.py"), str(ROOT / "src"),
             str(self.gen.script)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        port = self.server.stdout.readline().strip()
        if not port.isdigit():
            raise RuntimeError("loopback server did not report its port")
        self.server_url = f"http://127.0.0.1:{port}"

    def stop_server(self) -> None:
        if self.server is None:
            return
        self.server.stdin.close()
        try:
            self.server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()

    def server_stats(self) -> dict:
        from urllib.request import urlopen

        with urlopen(f"{self.server_url}/stats", timeout=30) as resp:
            return json.loads(resp.read())

    # --- one run

    def execute(self) -> int:
        try:
            if self.shape.backend == "http":
                self.start_server()
                backend = f"model_url = {self.server_url}/v1\nmodel_id = bench-model"
            else:
                backend = f"mock_script = {self.gen.script}"
            config = self.work / "config.txt"
            config.write_text(self.gen.config_text(backend), encoding="utf-8")
            times = []
            deadline = time.perf_counter() + SETUP_SECONDS
            while len(times) < SETUP_REPEATS or time.perf_counter() < deadline:
                gateway = None  # let the previous set-up's objects go first
                seconds, cfg, records, gateway = self.setup(config)
                times.append(seconds)
            setup_s = statistics.median(times)
            if self.args.trace:
                passes, metrics, notes = self.traced(config, cfg, records, gateway)
            else:
                passes = self.loop(self.args.seconds, cfg, records, gateway)
                metrics, notes = self.end_to_end(passes, setup_s), []
            if self.shape.backend == "http":
                self.compare_in_process(config, records)
        finally:
            self.stop_server()
        return self.report(passes, metrics, notes)

    def end_to_end(self, passes: list[Pass], setup_s: float) -> dict[str, float]:
        walls = sorted(w for p in passes for w in p.record_walls)
        n = len(walls)
        return {
            "setup_s": setup_s,
            "queries_per_s": n / sum(p.wall_s for p in passes),
            "query_p50_ms": statistics.median(walls) * 1e3,
            "query_p90_ms": statistics.quantiles(walls, n=10, method="inclusive")[8] * 1e3,
            "calls_per_query": sum(p.calls for p in passes) / n,
            "prompt_kchars_per_query": sum(p.prompt_chars for p in passes) / n / 1e3,
            "cpu_ms_per_query": sum(p.cpu_s for p in passes) / n * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def traced(self, config: Path, cfg, records, gateway):
        from tracer import LayerMetrics, Tracer

        half = self.args.seconds / 2
        plain = self.loop(half, cfg, records, gateway)
        tracer = Tracer()
        tracer.install()
        try:
            for _ in range(SETUP_REPEATS):  # spans for the setup.* metrics
                self.setup(config)
            before = self.server_stats() if self.server else None
            traced = self.loop(half, cfg, records, gateway, tracer)
            after = self.server_stats() if self.server else None
        finally:
            tracer.uninstall()
        overhead = (statistics.median(p.wall_s for p in traced)
                    / statistics.median(p.wall_s for p in plain) - 1.0)
        layers = LayerMetrics(tracer, sum(p.attempted for p in traced))
        values = layers.compute(overhead)
        extra = {}
        if self.shape.delay_s:
            extra["pipeline.rounds_per_query"] = (
                layers.query_p50_s() / self.shape.delay_s, "")
        if before is not None:
            extra.update(_http_metrics(layers, before, after))
        out = HERE / ".out"
        tracer.write(out / f"trace-{self.args.workload}-seed{self.args.seed}.jsonl")
        notes = [f"tracing overhead {overhead:+.1%} of untraced pass wall time "
                 f"({len(traced)} traced, {len(plain)} untraced passes)"]
        for name, (value, reason) in {**values, **extra}.items():
            shown = "null" if value is None else f"{value:.6g}"
            notes.append(f"  {name:36s} {shown}{'  (' + reason + ')' if reason else ''}")
        (out / f"layers-{self.args.workload}-seed{self.args.seed}.json").write_text(
            json.dumps({k: {"value": v, "reason": r} for k, (v, r) in
                        {**values, **extra}.items()}, indent=1), encoding="utf-8")
        return plain + traced, {k: v for k, (v, _r) in values.items()}, notes

    def compare_in_process(self, config: Path, records) -> None:
        """The HTTP outputs must equal MockGateway answering in-process."""
        from kgconflict import config as config_mod, evaluation, pipeline

        cfg = config_mod.parse_config(config, {"mock_script": str(self.gen.script)})
        result = evaluation.run_eval(records, cfg, pipeline.build_gateway(cfg))
        if self.write_outputs(result, "in_process") != self.checks.reference:
            self.checks.fail("HTTP outputs differ from the same dataset run in-process")

    def report(self, passes: list[Pass], metrics: dict, notes: list[str]) -> int:
        kind = "per_layer" if self.args.trace else "end_to_end"
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        samples = sum(len(p.record_walls) for p in passes)
        print(f"{self.args.workload} seed={self.args.seed}: {attempted} records attempted "
              f"in {len(passes)} passes, {failed} failed "
              f"(ops_failed_share {failed / attempted:.4f})")
        for i, p in enumerate(passes, 1):
            walls = sorted(p.record_walls) or [0.0]
            print(f"  pass {i}: {p.wall_s:.3f} s, {len(p.record_walls) / p.wall_s:.3f} 1/s, "
                  f"p50 {statistics.median(walls) * 1e3:.2f} ms, "
                  f"cpu {p.cpu_s / max(len(p.record_walls), 1) * 1e3:.2f} ms/query")
        out = {}
        for spec in self.bench[kind]:
            value = metrics.get(spec["name"])
            out[spec["name"]] = {"value": value, "unit": spec["unit"]}
            if kind == "end_to_end":
                note = f"  (n={samples} records)" if spec["name"].startswith("query_p") else ""
                print(f"  {spec['name']:24s} {value:.6g} {spec['unit']}{note}")
        for line in notes:
            print(line)
        for failure in self.checks.failures:
            print(f"CHECK FAILED: {failure}")
        correct = not self.checks.failures
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": out}))
        return 0 if correct else 1


def _http_metrics(layers, before: dict, after: dict) -> dict:
    calls = layers.gateway()
    requests = after["requests"] - before["requests"]
    call_ms = sum(s.end - s.info["sent"] for s in calls) * 1e3 / len(calls)
    server_ms = (after["handler_s"] - before["handler_s"]) * 1e3 / requests
    return {
        "http.call_ms": (call_ms, ""),
        "http.server_ms": (server_ms, ""),
        "http.client_overhead_ms": (call_ms - server_ms, ""),
        "http.requests_per_connection": (
            requests / (after["connections"] - before["connections"]), ""),
        "http.retries": (requests - len(calls), ""),
        "http.response_kbytes_per_call": (
            (after["response_bytes"] - before["response_bytes"]) / requests / 1e3, ""),
    }


if __name__ == "__main__":
    sys.exit(main())
