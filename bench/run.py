"""End-to-end benchmark of the kamreduce command line.

    python3 bench/run.py --workload n2-reference --seed 1 --seconds 8 --trace 0

Run from the root of a kamreduce checkout.  One client drives a closed loop:
each command runs in a fresh process, as users run it, and starts when the
previous one has finished.  The run goes in rounds of the pipeline
``model`` (the set-up), ``frequencies``, ``reduce``, ``verify``; after the
first round only the commands that have not yet used ``--seconds`` of wall
time run again.  A metric is the median over its samples.  Every command
writes into a temporary directory under ``bench/work``; every output is
checked, and an operation fails if it exits non-zero or fails its check.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
command once untraced and once under ``bench/tracer.py`` and prints the
per-layer metrics, including the tracing overhead (traced minus untraced
wall time).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TRACER = os.path.join(BENCH_DIR, "tracer.py")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

PIPELINE = ("frequencies", "reduce", "verify")
RUN_LIMIT_S = 170.0         # every command is killed once the run has used this
# one BLAS/OpenMP thread: with two, small batched eigh calls split between
# two modes run to run; with one, times are steadier and cpu_s shows any
# parallel work a change adds
THREADS = 1
LAMBDA_RTOL = 1e-8          # far above roundoff (~1e-15) and the omega effect (~1e-11)

END_TO_END = {
    "setup_s": "s",
    "frequencies_s": "s",
    "reduce_s": "s",
    "verify_s": "s",
    "reduce_rss_mb": "MB",
    "verify_rss_mb": "MB",
}

PER_LAYER = {
    "torus.transform.s": "s",
    "torus.transform.calls": "count",
    "torus.transform.points": "count",
    "torus.transform.bytes": "bytes",
    "torus.norm.s": "s",
    "torus.norm.svds": "count",
    "engine.conjugate.s": "s",
    "engine.conjugate.grid_M": "count",
    "engine.conjugate.grid_bytes": "bytes",
    "engine.conjugate.kept_frac": "ratio",
    "engine.expm.s": "s",
    "engine.expm.matrices": "count",
    "engine.kam_step.s": "s",
    "engine.steps": "count",
    "homological.solve.s": "s",
    "homological.solve.pairs": "count",
    "homological.solve.grid_points": "count",
    "diophantine.cert.s": "s",
    "diophantine.cert.combos": "count",
    "diophantine.cert.pruned_frac": "ratio",
    "diophantine.sample.s": "s",
    "diophantine.sample.admissible_frac": "ratio",
    "diophantine.table.s": "s",
    "floquet.propagate.s": "s",
    "floquet.propagate.steps": "count",
    "floquet.propagate.steps_per_s": "1/s",
    "floquet.monodromy.s": "s",
    "floquet.reconstruct.s": "s",
    "oscillator.build.s": "s",
    "models.build.s": "s",
    "serialize.io.s": "s",
    "serialize.io.bytes": "bytes",
    "cli.import_s": "s",
    "cli.model.cpu_s": "s",
    "cli.frequencies.cpu_s": "s",
    "cli.reduce.cpu_s": "s",
    "cli.verify.cpu_s": "s",
    "engine.final_norm": "1",
    "floquet.max_deviation": "1",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------------------
# workloads


def _shipped(path: str, seed: int) -> dict:
    with open(os.path.join(ROOT, path)) as fh:
        return dict(json.load(fh), seed=seed)


def reference_n2(seed: int) -> dict:
    """The paper's reference run as shipped; the seed drives the rejection table."""
    return _shipped("manifests/reference-n2.json", seed)


def oscillator_quartic(seed: int) -> dict:
    """The shipped oscillator with verify cut to t_max = 20 (shipped: 50).

    The period map over T = 2 pi / omega ~ 25 is unchanged; the direct
    propagation to 50 alone would take ~27 s of every run.
    """
    doc = _shipped("manifests/oscillator-quartic.json", seed)
    doc["verify"] = dict(doc["verify"], t_max=20.0)
    return doc


WORKLOADS = {
    "n2-reference": reference_n2,
    "osc-quartic": oscillator_quartic,
}


def manifest_path(workload: str, seed: int) -> str:
    """Write the workload's manifest for this seed into bench/generated."""
    gen_dir = os.path.join(BENCH_DIR, "generated")
    os.makedirs(gen_dir, exist_ok=True)
    path = os.path.join(gen_dir, f"{workload}-{seed}.json")
    with open(path, "w") as fh:
        json.dump(WORKLOADS[workload](seed), fh, indent=2, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# one operation: a kamreduce command in a fresh process, then its check


@dataclass
class Op:
    command: str
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None = None   # why the operation failed; None if it passed


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # kamreduce.cli imports numpy before --threads is applied, so the pools
    # are pinned here, before the process starts
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def spawn(argv: list, cwd: str, log_path: str, timeout: float):
    """Run argv to completion; returns (exit code, wall s, rusage)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
    watchdog = threading.Timer(max(timeout, 0.0), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def run_op(command, manifest, seed, outdir, deadline, reference=None, spans_path=None) -> Op:
    args = [command, "--manifest", manifest, "--seed", str(seed), "--out", outdir]
    if spans_path is None:
        argv = [sys.executable, "-m", "kamreduce.cli"] + args
    else:
        argv = [sys.executable, TRACER, spans_path] + args
    log_path = f"{outdir}.{command}.log"
    code, wall, usage = spawn(argv, os.path.dirname(outdir), log_path,
                              deadline - time.monotonic())
    op = Op(command, code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    try:
        op.error = check_output(command, code, manifest, outdir, reference)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        op.error = f"unreadable output: {type(exc).__name__}: {exc}"
    if op.error is not None:
        with open(log_path, "rb") as fh:
            tail = fh.read().decode(errors="replace").strip().splitlines()[-1:]
        op.error += f" ({tail[0]})" if tail else ""
    return op


# ---------------------------------------------------------------------------
# correctness gate


def checksum_error(outdir: str) -> str | None:
    with open(os.path.join(outdir, "checksums.json")) as fh:
        table = json.load(fh)
    for name, expected in table.items():
        with open(os.path.join(outdir, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != expected:
                return f"checksum mismatch for {name}"
    return None


def _load(*path: str) -> dict:
    with open(os.path.join(*path)) as fh:
        return json.load(fh)


def check_output(command, code, manifest, outdir, reference) -> str | None:
    """None if the command's output is correct, else the reason it is not."""
    if code != 0:
        return f"{command} exited with {code}"
    err = checksum_error(outdir)
    if err:
        return err
    spec = _load(manifest)
    if command == "model":
        doc = _load(outdir, "model.json")
        if doc["N"] != spec["model"]["N"] or len(doc["lambda"]) != doc["N"]:
            return "model.json does not describe the manifest's model"
    elif command == "frequencies":
        doc = _load(outdir, "frequencies.json")
        if "certificate" in doc and not doc["certificate"]["passed"]:
            return "manifest frequency failed its certificate"
        chosen = doc.get("chosen")
        if chosen and not (chosen["dio1"]["passed"] and chosen["dio2"]["passed"]):
            return "sampled frequency is not certified"
        if "frequencies" in spec:
            fractions = [row["fraction"] for row in doc["rejection"]["table"]]
            if len(fractions) != len(spec["frequencies"]["gamma_grid"]):
                return "rejection table has the wrong length"
            if any(b < a for a, b in zip(fractions, fractions[1:])):
                return "rejection fraction is not monotone in gamma"
    elif command == "reduce":
        doc = _load(outdir, "reduced.json")
        tol = spec["settings"]["tol"]
        if not doc["converged"] or doc["norm_history"][-1] > tol:
            return f"not converged to tol {tol:g}: final norm {doc['norm_history'][-1]:.3e}"
        if reference is not None:
            lam = doc["lambda_inf"]
            if len(lam) != len(reference):
                return "lambda_inf has the wrong length"
            rel = max(abs(a - b) / abs(b) for a, b in zip(lam, reference))
            if rel > LAMBDA_RTOL:
                return f"lambda_inf differs from the reference by {rel:.2e} (rtol {LAMBDA_RTOL:g})"
    elif command == "verify":
        doc = _load(outdir, "verify.json")
        if not doc["passed"] or doc["max_deviation"] > doc["tol"]:
            return f"verify failed: max deviation {doc['max_deviation']:.3e} (tol {doc['tol']:g})"
    return None


# ---------------------------------------------------------------------------
# the closed loop


class Client:
    """One client: runs commands one at a time and keeps every operation."""

    def __init__(self, workload: str, seed: int, workdir: str, deadline: float):
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.manifest = manifest_path(workload, seed)
        with open(REFERENCE) as fh:
            self.reference = json.load(fh)[workload]["lambda_inf"]
        self.ops = []

    def run(self, command: str, label: str, traced: bool = False) -> bool:
        """Run one command with output directory ``label``; False if it failed."""
        outdir = os.path.join(self.workdir, label)
        spans = f"{outdir}.{command}.spans.json" if traced else None
        op = run_op(command, self.manifest, self.seed, outdir, self.deadline,
                    self.reference, spans)
        self.ops.append(op)
        if op.error is not None:
            print(f"FAILED {label}/{command}: {op.error}", file=sys.stderr)
        return op.error is None

    def samples(self, command: str, field: str) -> list:
        return [getattr(op, field) for op in self.ops if op.command == command]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure_end_to_end(client: Client, seconds: float) -> dict:
    """Rounds of the pipeline until every command has used ``seconds``.

    Round one runs all four commands; later rounds run only the commands
    still short of ``seconds`` of wall time, so the samples of the short
    commands are spread over the run.  model, frequencies and reduce start
    from a fresh output directory; verify re-checks the last reduce.  The
    first failure ends the run.
    """
    commands = ("model",) + PIPELINE
    spent = dict.fromkeys(commands, 0.0)
    rounds, last_reduce = 0, None
    while rounds == 0 or min(spent.values()) < seconds:
        for command in commands:
            if rounds and spent[command] >= seconds:
                continue
            label = last_reduce if command == "verify" else f"{command}{rounds}"
            if not client.run(command, label):
                return end_to_end_values(client)
            spent[command] += client.ops[-1].wall_s
            if command == "reduce":
                last_reduce = label
        rounds += 1
    return end_to_end_values(client)


def end_to_end_values(client: Client) -> dict:
    """Median of each command's samples."""
    return {
        "setup_s": _median(client.samples("model", "wall_s")),
        "frequencies_s": _median(client.samples("frequencies", "wall_s")),
        "reduce_s": _median(client.samples("reduce", "wall_s")),
        "verify_s": _median(client.samples("verify", "wall_s")),
        "reduce_rss_mb": _median(client.samples("reduce", "rss_mb")),
        "verify_rss_mb": _median(client.samples("verify", "rss_mb")),
    }


# ---------------------------------------------------------------------------
# the traced run


def self_times(spans: list) -> list:
    """Span duration minus the time its child spans cover.

    One process runs one thread, so the children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(traces: list) -> dict:
    """Per-layer self times and computed counts, summed over the commands."""
    from tracer import LAYER_OF

    secs, calls, counts = {}, {}, {}
    widest = {"grid_M": 0, "grid_bytes": 0, "kept_frac": 0.0}
    for doc in traces:
        spans = doc["spans"]
        for (name, start, end, _, cnt), own in zip(spans, self_times(spans)):
            layer = LAYER_OF[name]
            # the period map's own work is one eig; its time is reported whole
            secs[layer] = secs.get(layer, 0.0) + (
                end - start if layer == "floquet.monodromy" else own)
            calls[layer] = calls.get(layer, 0) + 1
            if cnt and "count_error" in cnt:
                print(f"warning: no counts for {name}: {cnt['count_error']}", file=sys.stderr)
                continue
            if name == "engine.conjugate" and cnt["grid_bytes"] > widest["grid_bytes"]:
                widest = cnt
                continue
            bucket = counts.setdefault(layer, {})
            for key, value in (cnt or {}).items():
                bucket[key] = bucket.get(key, 0) + value

    def count(layer, key):
        return counts.get(layer, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{layer}.s": secs.get(layer, 0.0) for layer in
           ("torus.transform", "torus.norm", "engine.conjugate", "engine.expm",
            "engine.kam_step", "homological.solve", "diophantine.cert",
            "diophantine.sample", "diophantine.table", "floquet.propagate",
            "floquet.monodromy", "floquet.reconstruct", "oscillator.build",
            "models.build", "serialize.io")}
    out.update({
        "torus.transform.calls": calls.get("torus.transform", 0),
        "torus.transform.points": count("torus.transform", "points"),
        "torus.transform.bytes": count("torus.transform", "bytes"),
        "torus.norm.svds": count("torus.norm", "svds"),
        "engine.conjugate.grid_M": widest["grid_M"],
        "engine.conjugate.grid_bytes": widest["grid_bytes"],
        "engine.conjugate.kept_frac": widest["kept_frac"],
        "engine.expm.matrices": count("engine.expm", "matrices"),
        "engine.steps": calls.get("engine.kam_step", 0),
        "homological.solve.pairs": count("homological.solve", "pairs"),
        "homological.solve.grid_points": count("homological.solve", "grid_points"),
        "diophantine.cert.combos": count("diophantine.cert", "combos"),
        "diophantine.cert.pruned_frac": ratio(count("diophantine.cert", "pruned"),
                                              count("diophantine.cert", "combos")),
        "diophantine.sample.admissible_frac": ratio(
            count("diophantine.sample", "admissible"),
            count("diophantine.sample", "candidates")),
        "floquet.propagate.steps": count("floquet.propagate", "steps"),
        "floquet.propagate.steps_per_s": ratio(count("floquet.propagate", "steps"),
                                               secs.get("floquet.propagate", 0.0)),
        "serialize.io.bytes": count("serialize.io", "bytes"),
        "cli.import_s": _median([doc["import_s"] for doc in traces]),
    })
    return out


def measure_layers(client: Client, out_path: str) -> dict:
    # each command runs untraced, then traced, so both see the machine alike
    commands = ("model",) + PIPELINE
    for command in commands:
        for label, traced in (("plain", False), ("traced", True)):
            if not client.run(command, label, traced):
                return {}
    plain, traced = client.ops[0::2], client.ops[1::2]
    traces = []
    for command in commands:
        with open(os.path.join(client.workdir, f"traced.{command}.spans.json")) as fh:
            traces.append(dict(json.load(fh), command=command))
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump({"span": ["name", "start", "end", "parent", "counts"],
                   "commands": traces}, fh)

    metrics = layer_metrics(traces)
    for op in plain:
        metrics[f"cli.{op.command}.cpu_s"] = op.cpu_s
    outdir = os.path.join(client.workdir, "traced")
    metrics["engine.final_norm"] = _load(outdir, "reduced.json")["norm_history"][-1]
    metrics["floquet.max_deviation"] = _load(outdir, "verify.json")["max_deviation"]
    plain_wall = sum(op.wall_s for op in plain)
    metrics["trace.overhead_s"] = sum(op.wall_s for op in traced) - plain_wall
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / plain_wall
    return metrics


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20260814)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kamreduce", "cli.py")):
        print(f"error: no kamreduce sources under {ROOT}/src", file=sys.stderr)
        return 2

    work_root = os.path.join(BENCH_DIR, "work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        client = Client(args.workload, args.seed, workdir, time.monotonic() + RUN_LIMIT_S)
        if args.trace:
            out_path = os.path.join(BENCH_DIR, "out", f"trace-{args.workload}-{args.seed}.json")
            values = measure_layers(client, out_path)
            units = PER_LAYER
        else:
            values = measure_end_to_end(client, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(op.error is not None for op in client.ops)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    print(f"{args.workload} seed {args.seed}: {len(client.ops)} operations, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        print("  counts are computed from call arguments and results; times are self"
              " times except floquet.monodromy.s (whole period map); homological's"
              " private _stack_to_grid FFTs land in homological.solve.s;"
              f" spans in {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(client.ops),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
