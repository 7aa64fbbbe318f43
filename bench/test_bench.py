"""Self-tests of the benchmark harness: python3 -m pytest bench"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import run
import tracer

N1_MANIFEST = os.path.join(run.ROOT, "manifests", "reference-n1.json")


def _deadline():
    return time.monotonic() + 120.0


def test_reference_n1_plumbing(tmp_path):
    outdir = str(tmp_path / "n1")
    for command in ("model", "frequencies", "reduce", "verify"):
        op = run.run_op(command, N1_MANIFEST, 7, outdir, _deadline())
        assert op.code == 0 and op.error is None, op
        assert op.wall_s > 0 and op.cpu_s > 0 and op.rss_mb > 0
    # the gate rejects limiting eigenvalues that moved beyond its tolerance
    with open(os.path.join(outdir, "reduced.json")) as fh:
        lam = json.load(fh)["lambda_inf"]
    assert run.check_output("reduce", 0, N1_MANIFEST, outdir, lam) is None
    moved = [x * (1 + 10 * run.LAMBDA_RTOL) for x in lam]
    assert "lambda_inf" in run.check_output("reduce", 0, N1_MANIFEST, outdir, moved)
    # and artifacts that no longer match their checksums
    with open(os.path.join(outdir, "verify.json"), "a") as fh:
        fh.write(" ")
    assert "checksum" in run.check_output("verify", 0, N1_MANIFEST, outdir, None)


def test_resonant_frequency_is_a_failed_operation(tmp_path):
    with open(N1_MANIFEST) as fh:
        doc = json.load(fh)
    d = doc["model"]["d"]
    doc["frequency"] = {"omega": [2.0**d - 1.0]}   # omega = lambda_2 - lambda_1
    manifest = tmp_path / "resonant.json"
    manifest.write_text(json.dumps(doc))
    op = run.run_op("reduce", str(manifest), 1, str(tmp_path / "out"), _deadline())
    assert op.code == 3
    assert op.error is not None and "exited with 3" in op.error


def test_metric_names_and_units():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert unit_re.match(m["unit"]) and m["better"] in ("higher", "lower")
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert unit_re.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    timed = {name[:-2] for name in run.PER_LAYER if name.endswith(".s")}
    assert timed == set(tracer.LAYERS) - {"cli.command"}


def test_tracer_restores_every_wrapped_function():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    try:
        modules = tracer.kamreduce_modules()
    finally:
        sys.path.pop(0)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    by_name = {m.__name__.removeprefix("kamreduce."): m for m in modules}
    for qualified in tracer.LAYER_OF:
        module, function = qualified.split(".")
        assert callable(getattr(by_name[module], function)), qualified

    t = tracer.Tracer()
    assert t.install(modules) > len(tracer.LAYER_OF)
    engine, torus = by_name["engine"], by_name["torus"]
    assert engine.coeffs_to_grid is torus.coeffs_to_grid       # one shared wrapper
    assert engine.coeffs_to_grid is not before[("kamreduce.torus", "coeffs_to_grid")]
    import numpy as np

    torus.coeffs_to_grid(np.ones(3, dtype=complex), 1, 1, 4)
    assert [s[0] for s in t.spans] == ["torus.coeffs_to_grid"]
    assert t.spans[0][4] == {"points": 4, "bytes": 64}
    t.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_times_subtract_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
             ["c", 2.0, 3.0, 1, None], ["d", 5.0, 6.0, 0, None]]
    assert run.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_layer_metrics_aggregate_spans():
    small = {"grid_M": 10, "grid_bytes": 100, "kept_frac": 0.5}
    wide = {"grid_M": 20, "grid_bytes": 800, "kept_frac": 0.25}
    traces = [
        {"import_s": 0.5, "spans": [
            ["cli.cmd_reduce", 0.0, 10.0, -1, None],
            ["engine.conjugate", 1.0, 2.0, 0, small],
            ["engine.conjugate", 3.0, 5.0, 0, wide],
            ["torus.coeffs_to_grid", 3.5, 4.0, 2, {"points": 8, "bytes": 64}],
        ]},
        {"import_s": 0.7, "spans": [
            ["cli.cmd_verify", 0.0, 10.0, -1, None],
            ["floquet.monodromy_quasienergies", 1.0, 6.0, 0, None],
            ["floquet.propagate_columns", 2.0, 5.0, 1, {"steps": 300}],
        ]},
    ]
    m = run.layer_metrics(traces)
    assert m["engine.conjugate.s"] == 2.5 and m["torus.transform.s"] == 0.5
    assert (m["engine.conjugate.grid_M"], m["engine.conjugate.kept_frac"]) == (20, 0.25)
    assert m["torus.transform.calls"] == 1 and m["torus.transform.points"] == 8
    assert m["floquet.monodromy.s"] == 5.0      # the period map is reported whole
    assert m["floquet.propagate.s"] == 3.0 and m["floquet.propagate.steps_per_s"] == 100.0
    assert m["diophantine.sample.admissible_frac"] == 0.0   # layer never entered
    assert m["cli.import_s"] == 0.6
    assert set(m) | {f"cli.{c}.cpu_s" for c in ("model", "frequencies", "reduce", "verify")} \
        | {"engine.final_norm", "floquet.max_deviation", "trace.overhead_s",
           "trace.overhead_frac"} == set(run.PER_LAYER)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "out", "generated", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "n2-reference", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
