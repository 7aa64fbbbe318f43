"""Command-line surface: model building, frequency certification, reduction
runs, verification, and spectrum export.

Every command reads one JSON manifest (schema in serialize.MANIFEST_SCHEMA)
and writes its artifacts under the manifest's output directory.  The same
manifest + seed reproduces every JSON artifact byte for byte; wall-clock
measurements go to timings.txt, the one file left out of checksums.json.

Exit codes
----------
0   success
1   verification tolerance exceeded / other failure
2   manifest schema error (message carries the offending field path)
3   frequency excluded (resonance hit, failed certificate, or empty sample)
4   divergence / no convergence within the step budget
5   small divisor below its floor during verification
6   artifact missing or checksum mismatch

Heavy imports happen inside the command bodies so that --threads can pin the
BLAS pool size before numpy is loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from .errors import (
    ArtifactError,
    ConvergenceError,
    DivisorTooSmall,
    FrequencyExcluded,
    KamError,
    SchemaError,
    ZeroAcceptanceError,
)

if TYPE_CHECKING:
    from .serialize import RunManifest

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_SCHEMA = 2
EXIT_FREQUENCY = 3
EXIT_DIVERGENCE = 4
EXIT_DIVISOR = 5
EXIT_ARTIFACT = 6

__all__ = [
    "main",
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_SCHEMA",
    "EXIT_FREQUENCY",
    "EXIT_DIVERGENCE",
    "EXIT_DIVISOR",
    "EXIT_ARTIFACT",
]


class _JsonlLog:
    """Deterministic JSON-lines event log (no timestamps, sorted keys)."""

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8")

    def emit(self, event: str, **fields):
        from .serialize import to_jsonable

        rec = {"event": event}
        rec.update(fields)
        line = json.dumps(to_jsonable(rec), sort_keys=True, separators=(",", ":"))
        self._fh.write(line + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()


def _prepare_out(manifest: RunManifest) -> str:
    outdir = manifest.out
    os.makedirs(outdir, exist_ok=True)
    return outdir


def _build_base(manifest: RunManifest):
    """Just the diagonal part (cheap path for frequency work)."""
    from . import models

    spec = manifest.model
    if spec["kind"] == "abstract":
        return models.abstract_base(spec["N"], spec["n"], spec["d"], spec["delta"])
    osc = _build_oscillator(spec)
    return osc.as_base(delta=spec.get("delta", 0.0), n=_forcing_dim(spec))


def _build_oscillator(spec: dict):
    from . import oscillator

    return oscillator.build_oscillator(
        oscillator.OscillatorSpec(alpha=spec["alpha"], N=spec["N"])
    )


def _forcing_dim(spec: dict) -> int:
    key = next(iter(spec["forcing"]))
    return key.count(",") + 1


def _forcing_series(spec: dict):
    from .torus import TorusSeries

    modes = {}
    for key, value in spec["forcing"].items():
        k = tuple(int(p) for p in key.split(","))
        modes[k] = complex(value)
    K = max(max(abs(c) for c in k) for k in modes)
    n = _forcing_dim(spec)
    return TorusSeries.from_modes(n, max(K, 1), modes)


def _build_model(manifest: RunManifest, osc=None):
    """Full (base, P) pair for reduction and verification; osc: the oscillator, if built."""
    from . import models, oscillator
    from .torus import delta_norm

    spec = manifest.model
    st = manifest.settings
    if spec["kind"] == "abstract":
        return models.build_abstract_model(
            N=spec["N"],
            n=spec["n"],
            d=spec["d"],
            delta=spec["delta"],
            K=spec["K"],
            epsilon=st["epsilon"],
            s=st["s"],
            seed=spec.get("model_seed", manifest.seed),
            decay=spec.get("decay", 0.5),
        )
    osc = _build_oscillator(spec) if osc is None else osc
    g = _forcing_series(spec)
    v_kind = spec.get("v_kind", "abspower")
    pspec = oscillator.PerturbationSpec(
        beta=spec["beta"], terms=(((v_kind, spec["beta"]), g),), n=g.n
    )
    base = osc.as_base(delta=spec.get("delta", 0.0), n=g.n)
    P = oscillator.perturbation_matrix(pspec, osc)
    if spec.get("scale_to_epsilon", True):
        if st["epsilon"] == 0.0:
            from .torus import OperatorSeries

            P = OperatorSeries.zero(g.n, P.K, base.N)
        else:
            norm = delta_norm(P, base, st["s"])
            if norm > 0:
                P = P * (st["epsilon"] / norm)
    return base, P


def _settings(manifest: RunManifest):
    from .engine import KamSettings

    return KamSettings(**manifest.settings)


def _cert_dict(cert):
    import dataclasses
    import math

    if cert is None:
        return None
    doc = dataclasses.asdict(cert)
    for key, value in list(doc.items()):
        if isinstance(value, float) and math.isinf(value):
            doc[key] = None
    return doc


def _certify(omega, base, settings):
    """An explicit omega with both non-resonance certificates over settings.horizon()."""
    from . import diophantine as dio

    return dio.certify(omega, base, settings.gamma, settings.tau, settings.horizon(), base.N)


def _resolve_frequency(manifest: RunManifest, base, settings):
    """Explicit omega (certified up front) or a seeded sampling request."""
    import numpy as np

    from . import diophantine as dio

    freq = manifest.frequency
    if "omega" in freq:
        chosen = _certify(np.asarray([float(w) for w in freq["omega"]], dtype=float),
                          base, settings)
        if not (chosen.dio1.passed and chosen.dio2.passed):
            detail = (chosen.dio1.violating_k if not chosen.dio1.passed
                      else chosen.dio2.violating_triple)
            raise FrequencyExcluded(
                f"manifest frequency fails its certificate at {detail}",
                triple=detail,
                step=0,
            )
        info = {"source": "manifest"}
    else:
        req = freq["sample"]
        chosen, info = dio.optimize_frequency(
            n=base.n,
            base=base,
            gamma=settings.gamma,
            tau=settings.tau,
            Kmax=req["Kmax"],
            Nmax=req.get("Nmax", base.N),
            num_candidates=req["num_candidates"],
            seed=manifest.seed,
            robust_K=req.get("robust_K"),
        )
        info = dict(info, source="sampled")
    return chosen.omega, dict(info, dio1=_cert_dict(chosen.dio1), dio2=_cert_dict(chosen.dio2))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_frequencies(manifest: RunManifest) -> int:
    t0 = time.perf_counter()
    from . import diophantine as dio
    from .serialize import write_checksums, write_json

    outdir = _prepare_out(manifest)
    log = _JsonlLog(os.path.join(outdir, "log.jsonl"))
    try:
        settings = _settings(manifest)
        base = _build_base(manifest)
        log.emit("frequencies.start", scenario=manifest.scenario, seed=manifest.seed)
        doc = {"scenario": manifest.scenario, "seed": manifest.seed}

        cfg = manifest.frequencies
        if cfg is not None:
            tau = cfg.get("tau", settings.tau)
            Kmax = cfg.get("Kmax", settings.horizon())
            table = dio.rejection_table(
                n=base.n,
                base=base,
                gamma_grid=cfg["gamma_grid"],
                tau=tau,
                Kmax=Kmax,
                Nmax=base.N,
                num_samples=cfg["num_samples"],
                seed=manifest.seed,
            )
            doc["rejection"] = {
                "Kmax": Kmax,
                "num_samples": cfg["num_samples"],
                "table": [{"gamma": g, "fraction": f} for g, f in table],
                "tau": tau,
            }
            lines = ["gamma,rejection_fraction"]
            lines += [f"{g!r},{f!r}" for g, f in table]
            with open(os.path.join(outdir, "rejection.csv"), "w") as fh:
                fh.write("\n".join(lines) + "\n")
            for g, f in table:
                log.emit("frequencies.gamma", gamma=g, fraction=f)

        if "omega" in manifest.frequency:
            import numpy as np

            omega = np.asarray(manifest.frequency["omega"], dtype=float)
            chosen = _certify(omega, base, settings)
            doc["certificate"] = {
                "dio1": _cert_dict(chosen.dio1),
                "dio2": _cert_dict(chosen.dio2),
                "omega": list(omega),
                "passed": bool(chosen.dio1.passed and chosen.dio2.passed),
            }
        else:
            omega, info = _resolve_frequency(manifest, base, settings)
            doc["chosen"] = dict(info, omega=list(omega))

        write_json(os.path.join(outdir, "frequencies.json"), doc)
        log.emit("frequencies.done")
    finally:
        log.close()
    _write_timings(outdir, {"frequencies_s": time.perf_counter() - t0})
    write_checksums(outdir)
    print(f"frequencies: artifacts in {outdir}")
    return EXIT_OK


def _write_timings(outdir, timings: dict) -> None:
    """Merge timings into timings.txt; keys of earlier commands are kept.

    Not checksummed and not JSON: the one artifact allowed to differ between
    replays.
    """
    path = os.path.join(outdir, "timings.txt")
    lines = {}
    if os.path.isfile(path):
        with open(path) as fh:
            lines = {line.split(":", 1)[0]: line for line in fh if ":" in line}
    lines.update({key: f"{key}: {value:.6f} s\n" for key, value in timings.items()})
    with open(path, "w") as fh:
        fh.writelines(lines[key] for key in sorted(lines))


def _fail(outdir, log, code: int, reason: str, **detail) -> int:
    from .serialize import write_checksums, write_json

    log.emit("error", reason=reason, **detail)
    write_json(os.path.join(outdir, "error.json"), dict(detail, error=reason))
    write_checksums(outdir)
    return code


def cmd_reduce(manifest: RunManifest) -> int:
    t0 = time.perf_counter()
    from .engine import run_schedule
    from .serialize import write_array, write_checksums, write_json

    outdir = _prepare_out(manifest)
    log = _JsonlLog(os.path.join(outdir, "log.jsonl"))
    timings = {}
    try:
        write_json(os.path.join(outdir, "manifest_echo.json"), manifest.to_dict())
        settings = _settings(manifest)
        base, P = _build_model(manifest)
        timings["build_s"] = time.perf_counter() - t0
        log.emit(
            "reduce.start",
            scenario=manifest.scenario,
            seed=manifest.seed,
            N=base.N,
            n=base.n,
            epsilon=settings.epsilon,
        )

        try:
            omega, freq_info = _resolve_frequency(manifest, base, settings)
        except (FrequencyExcluded, ZeroAcceptanceError) as exc:
            code = _fail(
                outdir, log, EXIT_FREQUENCY, "frequency-excluded", detail=str(exc)
            )
            print(f"error: {exc}", file=sys.stderr)
            return code
        write_json(
            os.path.join(outdir, "frequency.json"),
            dict(freq_info, omega=list(omega)),
        )

        t1 = time.perf_counter()
        try:
            state, reduced = run_schedule(base, P, omega, settings)
        except FrequencyExcluded as exc:
            code = _fail(
                outdir,
                log,
                EXIT_FREQUENCY,
                "frequency-excluded",
                detail=str(exc),
                step=exc.step,
            )
            print(f"error: {exc}", file=sys.stderr)
            return code
        timings["reduce_s"] = time.perf_counter() - t1
        timings.update(state.timings)

        for rec in state.records:
            log.emit("step", l=rec["l"], norm=rec["norm_out"], K=rec["K_step"])
        write_json(os.path.join(outdir, "steps.json"), list(state.records))

        if not state.converged:
            reason = "divergence" if state.diverged else "no-convergence"
            code = _fail(
                outdir,
                log,
                EXIT_DIVERGENCE,
                reason,
                norm_history=list(state.norm_history),
                steps=state.l,
            )
            _write_timings(outdir, timings)
            write_checksums(outdir)
            print(f"error: {reason} after {state.l} steps", file=sys.stderr)
            return code

        gen_meta = []
        for idx, gen in enumerate(reduced.generators):
            name = f"generator_{idx:02d}.npy"
            write_array(os.path.join(outdir, name), gen.coeffs)
            gen_meta.append({"K": gen.K, "file": name, "n": gen.n})
        doc = {
            "converged": True,
            "d": reduced.d,
            "delta": reduced.delta,
            "epsilon": reduced.epsilon,
            "generators": gen_meta,
            "K_mu": reduced.K_mu,
            "lambda_inf": list(reduced.lambda_inf),
            "lambda_ref": list(reduced.lambda_ref),
            "mu_inf": None,
            "n": reduced.n,
            "norm_history": list(state.norm_history),
            "omega": list(omega),
            "shift_constant": reduced.shift_constant,
            "steps": state.l,
        }
        if reduced.mu_inf is not None:
            write_array(os.path.join(outdir, "mu_inf.npy"), reduced.mu_inf)
            doc["mu_inf"] = "mu_inf.npy"
        write_json(os.path.join(outdir, "reduced.json"), doc)

        _write_spectrum(outdir, reduced, (manifest.spectrum or {}).get("Kmax", 2))
        log.emit(
            "reduce.done",
            converged=True,
            steps=state.l,
            final_norm=state.norm_history[-1],
        )
    finally:
        log.close()
    _write_timings(outdir, timings)
    write_checksums(outdir)
    print(
        f"reduce: converged in {state.l} steps, final norm "
        f"{state.norm_history[-1]:.3e}; artifacts in {outdir}"
    )
    return EXIT_OK


def _load_reduced(manifest: RunManifest, outdir: str):
    """Rebuild a ReducedSystem from reduced.json plus its .npy companions."""
    import numpy as np

    from .engine import ReducedSystem
    from .serialize import load_array, load_json
    from .torus import OperatorSeries

    path = os.path.join(outdir, "reduced.json")
    if not os.path.isfile(path):
        raise ArtifactError(f"missing reduced.json in {outdir} (run `reduce` first)")
    doc = load_json(path)
    gens = []
    for meta in doc["generators"]:
        coeffs = load_array(os.path.join(outdir, meta["file"]))
        gens.append(
            OperatorSeries(meta["n"], meta["K"], coeffs.shape[-1], coeffs)
        )
    mu = None
    if doc["mu_inf"] is not None:
        mu = load_array(os.path.join(outdir, doc["mu_inf"]))
    return ReducedSystem(
        lambda_inf=np.asarray(doc["lambda_inf"], dtype=float),
        mu_inf=mu,
        K_mu=doc["K_mu"],
        n=doc["n"],
        omega=np.asarray(doc["omega"], dtype=float),
        generators=tuple(gens),
        lambda_ref=np.asarray(doc["lambda_ref"], dtype=float),
        epsilon=doc["epsilon"],
        converged=doc["converged"],
        shift_constant=doc["shift_constant"],
        delta=doc["delta"],
        d=doc["d"],
    )


def cmd_verify(manifest: RunManifest) -> int:
    t0 = time.perf_counter()
    import numpy as np

    from .floquet import (
        propagate_step_doubled,
        quasienergies_from_period_map,
        reconstruct_solution,
    )
    from .serialize import verify_checksums, write_checksums, write_json

    outdir = _prepare_out(manifest)
    verify_checksums(outdir)
    reduced = _load_reduced(manifest, outdir)
    base, P = _build_model(manifest)
    cfg = manifest.verify or {}
    t_max = cfg.get("t_max", 50.0)
    num_times = cfg.get("num_times", 60)
    tol = cfg.get("tol", 1e-4)

    omega = reduced.omega
    N = base.N
    identity = np.eye(N, dtype=complex)
    psi0 = np.ones(N, dtype=complex) / np.sqrt(N)
    phi0 = np.zeros(reduced.n)
    ts = np.linspace(t_max / num_times, t_max, num_times)
    # for n = 1 the sweep also lands on the period T: Phi(T) is the period map
    T = 2.0 * np.pi / float(omega[0]) if reduced.n == 1 else None
    times = ts if T is None else np.union1d(ts, [T])

    timings = {}
    t1 = time.perf_counter()
    R = reconstruct_solution(reduced, identity, phi0, ts)
    timings["verify.reconstruct_s"] = time.perf_counter() - t1
    t1 = time.perf_counter()
    Phi, dt, steps, estimate = propagate_step_doubled(base, P, omega, identity, phi0, times)
    timings["verify.direct_s"] = time.perf_counter() - t1
    Phi_t = Phi[np.searchsorted(times, ts)]
    direct, recon = Phi_t @ psi0, R @ psi0
    dev = float(np.max(np.linalg.norm(recon - direct, axis=1)))
    op_dev = float(np.max(np.linalg.norm(R - Phi_t, ord=2, axis=(1, 2))))
    report = {
        "dt": dt,
        "integrator": "cf4",
        "integrator_error_estimate": estimate,
        "max_deviation": dev,
        "max_operator_deviation": op_dev,
        "norm_drift_direct": float(
            np.max(np.abs(np.linalg.norm(direct, axis=1) - 1.0))
        ),
        "norm_drift_reconstructed": float(
            np.max(np.abs(np.linalg.norm(recon, axis=1) - 1.0))
        ),
        "num_times": num_times,
        "passed": bool(op_dev <= tol),
        "steps_direct": int(steps[: np.searchsorted(times, ts[-1]) + 1].sum()),
        "t_max": t_max,
        "tol": tol,
        "unitarity_drift": float(np.max(np.abs(Phi_t.mT.conj() @ Phi_t - identity))),
    }

    if T is not None:
        t1 = time.perf_counter()
        period = np.searchsorted(times, T)
        nu, info = quasienergies_from_period_map(Phi[period], T, reduced)
        timings["verify.monodromy_s"] = time.perf_counter() - t1
        report["steps_period"] = int(steps[: period + 1].sum())
        lam = np.mod(reduced.lambda_inf, 2.0 * np.pi / T)
        err = np.abs(nu - lam)
        err = np.minimum(err, 2.0 * np.pi / T - err)  # circle distance
        report["quasi_energy"] = {
            "max_error": float(np.max(err)),
            "min_overlap": info.get("min_overlap"),
            "period": T,
            "unitarity_defect": info.get("unitarity_defect"),
        }

    write_json(os.path.join(outdir, "verify.json"), report)
    timings["verify_s"] = time.perf_counter() - t0
    _write_timings(outdir, timings)
    write_checksums(outdir)
    status = "ok" if report["passed"] else "FAILED"
    print(f"verify: max deviation {dev:.3e}, operator {op_dev:.3e} (tol {tol:.1e}) -> {status}")
    return EXIT_OK if report["passed"] else EXIT_FAILURE


def _write_spectrum(outdir: str, reduced, Kmax: int):
    """Write spectrum.json, the Floquet exponents for |k|_inf <= Kmax; returns them."""
    from .floquet import floquet_spectrum
    from .serialize import write_json

    spec = floquet_spectrum(reduced, Kmax)
    write_json(
        os.path.join(outdir, "spectrum.json"),
        {
            "Kmax": Kmax,
            "k": [list(map(int, row)) for row in spec.k],
            "mode": list(map(int, spec.mode)),
            "multiplicity": list(map(int, spec.multiplicity)),
            "nu": list(spec.nu),
        },
    )
    return spec


def cmd_spectrum(manifest: RunManifest, kmax: int | None = None) -> int:
    from .serialize import verify_checksums, write_checksums

    outdir = _prepare_out(manifest)
    verify_checksums(outdir)
    reduced = _load_reduced(manifest, outdir)
    K = kmax if kmax is not None else (manifest.spectrum or {}).get("Kmax", 2)
    spec = _write_spectrum(outdir, reduced, K)
    header = "nu,mode,multiplicity," + ",".join(
        f"k{i + 1}" for i in range(reduced.n)
    )
    lines = [header]
    for idx in range(len(spec)):
        kcols = ",".join(str(int(c)) for c in spec.k[idx])
        lines.append(
            f"{float(spec.nu[idx])!r},{int(spec.mode[idx])},"
            f"{int(spec.multiplicity[idx])},{kcols}"
        )
    with open(os.path.join(outdir, "spectrum.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    write_checksums(outdir)
    print(f"spectrum: {len(spec)} lines (|k| <= {K}) in {outdir}")
    return EXIT_OK


def cmd_model(manifest: RunManifest) -> int:
    t0 = time.perf_counter()
    import numpy as np

    from .serialize import write_checksums, write_json
    from .torus import delta_norm

    outdir = _prepare_out(manifest)
    spec = manifest.model
    osc = _build_oscillator(spec) if spec["kind"] == "oscillator" else None
    base, P = _build_model(manifest, osc)
    settings = _settings(manifest)
    doc = {
        "K": P.K,
        "kind": spec["kind"],
        "lambda": list(base.lam),
        "N": base.N,
        "n": base.n,
        "norm": delta_norm(P, base, settings.s),
        "scenario": manifest.scenario,
    }
    if osc is not None:
        from . import oscillator

        doc["certificate"] = osc.certificate
        d_exact = 2.0 * spec["alpha"] / (spec["alpha"] + 2.0)
        doc["d_exact"] = d_exact
        if base.N >= 25:
            lo = max(10, base.N // 4)
            d_fit, stderr = oscillator.asymptotic_exponent_fit(
                osc.eigenvalues, range(lo, base.N + 1)
            )
            doc["d_fit"] = d_fit
            doc["d_fit_stderr"] = stderr
            doc["d_relative_error"] = abs(d_fit - d_exact) / d_exact
    write_json(os.path.join(outdir, "model.json"), doc)
    _write_timings(outdir, {"model_s": time.perf_counter() - t0})
    write_checksums(outdir)
    print(f"model: N={doc['N']} n={doc['n']} norm={doc['norm']:.3e} in {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kamreduce",
        description="KAM reducibility runs, frequency certification, and "
        "Floquet-spectrum verification driven by JSON manifests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("frequencies", "rejection-fraction table and frequency certificates"),
        ("reduce", "run the KAM schedule and write run artifacts"),
        ("verify", "cross-check a finished run against direct propagation"),
        ("spectrum", "export the Floquet spectrum table of a finished run"),
        ("model", "build and inspect the model behind a manifest"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifest", required=True, help="path to the JSON manifest")
        p.add_argument("--seed", type=int, default=None, help="override the root seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="cap BLAS/OpenMP worker threads",
        )
        if name == "spectrum":
            p.add_argument(
                "--kmax", type=int, default=None, help="mode cutoff for the table"
            )
    return parser


def _apply_threads(threads: int | None) -> None:
    if threads is None:
        return
    if threads < 1:
        raise SchemaError("--threads must be a positive integer")
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(threads)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _apply_threads(args.threads)
        from .serialize import RunManifest

        manifest = RunManifest.load(args.manifest)
        manifest = manifest.replace(seed=args.seed, out=args.out)
        if args.command == "frequencies":
            return cmd_frequencies(manifest)
        if args.command == "reduce":
            return cmd_reduce(manifest)
        if args.command == "verify":
            return cmd_verify(manifest)
        if args.command == "spectrum":
            return cmd_spectrum(manifest, kmax=args.kmax)
        if args.command == "model":
            return cmd_model(manifest)
        raise KamError(f"unknown command {args.command!r}")
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (FrequencyExcluded, ZeroAcceptanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FREQUENCY
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except DivisorTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVISOR
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARTIFACT
    except KamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
