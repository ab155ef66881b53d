"""Command-line front door: ncss <command> [flags].

Every command is a thin composition of library calls; flags override the
optional JSON config file (--config), which overrides built-in defaults.
Exit codes: 0 success, 2 invalid configuration, 3 pipeline/data failure,
4 infeasible optimization.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import adversary, bench, codec, gf, optimizer, pipeline, storage
from .codec import ALPHA_BOUNDED, STRICT, DigitString
from .errors import ConfigError, InfeasibleError, NcssError, PipelineError
from .gf import FieldSpec
from .optimizer import CostProblem
from .planner import SecurityProfile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PIPELINE = 3
EXIT_INFEASIBLE = 4


def _int(value, name: str) -> int:
    """An integer option, from a flag or a config file; not a boolean."""
    try:
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, float) and not value.is_integer():
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _float(value, name: str) -> float:
    """A real option, from a flag or a config file; not a boolean."""
    try:
        if isinstance(value, bool):
            raise ValueError
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


def _items(value) -> list:
    """A list option: a JSON list from a config file, else comma-separated."""
    return value if isinstance(value, list) else str(value).split(",")


def _floats(value, name: str) -> tuple[float, ...]:
    return tuple(_float(x, name) for x in _items(value))


def _ints(value, name: str) -> tuple[int, ...]:
    return tuple(_int(x, name) for x in _items(value))


def _assignment(text: str) -> list[list[int]]:
    return [
        [_int(x, "assignment") for x in part.split(",") if x]
        for part in str(text).split("|")
    ]


REQUIRED = object()
_PATHS = ("root", "infile", "manifest", "outfile")  # options naming a file


def _merge(args: argparse.Namespace, keys: dict) -> dict:
    """flags > config file > defaults; None marks an unset flag."""
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if type(cfg) is not dict:
            raise ConfigError("config file must hold a JSON object")
    out = {}
    for key, default in keys.items():
        value = getattr(args, key, None)
        if value is None:
            value = cfg.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        if key in _PATHS and type(value) is not str:  # open(5) reads fd 5
            raise ConfigError(f"{key} must be a path string, got {value!r}")
        out[key] = value
    return out


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _spec(opts: dict) -> FieldSpec:
    return FieldSpec(
        k=_int(opts["k"], "k"), d=_int(opts["d"], "d"),
        reduction_poly=_int(opts.get("poly") or 0, "poly"),
    )


def _profile(opts: dict) -> SecurityProfile:
    return SecurityProfile(
        breach=_floats(opts["breach"], "breach"), pu=_float(opts["pu"], "pu")
    )


def _mode(opts: dict) -> tuple[str, float | None]:
    mode = str(opts["mode"])
    if mode not in (STRICT, "alpha", ALPHA_BOUNDED):
        raise ConfigError(f"mode must be strict or alpha, got {mode!r}")
    if mode == "alpha":
        mode = ALPHA_BOUNDED
    alpha = opts.get("alpha")
    if mode == ALPHA_BOUNDED and alpha is None:
        raise ConfigError("alpha mode needs --alpha")
    return mode, (_float(alpha, "alpha") if mode == ALPHA_BOUNDED else None)


def _resolve_n(opts: dict, digits: DigitString, profile: SecurityProfile) -> int:
    raw = opts["n"]
    if str(raw) != "auto":
        return _int(raw, "n")
    problem = CostProblem(
        m=max(1, len(digits)),
        d=digits.d,
        k=_int(opts["k"], "k"),
        p=profile.p,
        breach=max(profile.breach),
        pu=profile.pu,
    )
    return optimizer.solve_cost(problem).n_star


def _store_opts() -> dict:
    return {
        "d": 2, "k": REQUIRED, "poly": 0, "mode": STRICT, "alpha": None,
        "n": "auto", "breach": REQUIRED, "pu": REQUIRED,
    }


def _plan_summary(result: pipeline.StoreResult) -> dict:
    plan, grouping = result.plan, result.grouping
    return {
        "mode": grouping.mode,
        "width": grouping.width,
        "alpha": grouping.alpha,
        "elements": grouping.r,
        "pad_count": grouping.pad_count,
        "n": result.manifest.n,
        "block_count": result.manifest.block_count,
        "total_digits": plan.total_digits,
        "caps": list(plan.caps),
        "stored": list(plan.stored),
        "local_digits": plan.local_count,
        "guess_prob": list(plan.guess_prob),
    }


def cmd_plan(args) -> int:
    opts = _merge(args, {**_store_opts(), "infile": REQUIRED})
    mode, alpha = _mode(opts)
    profile = _profile(opts)
    with open(opts["infile"], "rb") as fh:
        digits = pipeline.bytes_to_digits(fh.read(), _int(opts["d"], "d"))
    n = _resolve_n(opts, digits, profile)
    root = storage.MemoryRoot(profile.p)  # dry run, nothing persisted
    result = pipeline.store_digits(
        digits, root, _spec(opts), n=n, profile=profile, mode=mode, alpha=alpha
    )
    _emit(args, json.dumps(_plan_summary(result), indent=1))
    return EXIT_OK


def cmd_store(args) -> int:
    opts = _merge(args, {**_store_opts(), "infile": REQUIRED, "root": REQUIRED})
    mode, alpha = _mode(opts)
    profile = _profile(opts)
    with open(opts["infile"], "rb") as fh:
        digits = pipeline.bytes_to_digits(fh.read(), _int(opts["d"], "d"))
    n = _resolve_n(opts, digits, profile)
    root = storage.DirectoryRoot(opts["root"], clouds=profile.p)
    result = pipeline.store_digits(
        digits, root, _spec(opts), n=n, profile=profile, mode=mode, alpha=alpha
    )
    summary = _plan_summary(result)
    summary["root"] = str(opts["root"])
    summary["manifest"] = str(root.path / "manifest.json")
    _emit(args, json.dumps(summary, indent=1))
    return EXIT_OK


def cmd_fetch(args) -> int:
    opts = _merge(args, {"root": "", "manifest": "", "outfile": REQUIRED})
    if not opts["root"] and not opts["manifest"]:
        raise ConfigError("fetch needs --root or --manifest")
    if opts["manifest"]:
        from pathlib import Path

        with open(opts["manifest"]) as fh:
            manifest = storage.Manifest.from_json(fh.read())
        root = storage.DirectoryRoot(opts["root"] or Path(opts["manifest"]).parent)
    else:
        root = storage.DirectoryRoot(opts["root"])
        manifest = pipeline.load_manifest(root)
    digits = pipeline.recover(root, manifest)
    with open(opts["outfile"], "wb") as fh:
        fh.write(pipeline.digits_to_bytes(digits))
    sys.stdout.write(
        json.dumps({"recovered_digits": len(digits), "out": opts["outfile"]}) + "\n"
    )
    return EXIT_OK


def cmd_decode(args) -> int:
    opts = _merge(args, {"d": 2, "k": REQUIRED, "poly": 0, "points": REQUIRED, "elements": REQUIRED})
    spec = _spec(opts)
    matrix = gf.build_vandermonde(spec, _ints(opts["points"], "points"))
    coded = np.asarray(_ints(opts["elements"], "elements"), dtype=np.int64)
    decoded = codec.decode_block(matrix, coded)
    widths = codec.digit_lengths(decoded, spec.d)
    _emit(args, json.dumps({
        "decoded": decoded.tolist(),
        "digit_lengths": widths.tolist(),
    }))
    return EXIT_OK


def cmd_classify(args) -> int:
    opts = _merge(args, {
        "d": 2, "k": REQUIRED, "poly": 0, "alpha": REQUIRED,
        "widths": REQUIRED, "elements": REQUIRED, "assignment": REQUIRED,
    })
    elements = np.asarray(_ints(opts["elements"], "elements"), dtype=np.int64)
    d = _int(opts["d"], "d")
    digits, lengths = codec.render_elements(elements, d, ALPHA_BOUNDED)
    widths = np.asarray(_ints(opts["widths"], "widths"), dtype=np.int64)
    block = codec.CodedStream(
        elements=elements, render_digits=digits, render_lengths=lengths,
        n=elements.size, d=d, mode=ALPHA_BOUNDED,
    )
    report = codec.classify_overflow(
        widths, block, _assignment(opts["assignment"]), _float(opts["alpha"], "alpha")
    )
    _emit(args, json.dumps({
        "strict": report.strict,
        "tested_alpha": report.tested_alpha,
        "alpha_bound_satisfied": report.alpha_bound_satisfied,
        "per_cloud_ratios": list(report.per_cloud_ratios),
    }))
    return EXIT_OK


def cmd_optimize(args) -> int:
    opts = _merge(args, {
        "m": REQUIRED, "d": 2, "k": REQUIRED, "p": REQUIRED,
        "breach": REQUIRED, "pu": REQUIRED, "sweep": "",
    })
    p, breach = _int(opts["p"], "p"), _floats(opts["breach"], "breach")
    if len(breach) > 1 and len(breach) != p:  # one value covers every cloud
        raise ConfigError(f"breach lists {len(breach)} clouds, but p is {p}")
    base = CostProblem(
        m=_int(opts["m"], "m"), d=_int(opts["d"], "d"), k=_int(opts["k"], "k"),
        p=p, breach=max(breach), pu=_float(opts["pu"], "pu"),
    )
    if opts["sweep"]:
        rows = optimizer.sweep(base, _ints(opts["sweep"], "sweep"))
        _emit(args, optimizer.sweep_csv(rows))
        return EXIT_OK
    solution = optimizer.solve_cost(base)
    _emit(args, f"n={solution.n_star} l={solution.l_star} f={solution.f_star:g}")
    return EXIT_OK


def cmd_attack(args) -> int:
    opts = _merge(args, {"root": REQUIRED, "cloud": REQUIRED, "trials": 100000, "seed": 0})
    root = storage.DirectoryRoot(opts["root"])
    manifest = pipeline.load_manifest(root)
    cloud = str(opts["cloud"])
    # anything but "all" or a decimal index is left for the scenario to refuse
    target = int(cloud) if cloud.removeprefix("-").isdecimal() else cloud
    scenario = adversary.scenario_from_storage(manifest, root, target)
    trials = _int(opts["trials"], "trials")
    empirical = adversary.simulate_guess(scenario, trials, _int(opts["seed"], "seed"))
    expected = float(manifest.d) ** -scenario.unknown_count
    breach = scenario.breach if scenario.breach is not None else 1.0
    _emit(args, json.dumps({
        "cloud": str(target),
        "total_digits": scenario.total_digits,
        "observed": scenario.observed_count,
        "unknown": scenario.unknown_count,
        "trials": trials,
        "empirical_guess_rate": empirical,
        "uniform_rate": expected,
        "breach": breach,
        "guess_probability": breach * empirical,
        "pu": manifest.pu,
    }, indent=1))
    return EXIT_OK


def cmd_audit(args) -> int:
    opts = _merge(args, {
        "k": REQUIRED, "poly": 0, "n": REQUIRED, "w": None, "t": None,
        "points": "", "selection": "", "grid": False,
    })
    field = gf.get_field(_int(opts["k"], "k"), _int(opts["poly"], "poly") or None)
    n = _int(opts["n"], "n")
    points = _ints(opts["points"], "points") if opts["points"] else gf.default_points(n)
    matrix = gf.build_vandermonde(field, points)
    if opts["grid"]:
        reports = []
        for w in range(1, n + 1):
            for t in range(0, n + 1):
                reports.append(adversary.entropy_audit(matrix, w=w, t=t))
        _emit(args, adversary.audit_csv(reports))
        return EXIT_OK
    if opts["w"] is None or (opts["t"] is None and not opts["selection"]):
        raise ConfigError("audit needs --w and --t (or --selection), or --grid")
    selection = _ints(opts["selection"], "selection") if opts["selection"] else None
    report = adversary.entropy_audit(
        matrix, w=_int(opts["w"], "w"),
        t=_int(opts["t"], "t") if opts["t"] is not None else None,
        selection=selection,
    )
    _emit(args, adversary.audit_csv([report]))
    return EXIT_OK


def cmd_bench(args) -> int:
    opts = _merge(args, {
        "suite": REQUIRED, "k": REQUIRED, "n": "", "payload_bytes": 2 * 1024 * 1024,
        "mode": STRICT, "alpha": None, "p": 2, "reps": 5,
        "mul_count": 10_000_000, "seed": 0,
    })
    if opts["suite"] == "mul":
        results = bench.bench_mul(
            _ints(opts["k"], "k"), _int(opts["mul_count"], "mul_count"),
            reps=_int(opts["reps"], "reps"), seed=_int(opts["seed"], "seed"),
        )
    elif opts["suite"] == "pipeline":
        mode, alpha = _mode(opts)
        results = bench.bench_pipeline(
            file_bytes=_int(opts["payload_bytes"], "payload_bytes"),
            n_list=_ints(opts["n"], "n"),
            k_list=_ints(opts["k"], "k"),
            mode=mode, alpha=alpha, p=_int(opts["p"], "p"),
            reps=_int(opts["reps"], "reps"), seed=_int(opts["seed"], "seed"),
        )
    else:
        raise ConfigError(f"unknown bench suite {opts['suite']!r}")
    _emit(args, bench.bench_csv(results))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncss",
        description="Overflow-free network-coded storage across simulated clouds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, with_out=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="JSON config file; flags take precedence")
        if with_out:
            p.add_argument("--out", help="write output here instead of stdout")
        return p

    p = add("plan", cmd_plan, "dry-run width selection, caps, and distribution")
    p.add_argument("--in", dest="infile")
    _field_flags(p)
    _security_flags(p)

    p = add("store", cmd_store, "encode a file and distribute it under a root")
    p.add_argument("--in", dest="infile")
    p.add_argument("--root")
    _field_flags(p)
    _security_flags(p)

    p = add("fetch", cmd_fetch, "recover the original file from a root", with_out=False)
    p.add_argument("--root")
    p.add_argument("--manifest")
    p.add_argument("--out", dest="outfile", help="destination for the recovered file")

    p = add("decode", cmd_decode, "invert a coded block given the matrix points")
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--poly", type=int)
    p.add_argument("--points")
    p.add_argument("--elements")

    p = add("classify", cmd_classify, "overflow classification of coded elements")
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--poly", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--widths")
    p.add_argument("--elements")
    p.add_argument("--assignment")

    p = add("optimize", cmd_optimize, "minimize storage cost; optionally sweep m")
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--breach")
    p.add_argument("--pu", type=float)
    p.add_argument("--sweep")

    p = add("attack", cmd_attack, "simulate guessing against a stored dataset")
    p.add_argument("--root")
    p.add_argument("--cloud")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)

    p = add("audit", cmd_audit, "exact secrecy audit (by GF(2) rank, or by enumeration)")
    p.add_argument("--k", type=int)
    p.add_argument("--poly", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--w", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--points")
    p.add_argument("--selection")
    p.add_argument("--grid", action="store_true", default=None)

    p = add("bench", cmd_bench, "throughput benchmarks, CSV output")
    p.add_argument("--suite")
    p.add_argument("--k")
    p.add_argument("--n")
    p.add_argument("--bytes", dest="payload_bytes", type=int)
    p.add_argument("--mode")
    p.add_argument("--alpha", type=float)
    p.add_argument("--p", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--mul-count", dest="mul_count", type=int)
    p.add_argument("--seed", type=int)

    return parser


def _field_flags(p) -> None:
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--poly", type=int)
    p.add_argument("--mode")
    p.add_argument("--alpha", type=float)
    p.add_argument("--n")


def _security_flags(p) -> None:
    p.add_argument("--breach")
    p.add_argument("--pu", type=float)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PipelineError, NcssError) as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except OSError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
