"""Command-line front end: one subcommand per library surface.

Inputs are strict RFC 8259 JSON documents, inline or ``@path``.  Every
stochastic mode requires an explicit non-negative ``--seed`` and its
result envelope carries (estimate, standard error, n_samples, seed).
Output is a strict JSON envelope; ``--out csv`` emits tabular traces for
the few subcommands that produce them.  ``SUBCOMMANDS`` declares each
subcommand's options and ``_MODES`` what each mode reads; ``build_envelope``
picks the call's mode and refuses an option it would not read before reading any input.
The symbolic core loads with this module, and numpy does not: numpy,
``kernels``, ``measure_core``, ``bohr``, ``selftest`` and ``csv`` load
inside the code that uses them, so a fresh process imports only what
its subcommand runs.  ``shift-admissible``, ``hs-check``, ``chi``,
``moment`` without ``--mc-samples``, ``consistency``, ``equivalence``
(which bounds its variance ratios from a few indices), ``rn-density``
(one point, a plain sum) and ``support`` on closed-form inputs build
no array and never load numpy.

Exit codes: 0 success, 2 input error (schema violations name the
offending key), 3 numeric failure (a tolerance that could not be
reached, or a result that is not finite).  A failing selftest exits 1
naming the first failed criterion.

Payload determinism contract: the ``payload`` object is serialized
canonically (sorted keys, no volatile fields), so identical invocations
with identical seeds produce byte-identical payloads.  Wall time and
other volatile data live outside the payload.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import sys
import time
from typing import Any

from . import gaussian, jsonio, support, transform
from .errors import InputError, NumericError
from .sequences import FiniteSequence

__all__ = ["main", "build_envelope", "SUBCOMMANDS"]


def _reject_constant(token: str) -> None:
    raise ValueError(f"{token} is not RFC 8259 JSON; write infinite interval ends as \"inf\"")


_STRICT_JSON = json.JSONDecoder(parse_constant=_reject_constant)
# the canonical form the inputs digest hashes: what json.dumps(inputs,
# sort_keys=True, separators=(",", ":")) prints, without a new encoder per call
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _load_json_arg(raw: str, what: str) -> Any:
    text = raw
    if raw.startswith("@"):
        try:
            with open(raw[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"{what}: cannot read {raw[1:]}: {exc}") from None
    try:
        return _STRICT_JSON.decode(text)
    except ValueError as exc:
        raise InputError(f"{what}: invalid JSON ({exc})") from None


def _parse_vectors(raw: str) -> tuple[list[FiniteSequence], Any]:
    """Comma-separated basis tokens like ``e1,e1,e2`` or a JSON array."""
    if raw.lstrip().startswith("["):
        doc = _load_json_arg(raw, "vectors")
        vecs = [jsonio.decode("finite_sequence", d, f"vectors[{i}]") for i, d in enumerate(doc)]
        return vecs, doc
    vecs = []
    for i, token in enumerate(raw.split(",")):
        token = token.strip()
        if not token.startswith("e"):
            raise InputError(f"vectors[{i}]: expected a basis token like e1, got {token!r}")
        try:
            index = int(token[1:])
        except ValueError:
            raise InputError(f"vectors[{i}]: expected a basis token like e1, got {token!r}") from None
        vecs.append(FiniteSequence.basis(index))
    return vecs, raw


# ---------------------------------------------------------------------------
# payload builders (one per subcommand)


def _payload_sample(args) -> tuple[dict, Any, list[str]]:
    cov_doc = _load_json_arg(args.cov, "--cov")
    cov = jsonio.decode_decay(cov_doc, "cov")
    out = gaussian.sample(cov, args.n, args.seed)
    payload = {
        "values": jsonio.encode_value(out.values),
        "truncation": out.truncation,
        "seed": args.seed,
    }
    return payload, {"cov": cov_doc, "n": args.n, "seed": args.seed}, ["seeded gaussian sampler"]


def _payload_chi(args) -> tuple[dict, Any, list[str]]:
    cov_doc = _load_json_arg(args.cov, "--cov")
    xi_doc = _load_json_arg(args.xi, "--xi")
    cov = jsonio.decode_decay(cov_doc, "cov")
    xi = jsonio.decode("finite_sequence", xi_doc, "xi")
    return (
        {"chi": gaussian.chi(xi, cov), "inner": gaussian.inner(xi, xi, cov)},
        {"cov": cov_doc, "xi": xi_doc},
        ["closed-form characteristic function"],
    )


def _payload_moment(args) -> tuple[dict, Any, list[str]]:
    cov_doc = _load_json_arg(args.cov, "--cov")
    cov = jsonio.decode_decay(cov_doc, "cov")
    vectors, vec_echo = _parse_vectors(args.vectors)
    value = gaussian.wick_moment(cov, vectors)
    payload: dict[str, Any] = {"moment": value, "n_vectors": len(vectors)}
    provenance = ["pairing-sum evaluation"]
    inputs: dict[str, Any] = {"cov": cov_doc, "vectors": vec_echo}
    if args.mc_samples is not None:
        dim = max((v.max_index for v in vectors), default=1)
        if args.mc_samples < 2:
            raise InputError(f"--mc-samples needs at least 2 samples, got {args.mc_samples}")
        if args.mc_samples * (dim + len(vectors)) > gaussian.MAX_MC_VALUES:
            raise InputError(
                f"{args.mc_samples} samples x ({dim} coordinates + {len(vectors)} factors) "
                f"exceed the budget of {gaussian.MAX_MC_VALUES} values"
            )
        import numpy as np

        rng = np.random.default_rng(args.seed)
        x = gaussian.draw_coordinates(cov, dim, args.mc_samples, rng)
        projections = [x @ v.as_vector(dim) for v in vectors]
        # no factors: the empty product 1 in every sample, as the exact moment
        prods = (np.prod(np.stack(projections, axis=1), axis=1) if projections
                 else np.ones(args.mc_samples))
        payload["mc"] = {
            "estimate": float(prods.mean()),
            "standard_error": float(prods.std(ddof=1) / np.sqrt(args.mc_samples)),
            "n_samples": args.mc_samples,
            "seed": args.seed,
        }
        provenance.append("monte carlo product-moment oracle")
        inputs["mc"] = {"n_samples": args.mc_samples, "seed": args.seed}
    return payload, inputs, provenance


def _payload_rn_density(args) -> tuple[dict, Any, list[str]]:
    cov_doc = _load_json_arg(args.cov, "--cov")
    shift_doc = _load_json_arg(args.shift, "--shift")
    x_doc = _load_json_arg(args.x, "--x")
    cov = jsonio.decode_decay(cov_doc, "cov")
    shift = jsonio.decode("finite_sequence", shift_doc, "shift")
    x = jsonio.decode("numbers", x_doc, "x")
    return (
        {"density": transform.rn_density(x, shift, cov), "truncation": len(x_doc)},
        {"cov": cov_doc, "shift": shift_doc, "x": x_doc},
        ["closed-form shift density"],
    )


def _payload_shift_admissible(args) -> tuple[dict, Any, list[str]]:
    cov_doc = _load_json_arg(args.cov, "--cov")
    shift_doc = _load_json_arg(args.shift, "--shift")
    cov = jsonio.decode_decay(cov_doc, "cov")
    shift = jsonio.decode_shift(shift_doc, "shift")
    return (
        {"admissible": transform.shift_admissible(shift, cov)},
        {"cov": cov_doc, "shift": shift_doc},
        ["symbolic series decision"],
    )


def _payload_equivalence(args) -> tuple[dict, Any, list[str]]:
    a_doc = _load_json_arg(args.cov_a, "--cov-a")
    b_doc = _load_json_arg(args.cov_b, "--cov-b")
    verdict = transform.equivalence_classify(
        jsonio.decode_decay(a_doc, "cov-a"), jsonio.decode_decay(b_doc, "cov-b")
    )
    return (
        jsonio.encode_value(verdict),
        {"cov_a": a_doc, "cov_b": b_doc},
        ["symbolic ratio classification"],
    )


def _payload_support(args) -> tuple[dict, Any, list[str]]:
    cov_doc = _load_json_arg(args.cov, "--cov")
    w_doc = _load_json_arg(args.weights, "--weights")
    cov = jsonio.decode_decay(cov_doc, "cov")
    weights = jsonio.decode_decay(w_doc, "weights")
    report = support.weighted_support_check(cov, weights)
    payload: dict[str, Any] = {"report": jsonio.encode_value(report)}
    provenance = ["symbolic weighted-series decision"]
    inputs: dict[str, Any] = {"cov": cov_doc, "weights": w_doc}
    if args.mc is not None:
        n_coords, n_samples = args.mc
        growth = support.mc_tail_growth(cov, weights, n_coords, n_samples, args.seed)
        payload["mc"] = jsonio.encode_value(growth)
        provenance.append("monte carlo tail-growth oracle")
        inputs["mc"] = {"n_coords": n_coords, "n_samples": n_samples, "seed": args.seed}
    return payload, inputs, provenance


def _payload_hs_check(args) -> tuple[dict, Any, list[str]]:
    w_doc = _load_json_arg(args.weights, "--weights")
    h = jsonio.decode_decay(w_doc, "weights")
    return (
        {"hilbert_schmidt": support.hilbert_schmidt_check(h)},
        {"weights": w_doc},
        ["symbolic series decision"],
    )


def _payload_kernel(args) -> tuple[dict, Any, list[str]]:
    from . import kernels

    if args.fourier is not None:
        m, x = args.fourier
        res = kernels.kernel_fourier_quadrature(m, x, p_cutoff=args.cutoff, tol=args.tol)
        return (
            jsonio.encode_value(res),
            {"fourier": {"m": m, "x": x, "cutoff": args.cutoff, "tol": args.tol}},
            ["gauss-legendre panels with a proved bound"],
        )
    if args.spec is None:
        raise InputError("kernel --at, --bilinear and --regularity need --spec")
    spec_doc = _load_json_arg(args.spec, "--spec")
    spec = jsonio.decode("kernel", spec_doc, "spec")
    if args.at is not None:
        return (
            {"value": spec.at(args.at), "x": args.at},
            {"spec": spec_doc, "at": args.at},
            ["closed-form kernel evaluation"],
        )
    if args.bilinear is not None:
        f_doc = _load_json_arg(args.bilinear[0], "--bilinear f")
        g_doc = _load_json_arg(args.bilinear[1], "--bilinear g")
        f = jsonio.decode("grid_function", f_doc, "f")
        g = jsonio.decode("grid_function", g_doc, "g")
        return (
            {"value": kernels.covariance_bilinear(spec, f, g)},
            {"spec": spec_doc, "f": f_doc, "g": g_doc},
            ["trapezoid double quadrature"],
        )
    return {"regularity": spec.regularity.value}, {"spec": spec_doc}, ["continuity classification"]


def _payload_bohr(args) -> tuple[dict, Any, list[str]]:
    from . import bohr

    try:
        freqs = bohr.FrequencySet(tuple(float(v) for v in args.freqs.split(",")))
    except ValueError as exc:
        raise InputError(f"--freqs: {exc}") from None
    inputs: dict[str, Any] = {"freqs": list(freqs.freqs)}
    if args.check_independence is not None:
        res = bohr.independence_check(freqs, args.check_independence)
        inputs["check_independence"] = args.check_independence
        return jsonio.encode_value(res), inputs, ["bounded integer-relation search"]
    if args.sample:
        phases = bohr.haar_sample_batch(freqs, 1, args.seed)[0]
        inputs["seed"] = args.seed
        return (
            {"phases": jsonio.encode_value(phases), "seed": args.seed},
            inputs,
            ["seeded haar sampler"],
        )
    if args.integral is None:
        raise InputError("bohr --mc needs --integral")
    f = _integrand_from_catalog(args.integral, freqs.n)
    inputs["integral"] = args.integral
    if args.mc is not None:
        method: bohr.Method = bohr.MCMethod(args.mc, args.seed)
        inputs["mc"] = {"n_samples": args.mc, "seed": args.seed}
        provenance = ["monte carlo haar integral"]
    else:
        method = bohr.QuadratureMethod(args.quad_points)
        inputs["quad_points"] = args.quad_points
        provenance = ["periodic trapezoid quadrature"]
    res = bohr.haar_cylinder_integral(freqs, f, method)
    return jsonio.encode_value(res), inputs, provenance


def _integrand_from_catalog(name: str, n_axes: int):
    """Named integrands: ``one``, ``char:m1,...,mn``, ``cos:m1,...,mn``."""
    import numpy as np

    if name == "one":
        return lambda th: np.ones(th.shape[0], dtype=complex)
    for prefix, builder in (
        ("char:", lambda m: (lambda th: np.exp(1j * (th @ m)))),
        ("cos:", lambda m: (lambda th: np.cos(th @ m).astype(complex))),
    ):
        if name.startswith(prefix):
            try:
                m = np.asarray([int(v) for v in name[len(prefix):].split(",")], dtype=float)
            except ValueError:
                raise InputError(f"--integral: bad mode list in {name!r}") from None
            if len(m) != n_axes:
                raise InputError(
                    f"--integral: {name!r} has {len(m)} modes for {n_axes} frequencies"
                )
            return builder(m)
    raise InputError(f"--integral: unknown integrand {name!r}; use one, char:..., cos:...")


def _payload_product(args) -> tuple[dict, Any, list[str]]:
    from . import measure_core

    spec_doc = _load_json_arg(args.spec, "--spec")
    spec = jsonio.decode("measure_rule", spec_doc, "rule")
    if args.cylinder is not None:
        cyl_doc = _load_json_arg(args.cylinder, "--cylinder")
        cyl = jsonio.decode("cylinder", cyl_doc, "cylinder")
        return (
            {"probability": measure_core.cylinder_measure(spec, cyl)},
            {"rule": spec_doc, "cylinder": cyl_doc},
            ["finite product of component probabilities"],
        )
    prefix_doc = {"base": []} if args.prefix is None else _load_json_arg(args.prefix, "--prefix")
    tail_doc = {"full": {}} if args.tail is None else _load_json_arg(args.tail, "--tail")
    constraints = measure_core.TailConstraints(
        prefix=jsonio.decode("cylinder", prefix_doc, "prefix"),
        tail=jsonio.decode("tail_rule", tail_doc, "tail"),
    )
    report = measure_core.countable_product_measure(spec, constraints, n_max=args.n_max)
    inputs = {"rule": spec_doc, "prefix": prefix_doc, "tail": tail_doc}
    if args.n_max is not None:
        inputs["n_max"] = args.n_max
    return jsonio.encode_value(report), inputs, ["monotone partial products"]


def _payload_consistency(args) -> tuple[dict, Any, list[str]]:
    from . import measure_core

    doc = _load_json_arg(args.marginals, "--marginals")
    tables = jsonio.decode("marginal_tables", doc, "marginals")
    res = measure_core.consistency_check(tables, tol=args.tol)
    inputs = {"marginals": doc, "tol": args.tol}
    return jsonio.encode_value(res), inputs, ["chain marginalization"]


def build_envelope(args) -> dict:
    _check_mode(args)
    start = time.perf_counter()
    payload, inputs, provenance = SUBCOMMANDS[args.subcommand][1](args)
    digest = hashlib.sha256(_CANONICAL_JSON.encode(inputs).encode()).hexdigest()
    return {
        "subcommand": args.subcommand,
        "inputs": inputs,
        "inputs_digest": digest,
        "payload": payload,
        "provenance": provenance,
        "wall_time_s": time.perf_counter() - start,
    }


def _emit(envelope: dict, out_format: str) -> str:
    if out_format == "json":
        # canonical payload bytes: sorted keys, stable separators
        try:
            return json.dumps(envelope, sort_keys=True, separators=(",", ":"), allow_nan=False)
        except ValueError:
            raise NumericError(
                f"{envelope['subcommand']} result is not finite", payload=envelope["payload"]
            ) from None
    payload = envelope["payload"]
    rows = _tabulate(payload)
    if rows is None:
        raise InputError(
            f"subcommand {envelope['subcommand']!r} has no tabular trace for CSV output"
        )
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _tabulate(payload: dict) -> list[list] | None:
    if "values" in payload and isinstance(payload["values"], list):
        return [["index", "value"]] + [
            [i + 1, v] for i, v in enumerate(payload["values"])
        ]
    if "phases" in payload and isinstance(payload["phases"], list):
        return [["axis", "phase"]] + [[i + 1, v] for i, v in enumerate(payload["phases"])]
    mc = payload.get("mc")
    if isinstance(mc, dict) and "checkpoints" in mc:
        return [["n", "mean_partial_sum"]] + [list(row) for row in mc["checkpoints"]]
    return None


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"expected a non-negative 64-bit integer, got {text!r}")
    return value


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


_SEED = {"type": _seed, "help": "non-negative 64-bit seed"}

# name -> (help, payload builder, options as (flag, add_argument keywords)).
# Every subcommand also takes --out; selftest prints a report, not a payload.
SUBCOMMANDS: dict[str, tuple[str, Any, tuple[tuple[str, dict], ...]]] = {
    "sample": ("draw a truncated gaussian sample", _payload_sample, (
        ("--cov", {"required": True}),
        ("--n", {"type": int, "required": True}),
        ("--seed", {**_SEED, "required": True}),
    )),
    "chi": ("characteristic function at a test vector", _payload_chi, (
        ("--cov", {"required": True}),
        ("--xi", {"required": True}),
    )),
    "moment": ("gaussian moment by the pairing rule", _payload_moment, (
        ("--cov", {"required": True}),
        ("--vectors", {"required": True,
                       "help": "basis tokens e1,e2,... or a JSON array of sequences"}),
        ("--mc-samples", {"type": int}),
        ("--seed", {**_SEED, "help": "seed of --mc-samples"}),
    )),
    "rn-density": ("shift density at a point", _payload_rn_density, (
        ("--cov", {"required": True}),
        ("--shift", {"required": True}),
        ("--x", {"required": True, "help": "JSON array of truncated coordinates"}),
    )),
    "shift-admissible": ("is a shift admissible for a covariance", _payload_shift_admissible, (
        ("--cov", {"required": True}),
        ("--shift", {"required": True}),
    )),
    "equivalence": ("equivalent / singular classification", _payload_equivalence, (
        ("--cov-a", {"required": True}),
        ("--cov-b", {"required": True}),
    )),
    "support": ("weighted-subspace support verdict", _payload_support, (
        ("--cov", {"required": True}),
        ("--weights", {"required": True}),
        ("--mc", {"type": int, "nargs": 2, "metavar": ("N_COORDS", "N_SAMPLES"),
                  "help": "add the tail-growth oracle (needs --seed)"}),
        ("--seed", {**_SEED, "help": "seed of --mc"}),
    )),
    "hs-check": ("hilbert-schmidt check for a diagonal operator", _payload_hs_check, (
        ("--weights", {"required": True}),
    )),
    "kernel": ("covariance kernel operations", _payload_kernel, (
        ("--spec", {}),
        ("--at", {"type": _finite}),
        ("--bilinear", {"nargs": 2, "metavar": ("F", "G")}),
        ("--regularity", {"action": "store_true"}),
        ("--fourier", {"type": _finite, "nargs": 2, "metavar": ("M", "X")}),
        ("--cutoff", {"type": _finite, "default": 1e7}),
        ("--tol", {"type": _positive, "default": 1e-6, "help": "error budget of --fourier"}),
    )),
    "bohr": ("torus family: independence, sampling, integrals", _payload_bohr, (
        ("--freqs", {"required": True, "help": "comma-separated frequencies"}),
        ("--check-independence", {"type": int, "metavar": "BOUND"}),
        ("--integral", {"metavar": "EXPR_ID"}),
        ("--quad-points", {"type": int, "default": 16}),
        ("--mc", {"type": int, "metavar": "N_SAMPLES"}),
        ("--sample", {"action": "store_true"}),
        ("--seed", {**_SEED, "help": "seed of --sample and --mc"}),
    )),
    "product": ("cylinder or countable product probability", _payload_product, (
        ("--spec", {"required": True}),
        ("--cylinder", {}),
        ("--prefix", {}),
        ("--tail", {}),
        ("--n-max", {"type": int}),
    )),
    "consistency": ("marginal self-consistency check", _payload_consistency, (
        ("--marginals", {"required": True}),
        ("--tol", {"type": _positive, "default": 1e-12, "help": "agreement tolerance"}),
    )),
    "selftest": ("run the release-gate criteria", None, (
        ("--level", {"choices": ("quick", "full"), "default": "quick"}),
        ("--seed", _SEED),
    )),
}

# subcommand -> its modes in precedence order: the flag that picks a mode (None
# for the default mode) -> the other options that mode reads.  An option no mode
# names is read by every call, and a mode that reads --seed needs it.
_MODES: dict[str, dict[str | None, str]] = {
    "moment": {"--mc-samples": "--seed", None: ""},
    "support": {"--mc": "--seed", None: ""},
    "kernel": {"--fourier": "--cutoff --tol", "--at": "--spec", "--bilinear": "--spec",
               "--regularity": "--spec"},
    "bohr": {"--check-independence": "", "--sample": "--seed", "--mc": "--integral --seed",
             "--integral": "--quad-points"},
    "product": {"--cylinder": "", "--prefix": "--tail --n-max", "--tail": "--prefix --n-max"},
}
# subcommand -> (flag, dest, default) of each option its modes name, in declared order
_NAMED = {name: tuple((flag, flag[2:].replace("-", "_"),
                       keywords.get("default", False if "action" in keywords else None))
                      for flag, keywords in SUBCOMMANDS[name][2]
                      if any(flag in (mode, *reads.split()) for mode, reads in modes.items()))
          for name, modes in _MODES.items()}


def _check_mode(args) -> None:
    """Pick the call's mode; refuse a set option it would not read, or a missing --seed."""
    modes = _MODES.get(args.subcommand)
    if modes is None:
        return
    given = [f for f, dest, default in _NAMED[args.subcommand] if getattr(args, dest) != default]
    mode = next(filter(given.__contains__, modes), None)  # None: the default mode, if any
    if mode not in modes:
        raise InputError(f"{args.subcommand} needs one of {', '.join(modes)}")
    reads = (mode, *modes[mode].split())
    unread = [flag for flag in given if flag not in reads]
    if unread:
        verb = "does" if len(unread) == 1 else "do"
        raise InputError(f"{', '.join(unread)} {verb} not apply to this {args.subcommand} call")
    if "--seed" in reads and args.seed is None:
        raise InputError(f"{args.subcommand} {mode} needs an explicit --seed")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree of ``SUBCOMMANDS``, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="cylmeasure",
        description="Desk-scale measure theory on sequence spaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.add_argument("--out", choices=("json", "csv"), default="json")
    return parser


def _run_selftest(args) -> int:
    from . import selftest

    seed = selftest.DEFAULT_SEED if args.seed is None else args.seed
    results = selftest.run_selftest(args.level, seed)
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.criterion}: {res.detail}")
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"selftest failed at criterion {failed[0].criterion!r}", file=sys.stderr)
        return 1
    print(f"selftest {args.level}: all {len(results)} criteria passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.subcommand == "selftest":
            return _run_selftest(args)
        envelope = build_envelope(args)
        print(_emit(envelope, args.out))
        return 0
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        detail = f" ({exc.context})" if exc.context else ""
        print(f"numeric failure: {exc}{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
