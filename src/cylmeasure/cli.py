"""Command-line front end: one subcommand per library surface.

Inputs are strict RFC 8259 JSON documents, inline or ``@path``, whose
objects name each key once; a number given as an argument is plain ASCII
without ``_``.  Every
stochastic mode requires an explicit non-negative ``--seed`` and its
result envelope carries (estimate, standard error, n_samples, seed).
Output is a strict JSON envelope; ``--out csv`` emits tabular traces for
the few subcommands that produce them.

``SUBCOMMANDS`` declares each subcommand's options with the SCHEMA kind
(or reader) of each, and ``_MODES`` the modes in precedence order with
what each reads.  ``build_envelope`` alone reads a call's options: it
picks the mode, refuses an option the mode would not read before reading
any input, then reads the mode's options in declared order and records
each under its dest in ``inputs`` (a document as parsed).  A payload
builder gets only the mode and the decoded values, so ``inputs_digest``,
the SHA-256 of the canonical ``inputs``, covers all a result depends on.

The symbolic core loads with this module, and numpy does not: numpy,
``kernels``, ``measure_core``, ``bohr``, ``selftest`` and ``csv`` load
inside the code that uses them, so a fresh process imports only what
its subcommand runs.  ``shift-admissible``, ``hs-check``, ``chi``,
``moment`` without ``--mc-samples``, ``consistency``, ``equivalence``
(which bounds its variance ratios from a few indices), ``rn-density``
(one point, a plain sum), ``support`` without ``--mc`` and ``product``
(a geometric tail in closed form, a table as a plain loop) build no
array and never load numpy.  The four series verdicts refuse a
tabulated series (exit 2) before any other work.

Exit codes: 0 success, 2 input error (schema violations name the
offending key), 3 numeric failure (a tolerance that could not be
reached, or a result that is not finite).  A failing selftest exits 1
naming the first failed criterion.

Payload determinism contract: the ``payload`` object is serialized
canonically (sorted keys, no volatile fields), so identical invocations
with identical seeds produce byte-identical payloads.  ``wall_time_s``
(reading plus compute) and ``provenance`` live outside the payload.
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


def _object(pairs: list) -> dict:
    """A JSON object that names each key once; a plain decoder keeps the last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):  # only then look for the repeated key
        keys = [k for k, _ in pairs]
        key = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ValueError(f"repeated key {key!r}")
    return obj


_STRICT_JSON = json.JSONDecoder(parse_constant=_reject_constant, object_pairs_hook=_object)
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


def _number(text: str, parse: Any) -> Any:
    """``parse(text)`` for ASCII text without ``_``: Python's int() and float()
    also read digit separators and non-ASCII digits, so ``1_0`` would be 10."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"expected a plain ASCII number, got {text!r}")
    return parse(text)


def _read_vectors(raw: str) -> tuple[list[FiniteSequence], Any]:
    """Comma-separated basis tokens like ``e1,e1,e2`` or a JSON array of sequences."""
    if raw.lstrip().startswith("["):
        doc = _load_json_arg(raw, "vectors")
        vecs = [jsonio.decode("finite_sequence", d, f"vectors[{i}]") for i, d in enumerate(doc)]
        return vecs, doc
    vecs = []
    for i, token in enumerate(raw.split(",")):
        token = token.strip()
        digits = token[1:]
        if token[:1] != "e" or not (digits.isascii() and digits.isdigit()):
            raise InputError(f"vectors[{i}]: expected a basis token like e1, got {token!r}")
        try:
            vecs.append(FiniteSequence.basis(int(digits)))
        except InputError as exc:
            raise InputError(f"vectors[{i}]: {exc}") from None
    return vecs, raw


def _read_freqs(raw: str) -> tuple[Any, str]:
    """Comma-separated frequencies."""
    from . import bohr

    try:
        return bohr.FrequencySet(tuple(_number(v, float) for v in raw.split(","))), raw
    except ValueError as exc:
        raise InputError(f"--freqs: {exc}") from None


def _reader(flag: str, kind: Any) -> Any:
    """The function from an option's argparse value to its (value, echo in ``inputs``)."""
    if kind is None:
        return lambda raw: (raw, raw)
    if type(kind) is not str:
        return kind
    name = flag[2:]

    def read(raw):
        if type(raw) is list:  # the documents of a several-value option, named by position
            docs = [_load_json_arg(r, f"{flag}[{i}]") for i, r in enumerate(raw)]
            return [jsonio.decode(kind, d, f"{name}[{i}]") for i, d in enumerate(docs)], docs
        doc = _load_json_arg(raw, flag)
        return jsonio.decode(kind, doc, name), doc

    return read


# ---------------------------------------------------------------------------
# payload builders (one per subcommand): (mode, decoded values) -> (payload, provenance)


def _payload_sample(mode, values) -> tuple[dict, list[str]]:
    out = gaussian.sample(values["cov"], values["n"], values["seed"])
    payload = {
        "values": jsonio.encode_value(out.values),
        "truncation": out.truncation,
        "seed": values["seed"],
    }
    return payload, ["seeded gaussian sampler"]


def _payload_chi(mode, values) -> tuple[dict, list[str]]:
    cov, xi = values["cov"], values["xi"]
    return (
        {"chi": gaussian.chi(xi, cov), "inner": gaussian.inner(xi, xi, cov)},
        ["closed-form characteristic function"],
    )


def _payload_moment(mode, values) -> tuple[dict, list[str]]:
    cov, vectors = values["cov"], values["vectors"]
    value = gaussian.wick_moment(cov, vectors)
    payload: dict[str, Any] = {"moment": value, "n_vectors": len(vectors)}
    if mode is None:
        return payload, ["pairing-sum evaluation"]
    n_samples, seed = values["mc_samples"], values["seed"]
    dim = max((v.max_index for v in vectors), default=1)
    if n_samples < 2:
        raise InputError(f"--mc-samples needs at least 2 samples, got {n_samples}")
    if n_samples * (dim + len(vectors)) > gaussian.MAX_MC_VALUES:
        raise InputError(
            f"{n_samples} samples x ({dim} coordinates + {len(vectors)} factors) "
            f"exceed the budget of {gaussian.MAX_MC_VALUES} values"
        )
    estimate, standard_error = gaussian.mc_moment(cov, vectors, n_samples, seed)
    payload["mc"] = {"estimate": estimate, "standard_error": standard_error,
                     "n_samples": n_samples, "seed": seed}
    return payload, ["pairing-sum evaluation", "monte carlo product-moment oracle"]


def _payload_rn_density(mode, values) -> tuple[dict, list[str]]:
    x = values["x"]
    return (
        {"density": transform.rn_density(x, values["shift"], values["cov"]), "truncation": len(x)},
        ["closed-form shift density"],
    )


def _payload_shift_admissible(mode, values) -> tuple[dict, list[str]]:
    return (
        {"admissible": transform.shift_admissible(values["shift"], values["cov"])},
        ["symbolic series decision"],
    )


def _payload_equivalence(mode, values) -> tuple[dict, list[str]]:
    verdict = transform.equivalence_classify(values["cov_a"], values["cov_b"])
    return jsonio.encode_value(verdict), ["symbolic ratio classification"]


def _payload_support(mode, values) -> tuple[dict, list[str]]:
    cov, weights = values["cov"], values["weights"]
    report = support.weighted_support_check(cov, weights)
    payload: dict[str, Any] = {"report": jsonio.encode_value(report)}
    if mode is None:
        return payload, ["symbolic weighted-series decision"]
    n_coords, n_samples = values["mc"]
    growth = support.mc_tail_growth(cov, weights, n_coords, n_samples, values["seed"])
    payload["mc"] = jsonio.encode_value(growth)
    return payload, ["symbolic weighted-series decision", "monte carlo tail-growth oracle"]


def _payload_hs_check(mode, values) -> tuple[dict, list[str]]:
    return (
        {"hilbert_schmidt": support.hilbert_schmidt_check(values["weights"])},
        ["symbolic series decision"],
    )


def _payload_kernel(mode, values) -> tuple[dict, list[str]]:
    from . import kernels

    if mode == "--fourier":
        m, x = values["fourier"]
        res = kernels.kernel_fourier_quadrature(m, x, p_cutoff=values["cutoff"], tol=values["tol"])
        return jsonio.encode_value(res), ["gauss-legendre panels with a proved bound"]
    spec = values.get("spec")
    if spec is None:
        raise InputError("kernel --at, --bilinear and --regularity need --spec")
    if mode == "--at":
        at = values["at"]
        return {"value": spec.at(at), "x": at}, ["closed-form kernel evaluation"]
    if mode == "--bilinear":
        f, g = values["bilinear"]
        return {"value": kernels.covariance_bilinear(spec, f, g)}, ["trapezoid double quadrature"]
    return {"regularity": spec.regularity.value}, ["continuity classification"]


def _payload_bohr(mode, values) -> tuple[dict, list[str]]:
    from . import bohr

    freqs = values["freqs"]
    if mode == "--check-independence":
        res = bohr.independence_check(freqs, values["check_independence"])
        return jsonio.encode_value(res), ["bounded integer-relation search"]
    if mode == "--sample":
        phases = bohr.haar_sample_batch(freqs, 1, values["seed"])[0]
        return (
            {"phases": jsonio.encode_value(phases), "seed": values["seed"]},
            ["seeded haar sampler"],
        )
    if "integral" not in values:
        raise InputError("bohr --mc needs --integral")
    f = _integrand_from_catalog(values["integral"], freqs.n)
    if mode == "--mc":
        method: bohr.Method = bohr.MCMethod(values["mc"], values["seed"])
        provenance = ["monte carlo haar integral"]
    else:
        method = bohr.QuadratureMethod(values["quad_points"])
        provenance = ["periodic trapezoid quadrature"]
    res = bohr.haar_cylinder_integral(freqs, f, method)
    return jsonio.encode_value(res), provenance


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
                m = np.asarray([_number(v, int) for v in name[len(prefix):].split(",")],
                               dtype=float)
            except ValueError:
                raise InputError(f"--integral: bad mode list in {name!r}") from None
            if len(m) != n_axes:
                raise InputError(
                    f"--integral: {name!r} has {len(m)} modes for {n_axes} frequencies"
                )
            return builder(m)
    raise InputError(f"--integral: unknown integrand {name!r}; use one, char:..., cos:...")


def _payload_product(mode, values) -> tuple[dict, list[str]]:
    from . import measure_core

    spec = values["spec"]
    if mode == "--cylinder":
        return (
            {"probability": measure_core.cylinder_measure(spec, values["cylinder"])},
            ["finite product of component probabilities"],
        )
    # an unset --prefix is the empty cylinder, an unset --tail the full tail
    constraints = measure_core.TailConstraints(
        **{key: value for key, value in values.items() if key in ("prefix", "tail")}
    )
    report = measure_core.countable_product_measure(spec, constraints, n_max=values.get("n_max"))
    return jsonio.encode_value(report), ["monotone partial products"]


def _payload_consistency(mode, values) -> tuple[dict, list[str]]:
    from . import measure_core

    res = measure_core.consistency_check(values["marginals"], tol=values["tol"])
    return jsonio.encode_value(res), ["chain marginalization"]


def build_envelope(args) -> dict:
    mode, options = _check_mode(args)
    start = time.perf_counter()
    values: dict[str, Any] = {}
    inputs: dict[str, Any] = {}
    for dest, read in options:  # an option left at None is not read
        raw = getattr(args, dest)
        if raw is not None:
            values[dest], inputs[dest] = read(raw)
    payload, provenance = SUBCOMMANDS[args.subcommand][1](mode, values)
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


def _int(text: str) -> int:
    try:
        return _number(text, int)
    except ValueError:  # argparse's own wording for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _seed(text: str) -> int:
    try:
        value = _number(text, int)
    except ValueError:
        value = -1
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"expected a non-negative 64-bit integer, got {text!r}")
    return value


def _finite(text: str) -> float:
    try:
        value = _number(text, float)
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

# name -> (help, payload builder, options as (flag, kind, add_argument keywords)).
# An option's kind is the SCHEMA kind of its JSON document, its own reader (a
# function from the argument to its value and echo), or None for an argparse value.
# Every subcommand also takes --out; selftest prints a report, not a payload.
SUBCOMMANDS: dict[str, tuple[str, Any, tuple[tuple[str, Any, dict], ...]]] = {
    "sample": ("draw a truncated gaussian sample", _payload_sample, (
        ("--cov", "decay", {"required": True}),
        ("--n", None, {"type": _int, "required": True}),
        ("--seed", None, {**_SEED, "required": True}),
    )),
    "chi": ("characteristic function at a test vector", _payload_chi, (
        ("--cov", "decay", {"required": True}),
        ("--xi", "finite_sequence", {"required": True}),
    )),
    "moment": ("gaussian moment by the pairing rule", _payload_moment, (
        ("--cov", "decay", {"required": True}),
        ("--vectors", _read_vectors, {
            "required": True, "help": "basis tokens e1,e2,... or a JSON array of sequences"}),
        ("--mc-samples", None, {"type": _int}),
        ("--seed", None, {**_SEED, "help": "seed of --mc-samples"}),
    )),
    "rn-density": ("shift density at a point", _payload_rn_density, (
        ("--cov", "decay", {"required": True}),
        ("--shift", "finite_sequence", {"required": True}),
        ("--x", "numbers", {"required": True, "help": "JSON array of truncated coordinates"}),
    )),
    "shift-admissible": ("is a shift admissible for a covariance", _payload_shift_admissible, (
        ("--cov", "decay", {"required": True}),
        ("--shift", "shift", {"required": True}),
    )),
    "equivalence": ("equivalent / singular classification", _payload_equivalence, (
        ("--cov-a", "decay", {"required": True}),
        ("--cov-b", "decay", {"required": True}),
    )),
    "support": ("weighted-subspace support verdict", _payload_support, (
        ("--cov", "decay", {"required": True}),
        ("--weights", "decay", {"required": True}),
        ("--mc", None, {"type": _int, "nargs": 2, "metavar": ("N_COORDS", "N_SAMPLES"),
                        "help": "add the tail-growth oracle (needs --seed)"}),
        ("--seed", None, {**_SEED, "help": "seed of --mc"}),
    )),
    "hs-check": ("hilbert-schmidt check for a diagonal operator", _payload_hs_check, (
        ("--weights", "decay", {"required": True}),
    )),
    "kernel": ("covariance kernel operations", _payload_kernel, (
        ("--spec", "kernel", {}),
        ("--at", None, {"type": _finite}),
        ("--bilinear", "grid_function", {"nargs": 2, "metavar": ("F", "G")}),
        ("--regularity", None, {"action": "store_true"}),
        ("--fourier", None, {"type": _finite, "nargs": 2, "metavar": ("M", "X")}),
        ("--cutoff", None, {"type": _finite, "default": 1e7}),
        ("--tol", None, {"type": _positive, "default": 1e-6, "help": "error budget of --fourier"}),
    )),
    "bohr": ("torus family: independence, sampling, integrals", _payload_bohr, (
        ("--freqs", _read_freqs, {"required": True, "help": "comma-separated frequencies"}),
        ("--check-independence", None, {"type": _int, "metavar": "BOUND"}),
        ("--integral", None, {"metavar": "EXPR_ID"}),
        ("--quad-points", None, {"type": _int, "default": 16}),
        ("--mc", None, {"type": _int, "metavar": "N_SAMPLES"}),
        ("--sample", None, {"action": "store_true"}),
        ("--seed", None, {**_SEED, "help": "seed of --sample and --mc"}),
    )),
    "product": ("cylinder or countable product probability", _payload_product, (
        ("--spec", "measure_rule", {"required": True}),
        ("--cylinder", "cylinder", {}),
        ("--prefix", "cylinder", {}),
        ("--tail", "tail_rule", {}),
        ("--n-max", None, {"type": _int}),
    )),
    "consistency": ("marginal self-consistency check", _payload_consistency, (
        ("--marginals", "marginal_tables", {"required": True}),
        ("--tol", None, {"type": _positive, "default": 1e-12, "help": "agreement tolerance"}),
    )),
    "selftest": ("run the release-gate criteria", None, (
        ("--level", None, {"choices": ("quick", "full"), "default": "quick"}),
        ("--seed", None, _SEED),
    )),
}

# subcommand -> its modes in precedence order: the flag that picks a mode (None
# for the default mode) -> the other options that mode reads.  An option no mode
# names is read by every call, and a mode that reads --seed needs it.  This is
# the only place that orders the modes: a builder is handed the mode picked here.
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
                      for flag, _, keywords in SUBCOMMANDS[name][2]
                      if any(flag in (mode, *reads.split()) for mode, reads in modes.items()))
          for name, modes in _MODES.items()}


def _mode_reads(name: str) -> dict[str | None, tuple]:
    """Mode -> (dest, reader) of each option it reads, in declared order:
    its flag, its reads and every option that no mode names."""
    modes = _MODES.get(name, {None: ""})
    named = {flag for mode, reads in modes.items() for flag in (mode, *reads.split())}
    return {mode: tuple((flag[2:].replace("-", "_"), _reader(flag, kind))
                        for flag, kind, _ in SUBCOMMANDS[name][2]
                        if flag in (mode, *reads.split()) or flag not in named)
            for mode, reads in modes.items()}


_READS = {name: _mode_reads(name) for name in SUBCOMMANDS}


def _check_mode(args) -> tuple[str | None, tuple]:
    """The call's mode and the options it reads; refuse a set option it would not
    read, or a missing --seed."""
    modes = _MODES.get(args.subcommand)
    if modes is None:  # the one mode None
        return None, _READS[args.subcommand][None]
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
    return mode, _READS[args.subcommand][mode]


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
        for flag, _, keywords in options:
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
