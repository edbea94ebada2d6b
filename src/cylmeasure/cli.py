"""Command-line front end: one subcommand per library surface.

Inputs are strict RFC 8259 JSON documents, inline or ``@path``, whose
objects name each key once; a number given as an argument is plain ASCII
without ``_``, and an option is spelled in full (no prefix is read).  This
module reads only text: the library call that reads a number decides,
through ``errors``, whether its value is allowed.  Every stochastic mode
requires an explicit ``--seed`` and its result envelope carries
(estimate, standard error, n_samples, seed).
Output is a strict JSON envelope; ``--out csv`` emits tabular traces for
the few subcommands that produce them.

``SUBCOMMANDS`` declares each subcommand's options with the SCHEMA kind
(or reader) of each, and ``_MODES`` the modes in precedence order with
what each reads and which of those it cannot run without.
``build_envelope`` alone reads a call's options: it picks the mode and,
before reading any input, refuses an option the mode would not read and
a missing option the mode cannot run without (the ``--seed`` of a
sampling mode, the ``--spec`` of a kernel mode other than ``--fourier``,
the ``--integral`` of ``bohr --mc``), and ``--out csv`` on a call without
a table.  Then it reads the mode's options in declared order and records
each under its dest in ``inputs`` (a document as parsed).  A payload
builder gets only the mode and the decoded values, so ``inputs_digest``,
the SHA-256 of the canonical ``inputs``, covers all a result depends on.
The digest comes from CPython's built-in ``_sha2`` (``_sha256`` before
3.12), as ``random`` takes its SHA-512: ``hashlib`` loads OpenSSL at
import, and is the fallback only where neither module exists.

Only ``errors`` and ``jsonio`` load with this module.  A payload builder
reaches the library through the package's lazy exports, so each model
module (``sequences``, ``gaussian``, ``transform``, ``support``,
``kernels``, ``measure_core``, ``bohr``, ``selftest``) and ``csv`` load
inside the code that uses them, numpy (through the package's handle
``_np``) at the first array a call builds, and a fresh process imports
only what its subcommand runs.  ``shift-admissible``, ``hs-check``, ``chi``,
``moment`` without ``--mc-samples``, ``consistency``, ``equivalence``
(which bounds its variance ratios from a few indices), ``rn-density``
(one point, a plain sum), ``support`` without ``--mc``, ``product``
(a geometric tail in closed form, a table as a plain loop), ``kernel
--at`` and ``kernel --regularity`` build no array and never load numpy.
A mode that builds arrays loads numpy's core, plus ``numpy.random`` when
it draws, and no other numpy subpackage.
The four series verdicts refuse a tabulated series (exit 2) before any
other work.

Exit codes: 0 success, 2 input error (schema violations name the
offending key), 3 numeric failure (a tolerance that could not be
reached, or a result that is not finite).  A failing selftest exits 1
naming the first failed criterion; so does a call whose reader closed
stdout early, quietly.

Payload determinism contract: the ``payload`` object is serialized
canonically (sorted keys, no volatile fields), so identical invocations
with identical seeds produce byte-identical payloads.  ``wall_time_s``
(reading plus compute) and ``provenance`` live outside the payload.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Any

from . import _np as np
from . import jsonio
from .errors import InputError, NumericError, require_budget

if TYPE_CHECKING:
    from . import bohr
    from .sequences import FiniteSequence

# the digest's SHA-256 (see the module docstring): OpenSSL would add about
# 3.5 MB to hash some 70 bytes an envelope
try:
    from _sha2 import sha256 as _sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

__all__ = ["main", "build_envelope", "SUBCOMMANDS"]

# the package: a builder reaches the library through its lazy exports, so a
# call loads only the model modules it runs, and after the first call pays
# one attribute lookup for each name
_lib = sys.modules[__package__]


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
# sort_keys=True, separators=(",", ":")) prints
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# its chunks, from one C encoder built here (JSONEncoder.encode builds a new one
# per call), called as (document, 0).  markers=None: a markers dict reused after
# a failed call would keep stale entries and call every later document circular.
# Without the _json accelerator, iterencode(document, 0) prints the same text.
if json.encoder.c_make_encoder is None:
    _canonical_chunks = _CANONICAL_JSON.iterencode
else:
    _canonical_chunks = json.encoder.c_make_encoder(
        None, _CANONICAL_JSON.default, json.encoder.encode_basestring_ascii,
        _CANONICAL_JSON.indent, _CANONICAL_JSON.key_separator,
        _CANONICAL_JSON.item_separator, _CANONICAL_JSON.sort_keys,
        _CANONICAL_JSON.skipkeys, _CANONICAL_JSON.allow_nan,
    )


def _load_json_arg(raw: str, what: str) -> Any:
    text = raw
    if raw.startswith("@"):
        try:
            with open(raw[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"{what}: cannot read {raw[1:]}: {exc}") from None
    try:
        try:  # one scanner call when the document fills the text; decode() words the rest
            value, end = _STRICT_JSON.raw_decode(text)
            if end == len(text):
                return value
        except ValueError:
            pass
        return _STRICT_JSON.decode(text)
    except ValueError as exc:
        raise InputError(f"{what}: invalid JSON ({exc})") from None
    except RecursionError:  # the C scanner's depth limit
        raise InputError(f"{what}: invalid JSON (nested too deeply)") from None


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
            vecs.append(_lib.FiniteSequence.basis(int(digits)))
        except InputError as exc:
            raise InputError(f"vectors[{i}]: {exc}") from None
    return vecs, raw


def _read_freqs(raw: str) -> tuple[Any, str]:
    """Comma-separated frequencies."""
    try:
        return _lib.FrequencySet(tuple(_number(v, float) for v in raw.split(","))), raw
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
    out = _lib.sample(values["cov"], values["n"], values["seed"])
    payload = {
        "values": jsonio.encode_value(out.values),
        "truncation": out.truncation,
        "seed": values["seed"],
    }
    return payload, ["seeded gaussian sampler"]


def _payload_chi(mode, values) -> tuple[dict, list[str]]:
    cov, xi = values["cov"], values["xi"]
    return (
        {"chi": _lib.chi(xi, cov), "inner": _lib.inner(xi, xi, cov)},
        ["closed-form characteristic function"],
    )


def _payload_moment(mode, values) -> tuple[dict, list[str]]:
    cov, vectors = values["cov"], values["vectors"]
    value = _lib.wick_moment(cov, vectors)
    payload: dict[str, Any] = {"moment": value, "n_vectors": len(vectors)}
    if mode is None:
        return payload, ["pairing-sum evaluation"]
    n_samples, seed = values["mc_samples"], values["seed"]
    dim = max((v.max_index for v in vectors), default=1)
    require_budget(n_samples * (dim + len(vectors)), _lib.gaussian.MAX_MC_VALUES,
                   "samples x (coordinates + factors)")
    estimate, standard_error = _lib.mc_moment(cov, vectors, n_samples, seed)
    payload["mc"] = {"estimate": estimate, "standard_error": standard_error,
                     "n_samples": n_samples, "seed": seed}
    return payload, ["pairing-sum evaluation", "monte carlo product-moment oracle"]


def _payload_rn_density(mode, values) -> tuple[dict, list[str]]:
    x = values["x"]
    return (
        {"density": _lib.rn_density(x, values["shift"], values["cov"]), "truncation": len(x)},
        ["closed-form shift density"],
    )


def _payload_shift_admissible(mode, values) -> tuple[dict, list[str]]:
    return (
        {"admissible": _lib.shift_admissible(values["shift"], values["cov"])},
        ["symbolic series decision"],
    )


def _payload_equivalence(mode, values) -> tuple[dict, list[str]]:
    verdict = _lib.equivalence_classify(values["cov_a"], values["cov_b"])
    return jsonio.encode_value(verdict), ["symbolic ratio classification"]


def _payload_support(mode, values) -> tuple[dict, list[str]]:
    cov, weights = values["cov"], values["weights"]
    report = _lib.weighted_support_check(cov, weights)
    payload: dict[str, Any] = {"report": jsonio.encode_value(report)}
    if mode is None:
        return payload, ["symbolic weighted-series decision"]
    n_coords, n_samples = values["mc"]
    growth = _lib.mc_tail_growth(cov, weights, n_coords, n_samples, values["seed"])
    payload["mc"] = jsonio.encode_value(growth)
    return payload, ["symbolic weighted-series decision", "monte carlo tail-growth oracle"]


def _payload_hs_check(mode, values) -> tuple[dict, list[str]]:
    return (
        {"hilbert_schmidt": _lib.hilbert_schmidt_check(values["weights"])},
        ["symbolic series decision"],
    )


def _payload_kernel(mode, values) -> tuple[dict, list[str]]:
    if mode == "--fourier":
        m, x = values["fourier"]
        res = _lib.kernel_fourier_quadrature(m, x, p_cutoff=values["cutoff"], tol=values["tol"])
        return jsonio.encode_value(res), ["gauss-legendre panels with a proved bound"]
    spec = values["spec"]
    if mode == "--at":
        at = values["at"]
        return {"value": spec.at(at), "x": at}, [spec.at_method]
    if mode == "--bilinear":
        f, g = values["bilinear"]
        return {"value": _lib.covariance_bilinear(spec, f, g)}, ["trapezoid double quadrature"]
    return {"regularity": spec.regularity.value}, ["continuity classification"]


def _payload_bohr(mode, values) -> tuple[dict, list[str]]:
    freqs = values["freqs"]
    if mode == "--check-independence":
        res = _lib.independence_check(freqs, values["check_independence"])
        return jsonio.encode_value(res), ["bounded integer-relation search"]
    if mode == "--sample":
        phases = _lib.haar_sample_batch(freqs, 1, values["seed"])[0]
        return (
            {"phases": jsonio.encode_value(phases), "seed": values["seed"]},
            ["seeded haar sampler"],
        )
    f = _integrand_from_catalog(values["integral"], freqs.n)
    if mode == "--mc":
        method: bohr.Method = _lib.MCMethod(values["mc"], values["seed"])
        provenance = ["monte carlo haar integral"]
    else:
        method = _lib.QuadratureMethod(values["quad_points"])
        provenance = ["periodic trapezoid quadrature"]
    res = _lib.haar_cylinder_integral(freqs, f, method)
    return jsonio.encode_value(res), provenance


def _integrand_from_catalog(name: str, n_axes: int):
    """Named integrands: ``one``, ``char:m1,...,mn``, ``cos:m1,...,mn``."""
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
    spec = values["spec"]
    if mode == "--cylinder":
        return (
            {"probability": _lib.cylinder_measure(spec, values["cylinder"])},
            ["finite product of component probabilities"],
        )
    # an unset --prefix is the empty cylinder, an unset --tail the full tail
    constraints = _lib.TailConstraints(
        **{key: value for key, value in values.items() if key in ("prefix", "tail")}
    )
    report = _lib.countable_product_measure(spec, constraints)
    return jsonio.encode_value(report), ["monotone partial products"]


def _payload_consistency(mode, values) -> tuple[dict, list[str]]:
    res = _lib.consistency_check(values["marginals"], tol=values["tol"])
    return jsonio.encode_value(res), ["chain marginalization"]


def build_envelope(args) -> dict:
    mode, options = _check_mode(args)
    if args.out == "csv" and mode != _TABLES.get(args.subcommand, ("no table",))[0]:
        raise InputError(f"subcommand {args.subcommand!r} has no tabular trace for CSV output")
    start = time.perf_counter()
    values: dict[str, Any] = {}
    inputs: dict[str, Any] = {}
    for dest, read, default in options:  # an option unset and without a default is not read
        raw = getattr(args, dest)
        if raw is None:
            raw = default
        if raw is not None:
            values[dest], inputs[dest] = read(raw)
    payload, provenance = SUBCOMMANDS[args.subcommand][1](mode, values)
    digest = _sha256("".join(_canonical_chunks(inputs, 0)).encode()).hexdigest()
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
    _, header, rows = _TABLES[envelope["subcommand"]]
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows(envelope["payload"])])
    return buf.getvalue().rstrip("\n")


# subcommand -> (its one mode with a table for --out csv, the header, the rows
# of a payload); build_envelope refuses --out csv on any other call
_TABLES = {
    "sample": (None, ("index", "value"), lambda p: enumerate(p["values"], 1)),
    "support": ("--mc", ("n", "mean_partial_sum"), lambda p: p["mc"]["checkpoints"]),
    "bohr": ("--sample", ("axis", "phase"), lambda p: enumerate(p["phases"], 1)),
}


def _int(text: str) -> int:
    try:
        return _number(text, int)
    except ValueError:  # argparse's own wording for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _float(text: str) -> float:
    try:
        return _number(text, float)
    except ValueError:  # argparse's own wording for type=float
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


_SEED = {"type": _int, "help": "non-negative 64-bit seed"}

# name -> (help, payload builder, options as (flag, kind, add_argument keywords)).
# An option's kind is the SCHEMA kind of its JSON document, its own reader (a
# function from the argument to its value and echo), or None for an argparse value.
# Every subcommand but selftest, which prints a report, also takes --out.
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
        ("--at", None, {"type": _float}),
        ("--bilinear", "grid_function", {"nargs": 2, "metavar": ("F", "G")}),
        ("--regularity", None, {"action": "store_true"}),
        ("--fourier", None, {"type": _float, "nargs": 2, "metavar": ("M", "X")}),
        ("--cutoff", None, {"type": _float, "default": 1e7}),
        ("--tol", None, {"type": _float, "default": 1e-6, "help": "error budget of --fourier"}),
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
    )),
    "consistency": ("marginal self-consistency check", _payload_consistency, (
        ("--marginals", "marginal_tables", {"required": True}),
        ("--tol", None, {"type": _float, "default": 1e-12, "help": "agreement tolerance"}),
    )),
    "selftest": ("run the release-gate criteria", None, (
        ("--level", None, {"choices": ("quick", "full"), "default": "quick"}),
        ("--seed", None, _SEED),
    )),
}

# subcommand -> its modes in precedence order: the flag that picks a mode (None
# for the default mode) -> the other options that mode reads, each marked "!"
# that the mode cannot run without.  An option no mode names is read by every
# call.  This is the only place that orders the modes: a builder is handed the
# mode picked here.
_MODES: dict[str, dict[str | None, str]] = {
    "moment": {"--mc-samples": "--seed!", None: ""},
    "support": {"--mc": "--seed!", None: ""},
    "kernel": {"--fourier": "--cutoff --tol", "--at": "--spec!", "--bilinear": "--spec!",
               "--regularity": "--spec!"},
    "bohr": {"--check-independence": "", "--sample": "--seed!", "--mc": "--integral! --seed!",
             "--integral": "--quad-points"},
    "product": {"--cylinder": "", "--prefix": "--tail", "--tail": "--prefix"},
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _mode_table(name: str) -> dict[str | None, tuple]:
    """Mode -> (the flags it reads, (flag, dest) of each it cannot run without,
    (dest, reader, declared default) of each option it reads in declared order:
    its flag, its reads and every option that no mode names)."""
    modes = _MODES.get(name, {None: ""})
    reads = {mode: (mode, *marked.replace("!", "").split()) for mode, marked in modes.items()}
    named = {flag for flags in reads.values() for flag in flags}
    options = SUBCOMMANDS[name][2]
    return {mode: (reads[mode],
                   tuple((f[:-1], _dest(f[:-1])) for f in marked.split() if f[-1] == "!"),
                   tuple((_dest(flag), _reader(flag, kind), keywords.get("default"))
                         for flag, kind, keywords in options
                         if flag in reads[mode] or flag not in named))
            for mode, marked in modes.items()}


_TABLE = {name: _mode_table(name) for name in SUBCOMMANDS}
# subcommand -> (flag, dest) of each option its modes name, in declared order.
# The parser gives these no default, so one is None exactly when it was not
# typed; the reading step fills in a declared default.
_NAMED = {name: tuple((flag, _dest(flag)) for flag, _, _ in SUBCOMMANDS[name][2]
                      if any(flag in reads for reads, _, _ in _TABLE[name].values()))
          for name in _MODES}


def _check_mode(args) -> tuple[str | None, tuple]:
    """The call's mode and the options it reads; refuse a set option it would not
    read, or an unset one it cannot run without."""
    named = _NAMED.get(args.subcommand)
    if named is None:  # the one mode None
        return None, _TABLE[args.subcommand][None][2]
    given = [f for f, dest in named if getattr(args, dest) is not None]
    table = _TABLE[args.subcommand]
    mode = next(filter(given.__contains__, table), None)  # None: the default mode, if any
    if mode not in table:
        raise InputError(f"{args.subcommand} needs one of {', '.join(table)}")
    reads, needs, options = table[mode]
    unread = [flag for flag in given if flag not in reads]
    if unread:
        verb = "does" if len(unread) == 1 else "do"
        raise InputError(f"{', '.join(unread)} {verb} not apply to this {args.subcommand} call")
    for flag, dest in needs:
        if getattr(args, dest) is None:
            what = "an explicit --seed" if flag == "--seed" else flag
            raise InputError(f"{args.subcommand} {mode} needs {what}")
    return mode, options


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree of ``SUBCOMMANDS``, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="cylmeasure",
        description="Desk-scale measure theory on sequence spaces.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, builder, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        named = {flag for flag, _ in _NAMED.get(name, ())}
        for flag, _, keywords in options:
            p.add_argument(flag, **(dict(keywords, default=None) if flag in named else keywords))
        if builder is not None:
            p.add_argument("--out", choices=("json", "csv"), default="json")
    return parser


def _run_selftest(args) -> int:
    seed = _lib.selftest.DEFAULT_SEED if args.seed is None else args.seed
    results = _lib.run_selftest(args.level, seed)
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
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return 0
    except BrokenPipeError:
        # the reader went away: send what is still buffered nowhere, so the
        # flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        detail = f" ({exc.context})" if exc.context else ""
        print(f"numeric failure: {exc}{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
