"""The CLI contract under mutated JSON documents.

Whatever the documents say, ``cli.main`` exits 0 with strict JSON on
stdout, 2 for an input error or 3 for a numeric failure, and never lets
an exception escape (a shell user would see a traceback).  The drawn
subcommands are the ones whose cost is decoding: shift-admissible,
hs-check, support without Monte Carlo, equivalence, chi and consistency,
plus rn-density at a point of at most 4 coordinates and sample with at
most 8 coordinates.
A second test draws calls of the subcommands with several modes (kernel,
bohr, product, moment, support): a mode, some of the options it reads and
at most one stray declared option, each with a small valid value, so a
call that mixes modes or sets an option its mode does not read is refused
with exit 2, never ignored.  For each call it accepts, the envelope's
``inputs`` holds exactly the options set among those the call's mode
reads by ``cli._MODES``: its flag, its reads and every option no mode
names.
A third test writes each scalar option of such calls (``--n``, ``--seed``,
``--at``, ``--mc-samples``, ``--mc``, ``--quad-points``,
``--check-independence``, ``--fourier``, ``--cutoff`` and ``--tol``) as
a text drawn from a fixed list of edge values, each either refused or
cheap to run, and checks the same contract.  An option written
as a prefix of its name is refused, not read as that option.
"""

import contextlib
import io
import json

import oracles
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cylmeasure import cli

DECAYS = [
    {"constant": {"rho": 1.0}},
    {"power": {"c": 1.0, "p": 1.1}},
    {"geometric": {"c": 2.0, "q": 0.7}},
    {"constant_plus_power": {"base": 1.0, "c": -0.5, "p": 0.5}},
    {"prefixed": {"prefix": [2.0, 0.5], "tail": {"power": {"c": 1.0, "p": 2.0}}}},
    {"tabulated": {"values": [1.0, 0.5, 0.25]}},
]
SEQUENCES = [{"entries": [[1, 1.0], [3, -2.0]]}, {"entries": []}]
MARGINALS = [
    [{"indices": [1], "cells": [{"boxes": [[[0.0, "inf"]]], "p": 1.0}]}],
    [
        {"indices": [1, 2], "cells": [{"boxes": [[[0.0, 0.5]], [["-inf", "inf"]]], "p": 0.5}]},
        {"indices": [1], "cells": [{"boxes": [[[0.0, 0.5]]], "p": 0.5}]},
    ],
]
POINTS = [[0.5], [0.0, 1.0, -1.0, 2.0], [1.0, 0.0, 3.0]]
# subcommand -> its document options and the seed documents of each
SUBCOMMANDS = {
    "shift-admissible": (("--cov", DECAYS), ("--shift", DECAYS + SEQUENCES)),
    "hs-check": (("--weights", DECAYS),),
    "support": (("--cov", DECAYS), ("--weights", DECAYS)),
    "equivalence": (("--cov-a", DECAYS), ("--cov-b", DECAYS)),
    "chi": (("--cov", DECAYS), ("--xi", SEQUENCES)),
    "consistency": (("--marginals", MARGINALS),),
    "rn-density": (("--cov", DECAYS), ("--shift", SEQUENCES), ("--x", POINTS)),
    "sample": (("--cov", DECAYS),),
}
# subcommand -> its options that are not documents, drawn unmutated
SCALAR_OPTIONS = {"sample": st.integers(0, 8).map(lambda n: ["--n", str(n), "--seed", "5"])}

SCALARS = st.one_of(
    st.sampled_from([0, -1, 1, 2, 0.5, -0.5, 1.5, 1e-320, 5e-324, 1e308, -1e308, 1e-200,
                     10**400, -(10**400), 2**63, True, False, None, "inf", "-inf", "x", ""]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6),
)
KEYS = st.sampled_from(["rho", "c", "p", "q", "base", "prefix", "tail", "values", "entries",
                        "indices", "cells", "boxes", "power", "constant", "geometric", "x"])


def mutate(doc, data, depth=0):
    """``doc`` with one change at a drawn place: replaced, dropped, added or rewrapped."""
    children = (list(doc.items()) if isinstance(doc, dict)
                else list(enumerate(doc)) if isinstance(doc, list) else [])
    if children and depth < 6 and data.draw(st.booleans()):
        key, child = data.draw(st.sampled_from(children))
        out = dict(doc) if isinstance(doc, dict) else list(doc)
        out[key] = mutate(child, data, depth + 1)
        return out
    action = data.draw(st.sampled_from(["scalar", "drop", "add", "wrap", "unwrap", "duplicate"]))
    if action == "scalar":
        return data.draw(SCALARS)
    if action == "drop" and children:
        key = data.draw(st.sampled_from([k for k, _ in children]))
        if isinstance(doc, dict):
            return {k: v for k, v in doc.items() if k != key}
        return doc[:key] + doc[key + 1 :]
    if action == "add" and isinstance(doc, dict):
        return {**doc, data.draw(KEYS): data.draw(SCALARS)}
    if action == "add" and isinstance(doc, list):
        return doc + [data.draw(st.one_of(SCALARS, st.just(doc[:1])))]
    if action == "unwrap" and children:
        return children[0][1]
    if action == "duplicate" and isinstance(doc, list):
        return doc + doc
    return [doc]


def check_contract(argv):
    """Run ``cli.main(argv)`` and check the CLI contract; the envelope on exit 0, else None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # an exception escaping here is a traceback for a shell user
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == "" and err.getvalue().strip(), argv
        return None
    envelope = oracles.strict_json(out.getvalue())
    assert envelope["subcommand"] == argv[0]
    return envelope


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_contract_holds_for_mutated_documents(data):
    subcommand = data.draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [subcommand]
    for option, seeds in SUBCOMMANDS[subcommand]:
        doc = data.draw(st.sampled_from(seeds))
        for _ in range(data.draw(st.integers(0, 2))):
            doc = mutate(doc, data)
        argv += [option, json.dumps(doc)]
    argv += data.draw(SCALAR_OPTIONS.get(subcommand, st.just([])))
    check_contract(argv)


# flag -> small valid values; a flag with no values is a store_true switch
KERNEL = [json.dumps({"massive_free_1d": {"m": 1.0}}), json.dumps({"white_noise": {"sigma": 2.0}}),
          json.dumps({"tabulated": {"grid": [-1.0, 0.0, 1.0], "values": [0.5, 1.0, 0.5]}})]
UNIFORM = '{"identical":{"uniform":{"a":0,"b":1}}}'
GEOMETRIC_TAIL = '{"one_minus_geometric":{"c":1.0,"q":0.5}}'
GRID = json.dumps({"x0": -0.5, "dx": 0.25, "count": 5, "values": [0.0, 0.5, 1.0, 0.5, 0.0]})
OPTION_VALUES = {
    "kernel": {
        "--spec": [[k] for k in KERNEL], "--at": [["0"], ["0.5"]], "--bilinear": [[GRID, GRID]],
        "--regularity": [], "--fourier": [["1", "0"], ["2", "0.5"]], "--cutoff": [["1e7"], ["100"]],
        "--tol": [["1e-6"], ["1e-3"]],
    },
    "bohr": {
        "--freqs": [["1.0,1.4142135623730951"], ["1.0,2.0"], ["0.5"]],
        "--check-independence": [["3"]], "--integral": [["one"], ["char:1,-1"], ["cos:2"]],
        "--quad-points": [["4"], ["16"]], "--mc": [["50"]], "--sample": [], "--seed": [["1"]],
    },
    "product": {
        "--spec": [[UNIFORM]],
        "--cylinder": [['{"base":[{"index":1,"boxes":[[0.0,0.5]]}]}'], ['{"base":[]}']],
        "--prefix": [['{"base":[]}']],
        "--tail": [[GEOMETRIC_TAIL], ['{"full":{}}']],
    },
    "moment": {
        "--cov": [[json.dumps(DECAYS[0])], [json.dumps(DECAYS[2])]],
        "--vectors": [["e1,e1"], ["e1,e2,e1,e2"]], "--mc-samples": [["20"]], "--seed": [["4"]],
    },
    "support": {
        "--cov": [[json.dumps(DECAYS[0])]], "--weights": [[json.dumps(DECAYS[1])]],
        "--mc": [["100", "100"]], "--seed": [["7"]],
    },
}


def dest(flag):
    return flag[2:].replace("-", "_")


def is_set(value):
    """Off the default of a mode flag: None, or False for a switch (0 is set)."""
    return value is not None and value is not False


def expected_inputs(argv):
    """The dests of the options set or declared with a default among those the
    call's mode reads by ``cli._MODES``."""
    args = cli._build_parser().parse_args(argv)
    modes = cli._MODES[args.subcommand]
    mode = next(m for m in modes if m is None or is_set(getattr(args, dest(m))))
    named = {f for m, reads in modes.items() for f in (m, *reads.replace("!", "").split())}
    reads = {mode, *modes[mode].replace("!", "").split()}
    return {dest(flag) for flag, _, keywords in cli.SUBCOMMANDS[args.subcommand][2]
            if (flag in reads or flag not in named)
            and (vars(args)[dest(flag)] is not None or "default" in keywords)}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_contract_holds_for_option_combinations(data):
    subcommand = data.draw(st.sampled_from(sorted(OPTION_VALUES)))
    modes = cli._MODES[subcommand]
    mode = data.draw(st.sampled_from(list(modes)))
    options = cli.SUBCOMMANDS[subcommand][2]
    chosen = {flag for flag, _, keywords in options
              if keywords.get("required") or flag == mode
              or (flag in modes[mode].split() and data.draw(st.booleans()))}
    # at most one stray option, none in half the calls
    strays = [flag for flag, *_ in options if flag not in chosen]
    if strays and data.draw(st.booleans()):
        chosen.add(data.draw(st.sampled_from(strays)))
    argv = [subcommand]
    for flag, *_ in options:
        if flag in chosen:
            values = OPTION_VALUES[subcommand][flag]
            argv += [flag, *(data.draw(st.sampled_from(values)) if values else [])]
    envelope = check_contract(argv)
    if envelope is not None:
        assert set(envelope["inputs"]) == expected_inputs(argv), argv


# each would be read as the option its prefix names: --mc-samples, and --cov and --shift
ABBREVIATED = [
    (["moment", "--cov", '{"constant":{"rho":1}}', "--vectors", "e1,e1", "--mc", "1000",
      "--seed", "1"], "error: unrecognized arguments: --mc 1000\n"),
    (["shift-admissible", "--c", '{"constant":{"rho":1}}', "--s", '{"power":{"c":1,"p":1}}'],
     "error: the following arguments are required: --cov, --shift\n"),
]


@pytest.mark.parametrize("argv, message", ABBREVIATED, ids=["moment-mc", "shift-admissible-c-s"])
def test_abbreviated_options_are_refused(argv, message):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().endswith(message)


# the text of every scalar option in the third test: separators, non-ASCII
# digits, non-finite and overflowing numerals, blanks, and 2^64
EDGES = ["0", "-1", "1_0", "\u0661", "nan", "inf", "1e400", "", " 1", "18446744073709551616"]
# a call that reads scalar options -> the number of values each takes
SCALAR_CALLS = [
    (["sample", "--cov", json.dumps(DECAYS[1])], {"--n": 1, "--seed": 1}),
    (["moment", "--cov", json.dumps(DECAYS[0]), "--vectors", "e1,e2"],
     {"--mc-samples": 1, "--seed": 1}),
    (["support", "--cov", json.dumps(DECAYS[0]), "--weights", json.dumps(DECAYS[1])],
     {"--mc": 2, "--seed": 1}),
    (["kernel", "--spec", KERNEL[0]], {"--at": 1}),
    (["kernel"], {"--fourier": 2, "--cutoff": 1, "--tol": 1}),
    (["bohr", "--freqs", "1.0,1.4142135623730951"], {"--check-independence": 1}),
    (["bohr", "--freqs", "1.0,2.0", "--integral", "cos:1,1"], {"--quad-points": 1}),
    (["bohr", "--freqs", "1.0,2.0", "--integral", "char:1,-1"], {"--mc": 1, "--seed": 1}),
    (["consistency", "--marginals", json.dumps(MARGINALS[1])], {"--tol": 1}),
]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_contract_holds_for_edge_scalar_values(data):
    argv, scalars = data.draw(st.sampled_from(SCALAR_CALLS))
    argv = list(argv)
    for flag, count in scalars.items():
        argv += [flag, *(data.draw(st.sampled_from(EDGES)) for _ in range(count))]
    check_contract(argv)
