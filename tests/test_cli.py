import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from cylmeasure import cli, jsonio, kernels, measure_core
from cylmeasure.cli import main
from cylmeasure.errors import InputError
from cylmeasure.measure_core import Interval
from cylmeasure.sequences import (
    ConstantPlusPower,
    FiniteSequence,
    Geometric,
    PowerDecay,
    Prefixed,
)

CONST1 = '{"constant": {"rho": 1.0}}'
CONST2 = '{"constant": {"rho": 2.0}}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def run_envelope(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out, parse_constant=_reject_constant)


UNIFORM = '{"identical": {"uniform": {"a": 0, "b": 1}}}'
MASSIVE_FREE = '{"massive_free_1d": {"m": 1}}'
MARGINALS = json.dumps([{"indices": [1], "cells": [{"boxes": [[[0.0, "inf"]]], "p": 1.0}]}])

# kind -> (valid document, decoded object, [(bad document, path named by the error)]):
# an unknown tag (or a wrong item for untagged kinds), an unknown key, a missing key
SCHEMA_CASES = {
    "decay": (
        {"prefixed": {"prefix": [2.0], "tail": {"power": {"c": 1, "p": 2}}}},
        Prefixed((2.0,), PowerDecay(1.0, 2.0)),
        [
            ({"prefixed": {"prefix": [], "tail": {"powr": {}}}}, "doc.prefixed.tail.powr"),
            ({"power": {"c": 1.0, "p": 2.0, "q": 1}}, "doc.power.q"),
            ({"prefixed": {"prefix": [1.0], "tail": {"power": {"c": 1}}}},
             "doc.prefixed.tail.power.p"),
        ],
    ),
    "component": (
        {"uniform": {"a": 0, "b": 2}},
        measure_core.Uniform1D(0.0, 2.0),
        [
            ({"normal": {"rho": 1}}, "doc.normal"),
            ({"gaussian": {"rho": 1, "mu": 0}}, "doc.gaussian.mu"),
            ({"point_mass": {}}, "doc.point_mass.c"),
        ],
    ),
    "measure_rule": (
        {"indexed": {"map": {"3": {"point_mass": {"c": 0.5}}},
                     "default": {"gaussian": {"rho": 1}}}},
        measure_core.ProductMeasureSpec(
            measure_core.Gaussian1D(1.0), ((3, measure_core.PointMass1D(0.5)),)
        ),
        [
            ({"indexed": {"map": {"2": {"cauchy": {}}}, "default": {"gaussian": {"rho": 1}}}},
             "doc.indexed.map.2.cauchy"),
            ({"identical": {"gaussian": {"rho": 1, "x": 0}}}, "doc.identical.gaussian.x"),
            ({"indexed": {"map": {}}}, "doc.indexed.default"),
        ],
    ),
    "cylinder": (
        {"base": [{"index": 2, "boxes": [["-inf", 0], [1, 2]]}]},
        measure_core.CylinderSet(((2, (Interval(-math.inf, 0.0), Interval(1.0, 2.0))),)),
        [
            ({"base": [{"index": 1, "boxes": [[0, 1, 2]]}]}, "doc.base[0].boxes[0]"),
            ({"base": [{"index": 1, "boxes": [], "weight": 1}]}, "doc.base[0].weight"),
            ({"base": [{"boxes": []}]}, "doc.base[0].index"),
        ],
    ),
    "finite_sequence": (
        {"entries": [[1, 1.0], [4, -2.0]]},
        FiniteSequence(((1, 1.0), (4, -2.0))),
        [
            ({"entries": [[1, 1.0], [0, 2.0]]}, "doc.entries[1][0]"),
            ({"entries": [], "length": 3}, "doc.length"),
            ({}, "doc.entries"),
        ],
    ),
    "kernel": (
        {"tabulated": {"grid": [0, 1], "values": [1, 0.5]}},
        kernels.TabulatedKernel((0.0, 1.0), (1.0, 0.5)),
        [
            ({"brownian": {}}, "doc.brownian"),
            ({"massive_free_1d": {"m": 1, "d": 1}}, "doc.massive_free_1d.d"),
            ({"white_noise": {}}, "doc.white_noise.sigma"),
        ],
    ),
    "grid_function": (
        {"x0": 0, "dx": 0.5, "count": 2, "values": [1, 2]},
        kernels.GridFunction(0.0, 0.5, 2, (1.0, 2.0)),
        [
            ({"x0": 0, "dx": 0.5, "count": 2, "values": [1, "2"]}, "doc.values[1]"),
            ({"x0": 0, "dx": 0.5, "count": 2, "values": [1, 2], "y0": 1}, "doc.y0"),
            ({"x0": 0, "count": 2, "values": [1, 2]}, "doc.dx"),
        ],
    ),
    "tail_rule": (
        {"one_minus_geometric": {"c": 1.0, "q": 0.5}},
        measure_core.OneMinusGeometricTail(1.0, 0.5),
        [
            ({"empty": {}}, "doc.empty"),
            ({"full": {"f": 1}}, "doc.full.f"),
            ({"tabulated": {}}, "doc.tabulated.factors"),
        ],
    ),
    "marginal_tables": (
        json.loads(MARGINALS),
        (measure_core.MarginalTable((1,), ((((Interval(0.0, math.inf),),), 1.0),)),),
        [
            ([{"indices": [1, 2], "cells": [{"boxes": [[]], "p": 1}]}], "doc[0].cells[0].boxes"),
            ([{"indices": [1], "cells": [{"boxes": [[]], "p": 1, "q": 0}]}], "doc[0].cells[0].q"),
            ([{"indices": [1]}], "doc[0].cells"),
        ],
    ),
    "numbers": (
        [1, -2.5],
        (1.0, -2.5),
        [
            ([1, None], "doc[1]"),
            ({"values": [1]}, "doc"),
            ([1, [2]], "doc[1]"),
        ],
    ),
    "shift": (
        {"power": {"c": 1, "p": 2}},
        PowerDecay(1.0, 2.0),
        [
            ({"powr": {}}, "doc.powr"),
            ({"entries": [], "power": {"c": 1, "p": 2}}, "doc.power"),
            ({"power": {"c": 1}}, "doc.power.p"),
        ],
    ),
}


class TestJsonDecoding:
    def test_decay_round_trip_variants(self):
        docs = [
            {"constant": {"rho": 1.5}},
            {"power": {"c": 1.0, "p": 2.0}},
            {"geometric": {"c": 1.0, "q": 0.5}},
            {"constant_plus_power": {"base": 1.0, "c": 1.0, "p": 1.0}},
            {"prefixed": {"prefix": [2.0, 3.0], "tail": {"constant": {"rho": 1.0}}}},
            {"tabulated": {"values": [1.0, 0.5]}},
        ]
        decoded = [jsonio.decode_decay(d) for d in docs]
        assert isinstance(decoded[2], Geometric)
        assert isinstance(decoded[3], ConstantPlusPower)
        assert isinstance(decoded[4], Prefixed)

    def test_unknown_variant_names_path(self):
        with pytest.raises(InputError, match="cov.gauss"):
            jsonio.decode_decay({"gauss": {"rho": 1.0}})

    def test_unknown_key_names_path(self):
        with pytest.raises(InputError, match="cov.constant.sigma"):
            jsonio.decode_decay({"constant": {"rho": 1.0, "sigma": 2.0}})

    def test_missing_key_names_path(self):
        with pytest.raises(InputError, match="cov.power.p"):
            jsonio.decode_decay({"power": {"c": 1.0}})

    def test_interval_infinities_as_strings(self):
        cyl = jsonio.decode(
            "cylinder", {"base": [{"index": 3, "boxes": [["-inf", 0.0]]}]}, "cylinder"
        )
        assert cyl.base[0][1][0] == Interval(-math.inf, 0.0)

    def test_bad_infinity_string_rejected(self):
        with pytest.raises(InputError, match="expected a number"):
            jsonio.decode(
                "cylinder", {"base": [{"index": 1, "boxes": [["infinity", 0.0]]}]}, "cylinder"
            )

    def test_spec_example_document(self):
        rule = jsonio.decode("measure_rule", {"identical": {"gaussian": {"rho": 1.0}}}, "rule")
        cyl = jsonio.decode(
            "cylinder", {"base": [{"index": 1, "boxes": [[0.0, 0.5]]}]}, "cylinder"
        )
        assert rule.component(7).rho == 1.0
        assert cyl.indices == (1,)

    @pytest.mark.parametrize("kind", sorted(jsonio.SCHEMA))
    def test_schema_kind_decodes_and_names_paths(self, kind):
        doc, expected, bad_docs = SCHEMA_CASES[kind]
        assert jsonio.decode(kind, doc, "doc") == expected
        for bad, path in bad_docs:
            with pytest.raises(InputError, match=f"^{re.escape(path)}: "):
                jsonio.decode(kind, bad, "doc")

    def test_encode_handles_infinities_and_complex(self):
        assert jsonio.encode_value(math.inf) == "inf"
        assert jsonio.encode_value(-math.inf) == "-inf"
        assert jsonio.encode_value(1 + 2j) == {"re": 1.0, "im": 2.0}

    def test_encode_numpy_values_as_plain_json(self):
        @dataclasses.dataclass
        class Holder:
            count: np.int64
            bound: np.float64
            values: np.ndarray

        values = np.array([[0.5, -np.inf], [2.0, 1e-300]])
        encoded = jsonio.encode_value(Holder(np.int64(3), np.float64("inf"), values))
        assert encoded == {"count": 3, "bound": "inf", "values": [[0.5, "-inf"], [2.0, 1e-300]]}
        assert type(encoded["count"]) is int and type(encoded["values"][1][0]) is float
        assert jsonio.encode_value(np.int64(3)) == 3 and jsonio.encode_value(np.float32(0.5)) == 0.5
        assert json.dumps(jsonio.encode_value(np.arange(3))) == "[0, 1, 2]"


class TestCliSubcommands:
    def test_moment_wick_payload(self, capsys):
        env = run_envelope(
            capsys, "moment", "--cov", CONST1, "--vectors", "e1,e1,e1,e1"
        )
        assert env["payload"]["moment"] == 3.0
        assert env["subcommand"] == "moment"

    def test_moment_with_mc_oracle(self, capsys):
        env = run_envelope(
            capsys,
            "moment",
            "--cov", CONST1,
            "--vectors", "e1,e1",
            "--mc-samples", "50000",
            "--seed", "3",
        )
        mc = env["payload"]["mc"]
        assert abs(mc["estimate"] - 1.0) < 5 * mc["standard_error"]
        assert mc["seed"] == 3

    def test_equivalence_white_noise(self, capsys):
        env = run_envelope(
            capsys, "equivalence", "--cov-a", CONST1, "--cov-b", CONST2
        )
        assert env["payload"]["verdict"] == "singular"

    def test_kernel_at_zero(self, capsys):
        env = run_envelope(
            capsys, "kernel", "--spec", '{"massive_free_1d": {"m": 1.0}}', "--at", "0"
        )
        assert env["payload"]["value"] == 0.5

    def test_kernel_regularity(self, capsys):
        env = run_envelope(
            capsys, "kernel", "--spec", '{"white_noise": {"sigma": 1.0}}', "--regularity"
        )
        assert env["payload"]["regularity"] == "nowhere-signed-measure"

    def test_kernel_fourier_numeric_failure_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "kernel", "--fourier", "1.0", "0.0", "--cutoff", "10", "--tol", "1e-9"
        )
        assert code == 3
        assert "numeric failure" in err

    def test_product_cylinder(self, capsys):
        env = run_envelope(
            capsys,
            "product",
            "--spec", '{"identical": {"uniform": {"a": 0.0, "b": 1.0}}}',
            "--cylinder",
            '{"base": [{"index": 1, "boxes": [[0.0, 0.5]]}, {"index": 2, "boxes": [[0.0, 0.5]]}]}',
        )
        assert env["payload"]["probability"] == 0.25

    def test_product_countable_tail(self, capsys):
        env = run_envelope(
            capsys,
            "product",
            "--spec", '{"identical": {"uniform": {"a": 0.0, "b": 1.0}}}',
            "--tail", '{"one_minus_geometric": {"c": 1.0, "q": 0.5}}',
        )
        assert abs(env["payload"]["value"] - 0.288788) < 1e-6
        assert env["payload"]["verdict"] == "converged"

    def test_product_negative_n_max_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "product", "--spec", UNIFORM,
            "--tail", '{"constant_factor": {"f": 0.5}}', "--n-max", "-3",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("input error:") and "n_max must be non-negative" in err

    def test_consistency_subcommand(self, capsys):
        doc = json.dumps(
            [
                {
                    "indices": [1],
                    "cells": [
                        {"boxes": [[["-inf", 0.0]]], "p": 0.5},
                        {"boxes": [[[0.0, "inf"]]], "p": 0.5},
                    ],
                },
                {
                    "indices": [1, 2],
                    "cells": [
                        {"boxes": [[["-inf", 0.0]], [["-inf", "inf"]]], "p": 0.5},
                        {"boxes": [[[0.0, "inf"]], [["-inf", "inf"]]], "p": 0.5},
                    ],
                },
            ]
        )
        env = run_envelope(capsys, "consistency", "--marginals", doc)
        assert env["payload"]["consistent"] is True

    def test_shift_admissible(self, capsys):
        env = run_envelope(
            capsys,
            "shift-admissible",
            "--cov", CONST1,
            "--shift", '{"power": {"c": 1.0, "p": 1.0}}',
        )
        assert env["payload"]["admissible"] is True

    def test_shift_admissible_tabulated_is_input_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "shift-admissible",
            "--cov", CONST1,
            "--shift", '{"tabulated": {"values": [1.0]}}',
        )
        assert code == 2
        assert "tail" in err

    def test_support_with_mc_trace(self, capsys):
        env = run_envelope(
            capsys,
            "support",
            "--cov", CONST1,
            "--weights", '{"power": {"c": 1.0, "p": 1.0}}',
            "--mc", "400", "150",
            "--seed", "5",
        )
        assert env["payload"]["report"]["verdict"] == "supported"
        assert env["payload"]["mc"]["kind"] == "plateau"

    def test_hs_check(self, capsys):
        env = run_envelope(
            capsys, "hs-check", "--weights", '{"power": {"c": 1.0, "p": 1.0}}'
        )
        assert env["payload"]["hilbert_schmidt"] is True

    def test_bohr_independence(self, capsys):
        env = run_envelope(
            capsys,
            "bohr",
            "--freqs", "1.0,1.4142135623730951",
            "--check-independence", "100",
        )
        assert env["payload"]["independent"] is True
        assert env["payload"]["bound"] == 100

    def test_bohr_integral_catalog(self, capsys):
        env = run_envelope(
            capsys, "bohr", "--freqs", "1.0,1.4142135623730951", "--integral", "char:1,-1"
        )
        value = env["payload"]["value"]
        assert abs(complex(value["re"], value["im"])) < 1e-8

    def test_chi_payload(self, capsys):
        env = run_envelope(
            capsys, "chi", "--cov", CONST1, "--xi", '{"entries": [[1, 1.0]]}'
        )
        assert env["payload"]["chi"] == pytest.approx(math.exp(-0.5))

    def test_rn_density_payload(self, capsys):
        env = run_envelope(
            capsys,
            "rn-density",
            "--cov", CONST1,
            "--shift", '{"entries": [[1, 1.0]]}',
            "--x", "[1.0]",
        )
        assert env["payload"]["density"] == pytest.approx(math.exp(0.5))


class TestCliContracts:
    def test_sample_requires_seed(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--cov", CONST1, "--n", "4")
        assert code == 2

    def test_schema_violation_exits_2_naming_key(self, capsys):
        code, _, err = run_cli(
            capsys, "chi", "--cov", '{"constant": {"rho": 1.0, "junk": 2}}',
            "--xi", '{"entries": []}',
        )
        assert code == 2
        assert "junk" in err

    def test_negative_tolerance_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "equivalence", "--cov-a", CONST1, "--cov-b", CONST2, "--tol", "-1"
        )
        assert code == 2

    def test_payload_bytes_deterministic(self, capsys):
        argv = ("sample", "--cov", CONST1, "--n", "8", "--seed", "99")
        env1 = run_envelope(capsys, *argv)
        env2 = run_envelope(capsys, *argv)
        p1 = json.dumps(env1["payload"], sort_keys=True)
        p2 = json.dumps(env2["payload"], sort_keys=True)
        assert p1 == p2
        assert env1["inputs_digest"] == env2["inputs_digest"]

    def test_equivalence_of_underflowing_geometric_tails(self, capsys):
        tiny = '{"geometric": {"c": 1e-322, "q": 0.001}}'
        env = run_envelope(capsys, "equivalence", "--cov-a", tiny, "--cov-b", tiny)
        assert env["payload"]["verdict"] == "equivalent"
        assert env["payload"]["ratio_inf"] == env["payload"]["ratio_sup"] == 1.0

    @pytest.mark.parametrize(
        "argv, option, values",
        [
            (("consistency", "--marginals", json.dumps(json.loads(MARGINALS) + [
                {"indices": [1], "cells": [{"boxes": [[[0.0, "inf"]]], "p": 0.9999}]}])),
             "--tol", ("1e-12", "1e-3")),
            (("kernel", "--fourier", "1", "0.5"), "--tol", ("1e-6", "1e-3")),
            (("product", "--spec", UNIFORM, "--tail", '{"one_minus_geometric":{"c":1,"q":0.5}}'),
             "--n-max", ("10", "100")),
            (("moment", "--cov", CONST1, "--vectors", "e1,e1", "--mc-samples", "100"),
             "--seed", ("3", "4")),
        ],
        ids=["consistency-tol", "kernel-fourier-tol", "product-n-max", "moment-mc-seed"],
    )
    def test_an_option_that_changes_the_payload_changes_the_digest(
        self, capsys, argv, option, values
    ):
        first, second = (run_envelope(capsys, *argv, option, value) for value in values)
        assert first["payload"] != second["payload"]
        assert first["inputs_digest"] != second["inputs_digest"]

    def test_inputs_echo_reparses(self, capsys):
        env = run_envelope(
            capsys, "equivalence", "--cov-a", CONST1, "--cov-b", CONST2
        )
        jsonio.decode_decay(env["inputs"]["cov_a"])
        jsonio.decode_decay(env["inputs"]["cov_b"])

    def test_csv_emission_for_sample(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--cov", CONST1, "--n", "3", "--seed", "1", "--out", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,value"
        assert len(lines) == 4

    def test_csv_emission_for_mc_trace(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "support",
            "--cov", CONST1,
            "--weights", CONST1,
            "--mc", "400", "150",
            "--seed", "2",
            "--out", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "n,mean_partial_sum"

    def test_csv_without_trace_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "chi", "--cov", CONST1, "--xi", '{"entries": []}', "--out", "csv"
        )
        assert code == 2
        assert "tabular" in err

    def test_selftest_quick_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--level", "quick", "--seed", "7")
        assert code == 0
        assert out.count("[PASS]") == 11

    def test_file_input_via_at_path(self, capsys, tmp_path):
        path = tmp_path / "cov.json"
        path.write_text(CONST1)
        env = run_envelope(
            capsys, "chi", "--cov", f"@{path}", "--xi", '{"entries": []}'
        )
        assert env["payload"]["chi"] == 1.0


# declared options that the call did not read, each with the flag its refusal names
UNREAD_OPTIONS = [
    pytest.param(("moment", "--cov", CONST1, "--vectors", "e1,e1", "--seed", "4"), "--seed",
                 id="seed-on-exact-moment"),
    pytest.param(("support", "--cov", CONST1, "--weights", CONST1, "--seed", "4"), "--seed",
                 id="seed-on-exact-support"),
    pytest.param(("bohr", "--freqs", "1.0,1.4142135623730951", "--check-independence", "5",
                  "--seed", "3"), "--seed", id="seed-on-bohr-independence"),
    pytest.param(("kernel", "--spec", MASSIVE_FREE, "--at", "0", "--tol", "1e-3"), "--tol",
                 id="tol-on-kernel-at"),
    pytest.param(("kernel", "--fourier", "1", "0", "--spec", MASSIVE_FREE), "--spec",
                 id="spec-on-kernel-fourier"),
    pytest.param(("bohr", "--freqs", "1.0,2.0", "--sample", "--seed", "1", "--mc", "10"), "--mc",
                 id="mc-on-bohr-sample"),
    pytest.param(("bohr", "--freqs", "1.0,2.0", "--integral", "one", "--mc", "100", "--seed", "1",
                  "--quad-points", "4"), "--quad-points", id="quad-points-on-bohr-mc"),
    pytest.param(("product", "--spec", UNIFORM, "--cylinder", '{"base":[]}', "--n-max", "5"),
                 "--n-max", id="n-max-on-product-cylinder"),
]


GRID = '{"x0":-0.5,"dx":0.25,"count":5,"values":[0,0.5,1,0.5,0]}'
# one call per (subcommand, mode), seeded modes included
REPLAYED = {
    "sample": ("sample", "--cov", CONST1, "--n", "4", "--seed", "3"),
    "chi": ("chi", "--cov", CONST1, "--xi", '{"entries": [[1, 1.0]]}'),
    "moment": ("moment", "--cov", CONST1, "--vectors", "e1,e2,e1,e2"),
    "moment-mc-samples": ("moment", "--cov", CONST1,
                          "--vectors", '[{"entries": [[1, 1.0], [2, 0.5]]}, {"entries": []}]',
                          "--mc-samples", "20", "--seed", "4"),
    "rn-density": ("rn-density", "--cov", CONST1, "--shift", '{"entries": [[1, 1.0]]}',
                   "--x", "[0.5, 2]"),
    "shift-admissible": ("shift-admissible", "--cov", CONST1,
                         "--shift", '{"power": {"c": 1, "p": 1}}'),
    "equivalence": ("equivalence", "--cov-a", CONST1, "--cov-b", CONST2),
    "support": ("support", "--cov", CONST1, "--weights", CONST1),
    "support-mc": ("support", "--cov", CONST1, "--weights", CONST1, "--mc", "100", "100",
                   "--seed", "7"),
    "hs-check": ("hs-check", "--weights", '{"power": {"c": 1, "p": 1}}'),
    "kernel-fourier": ("kernel", "--fourier", "1", "0.5", "--tol", "1e-3"),
    "kernel-at": ("kernel", "--spec", MASSIVE_FREE, "--at", "0.5"),
    "kernel-bilinear": ("kernel", "--spec", MASSIVE_FREE, "--bilinear", GRID, GRID),
    "kernel-regularity": ("kernel", "--spec", MASSIVE_FREE, "--regularity"),
    "bohr-check-independence": ("bohr", "--freqs", "1.0,1.4142135623730951",
                                "--check-independence", "3"),
    "bohr-sample": ("bohr", "--freqs", "1.0,2.0", "--sample", "--seed", "1"),
    "bohr-mc": ("bohr", "--freqs", "1.0,2.0", "--integral", "char:1,-1", "--mc", "50",
                "--seed", "1"),
    "bohr-integral": ("bohr", "--freqs", "1.0,2.0", "--integral", "cos:1,1", "--quad-points", "4"),
    "product-cylinder": ("product", "--spec", UNIFORM,
                         "--cylinder", '{"base":[{"index":1,"boxes":[[0.0,0.5]]}]}'),
    "product-prefix": ("product", "--spec", UNIFORM, "--prefix", '{"base":[]}', "--n-max", "5"),
    "product-tail": ("product", "--spec", UNIFORM,
                     "--tail", '{"one_minus_geometric":{"c":1,"q":0.5}}'),
    "consistency": ("consistency", "--marginals", MARGINALS, "--tol", "1e-9"),
}


def replay_argv(envelope):
    """An argv rebuilt from the envelope's ``inputs``: each dest as its flag, a document
    as its JSON, the values of a several-value option as separate tokens, true as a switch."""
    options = {flag: keywords for flag, _, keywords in cli.SUBCOMMANDS[envelope["subcommand"]][2]}

    def token(value):
        return json.dumps(value) if isinstance(value, (dict, list)) else str(value)

    argv = [envelope["subcommand"]]
    for dest, value in envelope["inputs"].items():
        flag = "--" + dest.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif "nargs" in options[flag]:
            argv += [flag, *map(token, value)]
        else:
            argv += [flag, token(value)]
    return argv


class TestCliHardening:
    @pytest.mark.parametrize("argv", REPLAYED.values(), ids=REPLAYED.keys())
    def test_inputs_replay_to_the_same_payload_and_digest(self, capsys, argv):
        env = run_envelope(capsys, *argv)
        again = run_envelope(capsys, *replay_argv(env))
        assert again["payload"] == env["payload"]
        assert again["inputs_digest"] == env["inputs_digest"]


    @pytest.mark.parametrize(
        "argv",
        [
            ("rn-density", "--cov", CONST1, "--shift", '{"entries":[[1,40.0]]}', "--x", "[40.0]"),
            ("chi", "--cov", '{"constant":{"rho":1e300}}', "--xi", '{"entries":[[1,1e10]]}'),
            ("moment", "--cov", '{"constant":{"rho":1e300}}', "--vectors", "e1,e1,e1,e1"),
            ("equivalence", "--cov-a", '{"constant":{"rho":1e-300}}',
             "--cov-b", '{"constant":{"rho":1e300}}'),
        ],
        ids=["rn-density", "chi", "moment", "equivalence"],
    )
    def test_non_finite_result_exits_3(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "numeric failure" in err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("rn-density", "--cov", CONST1, "--shift", '{"entries":[[1,1.0]]}', "--x", "[NaN]"),
             "--x"),
            (("product", "--spec", UNIFORM,
              "--cylinder", '{"base":[{"index":1,"boxes":[[-Infinity,0.5]]}]}'), "--cylinder"),
        ],
        ids=["nan", "-infinity"],
    )
    def test_non_standard_json_tokens_exit_2(self, capsys, argv, option):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"input error: {option}: invalid JSON" in err

    @pytest.mark.parametrize("option", ["--cylinder", "--prefix", "--tail"])
    def test_empty_product_document_exits_2(self, capsys, option):
        code, out, err = run_cli(capsys, "product", "--spec", UNIFORM, option, "")
        assert (code, out) == (2, "")
        assert f"input error: {option}: invalid JSON" in err

    def test_overflowing_interval_end_names_its_path(self, capsys):
        code, _, err = run_cli(
            capsys, "product", "--spec", UNIFORM,
            "--cylinder", '{"base":[{"index":1,"boxes":[[-1e400,0.5]]}]}',
        )
        assert code == 2
        assert "cylinder.base[0].boxes[0][0]: must be finite" in err

    def test_integer_past_the_float_range_exits_2(self, capsys):
        big = "1" + "0" * 400
        weights = f'{{"constant":{{"rho":{big}}}}}'
        code, out, err = run_cli(capsys, "hs-check", "--weights", weights)
        assert (code, out) == (2, "")
        assert "input error: weights.constant.rho: must be finite" in err

    @pytest.mark.parametrize(
        "cov",
        ['{"power":{"c":1,"p":2}}', '{"geometric":{"c":1,"q":0.5}}'],
        ids=["power", "geometric"],
    )
    def test_index_past_the_float_range_exits_2(self, capsys, cov):
        big = "1" + "0" * 400
        xi = f'{{"entries":[[{big},1.0]]}}'
        code, out, err = run_cli(capsys, "chi", "--cov", cov, "--xi", xi)
        assert (code, out) == (2, "")
        assert "is beyond the float range" in err and "Traceback" not in err

    def test_non_numeric_coordinate_names_its_index(self, capsys):
        code, _, err = run_cli(
            capsys, "rn-density", "--cov", CONST1, "--shift", '{"entries":[[1,1.0]]}',
            "--x", '["a"]',
        )
        assert code == 2
        assert "x[0]" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            pytest.param(("sample", "--cov", CONST1, "--n", "4", "--seed", "-1"), "--seed",
                         id="negative-seed"),
            pytest.param(("sample", "--cov", CONST1, "--n", "4", "--seed", str(2**64)), "--seed",
                         id="seed-above-64-bits"),
            pytest.param(("shift-admissible", "--cov", CONST1, "--shift", CONST1, "--tol", "1e-3"),
                         "--tol", id="tol-on-shift-admissible"),
            pytest.param(("hs-check", "--weights", CONST1, "--seed", "1"), "--seed",
                         id="seed-on-hs-check"),
            pytest.param(("consistency", "--marginals", MARGINALS, "--tol", "-1"), "--tol",
                         id="negative-tol"),
            pytest.param(("kernel", "--fourier", "1.0", "0.0", "--tol", "0"), "--tol",
                         id="zero-tol"),
            pytest.param(("moment", "--cov", CONST1, "--vectors", "e1,e0"),
                         "input error: vectors[1]: sequence index must be a natural >= 1, got 0",
                         id="basis-token-e0"),
            pytest.param(("moment", "--cov", CONST1, "--vectors", "e1_0,e10"),
                         "input error: vectors[0]: expected a basis token like e1, got 'e1_0'",
                         id="basis-token-digit-separator"),
            pytest.param(("moment", "--cov", CONST1, "--vectors", "e+1"),
                         "input error: vectors[0]: expected a basis token like e1, got 'e+1'",
                         id="basis-token-sign"),
            pytest.param(("moment", "--cov", CONST1, "--vectors", "e1,e\u0661"),
                         "input error: vectors[1]: expected a basis token like e1, got 'e\u0661'",
                         id="basis-token-non-ascii-digit"),
            pytest.param(("consistency", "--marginals",
                          '[{"indices":[1],"cells":[{"boxes":[[[0,0.5]]],"p":0.5,"p":1.0}]}]'),
                         "input error: --marginals: invalid JSON (repeated key 'p')",
                         id="repeated-cell-key"),
            pytest.param(("product", "--spec", '{"indexed":{"map":{"1":{"uniform":{"a":0,"b":1}},'
                          '"1":{"point_mass":{"c":0.25}}},"default":{"point_mass":{"c":0}}}}',
                          "--cylinder", '{"base":[{"index":1,"boxes":[[0.0,0.5]]}]}'),
                         "input error: --spec: invalid JSON (repeated key '1')",
                         id="repeated-map-key"),
            pytest.param(("bohr", "--freqs", "1_0,2", "--check-independence", "2"),
                         "input error: --freqs: expected a plain ASCII number, got '1_0'",
                         id="freq-digit-separator"),
            pytest.param(("bohr", "--freqs", "\u0661,2", "--check-independence", "2"),
                         "input error: --freqs: expected a plain ASCII number, got '\u0661'",
                         id="freq-non-ascii-digit"),
            pytest.param(("bohr", "--freqs", "1,2", "--integral", "char:1_0,1"),
                         "input error: --integral: bad mode list in 'char:1_0,1'",
                         id="integral-mode-digit-separator"),
            pytest.param(("sample", "--cov", CONST1, "--n", "1_0", "--seed", "1"),
                         "argument --n: invalid int value: '1_0'", id="int-digit-separator"),
            pytest.param(("sample", "--cov", CONST1, "--n", "4", "--seed", "\u0663"),
                         "argument --seed: expected a non-negative 64-bit integer, got '\u0663'",
                         id="seed-non-ascii-digit"),
            *UNREAD_OPTIONS,
        ],
    )
    def test_rejected_options_exit_2(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("argv, flag", UNREAD_OPTIONS)
    def test_unread_option_is_refused_before_any_input_is_read(self, capsys, argv, flag):
        # the first document (or bohr's frequency list) can no longer be read
        first = next(i for i, v in enumerate(argv) if v.startswith("{") or argv[i - 1] == "--freqs")
        code, out, err = run_cli(capsys, *argv[:first], "@/nonexistent", *argv[first + 1:])
        assert (code, out) == (2, "")
        assert flag in err and "cannot read" not in err and "--freqs" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # without the check these two exit 3 on the quadrature
            (("kernel", "--fourier", "1", "0", "--spec", MASSIVE_FREE, "--cutoff", "10"),
             "--spec does not apply to this kernel call"),
            (("kernel", "--fourier", "1", "6e5", "--at", "0", "--spec", MASSIVE_FREE),
             "--spec, --at do not apply to this kernel call"),
            (("moment", "--cov", "@/nonexistent", "--vectors", "e1", "--mc-samples", "10"),
             "moment --mc-samples needs an explicit --seed"),
            (("support", "--cov", "@/nonexistent", "--weights", CONST1, "--mc", "10", "10"),
             "support --mc needs an explicit --seed"),
            (("bohr", "--freqs", "x", "--sample"), "bohr --sample needs an explicit --seed"),
            (("bohr", "--freqs", "x", "--integral", "one", "--mc", "10"),
             "bohr --mc needs an explicit --seed"),
            (("kernel", "--spec", "@/nonexistent"),
             "kernel needs one of --fourier, --at, --bilinear, --regularity"),
            (("bohr", "--freqs", "x"),
             "bohr needs one of --check-independence, --sample, --mc, --integral"),
            (("product", "--spec", "@/nonexistent"),
             "product needs one of --cylinder, --prefix, --tail"),
            (("kernel", "--at", "0"), "kernel --at, --bilinear and --regularity need --spec"),
            (("bohr", "--freqs", "1.0", "--mc", "10", "--seed", "1"), "bohr --mc needs --integral"),
        ],
        ids=["spec-with-unmet-fourier-tolerance", "spec-and-at-with-fourier-over-budget",
             "moment-mc-samples-without-seed", "support-mc-without-seed",
             "bohr-sample-without-seed", "bohr-mc-without-seed", "kernel-without-mode",
             "bohr-without-mode", "product-without-mode", "kernel-at-without-spec",
             "bohr-mc-without-integral"],
    )
    def test_mode_check_comes_first_and_prints_one_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"input error: {message}\n")

    @pytest.mark.parametrize("freqs, bound", [("1e308,1.5", "3"), ("1.7e308,-8.5e307", "1")])
    def test_overflowing_independence_search_exits_2(self, capsys, freqs, bound):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would escape main
            code, out, err = run_cli(
                capsys, "bohr", "--freqs", freqs, "--check-independence", bound
            )
        assert (code, out) == (2, "")
        assert err == (
            f"input error: bound {bound} times sum |k_i| exceeds 2^1020; the sums would overflow\n"
        )

    @pytest.mark.parametrize("repeated", [0, 1], ids=["smaller-table", "larger-table"])
    def test_repeated_marginal_cell_exits_2(self, capsys, repeated):
        # one cell listed twice, its probability split, on either side of the chain
        halves = [[[0.0, 0.5]], [[0.5, 1.0]]]
        tables = [
            {"indices": [1], "cells": [{"boxes": [h], "p": 0.5} for h in halves]},
            {"indices": [1, 2],
             "cells": [{"boxes": [a, b], "p": 0.25} for a in halves for b in halves]},
        ]
        cells = tables[repeated]["cells"]
        cells[0]["p"] /= 2
        cells.insert(1, cells[0])
        code, out, err = run_cli(capsys, "consistency", "--marginals", json.dumps(tables))
        assert (code, out) == (2, "")
        assert err == f"input error: marginals[{repeated}]: cell 1 repeats the boxes of cell 0\n"

    def test_probability_outside_the_unit_interval_exits_2(self, capsys):
        cell = {"boxes": [[[0.0, "inf"]]], "p": -0.5}
        marginals = json.dumps([{"indices": [1], "cells": [cell]}] * 2)
        code, out, err = run_cli(capsys, "consistency", "--marginals", marginals)
        assert (code, out) == (2, "")
        assert "marginals[0].cells[0].p: probability must lie in [0,1], got -0.5" in err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("kernel", "--spec", '{"massive_free_1d":{"m":1}}', "--at", "nan"), "--at"),
            (("kernel", "--fourier", "1", "inf"), "--fourier"),
            (("kernel", "--fourier", "1", "0.5", "--cutoff", "inf"), "--cutoff"),
            (("kernel", "--fourier", "1", "0.5", "--tol", "inf"), "--tol"),
        ],
        ids=["at", "fourier", "cutoff", "tol"],
    )
    def test_non_finite_float_options_exit_2(self, capsys, argv, option):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"argument {option}: expected a finite number" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("sample", "--cov", '{"power":{"c":1,"p":1}}', "--n", "100000000000",
              "--seed", "1"), "exceeds the budget of"),
            (("support", "--cov", CONST1, "--weights", '{"power":{"c":1,"p":1}}',
              "--mc", "100000000", "100000", "--seed", "1"), "exceed the budget of"),
            (("moment", "--cov", CONST1, "--vectors", "e1,e1", "--mc-samples",
              "1000000000000", "--seed", "1"), "exceed the budget of"),
            (("moment", "--cov", CONST1, "--vectors", "e1,e1", "--mc-samples", "1",
              "--seed", "1"), "at least 2 samples"),
            (("moment", "--cov", CONST1, "--vectors", "e1,e1", "--mc-samples", "-5",
              "--seed", "1"), "at least 2 samples"),
            (("bohr", "--freqs", "1.0,1.4142135623730951", "--integral", "one",
              "--mc", "1000000000000", "--seed", "1"), "exceed the budget of"),
            (("bohr", "--freqs", "1.0,1.4142135623730951", "--integral", "one",
              "--quad-points", "1000000000"), "exceed the budget of"),
        ],
        ids=["sample-n", "support-mc", "moment-mc-samples", "moment-one-sample",
             "moment-negative-samples", "bohr-mc", "bohr-quad-points"],
    )
    def test_oversized_requests_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("input error:") and message in err

    def test_empty_moment_vectors_give_the_empty_product_under_mc(self, capsys):
        code, out, _ = run_cli(
            capsys, "moment", "--cov", CONST1, "--vectors", "[]", "--mc-samples", "10",
            "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["moment"] == 1.0
        assert payload["mc"]["estimate"] == 1.0 and payload["mc"]["standard_error"] == 0.0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_density_prints_only_the_failure(self, capsys):
        code, out, err = run_cli(
            capsys, "rn-density", "--cov", CONST1, "--shift", '{"entries":[[1,40.0]]}',
            "--x", "[40.0]",
        )
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("numeric failure:")

    HUGE_GRID = '{"x0":0,"dx":1e300,"count":2,"values":[1e300,1e300]}'

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ("kernel", "--spec", '{"white_noise":{"sigma":1e308}}',
             "--bilinear", HUGE_GRID, HUGE_GRID),
            ("kernel", "--spec", MASSIVE_FREE, "--bilinear", HUGE_GRID, HUGE_GRID),
            ("support", "--cov", '{"constant":{"rho":1e308}}',
             "--weights", '{"constant":{"rho":1e10}}', "--mc", "100", "100", "--seed", "1"),
            ("support", "--cov", '{"constant":{"rho":1e306}}',
             "--weights", CONST1, "--mc", "100", "100", "--seed", "1"),
            ("moment", "--cov", '{"constant":{"rho":1e200}}', "--vectors", "e1,e1,e1,e1",
             "--mc-samples", "10", "--seed", "1"),
        ],
        ids=["kernel-white-noise", "kernel-massive-free",
             "support-mc-weights", "support-mc-sums", "moment-mc"],
    )
    def test_overflow_prints_only_the_failure(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("numeric failure:")

    @pytest.mark.filterwarnings("error")
    def test_a_spread_whose_squares_overflow_keeps_a_finite_standard_error(self, capsys):
        # the squared deviations pass 1e308 while the estimates stay finite
        env = run_envelope(capsys, "moment", "--cov", '{"constant":{"rho":1e100}}',
                           "--vectors", "e1,e1,e1,e1", "--mc-samples", "1000", "--seed", "0")
        mc = env["payload"]["mc"]
        assert env["payload"]["moment"] == pytest.approx(3e200, rel=1e-15)
        assert 0.0 < mc["standard_error"] < math.inf
        assert abs(mc["estimate"] - 3e200) <= 4.0 * mc["standard_error"]
        env = run_envelope(capsys, "support", "--cov", '{"constant":{"rho":1e200}}',
                           "--weights", CONST1, "--mc", "100", "100", "--seed", "1")
        growth = env["payload"]["mc"]
        assert growth["kind"] == "slope" and 0.0 < growth["final_se"] < math.inf

    @pytest.mark.filterwarnings("error")
    def test_a_sum_that_overflows_keeps_a_finite_mean(self, capsys):
        # the 1,000 products sum past 1.8e308 while their mean is about 1e306
        env = run_envelope(capsys, "moment", "--cov", '{"constant":{"rho":5.8e152}}',
                           "--vectors", "e1,e1,e1,e1", "--mc-samples", "1000", "--seed", "0")
        mc = env["payload"]["mc"]
        assert env["payload"]["moment"] == pytest.approx(3 * 5.8e152**2, rel=1e-15)
        assert mc["estimate"] == pytest.approx(1.016e306, rel=1e-3)
        assert abs(mc["estimate"] - 3 * 5.8e152**2) <= 4.0 * mc["standard_error"]

    TABLE = '{"tabulated":{"values":[1,0.5,0.25]}}'

    @pytest.mark.parametrize(
        "argv",
        [
            ("hs-check", "--weights", TABLE),
            ("shift-admissible", "--cov", CONST1, "--shift", TABLE),
            ("support", "--cov", CONST1, "--weights", TABLE),
            ("support", "--cov", '{"tabulated":{"values":[1e308,1e308]}}',
             "--weights", '{"tabulated":{"values":[1e10,1e10]}}'),
            ("equivalence", "--cov-a", TABLE, "--cov-b", CONST1),
            ("equivalence", "--cov-a", CONST1, "--cov-b", TABLE),
        ],
        ids=["hs-check", "shift-admissible", "support", "support-overflowing-table",
             "equivalence-a", "equivalence-b"],
    )
    def test_a_tabulated_series_is_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            "input error: tabulated values carry no tail information; "
            "symbolic decision refused\n"
        )

    def test_a_finite_shift_of_a_tabulated_covariance_is_admissible(self, capsys):
        env = run_envelope(capsys, "shift-admissible", "--cov", self.TABLE,
                           "--shift", '{"entries":[[2,3.0]]}')
        assert env["payload"] == {"admissible": True}

    def test_parser_is_built_once(self, capsys):
        run_cli(capsys, "hs-check", "--weights", CONST1)
        run_cli(capsys, "hs-check", "--weights", CONST1)
        assert cli._build_parser.cache_info().misses == 1

    def test_seed_and_tol_declared_only_where_read(self):
        def takes(flag):
            return {name for name, (_, _, options) in cli.SUBCOMMANDS.items()
                    if any(f == flag for f, *_ in options)}

        assert takes("--seed") == {"sample", "moment", "support", "bohr", "selftest"}
        assert takes("--tol") == {"kernel", "consistency"}
