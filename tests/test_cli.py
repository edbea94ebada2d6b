import dataclasses
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st

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


def run_envelope(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return oracles.strict_json(out)


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
            ([{"indices": [1, 2], "cells": [{"boxes": [[]], "p": 1}]}], "doc[0]"),
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
        with pytest.raises(InputError, match="value must be a finite number, got 'infinity'"):
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

    @pytest.mark.parametrize("spec, value, provenance", [
        (MASSIVE_FREE, math.exp(-0.25) / 2, "closed-form kernel evaluation"),
        ('{"tabulated":{"grid":[-1,0,1],"values":[0.5,1,0.5]}}', 0.875,
         "linear interpolation of the table"),
    ], ids=["massive-free", "tabulated"])
    def test_kernel_at_provenance_names_the_method(self, capsys, spec, value, provenance):
        env = run_envelope(capsys, "kernel", "--spec", spec, "--at", "0.25")
        assert env["payload"] == {"value": value, "x": 0.25}
        assert env["provenance"] == [provenance]

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

    def test_product_of_a_slow_tail_runs_to_its_own_count(self, capsys):
        # 230,258,497 factors: the closed form costs the same at any count
        c, q = "1e-9", "0.9999999"
        env = run_envelope(
            capsys, "product", "--spec", UNIFORM,
            "--tail", f'{{"one_minus_geometric":{{"c":{c},"q":{q}}}}}',
        )
        truth = oracles.geometric_tail_product(c, q)
        assert oracles.product_report_error(env["payload"], c, q, truth) is None
        assert env["payload"]["n_factors"] > 10**8

    def test_product_has_no_factor_budget_option(self, capsys):
        code, out, err = run_cli(
            capsys, "product", "--spec", UNIFORM,
            "--tail", '{"constant_factor": {"f": 0.5}}', "--n-max", "5",
        )
        assert code == 2
        assert out == ""
        assert "--n-max" in err

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
            (("product", "--spec", UNIFORM), "--tail",
             ('{"one_minus_geometric":{"c":1,"q":0.5}}', '{"one_minus_geometric":{"c":1,"q":0.25}}')),
            (("moment", "--cov", CONST1, "--vectors", "e1,e1", "--mc-samples", "100"),
             "--seed", ("3", "4")),
        ],
        ids=["consistency-tol", "kernel-fourier-tol", "product-tail", "moment-mc-seed"],
    )
    def test_an_option_that_changes_the_payload_changes_the_digest(
        self, capsys, argv, option, values
    ):
        first, second = (run_envelope(capsys, *argv, option, value) for value in values)
        assert first["payload"] != second["payload"]
        assert first["inputs_digest"] != second["inputs_digest"]

    @pytest.mark.parametrize("argv, typed, echoed", [
        (("kernel", "--fourier", "1", "0.5"), ("--cutoff", "1e7", "--tol", "1e-6"),
         {"cutoff": 1e7, "tol": 1e-6}),
        (("bohr", "--freqs", "1.0,2.0", "--integral", "one"), ("--quad-points", "16"),
         {"quad_points": 16}),
    ], ids=["kernel-fourier", "bohr-integral"])
    def test_a_declared_default_is_read_whether_typed_or_not(self, capsys, argv, typed, echoed):
        bare, spelled = run_envelope(capsys, *argv), run_envelope(capsys, *argv, *typed)
        assert echoed.items() <= bare["inputs"].items()
        assert bare["inputs"] == spelled["inputs"] and bare["payload"] == spelled["payload"]

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

    def test_csv_emission_for_bohr_sample(self, capsys):
        argv = ("bohr", "--freqs", "1,1.4142135623730951,0.5", "--sample", "--seed", "3")
        code, out, _ = run_cli(capsys, *argv, "--out", "csv")
        assert code == 0
        header, *rows = out.splitlines()
        assert header == "axis,phase"
        phases = run_envelope(capsys, *argv)["payload"]["phases"]
        assert [row.split(",") for row in rows] == [
            [str(axis), repr(phase)] for axis, phase in enumerate(phases, 1)
        ]
        assert len(rows) == 3  # one row per frequency

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

    def test_selftest_refuses_out(self, capsys):
        # --out was once accepted on selftest and ignored
        code, out, err = run_cli(capsys, "selftest", "--out", "csv")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --out csv" in err

    def test_closed_stdout_exits_1_without_a_traceback(self):
        # a reader that stops early, as `| head -c 100` does; the envelope is
        # megabytes, so the writer is still writing when the pipe closes
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "cylmeasure", "sample", "--cov", '{"constant":{"rho":1}}',
             "--n", "200000", "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=300) == 1
        assert "Traceback" not in err, err

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
    pytest.param(("product", "--spec", UNIFORM, "--cylinder", '{"base":[]}',
                  "--tail", '{"full":{}}'), "--tail", id="tail-on-product-cylinder"),
    # typed at its default value, an option is still given
    pytest.param(("kernel", "--spec", MASSIVE_FREE, "--at", "0", "--tol", "1e-6"), "--tol",
                 id="default-tol-on-kernel-at"),
    pytest.param(("kernel", "--spec", MASSIVE_FREE, "--regularity", "--cutoff", "1e7"),
                 "--cutoff", id="default-cutoff-on-kernel-regularity"),
    pytest.param(("bohr", "--freqs", "1.0,1.4142135623730951", "--check-independence", "3",
                  "--quad-points", "16"), "--quad-points",
                 id="default-quad-points-on-bohr-independence"),
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
    "product-prefix": ("product", "--spec", UNIFORM, "--prefix", '{"base":[]}'),
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

    @pytest.mark.parametrize("argv, option", [
        (("hs-check", "--weights"), "--weights"),
        (("kernel", "--spec", MASSIVE_FREE, "--bilinear", GRID), "--bilinear[1]"),
    ], ids=["single", "second-of-two"])
    def test_undecodable_file_exits_2(self, capsys, tmp_path, argv, option):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"constant":{"rho":1}}\xff')
        assert run_cli(capsys, *argv, f"@{path}") == (
            2, "", f"input error: {option}: cannot read {path}: 'utf-8' codec can't decode "
                   "byte 0xff in position 22: invalid start byte\n")

    @pytest.mark.parametrize("argv, option", [
        (("hs-check", "--weights"), "--weights"),
        (("kernel", "--spec", MASSIVE_FREE, "--bilinear", GRID), "--bilinear[1]"),
    ], ids=["single", "second-of-two"])
    @pytest.mark.parametrize("doc", ["[" * 100_000, "[" * 100_000 + "]" * 100_000],
                             ids=["unclosed", "balanced"])
    def test_document_nested_past_the_recursion_limit_exits_2(self, capsys, argv, option, doc):
        # the C scanner raises RecursionError, not a ValueError; 5,000 levels
        # raise it on 3.10-3.12, but 3.13 reads them
        assert run_cli(capsys, *argv, doc) == (
            2, "", f"input error: {option}: invalid JSON (nested too deeply)\n")

    def test_overflowing_interval_end_names_its_path(self, capsys):
        code, _, err = run_cli(
            capsys, "product", "--spec", UNIFORM,
            "--cylinder", '{"base":[{"index":1,"boxes":[[-1e400,0.5]]}]}',
        )
        assert code == 2
        assert "cylinder.base[0].boxes[0][0]: value must be a finite number, got -inf" in err

    def test_integer_past_the_float_range_exits_2(self, capsys):
        big = "1" + "0" * 400
        weights = f'{{"constant":{{"rho":{big}}}}}'
        code, out, err = run_cli(capsys, "hs-check", "--weights", weights)
        assert (code, out) == (2, "")
        assert ("input error: weights.constant.rho: value must be a finite number, "
                "got about 10^400") in err

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
            pytest.param(("sample", "--cov", CONST1, "--n", "4", "--seed", "-1"),
                         "input error: seed must be >= 0, got -1", id="negative-seed"),
            pytest.param(("sample", "--cov", CONST1, "--n", "4", "--seed", str(2**64)),
                         f"input error: seed must be < 2^64, got {2**64}", id="seed-above-64-bits"),
            pytest.param(("shift-admissible", "--cov", CONST1, "--shift", CONST1, "--tol", "1e-3"),
                         "--tol", id="tol-on-shift-admissible"),
            pytest.param(("hs-check", "--weights", CONST1, "--seed", "1"), "--seed",
                         id="seed-on-hs-check"),
            pytest.param(("consistency", "--marginals", MARGINALS, "--tol", "-1"),
                         "input error: tolerance must be > 0, got -1.0", id="negative-tol"),
            pytest.param(("kernel", "--fourier", "1.0", "0.0", "--tol", "0"),
                         "input error: tolerance must be > 0, got 0.0", id="zero-tol"),
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
            pytest.param(("kernel", "--fourier", "1", "0_5"),
                         "argument --fourier: invalid float value: '0_5'",
                         id="float-digit-separator"),
            pytest.param(("sample", "--cov", CONST1, "--n", "4", "--seed", "\u0663"),
                         "argument --seed: invalid int value: '\u0663'",
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
            (("kernel", "--at", "0"), "kernel --at needs --spec"),
            (("bohr", "--freqs", "1.0", "--mc", "10", "--seed", "1"), "bohr --mc needs --integral"),
            (("bohr", "--freqs", "x", "--mc", "10", "--seed", "1"), "bohr --mc needs --integral"),
            (("kernel", "--bilinear", "@/nonexistent", "@/nonexistent"),
             "kernel --bilinear needs --spec"),
            # --out csv on a call without a table: refused before the compute or a read
            (("kernel", "--fourier", "1", "6e5", "--out", "csv"),
             "subcommand 'kernel' has no tabular trace for CSV output"),
            (("hs-check", "--weights", "@/nonexistent", "--out", "csv"),
             "subcommand 'hs-check' has no tabular trace for CSV output"),
            (("support", "--cov", "@/nonexistent", "--weights", CONST1, "--out", "csv"),
             "subcommand 'support' has no tabular trace for CSV output"),
            (("bohr", "--freqs", "x", "--integral", "one", "--out", "csv"),
             "subcommand 'bohr' has no tabular trace for CSV output"),
        ],
        ids=["spec-with-unmet-fourier-tolerance", "spec-and-at-with-fourier-over-budget",
             "moment-mc-samples-without-seed", "support-mc-without-seed",
             "bohr-sample-without-seed", "bohr-mc-without-seed", "kernel-without-mode",
             "bohr-without-mode", "product-without-mode", "kernel-at-without-spec",
             "bohr-mc-without-integral", "bohr-mc-without-integral-before-freqs",
             "kernel-bilinear-without-spec-before-documents",
             "csv-before-an-over-budget-quadrature", "csv-before-documents",
             "csv-on-support-without-mc", "csv-on-bohr-integral"],
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
        assert "marginals[0]: cell 0 probability must lie in [0, 1], got -0.5" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("kernel", "--spec", '{"massive_free_1d":{"m":1}}', "--at", "nan"),
             "x must be a finite number, got nan"),
            (("kernel", "--fourier", "1", "inf"), "x must be a finite number, got inf"),
            (("kernel", "--fourier", "1", "0.5", "--cutoff", "inf"),
             "cutoff must be a finite number, got inf"),
            (("kernel", "--fourier", "1", "0.5", "--tol", "inf"),
             "tolerance must be a finite number, got inf"),
        ],
        ids=["at", "fourier", "cutoff", "tol"],
    )
    def test_non_finite_float_options_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"input error: {message}\n"

    # the library call that reads a number judges it, so each refusal is one line
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("consistency", "--marginals", MARGINALS, "--tol", "nan"),
             "tolerance must be a finite number, got nan"),
            (("hs-check", "--weights", '{"power":{"c":1e999,"p":1}}'),
             "weights.power.c: value must be a finite number, got inf"),
            (("moment", "--cov", CONST1, "--vectors", "e1", "--mc-samples", "10",
              "--seed", str(2**64)), f"seed must be < 2^64, got {2**64}"),
            (("support", "--cov", CONST1, "--weights", CONST1, "--mc", "100", "100",
              "--seed", "-1"), "seed must be >= 0, got -1"),
            (("bohr", "--freqs", "1,2", "--sample", "--seed", str(2**64)),
             f"seed must be < 2^64, got {2**64}"),
            (("bohr", "--freqs", "1,2", "--integral", "one", "--mc", "10", "--seed", "-1"),
             "seed must be >= 0, got -1"),
            (("selftest", "--seed", str(2**64)), f"seed must be < 2^64, got {2**64}"),
        ],
        ids=["consistency-tol", "json-number", "moment-seed", "support-seed", "bohr-sample-seed",
             "bohr-mc-seed", "selftest-seed"],
    )
    def test_a_number_the_library_refuses_prints_one_line(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"input error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("sample", "--cov", '{"power":{"c":1,"p":1}}', "--n", "100000000000",
              "--seed", "1"), "exceeds the budget of"),
            (("support", "--cov", CONST1, "--weights", '{"power":{"c":1,"p":1}}',
              "--mc", "100000000", "100000", "--seed", "1"), "exceeds the budget of"),
            (("moment", "--cov", CONST1, "--vectors", "e1,e1", "--mc-samples",
              "1000000000000", "--seed", "1"), "exceeds the budget of"),
            (("moment", "--cov", CONST1, "--vectors", "e1,e1", "--mc-samples", "1",
              "--seed", "1"), "n_samples must be >= 2, got 1"),
            (("moment", "--cov", CONST1, "--vectors", "e1,e1", "--mc-samples", "-5",
              "--seed", "1"), "n_samples must be >= 2, got -5"),
            (("bohr", "--freqs", "1.0,1.4142135623730951", "--integral", "one",
              "--mc", "1000000000000", "--seed", "1"), "exceeds the budget of"),
            (("bohr", "--freqs", "1.0,1.4142135623730951", "--integral", "one",
              "--quad-points", "1000000000"), "exceeds the budget of"),
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

    def test_a_tabulated_kernel_matrix_past_its_budget_is_one_input_error(self, capsys):
        # 3163^2 entries: refused before the N x N matrices, 185 MB at 3162 points
        grid = json.dumps({"x0": 0, "dx": 1, "count": 3163, "values": [1.0] * 3163})
        table = '{"tabulated":{"grid":[-4000,0,4000],"values":[0,1,0]}}'
        code, out, err = run_cli(capsys, "kernel", "--spec", table, "--bilinear", grid, grid)
        assert (code, out) == (2, "")
        assert err == ("input error: kernel matrix entries 10004569 exceeds the budget of "
                       "10000000\n")

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
            # the interpolation slope (1e308 - -1e308) / 1 overflows to inf
            ("kernel", "--spec", '{"tabulated":{"grid":[-1,0,1],"values":[1e308,-1e308,1e308]}}',
             "--at", "0.5"),
        ],
        ids=["kernel-white-noise", "kernel-massive-free",
             "support-mc-weights", "support-mc-sums", "moment-mc", "kernel-tabulated-at"],
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
    NEGATIVE_TABLE = '{"tabulated":{"values":[1,-1]}}'

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
            # a table that is not positive either: each verdict reads the atoms first
            ("hs-check", "--weights", NEGATIVE_TABLE),
            ("shift-admissible", "--cov", NEGATIVE_TABLE,
             "--shift", '{"power":{"c":1,"p":1}}'),
            ("support", "--cov", NEGATIVE_TABLE, "--weights", CONST1),
            ("equivalence", "--cov-a", NEGATIVE_TABLE, "--cov-b", CONST1),
        ],
        ids=["hs-check", "shift-admissible", "support", "support-overflowing-table",
             "equivalence-a", "equivalence-b", "hs-check-non-positive",
             "shift-admissible-non-positive", "support-non-positive", "equivalence-non-positive"],
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


def canonical_digest(inputs):
    """The ``inputs_digest`` formula: SHA-256 of json.dumps(inputs, sort_keys=True,
    separators=(",", ":"))."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# documents at the edges of the canonical form: escapes, non-ASCII and lone
# surrogates, the float and integer extremes, nesting
DIGEST_DOCUMENTS = {
    "non-ascii": r'{"z": "\u00e9 é \u2028 😀", "a": "\ud83d\ude00 \ud800"}',
    "escapes": '["\\"\\\\\\/\\b\\f\\n\\r\\t\\u0000\\u001f", "\\u0069nf"]',
    "float-extremes": "[5e-324, 1.7976931348623157e308, -0.0, 2.2250738585072014e-308, 1E2]",
    "big-integers": "[9223372036854775808, -18446744073709551617, 100000000000000000000000000000]",
    "nested": '[[[[]]], [{}], {"b": [1, [2, [3, {"a": []}]]], "a": {"c": {"b": null}}}]',
}

# JSON values printed with any indentation and separators, with or without
# ASCII escaping, inside whitespace, some with a flaw: trailing data, a
# repeated key, a NaN or Infinity token, or no document at all
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=4),
    max_leaves=12,
)


@st.composite
def json_texts(draw):
    text = json.dumps(
        draw(JSON_VALUES),
        indent=draw(st.sampled_from([None, 0, 2, "\t"])),
        separators=draw(st.sampled_from([None, (",", ":"), (", ", ": "), (" ,", " :\n")])),
        ensure_ascii=draw(st.booleans()),
    )
    flaw = draw(st.sampled_from(["none", "trailing", "repeated", "constant", "empty"]))
    if flaw == "trailing":
        text += draw(st.sampled_from(["x", " 1", "0", "]", "{}", "\x0c", "\u00a0", " /"]))
    elif flaw == "repeated":
        key = json.dumps(draw(st.text(max_size=3)))
        text = f"{{{key}: {text}, {key}: 1}}"
    elif flaw == "constant":
        text = f"[{text}, {draw(st.sampled_from(['NaN', 'Infinity', '-Infinity']))}]"
    elif flaw == "empty":
        text = ""
    space = st.text(alphabet=" \t\n\r", max_size=3)
    return draw(space) + text + draw(space)


# the envelopes of the calls in argv[1], then of hs-check echoing each document in
# argv[2] (as the echo_weights fixture does), with both built-in SHA-256 modules blocked
FALLBACK = """
import contextlib, io, json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from cylmeasure import cli, jsonio

def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return json.loads(buf.getvalue())

envelopes = [run(argv) for argv in json.loads(sys.argv[1])]
help_text, _, options = cli.SUBCOMMANDS["hs-check"]
cli.SUBCOMMANDS["hs-check"] = (help_text, lambda mode, values: ({}, []), options)
jsonio.decode = lambda kind, doc, name: doc
envelopes += [run(["hs-check", "--weights", doc]) for doc in json.loads(sys.argv[2])]
print(json.dumps([cli._sha256 is hashlib.sha256, envelopes]))
"""


class TestEnvelopeJsonPath:
    @pytest.mark.parametrize("argv", REPLAYED.values(), ids=REPLAYED.keys())
    def test_digest_is_the_documented_formula(self, capsys, argv):
        env = run_envelope(capsys, *argv)
        assert env["inputs_digest"] == canonical_digest(env["inputs"])

    @pytest.fixture
    def echo_weights(self, monkeypatch):
        """hs-check with a decoder and payload builder that take any document, so a call
        echoes its --weights document as parsed."""
        help_text, _, options = cli.SUBCOMMANDS["hs-check"]
        monkeypatch.setitem(cli.SUBCOMMANDS, "hs-check",
                            (help_text, lambda mode, values: ({}, []), options))
        monkeypatch.setattr(jsonio, "decode", lambda kind, doc, name: doc)

    @pytest.mark.parametrize("doc", DIGEST_DOCUMENTS.values(), ids=DIGEST_DOCUMENTS.keys())
    def test_digest_of_edge_documents(self, capsys, echo_weights, doc):
        env = run_envelope(capsys, "hs-check", "--weights", doc)
        assert env["inputs"] == {"weights": json.loads(doc)}
        assert env["inputs_digest"] == canonical_digest({"weights": json.loads(doc)})
        assert env["inputs_digest"] == canonical_digest(env["inputs"])

    def test_digest_of_a_file_document(self, capsys, echo_weights, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text(DIGEST_DOCUMENTS["non-ascii"], encoding="utf-8")
        env = run_envelope(capsys, "hs-check", "--weights", f"@{path}")
        assert env["inputs_digest"] == canonical_digest(
            {"weights": json.loads(DIGEST_DOCUMENTS["non-ascii"])})

    @pytest.mark.parametrize("doc", DIGEST_DOCUMENTS.values(), ids=DIGEST_DOCUMENTS.keys())
    def test_canonical_chunks_print_what_json_dumps_prints(self, doc):
        value = json.loads(doc)
        want = json.dumps(value, sort_keys=True, separators=(",", ":"))
        assert "".join(cli._canonical_chunks(value, 0)) == want
        # what the same name binds to without the _json accelerator
        assert "".join(cli._CANONICAL_JSON.iterencode(value, 0)) == want

    def test_a_failed_encoding_leaves_no_stale_state(self):
        doc = {"a": [object()]}
        with pytest.raises(TypeError):
            cli._canonical_chunks(doc, 0)
        doc["a"] = [1]  # the same dict again: a kept markers entry would call it circular
        assert "".join(cli._canonical_chunks(doc, 0)) == '{"a":[1]}'

    def test_digest_without_a_built_in_sha256_module(self):
        # neither _sha2 (3.12+) nor _sha256 (3.10, 3.11): cli hashes with hashlib's sha256
        src = str(Path(__file__).resolve().parents[1] / "src")
        calls = [REPLAYED[name] for name in ("shift-admissible", "equivalence", "product-tail")]
        proc = subprocess.run(
            [sys.executable, "-c", FALLBACK, json.dumps(calls),
             json.dumps(list(DIGEST_DOCUMENTS.values()))],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        from_hashlib, envelopes = json.loads(proc.stdout)
        assert from_hashlib
        assert [env["subcommand"] for env in envelopes] == (
            [argv[0] for argv in calls] + ["hs-check"] * len(DIGEST_DOCUMENTS))
        for env in envelopes:
            assert env["inputs_digest"] == canonical_digest(env["inputs"])
        for env, doc in zip(envelopes[len(calls):], DIGEST_DOCUMENTS.values()):
            assert env["inputs_digest"] == canonical_digest({"weights": json.loads(doc)})

    @settings(max_examples=300, deadline=None)
    @given(json_texts())
    def test_reads_agree_with_decode(self, text):
        try:
            want = ("value", repr(cli._STRICT_JSON.decode(text)))
        except ValueError as exc:
            want = ("error", f"--x: invalid JSON ({exc})")
        try:
            got = ("value", repr(cli._load_json_arg(text, "--x")))
        except InputError as exc:
            got = ("error", str(exc))
        assert got == want


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading, fence):
    """The text of the first ``fence`` block after ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    return text.split(heading, 1)[1].split(fence, 1)[1].split("```", 1)[0]


# every command of the README's CLI examples, without the program name
EXAMPLES = [shlex.split(line)[1:] for line in
            readme_block("## CLI examples", "```bash").replace("\\\n", " ").splitlines()
            if line.startswith("cylmeasure ")]
# the README's refusals: each command, then its stderr line
REFUSALS = readme_block("these exits `2`:", "```text").strip("\n").splitlines()


class TestReadmeExamples:
    def test_every_block_is_found(self):
        assert len(EXAMPLES) == 14 and len(REFUSALS) == 14

    @pytest.mark.parametrize("argv", EXAMPLES, ids=[f"{i}-{a[0]}" for i, a in enumerate(EXAMPLES)])
    def test_example_runs_and_replays(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        if "--out" in argv:  # a CSV trace has no envelope to replay
            assert out.splitlines()[0] == "n,mean_partial_sum"
            return
        env = oracles.strict_json(out)
        assert env["inputs_digest"] == canonical_digest(env["inputs"])
        again = run_envelope(capsys, *replay_argv(env))
        assert (again["payload"], again["inputs_digest"]) == (env["payload"], env["inputs_digest"])

    @pytest.mark.parametrize("command, line", list(zip(REFUSALS[::2], REFUSALS[1::2])),
                             ids=[f"{i}-{c.split()[1]}" for i, c in enumerate(REFUSALS[::2])])
    def test_refusal_prints_its_line(self, capsys, command, line):
        assert run_cli(capsys, *shlex.split(command)[1:]) == (2, "", line.strip() + "\n")
