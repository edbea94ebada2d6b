"""Decoder error messages, pinned for every schema kind and kind of fault.

Each case is (name, bad document, the ``InputError`` text of decoding it
as that kind under the path "doc").  The faults: a wrong JSON type, an
unknown key, a missing key, an unknown variant, a wrong tuple arity, a
boolean or non-finite number, a constructor's own rejection, and faults
nested inside ``prefixed.tail`` and inside ``marginal_tables[i].cells[j]``.
"""

import pytest

from cylmeasure import jsonio
from cylmeasure.errors import InputError

INF = float("inf")
DECAY_TAGS = "['constant', 'power', 'geometric', 'constant_plus_power', 'prefixed', 'tabulated']"
ONE = {"gaussian": {"rho": 1.0}}
CELL = {"boxes": [[[0.0, 1.0]]], "p": 1.0}

ERRORS = {
    "decay": [
        ("wrong-type", ["constant"], "doc: expected an object, got list"),
        ("wrong-type-body", {"power": [1.0, 2.0]}, "doc.power: expected an object, got list"),
        ("two-variants", {"constant": {"rho": 1.0}, "power": {"c": 1.0, "p": 2.0}},
         f"doc: expected exactly one of {DECAY_TAGS}, got keys ['constant', 'power']"),
        ("unknown-key", {"power": {"c": 1.0, "p": 2.0, "q": 0.5}}, "doc.power.q: unknown key"),
        ("missing-key", {"geometric": {"c": 1.0}}, "doc.geometric.q: missing required key"),
        ("unknown-variant", {"exponential": {"rate": 1.0}},
         f"doc.exponential: unknown variant; expected one of {DECAY_TAGS}"),
        ("boolean", {"constant": {"rho": True}},
         "doc.constant.rho: value must be a finite number, got True"),
        ("non-finite", {"power": {"c": INF, "p": 2.0}},
         "doc.power.c: value must be a finite number, got inf"),
        ("string-number", {"constant": {"rho": "inf"}},
         "doc.constant.rho: value must be a finite number, got 'inf'"),
        ("null", {"constant": {"rho": None}},
         "doc.constant.rho: value must be a finite number, got None"),
        ("build-error", {"geometric": {"c": 1.0, "q": 1.5}},
         "doc.geometric: geometric class q must lie in (0, 1), got 1.5"),
        ("nested-tail-variant", {"prefixed": {"prefix": [1.0], "tail": {"nope": {}}}},
         f"doc.prefixed.tail.nope: unknown variant; expected one of {DECAY_TAGS}"),
        ("nested-tail-key", {"prefixed": {"prefix": [1.0], "tail": {"power": {"c": 1.0}}}},
         "doc.prefixed.tail.power.p: missing required key"),
        ("nested-tail-number",
         {"prefixed": {"prefix": [1.0], "tail": {"power": {"c": 1.0, "p": False}}}},
         "doc.prefixed.tail.power.p: value must be a finite number, got False"),
        ("nested-tail-type", {"prefixed": {"prefix": [1.0], "tail": [1.0]}},
         "doc.prefixed.tail: expected an object, got list"),
        ("nested-prefix-item",
         {"prefixed": {"prefix": [1.0, "x"], "tail": {"constant": {"rho": 1.0}}}},
         "doc.prefixed.prefix[1]: value must be a finite number, got 'x'"),
        ("nested-prefixed-tail",
         {"prefixed": {"prefix": [1.0],
                       "tail": {"prefixed": {"prefix": [1.0], "tail": {"constant": {"rho": 1}}}}}},
         "doc.prefixed: prefixed tail must be a closed-form decay class"),
        ("tabulated-values-type", {"tabulated": {"values": {"a": 1}}},
         "doc.tabulated.values: expected an array, got dict"),
    ],
    "component": [
        ("wrong-type", 3.0, "doc: expected an object, got float"),
        ("unknown-key", {"gaussian": {"rho": 1.0, "mu": 0.0}}, "doc.gaussian.mu: unknown key"),
        ("missing-key", {"uniform": {"a": 0.0}}, "doc.uniform.b: missing required key"),
        ("unknown-variant", {"cauchy": {"gamma": 1.0}},
         "doc.cauchy: unknown variant; expected one of ['gaussian', 'uniform', 'point_mass']"),
        ("boolean", {"point_mass": {"c": False}},
         "doc.point_mass.c: value must be a finite number, got False"),
        ("non-finite", {"gaussian": {"rho": -INF}},
         "doc.gaussian.rho: value must be a finite number, got -inf"),
        ("build-error", {"uniform": {"a": 1.0, "b": 0.0}},
         "doc.uniform: uniform component needs finite a < b, got [1.0, 0.0]"),
    ],
    "measure_rule": [
        ("wrong-type", "identical", "doc: expected an object, got str"),
        ("unknown-key", {"indexed": {"map": {}, "default": ONE, "extra": 1}},
         "doc.indexed.extra: unknown key"),
        ("missing-key", {"indexed": {"map": {}}}, "doc.indexed.default: missing required key"),
        ("unknown-variant", {"mixture": {}},
         "doc.mixture: unknown variant; expected one of ['identical', 'indexed']"),
        ("nested-component", {"identical": {"gaussian": {"rho": True}}},
         "doc.identical.gaussian.rho: value must be a finite number, got True"),
        ("map-type", {"indexed": {"map": [], "default": ONE}},
         "doc.indexed.map: expected an object, got list"),
        ("map-key", {"indexed": {"map": {"x": ONE}, "default": ONE}},
         "doc.indexed.map.x: index keys must be integers"),
        ("map-key-digit-separator", {"indexed": {"map": {"1_0": ONE}, "default": ONE}},
         "doc.indexed.map.1_0: index keys must be integers"),
        ("map-key-sign", {"indexed": {"map": {"+1": ONE}, "default": ONE}},
         "doc.indexed.map.+1: index keys must be integers"),
        ("map-key-non-ascii-digit", {"indexed": {"map": {"\u0661": ONE}, "default": ONE}},
         "doc.indexed.map.\u0661: index keys must be integers"),
        ("map-key-repeated-index", {"indexed": {"map": {"1": ONE, "01": ONE}, "default": ONE}},
         "doc.indexed.map.01: repeats index 1, already named by key '1'"),
        ("map-natural", {"indexed": {"map": {"0": ONE}, "default": ONE}},
         "doc.indexed.map.0: value must be >= 1, got 0"),
        ("map-value", {"indexed": {"map": {"2": {"gaussian": {"sigma": 1.0}}}, "default": ONE}},
         "doc.indexed.map.2.gaussian.sigma: unknown key"),
        ("non-finite", {"identical": {"uniform": {"a": 0.0, "b": INF}}},
         "doc.identical.uniform.b: value must be a finite number, got inf"),
    ],
    "cylinder": [
        ("wrong-type", [1, 2], "doc: expected an object, got list"),
        ("unknown-key", {"base": [], "extra": 0}, "doc.extra: unknown key"),
        ("missing-key", {}, "doc.base: missing required key"),
        ("base-type", {"base": {"index": 1}}, "doc.base: expected an array, got dict"),
        ("item-unknown-key", {"base": [{"index": 1, "boxes": [], "x": 1}]},
         "doc.base[0].x: unknown key"),
        ("item-missing-key", {"base": [{"boxes": []}]},
         "doc.base[0].index: missing required key"),
        ("natural", {"base": [{"index": True, "boxes": []}]},
         "doc.base[0].index: value must be an integer, got True"),
        ("arity", {"base": [{"index": 1, "boxes": [[0.0]]}]},
         "doc.base[0].boxes[0]: expected an array of 2 items, got 1"),
        ("arity-3", {"base": [{"index": 1, "boxes": [[0.0, 1.0, 2.0]]}]},
         "doc.base[0].boxes[0]: expected an array of 2 items, got 3"),
        ("end-string", {"base": [{"index": 1, "boxes": [["-inf", "big"]]}]},
         "doc.base[0].boxes[0][1]: value must be a finite number, got 'big'"),
        ("end-boolean", {"base": [{"index": 1, "boxes": [[False, 1.0]]}]},
         "doc.base[0].boxes[0][0]: value must be a finite number, got False"),
        ("end-non-finite", {"base": [{"index": 1, "boxes": [[0.0, INF]]}]},
         "doc.base[0].boxes[0][1]: value must be a finite number, got inf"),
        ("box-type", {"base": [{"index": 1, "boxes": [{"a": 0}]}]},
         "doc.base[0].boxes[0]: expected an array, got dict"),
    ],
    "finite_sequence": [
        ("wrong-type", [[1, 1.0]], "doc: expected an object, got list"),
        ("unknown-key", {"entries": [], "length": 3}, "doc.length: unknown key"),
        ("missing-key", {}, "doc.entries: missing required key"),
        ("entries-type", {"entries": "e1"}, "doc.entries: expected an array, got str"),
        ("arity", {"entries": [[1]]}, "doc.entries[0]: expected an array of 2 items, got 1"),
        ("arity-3", {"entries": [[1, 1.0, 2.0]]},
         "doc.entries[0]: expected an array of 2 items, got 3"),
        ("pair-type", {"entries": [{"1": 1.0}]}, "doc.entries[0]: expected an array, got dict"),
        ("natural", {"entries": [[0, 1.0]]}, "doc.entries[0][0]: value must be >= 1, got 0"),
        ("natural-float", {"entries": [[1.0, 1.0]]},
         "doc.entries[0][0]: value must be an integer, got 1.0"),
        ("boolean", {"entries": [[1, True]]},
         "doc.entries[0][1]: value must be a finite number, got True"),
        ("non-finite", {"entries": [[2, 1.0], [3, -INF]]},
         "doc.entries[1][1]: value must be a finite number, got -inf"),
        ("build-error", {"entries": [[1, 1.0], [1, 2.0]]}, "doc: duplicate sequence index 1"),
    ],
    "kernel": [
        ("wrong-type", None, "doc: expected an object, got NoneType"),
        ("unknown-key", {"white_noise": {"sigma": 1.0, "mu": 1.0}},
         "doc.white_noise.mu: unknown key"),
        ("missing-key", {"massive_free_1d": {}}, "doc.massive_free_1d.m: missing required key"),
        ("unknown-variant", {"matern": {"nu": 1.5}},
         "doc.matern: unknown variant; expected one of "
         "['white_noise', 'massive_free_1d', 'tabulated']"),
        ("boolean", {"massive_free_1d": {"m": True}},
         "doc.massive_free_1d.m: value must be a finite number, got True"),
        ("non-finite", {"white_noise": {"sigma": INF}},
         "doc.white_noise.sigma: value must be a finite number, got inf"),
        ("grid-item", {"tabulated": {"grid": [0.0, "x"], "values": [1.0, 1.0]}},
         "doc.tabulated.grid[1]: value must be a finite number, got 'x'"),
        ("values-type", {"tabulated": {"grid": [0.0, 1.0], "values": 1.0}},
         "doc.tabulated.values: expected an array, got float"),
    ],
    "grid_function": [
        ("wrong-type", "grid", "doc: expected an object, got str"),
        ("unknown-key", {"x0": 0.0, "dx": 0.1, "count": 2, "values": [1.0, 2.0], "y0": 1},
         "doc.y0: unknown key"),
        ("missing-key", {"x0": 0.0, "dx": 0.1, "values": [1.0, 2.0]},
         "doc.count: missing required key"),
        ("natural", {"x0": 0.0, "dx": 0.1, "count": 0, "values": []},
         "doc.count: value must be >= 1, got 0"),
        ("boolean", {"x0": False, "dx": 0.1, "count": 1, "values": [1.0]},
         "doc.x0: value must be a finite number, got False"),
        ("non-finite", {"x0": 0.0, "dx": INF, "count": 1, "values": [1.0]},
         "doc.dx: value must be a finite number, got inf"),
        ("values-item", {"x0": 0.0, "dx": 0.1, "count": 2, "values": [1.0, None]},
         "doc.values[1]: value must be a finite number, got None"),
    ],
    "tail_rule": [
        ("wrong-type", ["full"], "doc: expected an object, got list"),
        ("unknown-key", {"full": {"n": 1}}, "doc.full.n: unknown key"),
        ("missing-key", {"one_minus_geometric": {"q": 0.5}},
         "doc.one_minus_geometric.c: missing required key"),
        ("unknown-variant", {"partial": {}},
         "doc.partial: unknown variant; expected one of "
         "['full', 'constant_factor', 'one_minus_geometric', 'tabulated']"),
        ("boolean", {"constant_factor": {"f": True}},
         "doc.constant_factor.f: value must be a finite number, got True"),
        ("non-finite", {"constant_factor": {"f": INF}},
         "doc.constant_factor.f: value must be a finite number, got inf"),
        ("factors-item", {"tabulated": {"factors": [0.5, "half"]}},
         "doc.tabulated.factors[1]: value must be a finite number, got 'half'"),
        ("build-error", {"constant_factor": {"f": 1.5}},
         "doc.constant_factor: factor probability must lie in [0, 1], got 1.5"),
    ],
    "marginal_tables": [
        ("wrong-type", {"indices": [1]}, "doc: expected an array, got dict"),
        ("item-type", [[1, 2]], "doc[0]: expected an object, got list"),
        ("unknown-key", [{"indices": [1], "cells": [], "total": 1}], "doc[0].total: unknown key"),
        ("missing-key", [{"indices": [1]}], "doc[0].cells: missing required key"),
        ("indices-natural", [{"indices": [1, -2], "cells": []}],
         "doc[0].indices[1]: value must be >= 1, got -2"),
        ("empty-indices", [{"indices": [], "cells": []}],
         "doc[0]: marginal table needs at least one index"),
        ("cell-unknown-key", [{"indices": [1], "cells": [{**CELL, "q": 0}]}],
         "doc[0].cells[0].q: unknown key"),
        ("cell-missing-key", [{"indices": [1], "cells": [{"boxes": [[[0.0, 1.0]]]}]}],
         "doc[0].cells[0].p: missing required key"),
        ("cell-boolean", [{"indices": [1], "cells": [{**CELL, "p": True}]}],
         "doc[0].cells[0].p: value must be a finite number, got True"),
        ("cell-non-finite", [{"indices": [1], "cells": [CELL, {**CELL, "p": INF}]}],
         "doc[0].cells[1].p: value must be a finite number, got inf"),
        ("cell-negative-p", [{"indices": [1], "cells": [CELL, {**CELL, "p": -0.5}]}],
         "doc[0]: cell 1 probability must lie in [0, 1], got -0.5"),
        ("cell-p-above-one", [{"indices": [1], "cells": [{**CELL, "p": 1.5}]}],
         "doc[0]: cell 0 probability must lie in [0, 1], got 1.5"),
        ("cell-arity",
         [{"indices": [1], "cells": [CELL]},
          {"indices": [1, 2], "cells": [{"boxes": [[[0.0, 1.0]], [[0.0]]], "p": 1.0}]}],
         "doc[1].cells[0].boxes[1][0]: expected an array of 2 items, got 1"),
        ("cell-box-count",
         [{"indices": [1, 2],
           "cells": [{"boxes": [[[0.0, 1.0]], [[0.0, 1.0]]], "p": 0.5},
                     {"boxes": [[[0.0, 1.0]]], "p": 0.5}]}],
         "doc[0]: cell 1 arity 1 does not match index set (1, 2)"),
        ("cell-end", [{"indices": [1], "cells": [{"boxes": [[[0.0, "x"]]], "p": 1.0}]}],
         "doc[0].cells[0].boxes[0][0][1]: value must be a finite number, got 'x'"),
        ("cell-type", [{"indices": [1], "cells": [[0.5]]}],
         "doc[0].cells[0]: expected an object, got list"),
    ],
    "numbers": [
        ("wrong-type", {"x": 1.0}, "doc: expected an array, got dict"),
        ("wrong-type-string", "1.0", "doc: expected an array, got str"),
        ("item-type", [1.0, [2.0]], "doc[1]: value must be a finite number, got [2.0]"),
        ("boolean", [1.0, 2.0, True], "doc[2]: value must be a finite number, got True"),
        ("non-finite", [INF], "doc[0]: value must be a finite number, got inf"),
        ("string", ["inf"], "doc[0]: value must be a finite number, got 'inf'"),
    ],
    # a finite_sequence when the object has "entries", a decay otherwise
    "shift": [
        ("wrong-type", [[1, 1.0]], "doc: expected an object, got list"),
        ("entries-and-a-decay", {"entries": [], "constant": {"rho": 1.0}},
         "doc.constant: unknown key"),
        ("entries-index", {"entries": [[0, 1.0]]},
         "doc.entries[0][0]: value must be >= 1, got 0"),
        ("non-finite", {"entries": [[1, INF]]},
         "doc.entries[0][1]: value must be a finite number, got inf"),
        ("decay-non-finite", {"power": {"c": INF, "p": 1.0}},
         "doc.power.c: value must be a finite number, got inf"),
        ("unknown-variant", {"entry": []},
         f"doc.entry: unknown variant; expected one of {DECAY_TAGS}"),
    ],
}


def test_every_kind_has_error_cases():
    assert sorted(ERRORS) == sorted(jsonio.SCHEMA)
    for kind, cases in ERRORS.items():
        names = {name for name, _, _ in cases}
        assert "wrong-type" in names and any("non-finite" in name for name in names), kind


@pytest.mark.parametrize("kind", sorted(ERRORS))
def test_error_messages_are_pinned(kind):
    wrong = {}
    for name, doc, message in ERRORS[kind]:
        try:
            jsonio.decode(kind, doc, "doc")
        except InputError as exc:
            if str(exc) != message:
                wrong[name] = str(exc)
        else:
            wrong[name] = "decoded without an error"
    assert wrong == {}
