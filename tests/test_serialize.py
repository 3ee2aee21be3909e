"""Wire formats: scalar strings, matrices, modules, tensor elements."""
import json
import os

import pytest

from sntmod import linalg as la
from sntmod.fields import QQ, GF
from sntmod.serialize import (field_from_json, field_to_json,
                              matrix_from_json, matrix_to_json,
                              module_from_json, module_to_json,
                              scalar_from_str, scalar_to_str,
                              tensor_element_from_json,
                              tensor_element_to_json, tpoly_to_json)
from sntmod.sntmodule import standard_module
from sntmod.tpoly import TruncPoly, tp


def tpoly_from_json(field, coeffs, K):
    return TruncPoly(field, [scalar_from_str(field, c) for c in coeffs], K)


F5 = GF(5)


def test_scalar_strings():
    assert scalar_to_str(QQ(3, 4)) == "3/4"
    assert scalar_to_str(QQ(5)) == "5"
    assert scalar_to_str(F5(3)) == "3 mod 5"
    assert scalar_from_str(QQ, "3/4") == QQ(3, 4)
    assert scalar_from_str(QQ, "-7") == QQ(-7)
    assert scalar_from_str(F5, "3 mod 5") == F5(3)
    with pytest.raises(ValueError):
        scalar_from_str(F5, "3 mod 7")


def test_field_roundtrip():
    assert field_from_json(field_to_json(QQ)) == QQ
    assert field_from_json(field_to_json(F5)) == F5


def test_matrix_roundtrip():
    A = [[QQ(1, 2), QQ(-3)], [QQ(0), QQ(7, 5)]]
    assert matrix_from_json(QQ, json.loads(json.dumps(matrix_to_json(A)))) == A


def test_tpoly_roundtrip():
    p = tp(F5, 3, 1, 2, 4)
    assert tpoly_from_json(F5, tpoly_to_json(p), 3) == p


def test_module_roundtrip():
    M = standard_module(QQ, (2, 1))
    M2 = module_from_json(json.loads(json.dumps(module_to_json(M))))
    assert la.mat_eq(M2.t, M.t) and la.mat_eq(M2.gram, M.gram)
    assert M2.partition == (2, 1)
    assert M2.validate() == []


def test_module_partition_claim_is_verified():
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                        "basechange_module.json")
    with open(path) as fh:
        obj = json.load(fh)
    assert module_from_json(obj).partition is None
    for claim in ([3, 1], [1, 1, 1, 1], [4], [], [5, -1]):
        obj["partition"] = claim
        with pytest.raises(ValueError):
            module_from_json(obj)
    # on a standard module, claims that only int() would turn into (2, 1),
    # and a dim that is not the size of t_action
    with open(os.path.join(os.path.dirname(path), "h2h1_module.json")) as fh:
        obj = json.load(fh)
    assert module_from_json(obj).partition == (2, 1)
    for key, claim in [("partition", "21"), ("partition", [2.9, 1]),
                       ("partition", [2, True]), ("partition", (2, 1)),
                       ("dim", 99), ("dim", 6.0), ("dim", "6"), ("dim", None)]:
        bad = dict(obj, **{key: claim})
        with pytest.raises(ValueError):
            module_from_json(bad)


def test_tensor_element_roundtrip():
    from sntmod.orbits import OrthSpace, TensorSpace
    V = OrthSpace(F5, [[F5(1), F5(0)], [F5(0), F5(2)]])
    sp = TensorSpace(F5, (2,), V)
    x = sp.element([[F5(1), F5(2)], [F5(0), F5(4)]])
    y = tensor_element_from_json(json.loads(json.dumps(tensor_element_to_json(x))))
    assert la.mat_eq(y.coords, x.coords)
    assert y.space.ks == (2,)
