"""JSON serialization for exact scalars, matrices, modules and elements.

Exact scalars travel as strings so that rationals survive JSON unharmed:
"3/4" or "5" for rationals, "r mod p" for prime-field residues.  Truncated
polynomials are coefficient arrays in ascending degree.
"""
from __future__ import annotations

from fractions import Fraction

from .fields import QQ, GF, FpElement, PrimeField, RationalField
from .linalg import mat_eq
from .sntmodule import SntModule, standard_module


def field_to_json(field):
    if isinstance(field, RationalField):
        return {"type": "Q"}
    if isinstance(field, PrimeField):
        return {"type": "GF", "p": field.p}
    raise TypeError("unknown field %r" % (field,))


def field_from_json(obj):
    if not isinstance(obj, dict):
        raise ValueError("field descriptor must be an object, got %r" % (obj,))
    if obj.get("type") == "Q":
        return QQ
    if obj.get("type") == "GF":
        return GF(int(obj["p"]))
    raise ValueError("unknown field descriptor %r" % (obj,))


def scalar_to_str(x):
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else \
            "%d/%d" % (x.numerator, x.denominator)
    if isinstance(x, FpElement):
        return "%d mod %d" % (x.v, x.p)
    if isinstance(x, int):
        return str(x)
    raise TypeError("not an exact scalar: %r" % (x,))


def scalar_from_str(field, s):
    s = str(s).strip()
    if " mod " in s:
        r, p = s.split(" mod ")
        if not isinstance(field, PrimeField) or field.p != int(p):
            raise ValueError("residue %r does not live in %r" % (s, field))
        return field(int(r))
    if "/" in s:
        num, den = s.split("/")
        if not field(int(den)):
            raise ValueError("zero denominator in scalar %r" % s)
        if isinstance(field, PrimeField):
            return field(int(num)) / field(int(den))
        return Fraction(int(num), int(den))
    return field(int(s))


def matrix_to_json(A):
    return [[scalar_to_str(x) for x in row] for row in A]


def matrix_from_json(field, rows):
    """The matrix of a JSON list of rows, each a list of exact scalars;
    ValueError for any other JSON value, such as an object or a string."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError("a matrix must be a JSON list of lists, got %.40r"
                         % (rows,))
    return [[scalar_from_str(field, x) for x in row] for row in rows]


def tpoly_to_json(p):
    return [scalar_to_str(c) for c in p.coeffs]


def module_to_json(M, meta=None):
    out = {
        "field": field_to_json(M.field),
        "dim": M.dim,
        "t_action": matrix_to_json(M.t),
        "gram": matrix_to_json(M.gram),
    }
    if M.partition is not None:
        out["partition"] = list(M.partition)
    if meta:
        out["meta"] = meta
    return out


def _partition_from_json(val):
    """A partition claim as a tuple: it must be a JSON list of integers
    (booleans are not integers here)."""
    if type(val) is not list or any(type(k) is not int for k in val):
        raise ValueError("partition must be a list of integers, got %r" % (val,))
    return tuple(val)


def module_from_json(obj):
    field = field_from_json(obj["field"])
    T = matrix_from_json(field, obj["t_action"])
    G = matrix_from_json(field, obj["gram"])
    if not T:
        raise ValueError("a module must have positive dimension")
    if "dim" in obj and (type(obj["dim"]) is not int or obj["dim"] != len(T)):
        raise ValueError("dim %r is not the size %d of t_action"
                         % (obj["dim"], len(T)))
    part = None
    if "partition" in obj:
        # a claimed partition must give exactly the standard module's matrices
        part = _partition_from_json(obj["partition"])
        std = standard_module(field, part) if part and min(part) >= 1 \
            and 2 * sum(part) == len(T) else None
        if std is None or not (mat_eq(T, std.t) and mat_eq(G, std.gram)):
            raise ValueError("t_action and gram are not those of the standard "
                             "module of partition %r" % (list(part),))
    return SntModule(field, T, G, partition=part)


def tensor_element_to_json(x):
    sp = x.space
    return {
        "field": field_to_json(sp.field),
        "partition": list(sp.ks),
        "v_gram": matrix_to_json(sp.V.gram),
        "coords": matrix_to_json(x.coords),
    }


def tensor_element_from_json(obj):
    from .orbits import OrthSpace, TensorSpace
    field = field_from_json(obj["field"])
    V = OrthSpace(field, matrix_from_json(field, obj["v_gram"]))
    sp = TensorSpace(field, _partition_from_json(obj["partition"]), V)
    return sp.element(matrix_from_json(field, obj["coords"]))
