"""The frozen-record contract of the package's 13 record classes."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from wy_stability.functional import constant_field, decompose_kernel
from wy_stability.gform import Direction, RicciEigs, g_quadratic
from wy_stability.harmonics import FieldCoeffs, build_basis
from wy_stability.models import (
    CurvatureData,
    check_deficit_conditions,
    deficit_ratio_certificate,
    negative_direction,
    negative_part_certificate,
)
from wy_stability.quad import build_grid

import reference

GRID = build_grid(9, 18)
BASIS = build_basis(GRID, 4)
EIGS = RicciEigs(np.array([1.0, 1.0, -2.0]))
DIRECTION = Direction(np.array([0.0, 0.0, 1.0]))
H = constant_field(GRID, -0.1)
CERT = deficit_ratio_certificate(1.0 / 3.0, 2.0, 1.0, 1.0)

# each record, its fields in order, and its keyword-only parameters
RECORDS = {
    "SphereGrid": (GRID, ("n_theta", "n_phi", "theta", "phi", "weights", "xyz", "sin_theta"), ()),
    "FieldCoeffs": (FieldCoeffs(1, np.arange(4.0)), ("L", "c"), ()),
    "HarmonicBasis": (
        BASIS, ("L", "grid", "legendre", "ang", "dang", "degrees", "orders", "eigenvalues", "slots"), (),
    ),
    "MeanCurvatureField": (H, ("grid", "samples", "h", "inf_h", "sup_h", "tag"), ()),
    "HessianPencil": (
        reference.assembled(BASIS, [H])[0],
        ("L", "kdiag", "degrees", "row_sets", "parts", "sups"),
        ("blocks", "member"),
    ),
    "KernelDecomposition": (decompose_kernel(BASIS, FieldCoeffs(4, np.arange(25.0))), ("a0", "a", "eta2"), ()),
    "RicciEigs": (EIGS, ("lam",), ()),
    "Direction": (DIRECTION, ("a",), ()),
    "GQuadratic": (
        g_quadratic(EIGS, DIRECTION, [0.0])[0], ("A", "D", "alpha", "beta_coef", "gamma_coef", "discriminant"), (),
    ),
    "CurvatureData": (CurvatureData(1.0, 6.0, 0.5), ("R", "ric_sq", "lapR"), ()),
    "Certificate": (
        negative_part_certificate(1.0 / 3.0, 2.0, 1.0, 1.0, 1.0),
        ("beta", "lambda1", "alpha", "inf_h0", "sup_h0", "delta", "theta"), (),
    ),
    "ConditionReport": (check_deficit_conditions(H, CERT), ("cond_a", "cond_b1", "cond_b2", "margins"), ()),
    "NegativeDirection": (
        negative_direction(BASIS, EIGS, 1.0 / 30.0, 1e-2, DIRECTION), ("eta", "f_value", "guaranteed", "note"), (),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_frozen_and_reads_as_its_fields(name):
    record, fields, keyword_only = RECORDS[name]
    cls = type(record)
    assert cls.__name__ == name
    for field in (*fields, *keyword_only, "unknown"):
        with pytest.raises(FrozenInstanceError):
            setattr(record, field, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, field)
    kwargs = {k: getattr(record, k) for k in (*fields, *keyword_only)}
    # the same field objects make an equal record
    again = cls(**kwargs)
    assert again == record and not again != record
    assert (again == object()) is False
    with pytest.raises(TypeError):
        cls(**{k: v for k, v in kwargs.items() if k != fields[0]})
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=None)
    assert repr(record) == f"{name}({', '.join(f'{k}={getattr(record, k)!r}' for k in fields)})"


def test_a_cached_property_still_caches():
    eigs = RicciEigs(np.array([0.7, 0.5, -1.2]))  # its checks read sum_sq
    assert vars(eigs)["sum_sq"] is eigs.sum_sq == float(eigs.lam @ eigs.lam)
    basis = build_basis(GRID, 4)
    assert "rad" not in vars(basis)
    assert basis.rad is basis.rad is vars(basis)["rad"]
    # a cached value is no field
    assert "rad" not in repr(basis) and "sum_sq" not in repr(eigs)


def test_records_compare_by_their_fields():
    a, b = g_quadratic(EIGS, DIRECTION, [0.0, 0.0])
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != g_quadratic(EIGS, DIRECTION, [0.01])[0]
    pencil = RECORDS["HessianPencil"][0]
    fields = RECORDS["HessianPencil"][1]
    # blocks and member are no fields: another builder and member leave the pencil equal
    other = type(pencil)(*(getattr(pencil, k) for k in fields), blocks=lambda i: None, member=1)
    assert other == pencil and repr(other) == repr(pencil)
