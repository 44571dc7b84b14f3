"""The immutable records: fields, validation, value equality, pickling."""

import copy
import math
import pickle

import pytest

from normapprox import (DEFAULT_PHI9, GRID_A, ApproxDescriptor, DomainError,
                        GridSpec, Phi9Coefficients, compute_error_report,
                        inverse_table, list_approximations, reconcile_phi9)
from normapprox.metrics import _ref_values

SMALL_GRID = GridSpec(0.0, 4.0, 0.5)


def _records():
    # not a registry row: those unpickle to themselves without passing _check
    return [DEFAULT_PHI9, GRID_A, compute_error_report(3, GRID_A), inverse_table()[1],
            reconcile_phi9(SMALL_GRID),
            ApproxDescriptor(1, "erf", math.inf, 1e-3, 1e-4, math.erf)]


def _ids(records):
    return [type(r).__name__ for r in records]


RECORDS = _records()


def test_every_record_type_is_covered():
    assert set(_ids(RECORDS)) == {"Phi9Coefficients", "GridSpec", "ErrorReport",
                                  "InverseRow", "ReconciliationReport",
                                  "ApproxDescriptor"}


@pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
def test_fields_cannot_be_set_or_deleted(record):
    field = type(record).__slots__[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
def test_pickle_and_deepcopy_round_trip(record):
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                  copy.copy(record)):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)


@pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
def test_record_never_equals_its_values_as_a_tuple(record):
    values = tuple(getattr(record, f) for f in type(record).__slots__)
    assert record != values and values != record
    assert type(record)(*values) == record


def test_equal_grids_hash_alike_and_share_one_oracle_fill():
    spec = GridSpec(0.0, 4.0, 0.01)
    assert spec == GRID_A and hash(spec) == hash(GRID_A) and spec is not GRID_A
    assert GridSpec(stop=4.0, step=0.01, start=0.0) == GRID_A
    assert GridSpec(0.0, 4.0, 0.02) != GRID_A
    assert _ref_values(spec) is _ref_values(GRID_A)


def test_repr_names_every_field():
    assert repr(SMALL_GRID) == "GridSpec(start=0.0, stop=4.0, step=0.5)"


def test_trailing_fields_take_their_defaults():
    assert Phi9Coefficients(DEFAULT_PHI9.k, "bare").notes == ""


@pytest.mark.parametrize("args, kwargs", [
    ((0.0, 4.0), {}),
    ((0.0, 4.0, 0.5, 1.0), {}),
    ((0.0, 4.0, 0.5), {"start": 0.0}),
    ((0.0, 4.0), {"stride": 0.5}),
], ids=["too-few", "too-many", "twice", "unknown"])
def test_wrong_fields_raise_type_error(args, kwargs):
    with pytest.raises(TypeError, match="GridSpec takes the fields start, stop, step"):
        GridSpec(*args, **kwargs)


@pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
def test_validation_runs_on_unpickling_and_copying(record, monkeypatch):
    data = pickle.dumps(record)

    def reject(self, *values):
        raise DomainError("checked")

    monkeypatch.setattr(type(record), "_check", reject)
    with pytest.raises(DomainError, match="checked"):
        pickle.loads(data)
    with pytest.raises(DomainError, match="checked"):
        copy.deepcopy(record)


def test_validation_converts_on_unpickling():
    clone = pickle.loads(pickle.dumps(GridSpec(0, 4, 1)))
    assert repr(clone.start) == "0.0"
    # the pickle of SMALL_GRID with the sign bit of its step (0.5) set
    tampered = pickle.dumps(SMALL_GRID).replace(b"G?\xe0", b"G\xbf\xe0")
    with pytest.raises(DomainError, match="step must be positive"):
        pickle.loads(tampered)


@pytest.mark.parametrize("d", list_approximations(), ids=lambda d: f"phi{d.index}")
def test_registry_rows_deepcopy_to_equal_rows(d):
    # a registry row copies to itself, so the copy holds the same exponent
    clone = copy.deepcopy(d)
    assert clone == d and clone.y is d.y


def test_registry_rows_unpickle_to_themselves():
    # each exponent is a lambda, so a row pickles as a reference to the registry
    rows = list_approximations()
    for d in rows:
        assert pickle.loads(pickle.dumps(d)) is d
    clone = pickle.loads(pickle.dumps(rows))
    assert clone == rows and all(c is d for c, d in zip(clone, rows))
