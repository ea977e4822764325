"""Every input passes one named domain rule: the float fields of the input
dataclasses, and the public scalar entry points, refuse what is not a
finite real number in their domain with an eelink.errors type."""

import dataclasses
import math
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eelink import (
    DomainError,
    QosSpec,
    SimConfig,
    SystemParams,
    analyze,
    db_to_linear,
    dbm_to_watt,
    default_params,
    delay_outage_estimate,
    ee_trend,
    effective_capacity,
    energy_efficiency,
    find_theta_threshold,
    integrate,
    invert_effective_capacity,
    log_service_mgf,
    mean_service_rate,
    path_loss_db,
    pdf,
    service_mgf,
    sweep,
    tail_probability,
    upper_incomplete_gamma,
)

LINK = default_params()

# A valid instance of each input dataclass, as keyword arguments. The link
# takes a path loss, except where distance_km is the field under test.
BASES = {
    SystemParams: dict(
        slot_duration=1e-3, bandwidth=180e3, noise_density=4e-21, tx_power=20.0,
        circuit_power=0.1, idle_power=0.0, fading_m=2.0, distance_km=None, path_loss=1e13,
    ),
    QosSpec: dict(theta=1e-4),
    SimConfig: dict(
        params=LINK, arrival_rate=1e5, gamma0=0.5, num_slots=100, seed=1, delay_bound=0.01,
    ),
}


def float_fields(cls):
    # The fields annotated float or float | None, read from the resolved
    # annotations, not from their strings.
    hints = typing.get_type_hints(cls)
    return [
        f.name for f in dataclasses.fields(cls)
        if hints[f.name] is float or float in typing.get_args(hints[f.name])
    ]


FLOAT_FIELDS = [(cls, name) for cls in BASES for name in float_fields(cls)]


def build(cls, field, value):
    kwargs = {**BASES[cls], field: value}
    if field == "distance_km":
        kwargs["path_loss"] = None  # a link takes one of the two
    return cls(**kwargs)


def test_every_input_dataclass_has_float_fields():
    assert {cls for cls, _ in FLOAT_FIELDS} == set(BASES)


@pytest.mark.parametrize("cls, field", FLOAT_FIELDS, ids=lambda x: getattr(x, "__name__", x))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1", True])
def test_float_field_refuses_what_is_not_finite_and_real(cls, field, value):
    # A new float field without a rule of its own fails here.
    with pytest.raises(DomainError, match=rf"^{field} must "):
        build(cls, field, value)


@pytest.mark.parametrize("cls, field", FLOAT_FIELDS, ids=lambda x: getattr(x, "__name__", x))
def test_float_field_stores_a_python_float(cls, field):
    # A numpy float32 kept as given would pull the arithmetic down to float32.
    good = BASES[cls][field]
    value = np.float32(1.0 if good is None else good)
    assert type(getattr(build(cls, field, value), field)) is float


@pytest.mark.parametrize("message, call", [
    ("x_dbm must be a real number", lambda: dbm_to_watt("x")),
    ("x_db must be a real number", lambda: db_to_linear("3")),
    ("distance_km must be a real number", lambda: path_loss_db("1")),
    ("passes the float range", lambda: dbm_to_watt(1e5)),
    ("passes the float range", lambda: db_to_linear(1e4)),
    ("x_dbm must be finite", lambda: dbm_to_watt(math.nan)),
    ("x_db must be finite", lambda: db_to_linear(math.nan)),
    ("distance_km must be finite", lambda: path_loss_db(math.nan)),
    ("distance_km must be finite", lambda: path_loss_db(math.inf)),
    ("distance_km must be positive, got 0.0", lambda: path_loss_db(0.0)),
    ("need a finite order", lambda: upper_incomplete_gamma("1", 1.0)),
    ("need a finite order", lambda: upper_incomplete_gamma(1.0, 1j)),
    ("lo must be a real number", lambda: integrate(np.exp, "0")),
    ("theta_lo must be a real number", lambda: find_theta_threshold(LINK, "1e-5", 1e-2)),
    ("theta_hi must be a real number", lambda: find_theta_threshold(LINK, 1e-5, None)),
], ids=lambda x: x if isinstance(x, str) else None)
def test_scalar_helper_refusal(message, call):
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.parametrize("x", [-300.0, -174.0, 0.0, 43.0, 1e-3, 3000.0])
def test_dbm_to_watt_keeps_its_expression(x):
    assert dbm_to_watt(x) == 10.0 ** ((x - 30.0) / 10.0)
    assert db_to_linear(x) == 10.0 ** (x / 10.0)


def _decay(g):
    return np.exp(-g)


# Each public scalar entry point, with valid arguments that the property
# replaces one or more of.
ENTRY_POINTS = {
    "dbm_to_watt": (dbm_to_watt, (43.0,)),
    "db_to_linear": (db_to_linear, (3.0,)),
    "path_loss_db": (path_loss_db, (1.0,)),
    "upper_incomplete_gamma": (upper_incomplete_gamma, (1.5, 1.0)),
    "integrate": (lambda lo: integrate(_decay, lo), (0.0,)),
    "tail_probability": (lambda g: tail_probability(LINK, g), (0.5,)),
    "pdf": (lambda g: pdf(LINK, g), (0.5,)),
    "effective_capacity": (lambda t, g: effective_capacity(LINK, QosSpec(t), g), (1e-4, 0.5)),
    "energy_efficiency": (lambda t, g: energy_efficiency(LINK, QosSpec(t), g), (1e-4, 0.5)),
    "ee_trend": (lambda t, g: ee_trend(LINK, QosSpec(t), g), (1e-4, 0.5)),
    "service_mgf": (lambda t, g: service_mgf(LINK, QosSpec(t), g), (1e-4, 0.5)),
    "log_service_mgf": (lambda t, g: log_service_mgf(LINK, QosSpec(t), g), (1e-4, 0.5)),
    "analyze": (lambda t, g: analyze(LINK, QosSpec(t), g), (1e-4, 0.5)),
    "mean_service_rate": (lambda g: mean_service_rate(LINK, g), (0.5,)),
    "invert_effective_capacity": (
        lambda mu: invert_effective_capacity(LINK, QosSpec(1e-4), mu), (3e5,)
    ),
    "delay_outage_estimate": (delay_outage_estimate, (0.5, 100.0, 0.01)),
    "sweep": (lambda lo, hi: sweep(LINK, [1e-4], (lo, hi), "EE", 3), (0.0, 1.0)),
    "find_theta_threshold": (lambda lo, hi: find_theta_threshold(LINK, lo, hi), (1e-5, 1e-2)),
}
# What the property puts in an argument's place: not a real number, not
# finite, or an int past the float range.
BAD = ("1", None, True, 1j, math.nan, math.inf, -math.inf, 10**400, -(10**400))


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(ENTRY_POINTS)),
    picks=st.lists(st.integers(0, len(BAD)), min_size=3, max_size=3),
)
@example(name="dbm_to_watt", picks=[1, 0, 0])  # "1"
@example(name="db_to_linear", picks=[1, 0, 0])
@example(name="path_loss_db", picks=[1, 0, 0])
@example(name="dbm_to_watt", picks=[5, 0, 0])  # NaN
@example(name="db_to_linear", picks=[5, 0, 0])
@example(name="path_loss_db", picks=[5, 0, 0])
@example(name="path_loss_db", picks=[6, 0, 0])  # inf
@example(name="upper_incomplete_gamma", picks=[1, 0, 0])
@example(name="integrate", picks=[1, 0, 0])
@example(name="find_theta_threshold", picks=[1, 0, 0])
def test_only_typed_errors_escape(name, picks):
    # pick 0 keeps the valid argument, pick k puts BAD[k - 1] in its place.
    fn, good = ENTRY_POINTS[name]
    args = [BAD[k - 1] if k else value for value, k in zip(good, picks)]
    try:
        fn(*args)
    except Exception as exc:
        assert type(exc).__module__ == "eelink.errors", f"{name}{tuple(args)!r}: {exc!r}"
