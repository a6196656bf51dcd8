"""Every number a caller passes to the public API is used or rejected by name.

Each callable that ``modrotor/__init__.py`` exports has a row below: the
valid keyword arguments it is called with and which of them are numbers.
Each numeric argument is set in turn to every edge value, and an array
argument both as a whole and as the first entry of an otherwise valid
array. The call must return, or raise a ValueError naming the argument (or
the quantity the row derives from it) or a ModrotorError; never another
exception, and never a warning. A callable that checks its inputs must also
reject every value that is not a finite float. Record types the library
fills in itself (``checks=False``) take what they are given.

A row's key is an export, ``<export>.<method>`` or ``<export> sampler``
(the sampler the export returns). ``NO_NUMBERS`` lists the exports that
take no numbers; ``tests/test_public_api.py`` fails on an export in
neither place and on a row whose key names no export.
"""

import dataclasses
import functools
import inspect
import math
import re
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pytest

import modrotor
from conftest import make_flat
from modrotor import (
    BalanceReport, ControlOutput, Controller, Gains, ModrotorError, ModulePlacement, ModuleSpec,
    PropellerSpec, RigidState, RunResult, SimParams, StructureModel, TrajectorySample, Wrench,
    build_r_module, check_balanced, helix, hover, numerical_rank, rectangle, step,
)

EDGE_VALUES = {
    "zero": 0, "minus_one": -1, "inf": math.inf, "minus_inf": -math.inf, "nan": math.nan,
    "1e300": 1e300, "minus_1e300": -1e300, "int_10_400": 10**400, "minus_int_10_400": -10**400,
    "true": True, "float32": np.float32(0.25), "zero_d_array": np.array(0.25), "text": "a",
    "int_10_5000": 10**5000,
}
# Values no checking callable may accept: not finite, or not a float at all.
MUST_REJECT = {"inf", "minus_inf", "nan", "int_10_400", "minus_int_10_400", "int_10_5000",
               "text"}


@dataclass
class Row:
    call: Callable
    kwargs: Callable[[], dict]  # fresh valid keyword arguments
    scalars: tuple = ()
    arrays: tuple = ()
    derived: dict = field(default_factory=dict)  # argument -> quantity an error may name
    checks: bool = True
    extra: dict = field(default_factory=dict)  # argument -> more values to try
    use: Callable = None  # what a caller does next with the result


_structure = functools.cache(make_flat)  # structures are immutable


def _state():
    return RigidState(r=np.zeros(3), v=np.zeros(3), r_ws=np.eye(3), omega=np.zeros(3))


def _module_kwargs():
    m = build_r_module()
    return dict(mass=m.mass, inertia=m.inertia, base=m.base, height=m.height,
                propellers=m.propellers, tilt=m.tilt)


def _record_kwargs(record):
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _control_output():
    s = _structure()
    return Controller(s).step(_state(), hover((0.0, 0.0, 0.0))(0.0))


def _run_result():
    return modrotor.run_closed_loop(_structure(), hover((0.0, 0.0, 0.0)),
                                    params=SimParams(dt=0.01, duration=0.02))


ROWS = {
    "BalanceReport": Row(BalanceReport, lambda: _record_kwargs(check_balanced(build_r_module())),
                         ("thrust_gain", "is_balanced"),
                         ("torque_from_forces", "torque_from_drag", "total_force_axis"),
                         checks=False),
    "ControlOutput": Row(ControlOutput, lambda: _record_kwargs(_control_output()), ("saturated",),
                         ("u", "u_raw", "desired_attitude"), checks=False),
    "Controller": Row(Controller, lambda: dict(structure=_structure()), ("gravity",)),
    "Gains": Row(Gains, dict, arrays=("k_pos", "k_vel", "k_rot", "k_ang")),
    "ModulePlacement": Row(ModulePlacement, lambda: dict(module=build_r_module()),
                           ("yaw_quarter_turns",), ("grid_offset",),
                           extra={"yaw_quarter_turns": (1.0, np.float64(2.0), np.array([1, 2]),
                                                        np.array([1.0])),
                                  "grid_offset": ((1,), (1, 2, 3))},
                           use=lambda placement: modrotor.assemble([placement])),
    "ModuleSpec": Row(ModuleSpec, _module_kwargs, ("mass", "base", "height"), ("inertia", "tilt")),
    "PropellerSpec": Row(PropellerSpec, lambda: dict(position=[0.03, -0.03, 0.0],
                                                     orientation=np.eye(3), spin=1),
                         ("spin", "k_f", "k_m", "f_max"), ("position", "orientation")),
    "RigidState": Row(RigidState, lambda: _record_kwargs(_state()),
                      arrays=("r", "v", "r_ws", "omega")),
    "RunResult": Row(RunResult, lambda: _record_kwargs(_run_result()),
                     arrays=("t", "pos", "pos_des", "euler_f", "pos_err", "att_err", "u",
                             "saturated"), checks=False),
    "RunResult.max_pos_err": Row(lambda t_min: _run_result().max_pos_err(t_min),
                                 lambda: dict(t_min=0.0), ("t_min",)),
    "RunResult.rms_pos_err": Row(lambda t_min: _run_result().rms_pos_err(t_min),
                                 lambda: dict(t_min=0.0), ("t_min",)),
    "SimParams": Row(SimParams, dict, ("dt", "gravity", "duration")),
    "StructureModel": Row(StructureModel, lambda: _record_kwargs(_structure()), ("total_mass",
                          "rank_f"), ("inertia", "thrust_map", "r_sf", "force_sigmas", "f_max",
                                      "inertia_inv", "_force_axes"), checks=False),
    "TrajectorySample": Row(TrajectorySample, lambda: dict(t=0.0, r_d=np.zeros(3),
                                                           v_d=np.zeros(3), a_d=np.zeros(3)),
                            ("t",), ("r_d", "v_d", "a_d", "r_wf_d", "omega_d")),
    "Wrench": Row(Wrench, lambda: dict(force=np.zeros(3), torque=np.zeros(3)),
                  arrays=("force", "torque")),
    "build_r_module": Row(build_r_module, dict, ("mass", "base", "height", "alpha", "beta", "k_f",
                                                 "k_m", "f_max"), ("inertia",),
                          derived={"base": "inertia", "height": "inertia"}),
    "helix": Row(helix, lambda: dict(t=1.0), ("t",)),
    "hover": Row(hover, lambda: dict(r0=(0.0, 0.0, 1.0)), ("yaw0",), ("r0",)),
    "hover sampler": Row(lambda t: hover((0.0, 0.0, 1.0))(t), lambda: dict(t=1.0), ("t",)),
    "numerical_rank": Row(numerical_rank, lambda: dict(m=np.eye(3)), arrays=("m",)),
    "rectangle": Row(rectangle, dict, ("pitch_hold", "speed", "altitude"),
                     use=lambda sampler: sampler(1.0)),
    "rectangle sampler": Row(lambda t: rectangle()(t), lambda: dict(t=1.0), ("t",)),
    "step": Row(step, lambda: dict(structure=_structure(), state=_state(), u=np.full(4, 0.3),
                                   dt=0.01), ("dt", "gravity"), ("u",)),
}

# Exports that take no numbers: exception types, which take a message;
# config records and the parser, whose own contract is over config text
# (tests/test_cli.py); and calls that take only library objects.
NO_NUMBERS = {
    "AllocationError", "AssemblyError", "ConfigError", "ControlDegeneracyError",
    "IntegrationError", "ModrotorError", "SimulationError", "StructureConfig", "parse_config",
    "actuation_ellipsoid", "assemble", "check_balanced", "initial_state_from_sample",
    "run_closed_loop",
}


def _first_entry(valid, value):
    """``valid`` as nested lists with its first entry replaced by ``value``."""
    arr = np.array(valid, dtype=object)
    if arr.ndim == 0:
        return [value]
    arr.flat[0] = value
    return arr.tolist()


def _cases():
    for row_name, row in ROWS.items():
        for arg in row.scalars + row.arrays:
            values = {**EDGE_VALUES, **{repr(v): v for v in row.extra.get(arg, ())}}
            for value_name, value in values.items():
                forms = ("whole", "entry") if arg in row.arrays else ("whole",)
                for form in forms:
                    yield pytest.param(row_name, arg, value_name, value, form,
                                       id=f"{row_name}-{arg}-{value_name}-{form}")


def _array_default(row, arg):
    """A valid value of an array argument: the row's, else the signature's
    default, else (for defaults that are None or a factory) one given here."""
    kwargs = row.kwargs()
    if arg in kwargs:
        return kwargs[arg]
    given = {"r_wf_d": np.eye(3), "omega_d": np.zeros(3), "inertia": np.diag([2e-4, 2e-4, 3e-4])}
    return given.get(arg, inspect.signature(row.call).parameters[arg].default)


@pytest.mark.parametrize("row_name, arg, value_name, value, form", list(_cases()))
def test_every_numeric_argument_is_used_or_named(row_name, arg, value_name, value, form):
    row = ROWS[row_name]
    kwargs = row.kwargs()
    kwargs[arg] = value if form == "whole" else _first_entry(_array_default(row, arg), value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = row.call(**kwargs)
            if row.use is not None:
                row.use(result)
        except ModrotorError:
            return
        except ValueError as exc:
            names = (arg, row.derived.get(arg, arg))
            named = any(re.search(rf"(?<![\w.]){re.escape(n)}(?!\w)", str(exc)) for n in names)
            assert named, f"{row_name}({arg}={value_name}): ValueError names none of {names}: {exc}"
            return
    assert not (row.checks and value_name in MUST_REJECT), f"{row_name} accepted {arg}={value_name}"


# Scalars whose check moved into, or is now made only by, a public call:
# the tilt and inertia helpers folded into build_r_module, the lap time's
# speed check is rectangle's, and the gravity check accelerations dropped is
# step's. Each edge value is accepted or rejected with exactly
# "<argument> must be <bound>, got <value>", the message the helpers gave.
_BOUND_OF = {
    **dict.fromkeys((("build_r_module", arg) for arg in ("mass", "base", "height", "k_f",
                                                         "f_max")), "positive and finite"),
    ("build_r_module", "k_m"): "non-negative and finite",
    ("build_r_module", "alpha"): "within [-pi/2, pi/2]",
    ("build_r_module", "beta"): "within [-pi/2, pi/2]",
    ("rectangle", "speed"): "positive and finite",
    ("step", "gravity"): "finite",
}
_WITHIN = {
    "positive and finite": {"1e300", "true", "float32", "zero_d_array"},
    "non-negative and finite": {"zero", "1e300", "true", "float32", "zero_d_array"},
    "within [-pi/2, pi/2]": {"zero", "minus_one", "true", "float32", "zero_d_array"},
    "finite": {"zero", "minus_one", "1e300", "minus_1e300", "true", "float32", "zero_d_array"},
}
_SHOWN = {"zero": "0", "minus_one": "-1", "inf": "inf", "minus_inf": "-inf", "nan": "nan",
          "1e300": "1e+300", "minus_1e300": "-1e+300", "text": "'a'",
          **dict.fromkeys(("int_10_400", "minus_int_10_400", "int_10_5000"),
                          "an int beyond float range")}
# Values within the bound that a later rule of the same call rejects.
_LATER_RULE = {
    ("build_r_module", "base", "1e300"): r"inertia must be a finite array of shape \(3, 3\), got ",
    ("build_r_module", "height", "1e300"): r"inertia must be a finite array of shape \(3, 3\), got ",
    ("rectangle", "speed", "1e300"): r"speed must be below 1\.2 for the 0\.5 s corner blend, "
                                     r"got 1e\+300$",
}


@pytest.mark.parametrize("row_name, arg, value_name",
                         [(row_name, arg, value_name) for row_name, arg in _BOUND_OF
                          for value_name in EDGE_VALUES])
def test_moved_checks_keep_their_messages(row_name, arg, value_name):
    row, bound = ROWS[row_name], _BOUND_OF[row_name, arg]
    kwargs = row.kwargs()
    kwargs[arg] = EDGE_VALUES[value_name]
    later = _LATER_RULE.get((row_name, arg, value_name))
    if value_name in _WITHIN[bound] and later is None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = row.call(**kwargs)
            if row.use is not None:
                row.use(result)
        return
    message = later or re.escape(f"{arg} must be {bound}, got {_SHOWN[value_name]}") + "$"
    with pytest.raises(ValueError, match=f"^{message}"):
        row.call(**kwargs)


@pytest.mark.parametrize("turns, as_int", [(1.0, 1), (True, 1), (np.float64(2.0), 2),
                                           (np.array(3.0), 3)])
def test_quarter_turns_are_kept_as_ints(turns, as_int):
    # Stored as an int, so the placement assembles exactly as the int one does.
    placement = ModulePlacement(build_r_module(beta=0.3), yaw_quarter_turns=turns)
    assert type(placement.yaw_quarter_turns) is int and placement.yaw_quarter_turns == as_int
    other = ModulePlacement(build_r_module(alpha=0.3), (5, 5))
    reference = ModulePlacement(build_r_module(beta=0.3), yaw_quarter_turns=as_int)
    np.testing.assert_array_equal(modrotor.assemble([placement, other]).thrust_map,
                                  modrotor.assemble([reference, other]).thrust_map)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("turns", [np.array([1, 2]), np.array([1.0]), [1], 4, 1.5, -1e-300, "a"])
def test_quarter_turns_reject_all_but_0_to_3_by_name(turns):
    with pytest.raises(ValueError, match=r"^yaw_quarter_turns must be 0, 1, 2 or 3, got "):
        ModulePlacement(build_r_module(), yaw_quarter_turns=turns)


@pytest.mark.parametrize("spin, as_int", [(1.0, 1), (True, 1), (np.float64(-1.0), -1),
                                          (np.array(1.0), 1)])
def test_spin_is_kept_as_an_int(spin, as_int):
    # Like the quarter turns, a rotor's spin is stored as the int it equals.
    prop = PropellerSpec(position=[0.03, -0.03, 0.0], orientation=np.eye(3), spin=spin)
    assert type(prop.spin) is int and prop.spin == as_int


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spin", [np.array([1.0]), np.array([1, -1]), [1], 2, 0.5, -1e-300])
def test_spin_rejects_all_but_plus_or_minus_one_by_name(spin):
    with pytest.raises(ValueError, match=r"^spin must be \+1 or -1, got "):
        PropellerSpec(position=[0.03, -0.03, 0.0], orientation=np.eye(3), spin=spin)


def test_checked_numbers_are_kept_as_floats():
    # A caller's int, bool, numpy scalar or 0-d array becomes the float the
    # kernels read, so no later arithmetic sees another type.
    params = SimParams(dt=np.array(0.01), gravity=np.float32(9.5), duration=1)
    assert [type(x) for x in (params.dt, params.gravity, params.duration)] == [float] * 3
    module = build_r_module(mass=1, f_max=np.array(2.0))
    assert type(module.mass) is float and type(module.propellers[0].f_max) is float
    assert modrotor.assemble([ModulePlacement(module)]).f_max.dtype == np.float64
    assert type(helix(True).t) is float and type(rectangle()(np.float32(1.0)).t) is float
    assert rectangle(speed=np.array(0.25))(1.0).r_d == rectangle()(1.0).r_d


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("summary, field", [("rms_pos_err", "t"), ("max_pos_err", "t"),
                                            ("final_att_err", "att_err"),
                                            ("saturation_fraction", "saturated")])
def test_empty_run_result_summaries_name_the_empty_field(summary, field):
    # A caller-built result with no samples: a named ValueError, not an
    # IndexError or a "Mean of empty slice" warning and NaN.
    kwargs = _record_kwargs(_run_result())
    empty = RunResult(**{name: value[:0] if isinstance(value, np.ndarray) else value
                         for name, value in kwargs.items()})
    with pytest.raises(ValueError, match=rf"^{field} must be a non-empty array, got \[\]$"):
        getattr(empty, summary)()


@pytest.mark.parametrize("summary", ["rms_pos_err", "max_pos_err"])
@pytest.mark.parametrize("cut", ["t", "pos_err"])
def test_run_result_summaries_name_t_and_pos_err_of_different_lengths(summary, cut):
    # A caller-built result whose t and pos_err differ in length: a named
    # ValueError, not numpy's IndexError from the boolean mask.
    kwargs = _record_kwargs(_run_result())
    kwargs[cut] = kwargs[cut][:-1]
    shapes = f"{kwargs['t'].shape} and {kwargs['pos_err'].shape}"
    with pytest.raises(ValueError, match=rf"^t and pos_err must hold the same samples, "
                                         rf"got shapes {re.escape(shapes)}$"):
        getattr(RunResult(**kwargs), summary)()
