"""The twelve record classes are plain classes: each constructor keeps the
parameters, order, kinds and defaults it had as a dataclass; the four
frozen values compare and hash by their fields; and the five frozen
classes refuse assignment."""

import inspect

import numpy as np
import pytest

from mtcrit import bubble, criterion, domain, numerics, ode, profiles, variational
from mtcrit.domain import DomainModel, Shape
from mtcrit.perturbation import (AsymptoticData, FamilyKind, PerturbationFamily, PowerProfile,
                                 asymptotic_data)

REQUIRED = inspect.Parameter.empty
FRESH_DICT = "a new empty dict"  # the default of a dict field

# (class, [(parameter, default)]), recorded from the dataclasses' constructors
SIGNATURES = [
    (numerics.MinimizeResult,
     [("x", REQUIRED), ("fun", REQUIRED), ("nit", REQUIRED), ("nfev", REQUIRED),
      ("success", REQUIRED)]),
    (PerturbationFamily,
     [("kind", FamilyKind.ZERO), ("c", 0.0), ("a", 0.0), ("b", 0.0), ("c_prime", 0.0),
      ("a_prime", 0.0), ("b_prime", 0.0), ("R_prime", 10.0), ("g0", 0.0)]),
    (PowerProfile, [("kappa", REQUIRED)]),
    (AsymptoticData, [("A_pieces", REQUIRED), ("B_pieces", REQUIRED), ("kappa", REQUIRED)]),
    (DomainModel, [("shape", Shape.UNIT_DISK), ("width", 1.0), ("height", 1.0)]),
    (domain.RobinReport, [("M", REQUIRED), ("K", REQUIRED), ("S", REQUIRED)]),
    (ode.OdeResult,
     [("y", REQUIRED), ("nfev", REQUIRED), ("success", REQUIRED), ("message", REQUIRED)]),
    (profiles.RadialProfile,
     [("coefs", REQUIRED), ("starts", REQUIRED), ("A", REQUIRED), ("B", REQUIRED)]),
    (bubble.BubbleSolution,
     [("fam", REQUIRED), ("N", REQUIRED), ("gamma", REQUIRED), ("lam", REQUIRED),
      ("mu", REQUIRED), ("y_grid", REQUIRED), ("values", REQUIRED), ("derivs", REQUIRED)]),
    (bubble.ExpansionReport,
     [("gamma", REQUIRED), ("sup_normalized", REQUIRED), ("leading_sup", REQUIRED),
      ("r0_gap", REQUIRED), ("details", FRESH_DICT)]),
    (criterion.CriterionReport,
     [("M", REQUIRED), ("S", REQUIRED), ("lambda_g", REQUIRED), ("lambda_gap", REQUIRED),
      ("pi_e_level", REQUIRED), ("l_closed", REQUIRED), ("l_confidence", REQUIRED),
      ("verdict", REQUIRED), ("diagnostics", FRESH_DICT)]),
    (variational.ExtremalRun,
     [("alpha", REQUIRED), ("r", REQUIRED), ("u", REQUIRED), ("J_value", REQUIRED),
      ("gamma", REQUIRED), ("lam", REQUIRED), ("el_residual", REQUIRED),
      ("saturated", REQUIRED), ("iterations", 0), ("termination", "")]),
]


@pytest.mark.parametrize("cls,params", SIGNATURES, ids=[c.__name__ for c, _ in SIGNATURES])
def test_constructor_signature(cls, params):
    got = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in got] == [name for name, _ in params]
    assert {p.kind for p in got} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    for p, (name, default) in zip(got, params):
        if default is FRESH_DICT:
            assert p.default is not REQUIRED, name
            continue
        assert p.default == default and type(p.default) is type(default), name
    # a record built from its required parameters alone holds a dict of its
    # own in each dict field, and every other default as given
    required = [name for name, default in params if default is REQUIRED]
    first, second = cls(*range(len(required))), cls(*range(len(required)))
    for name, default in params:
        if default is FRESH_DICT:
            assert getattr(first, name) == {} and getattr(first, name) is not getattr(second, name)
        elif default is not REQUIRED:
            assert getattr(first, name) == default, name


@pytest.mark.parametrize("cls", [PerturbationFamily, DomainModel])
def test_field_table_is_the_constructor(cls):
    # from_json and the field checks read the class's (name, default) table
    params = inspect.signature(cls).parameters.values()
    assert list(cls._FIELDS) == [(p.name, p.default) for p in params]


POWER_LOG = dict(kind="PowerLog", c=0.3, a=0.5, b=1.0, c_prime=1.256171, a_prime=2.593292,
                 b_prime=0.682198, R_prime=4.0, g0=0.1)


def _equal_pairs():
    """Pairs of equal values, each side built on its own."""
    return [
        (PerturbationFamily(), PerturbationFamily(kind="Zero")),
        (PerturbationFamily(**POWER_LOG), PerturbationFamily(**dict(POWER_LOG, R_prime=4, b=1))),
        (DomainModel(), DomainModel(shape="UnitDisk", width=1, height=1.0)),
        (DomainModel("Rectangle", 2.0, 1.0), DomainModel(shape=Shape.RECTANGLE, width=2, height=1)),
        (PowerProfile(0.5), PowerProfile(0.5)),
        (asymptotic_data(PerturbationFamily(**POWER_LOG)),
         asymptotic_data(PerturbationFamily(**POWER_LOG))),
        (AsymptoticData(((1.0, 2.0, 0.5),), (), 1.0), AsymptoticData(((1.0, 2.0, 0.5),), (), 1.0)),
    ]


@pytest.mark.parametrize("pair", range(len(_equal_pairs())))
def test_equal_values_compare_equal_and_hash_alike(pair):
    x, y = _equal_pairs()[pair]
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


def test_values_that_differ_compare_unequal():
    assert PerturbationFamily(**POWER_LOG) != PerturbationFamily(**dict(POWER_LOG, g0=0.2))
    assert PerturbationFamily() != PerturbationFamily(**POWER_LOG)
    assert DomainModel("Rectangle", 2.0, 1.0) != DomainModel("Rectangle", 1.0, 2.0)
    assert DomainModel() != DomainModel("Rectangle", 1.0, 1.0)
    assert PowerProfile(0.5) != PowerProfile(1.0)
    assert AsymptoticData((), (), 1.0) != AsymptoticData((), (), 0.5)
    # a value of another class is never equal, even with the same fields
    assert PowerProfile(1.0) != AsymptoticData((), (), 1.0)
    assert PowerProfile(1.0) != 1.0 and PowerProfile(1.0) != (1.0,)
    assert DomainModel() != PerturbationFamily()


def _frozen_instances():
    fam = PerturbationFamily(**POWER_LOG)
    grid = np.linspace(0.0, 1.0, 4)
    return [
        (fam, "c", 0.0),
        (PowerProfile(0.5), "kappa", 1.0),
        (asymptotic_data(fam), "kappa", 0.25),
        (DomainModel("Rectangle", 2.0, 1.0), "width", 3.0),
        (bubble.BubbleSolution(fam, 1, 3.0, 1.0, 0.1, grid, grid, grid), "gamma", 4.0),
    ]


@pytest.mark.parametrize("case", range(5), ids=["PerturbationFamily", "PowerProfile",
                                                "AsymptoticData", "DomainModel",
                                                "BubbleSolution"])
def test_frozen_classes_refuse_assignment(case):
    obj, name, value = _frozen_instances()[case]
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, value)
    with pytest.raises(AttributeError):
        obj.new_field = value
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert getattr(obj, name) is before and not hasattr(obj, "new_field")
