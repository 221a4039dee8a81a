"""The input contract across modules: every public operation and
constructor raises a coded QalError when None stands in each of its
required positional arguments, never a bare TypeError or AttributeError;
so do the public methods that take user data."""

import importlib
import inspect
from fractions import Fraction

import pytest

from qal.errors import DomainError, QalError
from qal.hilbert import build_model
from qal.intervals import CI, RI, PowerLadder
from qal.polynomials import MultiPoly
from qal.sequences import gevrey
from qal.theta import BorelExample

_MODULES = ["sequences", "theta", "hilbert", "division", "algebraic", "puiseux"]

# the classes whose constructors take user data
_CONSTRUCTED = {"CarlemanSequence", "DistinguishedPoly", "BorelExample", "NumberField"}

# result records: the dataclasses that operations return; user data do not
# build them, so their constructors are out of the contract
_RESULT_RECORDS = {
    "CheckResult", "PrecedeResult", "Flag", "SequenceReport",
    "ThetaApproximation", "ThetaDerivative", "DerivativeCrossCheck",
    "HilbertModel", "MinimalInterpolant", "LacunaryReport", "DivergenceDemo", "SobolevRecord",
    "HyperbolicityReport", "NoDivWitness", "FlatWitnessRow", "FlatWitnessTable",
    "FieldElement", "Extension",
    "PuiseuxBranch", "PuiseuxExpansion", "BranchImOrder", "ExponentReport",
}


def _public(kind):
    """The public functions or classes that the swept modules define, by
    qualified name."""
    out = {}
    for name in _MODULES:
        module = importlib.import_module(f"qal.{name}")
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and kind(obj) and obj.__module__ == module.__name__:
                out[f"{name}.{attr}"] = obj
    return out


def _required_positional(fn) -> int:
    return sum(1 for p in inspect.signature(fn).parameters.values()
               if p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD))


_CLASSES = _public(inspect.isclass)
# a function without a required positional argument, such as analytic(),
# has no slot for None
_SWEPT = {**{name: fn for name, fn in _public(inspect.isfunction).items()
             if _required_positional(fn)},
          **{name: cls for name, cls in _CLASSES.items() if cls.__name__ in _CONSTRUCTED},
          "polynomials.MultiPoly": MultiPoly, "intervals.RI": RI, "intervals.CI": CI,
          "intervals.PowerLadder": PowerLadder}


def test_every_public_class_is_swept_or_a_result_record():
    names = {cls.__name__ for cls in _CLASSES.values()}
    assert names == _CONSTRUCTED | _RESULT_RECORDS


@pytest.mark.parametrize("name", sorted(_SWEPT))
def test_none_in_every_required_slot_raises_a_coded_qal_error(name):
    fn = _SWEPT[name]
    with pytest.raises(QalError) as info:
        fn(*[None] * _required_positional(fn))
    assert info.value.code == type(info.value).code != QalError.code, name


def _borel(calls):
    """A BorelExample whose coefficient callable records its arguments."""
    return BorelExample(lambda v: calls.append(v) or Fraction(1, 2**v), Fraction(1, 2), 10)


# public methods that take user data, each called with None in one slot
_METHODS = {
    "CI.rotate_i": lambda calls: CI(RI.point(1), RI.point(0)).rotate_i(None),
    "PowerLadder.power": lambda calls: PowerLadder(RI(1, 2)).power(None),
    "BorelExample.coefficient": lambda calls: _borel(calls).coefficient(None),
    "HilbertModel.deriv_at_zero": lambda calls: build_model(gevrey(1), 3).deriv_at_zero(None, 0),
}


@pytest.mark.parametrize("name", sorted(_METHODS))
def test_none_in_a_method_raises_a_coded_error_before_any_user_code(name):
    calls = []
    with pytest.raises(DomainError) as info:
        _METHODS[name](calls)
    assert info.value.code == "domain-error"
    assert calls == []
