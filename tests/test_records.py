"""The result records: immutable, equal by value, and the plain classes
keep the semantics of the records they stand beside."""

import math
import pickle

import pytest

from curvemates import expressions as ex
from curvemates.analysis import ToleranceSet
from curvemates.checks import VerificationReport
from curvemates.cli import RunConfig
from curvemates.liegroup import SO3, GroupSpec, group_spec
from curvemates.mates import Segment
from curvemates.profiles import CurvatureProfile


def test_constants_differ_by_class():
    # pi is a number; s is the one node without fields
    assert ex.Var() == ex.Var() and ex.Var()._fields == ()
    assert ex.Num(math.pi) != ex.Var()
    assert len({ex.Num(math.pi), ex.Var(), ex.Num(math.pi)}) == 2
    assert repr(ex.parse("pi*s")) == (
        "Binary(op='*', left=Num(value=3.141592653589793), right=Var())")
    assert ex.parse("pi*s") == ex.Binary("*", ex.Num(math.pi), ex.Var())
    assert ex.parse("pi*s") != ex.parse("s*pi")
    assert ex.to_text(ex.parse("pi")) == "3.141592653589793"


@pytest.mark.parametrize("record,name", [
    (SO3, "family"), (ToleranceSet(), "zero"), (Segment(0.0, 1.0, 1), "sign"),
    (CurvatureProfile.from_expressions("2", "1", (0.0, 1.0)), "s_min"),
])
def test_fields_cannot_be_assigned(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        delattr(record, name)


def test_group_spec_validates_and_compares_by_value():
    # the family is the one field; lam follows from it
    with pytest.raises(ValueError, match="unknown group family 'se3' "
                                         r"\(expected r3, so3 or s3\)"):
        GroupSpec("se3")
    with pytest.raises(TypeError):
        GroupSpec("s3", 1.0)
    assert GroupSpec._fields == ("family",)
    assert GroupSpec("so3") == SO3 == group_spec("SO3")
    assert GroupSpec("so3") != group_spec("s3")
    assert hash(GroupSpec(family="so3")) == hash(SO3)
    assert repr(SO3) == "GroupSpec(family='so3')"
    assert (SO3.lam, group_spec("s3").lam) == (1.0, 2.0)
    assert pickle.loads(pickle.dumps(SO3)) == SO3


def test_mutable_fields_are_not_shared():
    assert RunConfig("r3", "1", "1", (0.0, 1.0), 0.1).theorems == ()
    with pytest.raises(TypeError):
        VerificationReport("thm4_1", True, True, 0.0, 1e-8)    # no shared details


def test_profile_derives_each_derivative_once(monkeypatch):
    calls = []
    differentiate = ex.differentiate

    def counting(e):
        calls.append(e)
        return differentiate(e)

    monkeypatch.setattr(ex, "differentiate", counting)
    p = CurvatureProfile.from_expressions("2+sin(s)", "s^2", (0.0, 1.0))
    for _ in range(2):
        p.kappa_prime_at(0.5)
        p.tau_prime_at(0.5)
    assert calls == [p.kappa_expr, p.tau_expr]
    assert p == CurvatureProfile.from_expressions("2+sin(s)", "s^2", (0.0, 1.0))
    assert p.mates is p.mates
