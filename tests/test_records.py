"""The result records: immutable, equal by value, and the plain classes
keep the semantics of the records they stand beside."""

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
    assert ex.Pi() != ex.Var()
    assert ex.Pi() == ex.Pi() and ex.Var() == ex.Var()
    assert len({ex.Pi(), ex.Var(), ex.Pi()}) == 2
    assert repr(ex.Binary("*", ex.Pi(), ex.Var())) == (
        "Binary(op='*', left=Pi(), right=Var())")
    assert ex.parse("pi*s") == ex.Binary("*", ex.Pi(), ex.Var())
    assert ex.parse("pi*s") != ex.parse("s*pi")


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
    with pytest.raises(ValueError, match="requires lam=2.0"):
        GroupSpec("s3", 1.0)
    with pytest.raises(ValueError, match="unknown group family"):
        GroupSpec("se3", 0.0)
    assert GroupSpec("so3", 1.0) == SO3 == group_spec("SO3")
    assert GroupSpec("so3", 1.0) != group_spec("s3")
    assert hash(GroupSpec(family="so3", lam=1.0)) == hash(SO3)
    assert repr(SO3) == "GroupSpec(family='so3', lam=1.0)"
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
