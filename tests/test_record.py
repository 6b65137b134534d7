from functools import cached_property

import pytest

from dquant.fields import FieldOperator
from dquant.record import record


@record
class Point:
    x: float
    y: float = 0.0
    label: str = "p"


@record
class Checked:
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("value must be non-negative")
        object.__setattr__(self, "value", int(self.value))

    @cached_property
    def square(self) -> int:
        return self.value**2


@record
class Box:
    items: tuple
    note: str = ""


class TestConstruction:
    def test_positional_keyword_and_defaults(self):
        assert Point(1.0) == Point(x=1.0) == Point(1.0, 0.0, "p")
        p = Point(1.0, label="q")
        assert (p.x, p.y, p.label) == (1.0, 0.0, "q")

    @pytest.mark.parametrize("args, kwargs, match", [
        ((), {}, "missing required arguments: 'x'"),
        ((1.0, 2.0, "a", 4), {}, "takes 3 positional arguments but 4 were given"),
        ((1.0,), {"z": 2.0}, "unexpected keyword argument 'z'"),
        ((1.0,), {"x": 2.0}, "multiple values for argument 'x'"),
    ])
    def test_bad_arguments_raise_type_error(self, args, kwargs, match):
        with pytest.raises(TypeError, match=match):
            Point(*args, **kwargs)

    def test_post_init_validates_and_normalizes(self):
        assert Checked(2.0).value == 2 and type(Checked(2.0).value) is int
        with pytest.raises(ValueError, match="non-negative"):
            Checked(-1)

    def test_cached_property_on_a_frozen_record(self):
        c = Checked(3)
        assert c.square == 9 and c.square == 9
        assert c == Checked(3)

    def test_non_default_after_default_is_rejected(self):
        with pytest.raises(TypeError, match="non-default field 'b'"):
            @record
            class Bad:
                a: int = 0
                b: int

    def test_mutable_default_is_rejected(self):
        with pytest.raises(ValueError, match="mutable default dict"):
            @record
            class Shared:
                table: dict = {}


class TestFrozen:
    def test_assignment_and_deletion_raise(self):
        p = Point(1.0)
        with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
            p.x = 2.0
        with pytest.raises(AttributeError, match="cannot assign to field 'z'"):
            p.z = 2.0
        with pytest.raises(AttributeError, match="cannot delete field 'y'"):
            del p.y
        assert p == Point(1.0)

    def test_field_operator_refuses_rebinding(self):
        # its leakage default is set through object.__setattr__ in __post_init__
        f = FieldOperator({}, 1.0)
        with pytest.raises(AttributeError, match="cannot assign to field 'leakage'"):
            f.leakage = {1: 0.5}
        assert f.leakage == {}


class TestEqualityAndHash:
    def test_equality_is_per_class_and_per_field(self):
        assert Point(1.0) == Point(1.0)
        assert Point(1.0) != Point(1.0, 1.0)
        assert Point(1.0) != (1.0, 0.0, "p")
        assert Box((1,)) == Box((1,))
        assert Box((1,)) != Point(1.0)

    def test_frozen_records_hash_by_fields(self):
        assert hash(Point(1.0, 2.0)) == hash(Point(1.0, 2.0))
        assert len({Point(1.0), Point(1.0), Point(2.0)}) == 2

    def test_mutable_records_are_unhashable(self):
        # a record hashes by its fields, so one holding a dict cannot be hashed
        with pytest.raises(TypeError):
            hash(Box({}))
        with pytest.raises(TypeError):
            hash(FieldOperator({}, 1.0))


def test_repr_lists_the_fields_in_order():
    assert repr(Point(1.0, label="q")) == "Point(x=1.0, y=0.0, label='q')"
    assert repr(Box((1, 2))) == "Box(items=(1, 2), note='')"
    assert Point.__init__.__qualname__ == "Point.__init__"


def test_defaults_are_not_shared():
    a, b = FieldOperator({}, 1.0), FieldOperator({}, 1.0)
    assert a.leakage == {} and a.leakage is not b.leakage
    a.leakage[3] = 1.0
    assert b.leakage == {}
    assert FieldOperator({}, 1.0, leakage={3: 1.0}).leakage == {3: 1.0}
