from fractions import Fraction

import pytest

from conftest import c4
from toppling.fields import PrimeField, RationalField, get_field
from toppling.resolution import build_resolution


def test_rational_inverse_is_exact():
    inv = RationalField().inv(3)
    assert type(inv) is Fraction and inv == Fraction(1, 3)


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_prime_accepted(p):
    field = get_field(f"prime:{p}")
    assert isinstance(field, PrimeField) and field.p == p


@pytest.mark.parametrize("p", ["0", "1", "4", "-7", "32001", str(2**31 + 11), "x"])
def test_non_prime_rejected(p):
    with pytest.raises(ValueError):
        get_field(f"prime:{p}")


@pytest.mark.parametrize("p", [0, 1, 4, -7])
def test_prime_field_rejects_non_prime(p):
    with pytest.raises(ValueError):
        PrimeField(p)


def test_resolution_over_non_field_rejected():
    with pytest.raises(ValueError):
        build_resolution(c4(), field=PrimeField(4))
