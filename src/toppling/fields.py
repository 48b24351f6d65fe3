"""Exact coefficient fields: rationals and prime fields (default p = 32003)."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

DEFAULT_PRIME = 32003


class PrimeField:
    def __init__(self, p=DEFAULT_PRIME):
        if not 2 <= p < 2**31 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise ValueError(f"{p!r} is not a prime P, 2 <= P < 2**31")
        self.p = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return self.one / a

    def is_zero(self, a):
        return a == 0

    def __repr__(self):
        return "QQ"


def get_field(name):
    if name == "rational":
        return RationalField()
    if name == "prime":
        return PrimeField()
    if name.startswith("prime:"):
        return PrimeField(int(name.split(":", 1)[1]))
    raise ValueError(f"unknown field {name!r}")
