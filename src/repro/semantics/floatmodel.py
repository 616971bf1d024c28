"""Finite-field modelling of floating-point data during synthesis (§4.4).

Floating-point values make both synthesis and verification expensive:
they need many bits and reassociation changes results.  The paper
models floats during synthesis as an integer field modulo 7, and only
at final verification switches to reals.  :class:`Mod7` implements that
field; the CEGIS counterexample generators fill concrete arrays with
``Mod7`` values, so candidate mismatches show up as exact field
inequalities rather than floating-point noise, while the full verifier
(:mod:`repro.verification`) works with symbolic values interpreted over
the reals.  The field lives with the shared semantics because the
compiled evaluators (:mod:`repro.compile`) and the bounded verifier
compute with it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union


MODULUS = 7

# Encoding a literal is pure and the same few weights recur millions of
# times during counterexample search, so memoise it.  Values that cannot
# be modelled (denominator divisible by 7) are cached as failures too.
_ENCODE_CACHE: dict = {}
_ENCODE_CACHE_MAX = 4096


def field_encode(value: Union[int, float, Fraction]) -> int:
    """Map a rational number into GF(7) (``p/q`` becomes ``p * q^-1 mod 7``).

    Raises ``ZeroDivisionError`` when the denominator is divisible by 7;
    callers treat that as "this literal cannot be modelled in the field"
    and fall back to symbolic reasoning.
    """
    cached = _ENCODE_CACHE.get(value)
    if cached is None:
        fraction = Fraction(value).limit_denominator(10**6)
        numerator = fraction.numerator % MODULUS
        denominator = fraction.denominator % MODULUS
        if denominator == 0:
            cached = ZeroDivisionError(f"{value} has a denominator divisible by {MODULUS}")
        else:
            cached = (numerator * pow(denominator, MODULUS - 2, MODULUS)) % MODULUS
        if len(_ENCODE_CACHE) < _ENCODE_CACHE_MAX:
            _ENCODE_CACHE[value] = cached
    if isinstance(cached, ZeroDivisionError):
        raise ZeroDivisionError(str(cached))
    return cached


@dataclass(frozen=True)
class Mod7:
    """An element of GF(7) with the usual field operations.

    The seven elements are singletons (see :data:`_ELEMENTS` below) and
    the field operations index straight into the singleton table, so
    the millions of GF(7) operations a counterexample search performs
    allocate nothing.
    """

    value: int

    def __new__(cls, value: int = 0):
        elements = _ELEMENTS
        if elements is not None:
            return elements[value % MODULUS]
        return object.__new__(cls)

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value % MODULUS)

    def __reduce__(self):
        # Reconstruct through the constructor so unpickling/copying
        # resolves to the singleton instead of mutating it in place.
        return (Mod7, (self.value,))

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other: "Mod7 | int | float | Fraction") -> "Mod7":
        if isinstance(other, Mod7):
            return other
        cached = _COERCE_CACHE.get(other)
        if cached is not None:
            return cached
        if isinstance(other, (int, float, Fraction)):
            element = _ELEMENTS[field_encode(other)]
            if len(_COERCE_CACHE) < _ENCODE_CACHE_MAX:
                _COERCE_CACHE[other] = element
            return element
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "Mod7 | int") -> "Mod7":
        if not isinstance(other, Mod7):
            other = self._coerce(other)
        return _ELEMENTS[(self.value + other.value) % MODULUS]

    __radd__ = __add__

    def __sub__(self, other: "Mod7 | int") -> "Mod7":
        if not isinstance(other, Mod7):
            other = self._coerce(other)
        return _ELEMENTS[(self.value - other.value) % MODULUS]

    def __rsub__(self, other: "Mod7 | int") -> "Mod7":
        other = self._coerce(other)
        return _ELEMENTS[(other.value - self.value) % MODULUS]

    def __mul__(self, other: "Mod7 | int") -> "Mod7":
        if not isinstance(other, Mod7):
            other = self._coerce(other)
        return _ELEMENTS[(self.value * other.value) % MODULUS]

    __rmul__ = __mul__

    def inverse(self) -> "Mod7":
        if self.value == 0:
            raise ZeroDivisionError("0 has no inverse in GF(7)")
        return _ELEMENTS[pow(self.value, MODULUS - 2, MODULUS)]

    def __truediv__(self, other: "Mod7 | int") -> "Mod7":
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other: "Mod7 | int") -> "Mod7":
        other = self._coerce(other)
        return other * self.inverse()

    def __neg__(self) -> "Mod7":
        return _ELEMENTS[-self.value % MODULUS]

    def __abs__(self) -> "Mod7":
        return self

    # -- comparisons ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mod7):
            return self.value == other.value
        if isinstance(other, (int, float, Fraction)):
            try:
                return self.value == field_encode(other)
            except ZeroDivisionError:
                return False
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Mod7", self.value))

    def __repr__(self) -> str:
        return f"Mod7({self.value})"

    def __float__(self) -> float:
        return float(self.value)

    def __int__(self) -> int:
        return self.value


# Singleton table; ``None`` while the class body above is executing so the
# bootstrap constructions below take the plain-allocation path.
_ELEMENTS = None
_ELEMENTS = tuple(Mod7(v) for v in range(MODULUS))

# Coercion memo for non-Mod7 operands (weights recur endlessly).  Keyed by
# the operand value; numerically equal keys encode identically, so the
# int/float/Fraction hash equivalence is harmless.
_COERCE_CACHE: dict = {}
