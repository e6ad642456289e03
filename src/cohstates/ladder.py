"""Exact ladder-operator calculus on the monomial basis.

The operators here act degree-wise on the tower {x^n} with rational
parameters, and every action is carried out in exact arithmetic (stdlib
``Fraction``).  That makes the algebraic identities testable as exact
equalities rather than tolerance checks:

* Laguerre-class operators K+, K-, K3 close into an su(1,1) algebra,
  [K+, K-] = -2 K3 and [K3, K+-] = +- K+-.
* The conjugate raising operators Kt+ (one per class) satisfy the canonical
  pair relation [K-, Kt+] = 1.
* Re-summing the terminating operator exponential exp(-K-) x^n regenerates
  the Laguerre polynomials and the terminating hypergeometric polynomials
  coefficient-by-coefficient.

Inverse factors such as 1/(D+lam) are defined only degree-wise; applying an
operator at a degree where its denominator vanishes raises
``DegenerateParameterError`` naming the offending degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

__all__ = [
    "DegenerateParameterError",
    "MonoPoly",
    "monomial",
    "OpKind",
    "LadderOp",
    "apply",
    "commutator",
    "laguerre_from_operator",
    "hyp_from_operator",
    "algebra_report",
]


class DegenerateParameterError(ValueError):
    """An operator denominator vanished at some monomial degree."""

    def __init__(self, op_name: str, degree: int, detail: str):
        self.op_name = op_name
        self.degree = degree
        super().__init__(f"{op_name} is degenerate at degree {degree}: {detail}")


@dataclass(frozen=True)
class MonoPoly:
    """Polynomial over the monomial basis with ``Fraction`` coefficients.

    ``coeffs[k]`` multiplies x^k; trailing zeros are trimmed so that equal
    polynomials compare equal.
    """

    coeffs: tuple

    @classmethod
    def from_coeffs(cls, coeffs: Iterable) -> "MonoPoly":
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "MonoPoly") -> "MonoPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return MonoPoly.from_coeffs(
            [self.coeff(k) + other.coeff(k) for k in range(n)]
        )

    def __sub__(self, other: "MonoPoly") -> "MonoPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return MonoPoly.from_coeffs(
            [self.coeff(k) - other.coeff(k) for k in range(n)]
        )

    def __neg__(self) -> "MonoPoly":
        return MonoPoly(tuple(-c for c in self.coeffs))

    def scale(self, s) -> "MonoPoly":
        s = Fraction(s)
        return MonoPoly.from_coeffs([s * c for c in self.coeffs])

    def eval_exact(self, x):
        """Evaluate at an exact point by Horner's rule."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def monomial(degree: int, coeff=1) -> MonoPoly:
    """The polynomial coeff * x^degree."""
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    return MonoPoly.from_coeffs([0] * degree + [coeff])


class OpKind(Enum):
    K_PLUS = "K+"
    K_MINUS = "K-"
    K3 = "K3"
    K_TILDE_PLUS = "Kt+"
    HYP_K_MINUS = "hypK-"
    HYP_K_TILDE_PLUS = "hypKt+"


@dataclass(frozen=True)
class LadderOp:
    """A ladder operator with exact rational parameters.

    Laguerre-class kinds carry ``lam``; hypergeometric-class kinds carry
    ``b`` and ``c``.  Use the factory classmethods.
    """

    kind: OpKind
    lam: Fraction | None = None
    b: Fraction | None = None
    c: Fraction | None = None

    @classmethod
    def k_plus(cls, lam) -> "LadderOp":
        return cls(OpKind.K_PLUS, lam=Fraction(lam))

    @classmethod
    def k_minus(cls, lam) -> "LadderOp":
        return cls(OpKind.K_MINUS, lam=Fraction(lam))

    @classmethod
    def k3(cls, lam) -> "LadderOp":
        return cls(OpKind.K3, lam=Fraction(lam))

    @classmethod
    def k_tilde_plus(cls, lam) -> "LadderOp":
        return cls(OpKind.K_TILDE_PLUS, lam=Fraction(lam))

    @classmethod
    def hyp_k_minus(cls, b, c) -> "LadderOp":
        return cls(OpKind.HYP_K_MINUS, b=Fraction(b), c=Fraction(c))

    @classmethod
    def hyp_k_tilde_plus(cls, b, c) -> "LadderOp":
        return cls(OpKind.HYP_K_TILDE_PLUS, b=Fraction(b), c=Fraction(c))

    def name(self) -> str:
        return self.kind.value

    def _action(self, n: int) -> tuple[Fraction, int]:
        """Return (factor, new_degree) for the action on x^n."""
        kind = self.kind
        if kind is OpKind.K_PLUS:
            return Fraction(1), n + 1
        if kind is OpKind.K_MINUS:
            return Fraction(n) * (n + self.lam), n - 1
        if kind is OpKind.K3:
            return n + (self.lam + 1) / 2, n
        if kind is OpKind.K_TILDE_PLUS:
            den = n + 1 + self.lam
            if den == 0:
                raise DegenerateParameterError(
                    self.name(), n, f"n + 1 + lam = 0 with lam = {self.lam}"
                )
            return 1 / den, n + 1
        if kind is OpKind.HYP_K_MINUS:
            if n == 0:
                return Fraction(0), -1
            den = n - 1 + self.b
            if den == 0:
                raise DegenerateParameterError(
                    self.name(), n, f"n - 1 + b = 0 with b = {self.b}"
                )
            return Fraction(n) * (n - 1 + self.c) / den, n - 1
        if kind is OpKind.HYP_K_TILDE_PLUS:
            den = n + self.c
            if den == 0:
                raise DegenerateParameterError(
                    self.name(), n, f"n + c = 0 with c = {self.c}"
                )
            return (n + self.b) / den, n + 1
        raise AssertionError(f"unhandled operator kind {kind}")  # pragma: no cover

    def __call__(self, p: MonoPoly) -> MonoPoly:
        return apply(self, p)


def _step(op: LadderOp, coeff: Fraction, n: int) -> tuple[Fraction, int]:
    """``op`` applied to the single term coeff * x^n, as (coeff', degree').

    A zero term stays zero without consulting ``op``, so a chain of steps
    stops where the polynomial action reaches the zero polynomial, and raises
    ``DegenerateParameterError`` at the same operator and degree.
    """
    if not coeff:
        return coeff, n
    factor, m = op._action(n)
    return coeff * factor, m


def _chain(n: int, ops: tuple, coeff=1) -> tuple[Fraction, int]:
    """The product ops[0] ops[1] ... applied to coeff * x^n, rightmost first."""
    for op in reversed(ops):
        coeff, n = _step(op, coeff, n)
    return coeff, n


def _terms(*terms: tuple) -> dict:
    """Sum single terms (coeff, degree) into {degree: coeff}, zeros dropped."""
    out: dict = {}
    for c, m in terms:
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def apply(op: LadderOp, p: MonoPoly) -> MonoPoly:
    """Apply a ladder operator to a polynomial, exactly."""
    out = [Fraction(0)] * (p.degree + 2)
    for n, cn in enumerate(p.coeffs):
        c, m = _step(op, cn, n)
        if c:
            out[m] += c
    return MonoPoly.from_coeffs(out)


def commutator(op_a: LadderOp, op_b: LadderOp, p: MonoPoly) -> MonoPoly:
    """(op_a op_b - op_b op_a) applied to p, exactly."""
    return apply(op_a, apply(op_b, p)) - apply(op_b, apply(op_a, p))


def _exp_minus(k_minus: LadderOp, n: int) -> list:
    """Coefficients of exp(-K-) x^n, lowest degree first.

    K- takes x^d to a multiple of x^(d-1), so the k-th term of the series,
    ((-1)^k / k!) K-^k x^n, is a single monomial of degree n - k.
    """
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        c, _ = _step(k_minus, coeffs[-1], n - k + 1)
        coeffs.append(c / -k)
    return coeffs[::-1]


def laguerre_from_operator(n: int, lam) -> MonoPoly:
    """Exact L_n^lam from the terminating operator-exponential form.

    Expands ((-1)^n / n!) exp(-K-) x^n where K- = x d^2/dx^2 + (lam+1) d/dx.
    Each application of K- lowers the degree by one, so the exponential
    terminates after n terms and the result is an exact coefficient vector.
    """
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    lam = Fraction(lam)
    if lam.denominator == 1 and -n <= lam <= -1:
        raise DegenerateParameterError("exp(-K-)", n, f"lam = {lam} is a negative integer in [-{n}, -1]")
    pref = Fraction((-1) ** n, math.factorial(n))
    return MonoPoly.from_coeffs([pref * c for c in _exp_minus(LadderOp.k_minus(lam), n)])


def hyp_from_operator(n: int, b, c) -> MonoPoly:
    """Exact terminating hypergeometric polynomial F(-n, b; c; z).

    Expands the terminating exponential exp(-K-) z^n for the
    hypergeometric-class lowering operator and applies the closed prefactor
    (-1)^n (b)_n / (c)_n so the result matches the series normalization
    F(-n, b; c; 0) = 1.
    """
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    b = Fraction(b)
    c = Fraction(c)
    for j in range(n):
        if b + j == 0:
            raise DegenerateParameterError("exp(-hypK-)", j + 1, f"b = {b} hits b + {j} = 0")
        if c + j == 0:
            raise DegenerateParameterError("prefactor (c)_n", j + 1, f"c = {c} hits c + {j} = 0")
    pref = Fraction((-1) ** n)
    for j in range(n):
        pref *= (b + j) / (c + j)
    return MonoPoly.from_coeffs([pref * t for t in _exp_minus(LadderOp.hyp_k_minus(b, c), n)])


def _identity_entry(name: str, passed: bool, max_degree: int, failures: list) -> dict:
    entry = {
        "identity": name,
        "degrees": f"0..{max_degree}",
        "passed": passed,
    }
    if failures:
        entry["first_failure_degree"] = failures[0]
    return entry


def algebra_report(lam, hyp_b, hyp_c, max_degree: int, _tamper: bool = False) -> dict:
    """Check the operator algebra identities on monomials up to max_degree.

    Verifies, with exact rational equality on every x^n (n <= max_degree):
    [K+, K-] = -2 K3, [K3, K+] = K+, [K3, K-] = -K-, and the canonical
    pairs [K-, Kt+] = 1 for both operator classes.  Every operator maps a
    monomial to a multiple of one monomial, so each side of an identity on
    x^n is composed from single-term steps and compared degree by degree.

    ``_tamper`` is an internal negative-control hook that deliberately
    mis-parameterizes K3; it must make the suite fail.
    """
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    lam = Fraction(lam)
    hyp_b = Fraction(hyp_b)
    hyp_c = Fraction(hyp_c)

    kp = LadderOp.k_plus(lam)
    km = LadderOp.k_minus(lam)
    k3 = LadderOp.k3(lam + 1 if _tamper else lam)
    ktp = LadderOp.k_tilde_plus(lam)
    hkm = LadderOp.hyp_k_minus(hyp_b, hyp_c)
    hktp = LadderOp.hyp_k_tilde_plus(hyp_b, hyp_c)

    # (name, A, B, right-hand operators, right-hand scale) for [A, B] = scale * ops
    checks = [
        ("[K+, K-] = -2 K3", kp, km, (k3,), -2),
        ("[K3, K+] = K+", k3, kp, (kp,), 1),
        ("[K3, K-] = -K-", k3, km, (km,), -1),
        ("[K-, Kt+] = 1", km, ktp, (), 1),
        ("[hypK-, hypKt+] = 1", hkm, hktp, (), 1),
    ]

    identities = []
    for name, op_a, op_b, rhs_ops, scale in checks:
        failures = [
            n
            for n in range(max_degree + 1)
            if _terms(_chain(n, (op_a, op_b)), _chain(n, (op_b, op_a), -1))
            != _terms(_chain(n, rhs_ops, scale))
        ]
        identities.append(_identity_entry(name, not failures, max_degree, failures))

    return {
        "lambda": str(lam),
        "b": str(hyp_b),
        "c": str(hyp_c),
        "max_degree": max_degree,
        "identities": identities,
        "all_passed": all(e["passed"] for e in identities),
    }
