"""Exact polynomial expressions over the optimization parameters.

Intermediate-result cardinalities in the Cloud scenario are products of
base-table cardinalities, join selectivities, and *parameterized* predicate
selectivities.  Because every parameter models the selectivity of one
predicate attached to one base table, a cardinality is an exact
*multilinear* polynomial in the parameters (each parameter has degree at
most one).  Operator cost formulas are affine combinations of input/output
cardinalities, so plan cost functions are polynomials too.

Keeping cardinalities symbolic has two benefits over approximating early:

* PWL approximation error is paid exactly once, when the final cost
  function of an operator is interpolated onto the simplicial grid
  (:mod:`repro.cost.approximate`);
* tests can compare the PWL approximation against exact polynomial values.

The representation is a sparse monomial map ``exponents -> coefficient``
where ``exponents`` is an integer tuple of length ``num_params``.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np


class ParamPolynomial:
    """A polynomial over the parameter vector ``x``.

    Args:
        num_params: Dimensionality of the parameter space.
        monomials: Mapping from exponent tuples (length ``num_params``) to
            coefficients.  Zero coefficients are dropped.
    """

    __slots__ = ("num_params", "monomials")

    def __init__(self, num_params: int,
                 monomials: Mapping[tuple[int, ...], float] | None = None
                 ) -> None:
        self.num_params = int(num_params)
        clean: dict[tuple[int, ...], float] = {}
        for exps, coeff in (monomials or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.num_params:
                raise ValueError(
                    f"exponent tuple {exps} has wrong length "
                    f"(expected {self.num_params})")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if abs(coeff) > 0.0:
                clean[exps] = clean.get(exps, 0.0) + float(coeff)
        self.monomials = {e: c for e, c in clean.items() if abs(c) > 0.0}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def constant(num_params: int, value: float) -> ParamPolynomial:
        """The constant polynomial ``value``."""
        if value == 0.0:
            return ParamPolynomial(num_params)
        return ParamPolynomial(num_params,
                               {(0,) * num_params: float(value)})

    @staticmethod
    def variable(num_params: int, index: int) -> ParamPolynomial:
        """The polynomial ``x[index]``."""
        if not 0 <= index < num_params:
            raise IndexError(f"parameter index {index} out of range")
        exps = [0] * num_params
        exps[index] = 1
        return ParamPolynomial(num_params, {tuple(exps): 1.0})

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def degree(self) -> int:
        """Total degree (0 for constants and the zero polynomial)."""
        if not self.monomials:
            return 0
        return max(sum(exps) for exps in self.monomials)

    def is_affine(self) -> bool:
        """``True`` when total degree is at most one."""
        return self.degree() <= 1

    def affine_parts(self) -> tuple[np.ndarray, float]:
        """Return ``(w, b)`` with ``self(x) = w @ x + b``.

        Raises:
            ValueError: If the polynomial is not affine.
        """
        if not self.is_affine():
            raise ValueError("polynomial is not affine")
        w = np.zeros(self.num_params)
        b = 0.0
        for exps, coeff in self.monomials.items():
            total = sum(exps)
            if total == 0:
                b = coeff
            else:
                w[exps.index(1)] = coeff
        return w, b

    def lifted(self, num_params: int) -> ParamPolynomial:
        """Re-express the polynomial over a larger parameter vector.

        The added trailing parameters have exponent zero in every
        monomial, so values are unchanged; used to embed parameter-free
        (or lower-dimensional) cost expressions into the optimizer's
        parameter space.

        Raises:
            ValueError: When ``num_params`` is smaller than the current
                parameter count.
        """
        if num_params < self.num_params:
            raise ValueError("cannot lift to fewer parameters")
        if num_params == self.num_params:
            return self
        pad = (0,) * (num_params - self.num_params)
        return ParamPolynomial(num_params,
                               {exps + pad: coeff
                                for exps, coeff in self.monomials.items()})

    def evaluate(self, x) -> float:
        """Evaluate the polynomial at parameter vector ``x``."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.num_params:
            raise ValueError(
                f"point has dim {x.shape[0]}, expected {self.num_params}")
        total = 0.0
        for exps, coeff in self.monomials.items():
            term = coeff
            for xi, e in zip(x, exps):
                if e:
                    term *= xi ** e
            total += term
        return total

    __call__ = evaluate

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _check(self, other: ParamPolynomial) -> None:
        if self.num_params != other.num_params:
            raise ValueError("mixing polynomials over different parameters")

    def __add__(self, other) -> ParamPolynomial:
        if isinstance(other, (int, float)):
            other = ParamPolynomial.constant(self.num_params, float(other))
        self._check(other)
        result = dict(self.monomials)
        for exps, coeff in other.monomials.items():
            result[exps] = result.get(exps, 0.0) + coeff
        return ParamPolynomial(self.num_params, result)

    __radd__ = __add__

    def __neg__(self) -> ParamPolynomial:
        return ParamPolynomial(
            self.num_params, {e: -c for e, c in self.monomials.items()})

    def __sub__(self, other) -> ParamPolynomial:
        if isinstance(other, (int, float)):
            other = ParamPolynomial.constant(self.num_params, float(other))
        return self + (-other)

    def __rsub__(self, other) -> ParamPolynomial:
        return (-self) + other

    def __mul__(self, other) -> ParamPolynomial:
        if isinstance(other, (int, float)):
            return ParamPolynomial(
                self.num_params,
                {e: c * float(other) for e, c in self.monomials.items()})
        self._check(other)
        result: dict[tuple[int, ...], float] = {}
        for e1, c1 in self.monomials.items():
            for e2, c2 in other.monomials.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                result[exps] = result.get(exps, 0.0) + c1 * c2
        return ParamPolynomial(self.num_params, result)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamPolynomial):
            return NotImplemented
        return (self.num_params == other.num_params
                and self.monomials == other.monomials)

    def __hash__(self) -> int:
        return hash((self.num_params,
                     tuple(sorted(self.monomials.items()))))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.monomials:
            return "Poly(0)"
        terms = []
        for exps, coeff in sorted(self.monomials.items()):
            factors = [f"{coeff:.4g}"]
            factors.extend(f"x{i}^{e}" if e > 1 else f"x{i}"
                           for i, e in enumerate(exps) if e)
            terms.append("*".join(factors))
        return "Poly(" + " + ".join(terms) + ")"
