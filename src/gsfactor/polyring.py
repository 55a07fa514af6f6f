"""Dense univariate polynomials over a field context, plus a general
factorization oracle (square-free / distinct-degree / equal-degree splitting
with a seeded RNG, so identical runs give identical output).

A ``Poly`` holds the field's coefficient reps (ints, digit tuples or pairs),
low degree to high, trimmed; the zero polynomial has none and degree
``-inf``.  Every operation but evaluation is one call on the vector kernel
that ``_kernels.kernel_for`` picks; ``FieldElement``s are built only when
coefficients are read (``coeffs``, ``coeff``, ``lead``, evaluation).
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import _kernels
from .errors import DomainError, InvariantError
from .ffield import FieldCtx, FieldElement, PrimeField

NEG_INFINITY = float("-inf")

DEFAULT_SEED = 1729


class Poly:
    """Immutable dense polynomial over one field context."""

    __slots__ = ("ctx", "reps")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        reps = []
        for c in coeffs:
            if isinstance(c, FieldElement) and c.ctx is not ctx and c.ctx != ctx:
                raise DomainError("coefficient from a different field")
            reps.append(ctx.rep_of(c))
        while reps and reps[-1] == ctx.zero_rep:
            reps.pop()
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "reps", tuple(reps))

    def _vectors(self, bound: int, *others):
        """The kernel picked at degree ``bound``; self's and others' vectors on it."""
        ker = _kernels.kernel_for(self.ctx, bound)
        return (ker, ker.from_reps(self.reps), *(ker.from_reps(g.reps) for g in others))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx)

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, [1])

    @classmethod
    def x(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, [0, 1])

    # -- structure -----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as field elements, built on each read."""
        return tuple(FieldElement(self.ctx, r) for r in self.reps)

    @property
    def degree(self):
        """Degree as an int; -inf for the zero polynomial."""
        return len(self.reps) - 1 if self.reps else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self.reps

    @property
    def lead(self) -> FieldElement:
        if not self.reps:
            raise DomainError("the zero polynomial has no leading coefficient")
        return FieldElement(self.ctx, self.reps[-1])

    @property
    def is_monic(self) -> bool:
        return bool(self.reps) and self.reps[-1] == self.ctx.one_rep

    def coeff(self, i: int) -> FieldElement:
        rep = self.reps[i] if 0 <= i < len(self.reps) else self.ctx.zero_rep
        return FieldElement(self.ctx, rep)

    def key(self):
        """Canonical sort key: (degree, coefficient reps low-to-high)."""
        return (len(self.reps), self.reps)

    # -- arithmetic -----------------------------------------------------------

    def _as_poly(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.ctx != self.ctx:
                raise DomainError("polynomials over different fields")
            return other
        if isinstance(other, (FieldElement, int, Fraction)):
            # rep_of embeds a base-field scalar, which the constructor would reject
            return Poly(self.ctx, [self.ctx.rep_of(other)])
        return None

    def __add__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        ker, a, b = self._vectors(max(len(self.reps), len(other.reps)), other)
        return Poly(self.ctx, ker.to_reps(ker.add(a, b)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        ker, a, b = self._vectors(max(len(self.reps), len(other.reps)), other)
        return Poly(self.ctx, ker.to_reps(ker.sub(a, b)))

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        ker, a = self._vectors(len(self.reps))
        return Poly(self.ctx, ker.to_reps(ker.neg(a)))

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int, Fraction)):
            ker, a = self._vectors(len(self.reps))
            return Poly(self.ctx, ker.to_reps(ker.scale(a, self.ctx.rep_of(other))))
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        ker, a, b = self._vectors(len(self.reps) + len(other.reps), other)
        return Poly(self.ctx, ker.to_reps(ker.mul(a, b)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (FieldElement, int, Fraction)):
            return self * self.ctx.elem(other).inverse()
        return NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise DomainError("polynomial powers take nonnegative int exponents")
        # bitlen(e) - 1 squarings and popcount(e) - 1 other products
        out, base = None, self
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return Poly.one(self.ctx) if out is None else out

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        ker, a, b = self._vectors(len(self.reps), self._as_poly(other))
        q, r = ker.pdivmod(a, b)
        return Poly(self.ctx, ker.to_reps(q)), Poly(self.ctx, ker.to_reps(r))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, a) -> FieldElement:
        """Evaluate by Horner's rule, on reps."""
        ctx = self.ctx
        a = ctx.rep_of(a)
        acc = ctx.zero_rep
        for c in reversed(self.reps):
            acc = ctx.radd(ctx.rmul(acc, a), c)
        return FieldElement(ctx, acc)

    def derivative(self) -> "Poly":
        ker, a = self._vectors(len(self.reps))
        return Poly(self.ctx, ker.to_reps(ker.deriv(a)))

    def monic(self) -> "Poly":
        if self.is_zero:
            raise DomainError("cannot normalize the zero polynomial")
        return self / self.lead

    # -- misc -----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx == other.ctx and self.reps == other.reps

    def __hash__(self):
        return hash((self.ctx, self.reps))

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"Poly({self.ctx!r}, {self})"


def poly(ctx: FieldCtx, coeffs) -> Poly:
    """Convenience constructor; accepts ints, Fractions, digit tuples."""
    return Poly(ctx, coeffs)


def poly_str(f: Poly, var: str = "y") -> str:
    """Canonical text form, highest degree first."""
    if f.is_zero:
        return "0"
    ctx = f.ctx
    wrap = "({})" if not isinstance(ctx, PrimeField) else "{}"
    parts = []
    for i, c in reversed(list(enumerate(f.reps))):
        if c == ctx.zero_rep:
            continue
        cs = wrap.format(ctx.str_rep(c))
        if i == 0:
            parts.append(cs)
        else:
            xs = var if i == 1 else f"{var}^{i}"
            parts.append(xs if c == ctx.one_rep else f"{cs}*{xs}")
    return " + ".join(parts)


def decompose_by(G: Poly, N: Poly) -> Poly | None:
    """Find h with G = h(N), by base-N digit extraction.

    Returns None when G is not a polynomial in N (a signaled outcome, not an
    error).  Requires N monic of degree >= 1 and deg G a multiple of deg N.
    """
    G._as_poly(N)  # raises DomainError for another field
    if N.degree < 1 or not N.is_monic:
        raise DomainError("decompose_by needs a monic N of degree >= 1")
    if G.is_zero:
        return Poly.zero(G.ctx)
    if G.degree % N.degree:
        raise DomainError("deg G must be divisible by deg N")
    digits = []
    cur = G
    while not cur.is_zero:
        cur, r = divmod(cur, N)
        if r.degree > 0:
            return None
        digits.append(r.reps[0] if r.reps else G.ctx.zero_rep)
    return Poly(G.ctx, digits)


class Factorization:
    """A unit times a product of monic polynomials with multiplicities.

    Factors are kept in canonical order: by degree, then by coefficient
    sequence, so equal factorizations compare equal structurally.
    """

    __slots__ = ("lead", "factors")

    def __init__(self, lead: FieldElement, factors):
        pairs = sorted(((f, int(m)) for f, m in factors), key=lambda t: t[0].key())
        for f, m in pairs:
            if not f.is_monic or m < 1:
                raise DomainError("factors must be monic with positive multiplicity")
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "factors", tuple(pairs))

    def __setattr__(self, name, value):
        raise AttributeError("Factorization is immutable")

    def expand(self) -> Poly:
        out = Poly.one(self.lead.ctx) * self.lead
        for f, m in self.factors:
            out = out * f**m
        return out

    def to_json(self) -> dict:
        return {
            "lead": elem_json(self.lead),
            "factors": [
                {"coeffs": [elem_json(c) for c in f.coeffs], "mult": m}
                for f, m in self.factors
            ],
        }

    def __eq__(self, other):
        if not isinstance(other, Factorization):
            return NotImplemented
        return self.lead == other.lead and self.factors == other.factors

    def __hash__(self):
        return hash((self.lead, self.factors))

    def __str__(self):
        parts = [str(self.lead)]
        for f, m in self.factors:
            parts.append(f"({f})" if m == 1 else f"({f})^{m}")
        return " * ".join(parts)

    def __repr__(self):
        return f"Factorization[{self}]"


def elem_json(a: FieldElement):
    """JSON value for a field element: int, digit list, or 'a+b*t' string."""
    ctx = a.ctx
    if isinstance(ctx, PrimeField):
        return a.rep
    if hasattr(ctx, "base"):  # quadratic extension
        return str(a)
    return list(a.rep)


def factorize(f: Poly, seed: int | None = None) -> Factorization:
    """Complete factorization into monic irreducibles.

    Deterministic for a fixed seed; the default seed is ``DEFAULT_SEED``.
    """
    if f.is_zero:
        raise DomainError("cannot factor the zero polynomial")
    ctx = f.ctx
    if f.degree == 0:
        return Factorization(f.lead, [])
    ker, v = f._vectors(len(f.reps))
    lead_rep, vm = ker.make_monic(v)
    seed = DEFAULT_SEED if seed is None else seed
    raw = ker.factor_monic(vm, random.Random(seed))
    factors = [(Poly(ctx, ker.to_reps(vec)), m) for vec, m in raw]
    fact = Factorization(FieldElement(ctx, lead_rep), factors)
    if sum(g.degree * m for g, m in fact.factors) != f.degree:
        raise InvariantError(
            f"factor degrees do not sum to the input degree (q={ctx.q}, seed={seed})"
        )
    return fact


def is_irreducible(f: Poly) -> bool:
    """Rabin irreducibility test (q-power steps through the Frobenius matrix)."""
    if f.degree < 1:
        return False
    ker, v = f._vectors(len(f.reps))
    return ker.is_irreducible(ker.make_monic(v)[1])


def roots_in_field(f: Poly, seed: int | None = None) -> list[FieldElement]:
    """All roots lying in the coefficient field, with multiplicity, sorted."""
    if f.is_zero:
        raise DomainError("the zero polynomial has every root")
    if f.degree == 0:
        return []
    ctx = f.ctx
    ker, v = f._vectors(len(f.reps))
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    out = []
    for rep in sorted(ker.distinct_roots(ker.make_monic(v)[1], rng)):
        lin = ker.from_reps([ctx.rneg(rep), ctx.one_rep])
        q, r = ker.pdivmod(v, lin)
        while ker.deg(r) < 0:  # one more factor y - root
            out.append(FieldElement(ctx, rep))
            v, (q, r) = q, ker.pdivmod(q, lin)
    return out
