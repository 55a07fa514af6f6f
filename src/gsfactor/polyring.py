"""Dense univariate polynomials over a field context, plus a general
factorization oracle (square-free / distinct-degree / equal-degree splitting
with a seeded RNG, so identical runs give identical output).

Products and division go to the vector kernel that ``_kernels.kernel_for``
picks for the field; sums, derivatives and evaluation stay coefficient-wise.

Coefficients run low degree to high; the zero polynomial has an empty
coefficient tuple and degree ``-inf``.
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

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        elems = [c if isinstance(c, FieldElement) else ctx.elem(c) for c in coeffs]
        for c in elems:
            if c.ctx is not ctx and c.ctx != ctx:
                raise DomainError("coefficient from a different field")
        while elems and not elems[-1]:
            elems.pop()
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", tuple(elems))

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
    def degree(self):
        """Degree as an int; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> FieldElement:
        if not self.coeffs:
            raise DomainError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ctx.one

    def coeff(self, i: int) -> FieldElement:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ctx.zero

    def key(self):
        """Canonical sort key: (degree, coefficient keys low-to-high)."""
        return (len(self.coeffs), tuple(c.key() for c in self.coeffs))

    # -- arithmetic -----------------------------------------------------------

    def _check_ctx(self, other: "Poly"):
        if other.ctx != self.ctx:
            raise DomainError("polynomials over different fields")

    def _as_poly(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            self._check_ctx(other)
            return other
        if isinstance(other, (FieldElement, int, Fraction)):
            return Poly(self.ctx, [self.ctx.elem(other)])
        return None

    def __add__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ctx, [self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ctx, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __rsub__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Poly(self.ctx, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int, Fraction)):
            c = self.ctx.elem(other)
            return Poly(self.ctx, [a * c for a in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ctx(other)
        ker = _kernels.kernel_for(self.ctx, len(self.coeffs) + len(other.coeffs))
        return _from_vec(ker, ker.mul(_vec(ker, self), _vec(ker, other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (FieldElement, int, Fraction)):
            c = self.ctx.elem(other)
            return self * c.inverse()
        return NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise DomainError("polynomial powers take nonnegative int exponents")
        out = Poly.one(self.ctx)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ctx(other)
        ker = _kernels.kernel_for(self.ctx, len(self.coeffs))
        q, r = ker.pdivmod(_vec(ker, self), _vec(ker, other))
        return _from_vec(ker, q), _from_vec(ker, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, a) -> FieldElement:
        """Evaluate by Horner's rule."""
        a = self.ctx.elem(a)
        acc = self.ctx.zero
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(self.ctx, [i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero:
            raise DomainError("cannot normalize the zero polynomial")
        return self / self.lead

    # -- misc -----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"Poly({self.ctx!r}, {self})"


def _vec(ker, f: Poly):
    """The kernel vector of f's coefficients."""
    return ker.from_reps([c.rep for c in f.coeffs])


def _from_vec(ker, v) -> Poly:
    """The Poly with a kernel vector's coefficients."""
    ctx = ker.ctx
    return Poly(ctx, [FieldElement(ctx, r) for r in ker.to_reps(v)])


def poly(ctx: FieldCtx, coeffs) -> Poly:
    """Convenience constructor; accepts ints, Fractions, digit tuples."""
    return Poly(ctx, coeffs)


def poly_str(f: Poly, var: str = "y") -> str:
    """Canonical text form, highest degree first."""
    if f.is_zero:
        return "0"
    parts = []
    wrap = not isinstance(f.ctx, PrimeField)
    for i in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[i]
        if not c:
            continue
        cs = f"({c})" if wrap else str(c)
        if i == 0:
            parts.append(cs)
        else:
            xs = var if i == 1 else f"{var}^{i}"
            parts.append(xs if c == f.ctx.one else f"{cs}*{xs}")
    return " + ".join(parts)


def decompose_by(G: Poly, N: Poly) -> Poly | None:
    """Find h with G = h(N), by base-N digit extraction.

    Returns None when G is not a polynomial in N (a signaled outcome, not an
    error).  Requires N monic of degree >= 1 and deg G a multiple of deg N.
    """
    G._check_ctx(N)
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
        digits.append(r.coeff(0))
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
        return Factorization(f.coeffs[0], [])
    ker = _kernels.kernel_for(ctx, int(f.degree))
    lead_rep, vm = ker.make_monic(_vec(ker, f))
    seed = DEFAULT_SEED if seed is None else seed
    raw = ker.factor_monic(vm, random.Random(seed))
    factors = [(_from_vec(ker, vec), m) for vec, m in raw]
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
    ker = _kernels.kernel_for(f.ctx, int(f.degree))
    return ker.is_irreducible(ker.make_monic(_vec(ker, f))[1])


def roots_in_field(f: Poly, seed: int | None = None) -> list[FieldElement]:
    """All roots lying in the coefficient field, with multiplicity, sorted."""
    if f.is_zero:
        raise DomainError("the zero polynomial has every root")
    if f.degree == 0:
        return []
    ctx = f.ctx
    ker = _kernels.kernel_for(ctx, int(f.degree))
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    reps = ker.distinct_roots(ker.make_monic(_vec(ker, f))[1], rng)
    out = []
    for rep in sorted(reps):
        root = FieldElement(ctx, rep)
        lin = Poly(ctx, [-root, 1])
        cur = f
        while True:
            q, r = divmod(cur, lin)
            if not r.is_zero:
                break
            out.append(root)
            cur = q
    return out
