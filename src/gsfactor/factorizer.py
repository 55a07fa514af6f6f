"""Closed-form factorization of g_s(y) = y^n + (1-y)^n - s over F_q, n = (q+1)/2.

With T_E the Chebyshev polynomial, g_s(y) = T_E(1 - 2y) - s up to a unit, so
its roots are y = (1 - (w + 1/w)/2)/2 over the solutions of w^E = beta, where
beta = s + i*sqrt(1 - s^2) (Lidl, Mullen and Turnwald, Dickson Polynomials,
1993).  The parameter s falls into one of six cases, decided by s itself and
the quadratic characters of 1 - s^2 and (1+s)/2; the case fixes the factor
degree e, 1 outside the degree-e case and in it half the order of +-beta,
read from one discrete log of beta.  One rule then covers every case: the
factors are shape_e - m, shape_e = (-1)^e 2^(1-2e) (T_e(1 - 2y) - 1), over
the offsets m taken from the E/e roots of w^{E/e} = beta in F_{q^2}, and at
e = 1 the quadratics of the conjugate pairs of offsets outside F_q.

Every factorization ends with a reconstruction check: the product of the
claimed factors, times the leading unit, must equal g_s coefficient for
coefficient.  A mismatch raises InvariantError rather than returning a wrong
answer.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from ._kernels import kernel_for
from .dickson import DicksonCtx, build_g
from .errors import DomainError, InvariantError
from .ffield import FieldElement, elements, quad_char, sqrt
from .polyring import DEFAULT_SEED, Factorization, Poly, factorize


class CaseKind(enum.Enum):
    S_PLUS_ONE = "SPlusOne"
    S_MINUS_ONE = "SMinusOne"
    S_ZERO = "SZero"
    SPLIT_LINEAR_QUADRATIC = "SplitLinearQuadratic"
    ALL_QUADRATIC = "AllQuadratic"
    DEGREE_E = "DegreeE"


@dataclass(frozen=True)
class CaseTag:
    """Classification of one parameter value.

    chi_c is the character of 1 - s^2 and chi_half that of (1+s)/2; both are
    None for the three special values of s, where no character is consulted.
    e is the common factor degree and is set only in the DEGREE_E case.
    """

    kind: CaseKind
    chi_c: int | None = None
    chi_half: int | None = None
    e: int | None = None

    def to_json(self) -> dict:
        return {
            "case": self.kind.value,
            "chi_c": self.chi_c,
            "chi_half": self.chi_half,
            "e": self.e,
        }


class SignClass(enum.Enum):
    PLUS = "B_d"
    MINUS = "B_d_prime"
    NEITHER = "neither"


@dataclass(frozen=True)
class NormClass:
    """Quadratic-character data for the constant terms attached to one s."""

    s: FieldElement
    d: int
    membership: SignClass
    norms: tuple
    residue: int | None  # shared character of the norms, None if mixed


def _order(ext, log: int) -> int:
    """The order of generator_rep^log in F_{q^2}^*: (q^2 - 1)/gcd(log, q^2 - 1)."""
    return (ext.q - 1) // math.gcd(log, ext.q - 1)


def _classify(ctx: DicksonCtx, s):
    """(s, case tag, log of beta): in the degree-e case, e is ord(beta)/2, or
    ord(beta) when that is odd (then -beta has order 2e), the period of the
    recurrence with parameter 1 - s^2."""
    field = ctx.field
    s = field.elem(s)
    log = field.ext.log_rep(_beta(ctx, s).rep)
    if s == field.one:
        return s, CaseTag(CaseKind.S_PLUS_ONE), log
    if s == -field.one:
        return s, CaseTag(CaseKind.S_MINUS_ONE), log
    if not s:
        return s, CaseTag(CaseKind.S_ZERO), log
    chi_c = quad_char(1 - s * s)
    chi_half = quad_char((1 + s) / 2)
    if chi_c == 1:
        order = _order(field.ext, log)
        e = order if order % 2 else order // 2
        return s, CaseTag(CaseKind.DEGREE_E, chi_c, chi_half, e), log
    kind = CaseKind.SPLIT_LINEAR_QUADRATIC if chi_half == 1 else CaseKind.ALL_QUADRATIC
    return s, CaseTag(kind, chi_c, chi_half), log


def classify(ctx: DicksonCtx, s) -> CaseTag:
    """Decide which of the six factorization cases the parameter s is in."""
    return _classify(ctx, s)[1]


def _unit(field, e: int) -> FieldElement:
    """U = (-1)^e 2^(1-2e), the scale that makes the degree-e shape monic."""
    return (field.one / 2) ** (2 * e - 1) * (-1) ** e


def factor_shape_poly(field, e: int) -> Poly:
    """The monic degree-e polynomial vanishing (with the right multiplicities)
    exactly on the first period of the recurrence of period e: y, or y^2 - y
    for even e, times prod (y - c_k)^2 over 0 < k < e/2.  It equals
    (-1)^e 2^(1-2e) (T_e(1 - 2y) - 1), so it depends on e alone; T_e comes
    from T_{a+b} = 2 T_a T_b - T_{a-b} on the pair (T_k, T_{k+1}) over the
    bits of e, in 2 bitlen(e) kernel products.
    """
    ker, two = kernel_for(field, e + 1), field.rep_of(2)
    step = lambda a, b, c: ker.sub(ker.scale(ker.mul(a, b), two), c)
    one, x = ker.one(), ker.from_reps([field.one_rep, field.rep_of(-2)])
    lo, hi = one, x
    for bit in bin(e)[2:]:
        mid = step(lo, hi, x)
        lo, hi = (mid, step(hi, hi, one)) if bit == "1" else (step(lo, lo, one), mid)
    return Poly(field, ker.to_reps(ker.scale(ker.sub(lo, one), _unit(field, e).rep)))


def _beta(ctx: DicksonCtx, s: FieldElement) -> FieldElement:
    """s + i*sqrt(1 - s^2) in the quadratic extension, so (beta + 1/beta)/2 = s."""
    ext = ctx.field.ext
    return ext.embed(s) + ext.i * sqrt(ext.embed(1 - s * s))


def _offsets(ctx: DicksonCtx, s: FieldElement, e: int, log: int) -> list:
    """The offsets m_j = U(x_j - 1), x_j = (w_j + 1/w_j)/2, each counted once
    per root, over the N = E/e roots w_j = w0 zeta^j of w^N = beta = g^log,
    w0 = g^(log/N), zeta = g^((q^2-1)/N).  The roots of w^N = 1/beta give the
    same offsets, so w0 is checked against s itself.  One walk on F_{q^2} reps
    gives every U x_j, by x_{j+1} = c x_j - x_{j-1} with c = zeta + 1/zeta.
    The offsets come back in canonical order when all lie in F_q, and
    otherwise, only at e = 1, in walk order, each in the smallest field that
    holds it."""
    field, ext, zero = ctx.field, ctx.field.ext, ctx.field.zero_rep
    n, g = ctx.E // e, ext.generator_rep
    w0 = FieldElement(ext, ext.rpow(g, log // n))
    if (w0**n + w0**-n) / 2 != ext.embed(s):
        raise _failure(ctx, s, "offsets", f"w0 = g^(log(beta)/{n}) has (w0^{n} + w0^-{n})/2 != s")
    zeta, unit = FieldElement(ext, ext.rpow(g, (ext.q - 1) // n)), ext.embed(_unit(field, e))
    c = (zeta + 1 / zeta).rep
    prev, cur = ((unit * (w + 1 / w) / 2).rep for w in (w0 / zeta, w0))
    ms = []
    for _ in range(n):
        ms.append(ext.rsub(cur, unit.rep))
        prev, cur = cur, ext.rsub(ext.rmul(c, cur), prev)
    if all(m[1] == zero for m in ms):
        return [FieldElement(field, m) for m in sorted(m[0] for m in ms)]
    if e > 1:
        raise _failure(ctx, s, "offsets", "an offset lies outside the field")
    return [FieldElement(field, m[0]) if m[1] == zero else FieldElement(ext, m) for m in ms]


def _failure(ctx: DicksonCtx, s: FieldElement, stage: str, what: str) -> InvariantError:
    """A closed-form failure naming the stage, q, s and the command that replays it."""
    at = f"q={ctx.field.q} s={s}"
    return InvariantError(f"{what} (stage={stage} {at} replay: gsfactor factor {at})")


def _closed_form(ctx: DicksonCtx, s) -> tuple:
    """One closed-form pass: (s, case tag, log of beta, factorization, offsets
    in the degree-e case or None)."""
    field, ext = ctx.field, ctx.field.ext
    s, tag, log = _classify(ctx, s)
    ms = _offsets(ctx, s, tag.e or 1, log)
    shape = factor_shape_poly(field, tag.e or 1)
    counts = Counter(ms)
    factors = []
    for m, k in counts.items():
        if m.ctx is field:
            factors.append((shape - m, k))
        elif counts[ext.conj(m)] != k:
            raise _failure(ctx, s, "offsets", "an offset and its conjugate differ in count")
        elif m.rep < ext.conj(m).rep:  # y^2 - (m + m')y + m m' once per pair
            re, norm = (FieldElement(field, r) for r in (m.rep[0], ext.rnorm(m.rep)))
            factors.append((Poly(field, [norm, -2 * re, 1]), k))
    result = Factorization(ctx.tau * ctx.tau / 2, factors)
    if result.expand() != build_g(ctx, s):
        raise _failure(ctx, s, "reconstruct", "the closed form failed reconstruction")
    return s, tag, log, result, tuple(ms) if tag.kind is CaseKind.DEGREE_E else None


def factor_closed_form(ctx: DicksonCtx, s) -> Factorization:
    """Factor g_s into irreducibles without any polynomial factorization."""
    return _closed_form(ctx, s)[3]


def _constant_terms(ctx: DicksonCtx, s) -> tuple:
    """(s, e, offsets, log of beta) for a degree-e parameter."""
    s, tag, log = _classify(ctx, s)
    if tag.kind is not CaseKind.DEGREE_E:
        raise DomainError("constant terms are defined only in the degree-e case")
    return s, tag.e, tuple(_offsets(ctx, s, tag.e, log)), log


def constant_terms(ctx: DicksonCtx, s):
    """For a degree-e parameter, the pair (e, offsets): the irreducible
    factors of g_s are exactly shape - m over the returned offsets m."""
    return _constant_terms(ctx, s)[1:3]


def is_irreducible_gs(ctx: DicksonCtx, s) -> bool:
    """The paper's criterion: g_s is irreducible exactly when c = 1 - s^2 is a
    nonzero square other than 1 and the recurrence with parameter c has
    period E."""
    from .recurrence import build_profile

    s = ctx.field.elem(s)
    c = 1 - s * s
    return c != ctx.field.one and quad_char(c) == 1 and build_profile(ctx.field, c).e == ctx.E


def irreducible_s_values(ctx: DicksonCtx) -> tuple:
    """All s with g_s irreducible, by the recurrence's period, in canonical order."""
    return tuple(s for s in elements(ctx.field) if is_irreducible_gs(ctx, s))


def half_sum_s_values(ctx: DicksonCtx) -> tuple:
    """All values (B + 1/B)/2 over the elements B of maximal even order 2E
    in the quadratic extension, projected to the field and sorted.

    For q >= 7 this is an independent route to the same set as
    irreducible_s_values; the two are compared in the test suite.
    """
    ext = ctx.field.ext
    two_e = 2 * ctx.E
    b0 = FieldElement(ext, ext.rpow(ext.generator_rep, (ext.q - 1) // two_e))
    half = ext.one / 2
    vals = set()
    for j in range(1, two_e):
        if math.gcd(j, two_e) == 1:
            b = b0**j
            vals.add(ext.project((b + b.inverse()) * half))
    return tuple(sorted(vals, key=lambda v: v.key()))


def sign_class(ctx: DicksonCtx, s, d: int) -> SignClass:
    """Membership of s in the order-2d half-sum class or its negation.

    s is in the plus class when some B of order exactly 2d has (B + 1/B)/2
    equal to s, and in the minus class when such a B exists for -s.  The
    candidates for B are beta = s + i*sqrt(1 - s^2), its inverse and their
    negations, so one discrete log of beta decides everything.
    """
    if d < 1:
        raise DomainError("the class index d must be positive")
    s = ctx.field.elem(s)
    return _sign_class(ctx, s, d, ctx.field.ext.log_rep(_beta(ctx, s).rep))


def _sign_class(ctx: DicksonCtx, s: FieldElement, d: int, log: int) -> SignClass:
    """sign_class from log(beta); -beta = g^(log + (q^2 - 1)/2)."""
    ext = ctx.field.ext
    in_plus = _order(ext, log) == 2 * d
    in_minus = _order(ext, log + (ext.q - 1) // 2) == 2 * d
    if d % 2 == 0 and in_plus != in_minus:
        raise _failure(ctx, s, "sign-class", "even-index classes must be symmetric")
    if d % 2 == 1 and in_plus and in_minus:
        raise _failure(ctx, s, "sign-class", "odd-index classes must be exclusive")
    if in_plus:
        return SignClass.PLUS
    if in_minus:
        return SignClass.MINUS
    return SignClass.NEITHER


def _norm_class(ctx: DicksonCtx, s: FieldElement, d: int, norms, log: int) -> NormClass:
    """Sign class of s for degree d, and the character the norms share."""
    residues = {quad_char(m) for m in norms}
    residue = residues.pop() if len(residues) == 1 else None
    return NormClass(s, d, _sign_class(ctx, s, d, log), norms, residue)


def norm_residuacity(ctx: DicksonCtx, d: int) -> list:
    """Constant-term character data for every s whose factors have degree d.

    For odd d the constant terms of one s share a single quadratic character
    determined by the sign class (plus -> nonsquares, minus -> squares);
    that law is enforced here.  For even d no law is asserted and the shared
    character is reported as None whenever the terms are mixed.
    """
    out = []
    for s in elements(ctx.field):
        s, tag, log = _classify(ctx, s)
        if tag.e != d:
            continue
        nc = _norm_class(ctx, s, d, tuple(_offsets(ctx, s, d, log)), log)
        if nc.membership is SignClass.NEITHER:
            raise _failure(ctx, s, "residuacity", f"degree-{d} parameter in neither sign class")
        if d % 2 == 1 and nc.residue != (-1 if nc.membership is SignClass.PLUS else 1):
            raise _failure(ctx, s, "residuacity", "norm residues violate the odd-degree law")
        out.append(nc)
    return out


def cubic_norm_complement(ctx: DicksonCtx):
    """For q = +/-1 mod 12: the constant terms at s = 1/2 and s = -1/2,
    together, are exactly the complement of the value set of
    v -> v*(v - 3/4)^2.

    Returns (terms, value_set, holds) with both tuples sorted; holds covers
    the complement statement and both cardinality formulas.
    """
    field = ctx.field
    q = field.q
    if q % 12 not in (1, 11):
        raise DomainError("need q congruent to +/-1 mod 12")
    half = field.one / 2
    e1, u1 = constant_terms(ctx, half)
    e2, u2 = constant_terms(ctx, -half)
    if e1 != 3 or e2 != 3:
        raise InvariantError("parameters +/-1/2 must have factor degree 3")
    terms = set(u1) | set(u2)
    c34 = field.elem(Fraction(3, 4))
    values = {v * (v - c34) * (v - c34) for v in elements(field)}
    chi = ctx.chi_minus_one
    holds = (
        len(terms) == len(u1) + len(u2)
        and len(terms) == (q - chi) // 3
        and len(values) == (2 * q + chi) // 3
        and terms.isdisjoint(values)
        and len(terms) + len(values) == q
    )
    key = lambda v: v.key()
    return tuple(sorted(terms, key=key)), tuple(sorted(values, key=key)), holds


# degrees whose shape polynomial is field-independent, given the congruence
TABLE_DEGREES = (3, 4, 5, 6, 8, 10, 12)

_F = Fraction


def _surd_pair(radicand, a, b):
    """The builder of [(a + r)/b, (a - r)/b] for r = sqrt(radicand), or None."""

    def build(field):
        r = sqrt(field.elem(radicand))
        return None if r is None else [(a + x) / b for x in (r, -r)]

    return build


_SHAPE_TABLE = {
    3: (12, lambda f: [f.elem(_F(3, 4))], [0, _F(9, 16), _F(-3, 2), 1]),
    4: (8, lambda f: [f.elem(_F(1, 2))], [0, _F(-1, 4), _F(5, 4), -2, 1]),
    5: (
        20,
        _surd_pair(5, 5, 8),
        [0, _F(25, 256), _F(-25, 32), _F(35, 16), _F(-5, 2), 1],
    ),
    6: (
        12,
        lambda f: [f.elem(_F(1, 4))],
        [0, _F(-9, 256), _F(105, 256), _F(-7, 4), _F(27, 8), -3, 1],
    ),
    8: (
        16,
        _surd_pair(2, 2, 4),
        [0, _F(-1, 256), _F(21, 256), _F(-21, 32), _F(165, 64), _F(-11, 2), _F(13, 2), -4, 1],
    ),
    10: (
        20,
        _surd_pair(5, 3, 8),
        [0, _F(-25, 65536), _F(825, 65536), _F(-165, 1024), _F(2145, 2048), _F(-1001, 256),
         _F(2275, 256), _F(-25, 2), _F(85, 8), -5, 1],
    ),
    12: (
        24,
        _surd_pair(3, 2, 4),
        [0, _F(-9, 262144), _F(429, 262144), _F(-1001, 32768), _F(19305, 65536), _F(-429, 256),
         _F(1547, 256), _F(-459, 32), _F(2907, 128), _F(-95, 4), _F(63, 4), -6, 1],
    ),
}


def degree_table_check(ctx: DicksonCtx, d: int) -> bool:
    """Check the frozen rational shape table for factor degree d.

    Preconditions: d is a tabulated degree and q satisfies the congruence
    attached to it.  Returns True when every tabulated parameter c really
    has period d and reproduces the tabulated shape polynomial.
    """
    from .recurrence import build_profile

    if d not in _SHAPE_TABLE:
        raise DomainError(f"no table for degree {d}")
    modulus, c_of, coeffs = _SHAPE_TABLE[d]
    field = ctx.field
    if field.q % modulus not in (1, modulus - 1):
        raise DomainError(f"need q congruent to +/-1 mod {modulus}")
    cs = c_of(field)
    if cs is None:
        return False
    if factor_shape_poly(field, d) != Poly(field, coeffs):
        return False
    for c in cs:
        try:
            profile = build_profile(field, c)
        except DomainError:
            return False
        if profile.e != d:
            return False
    return True


def _derived_seed(base: int, q: int, s_index: int) -> int:
    mask = (1 << 63) - 1
    h = (base * 0x9E3779B1 + q) & mask
    return (h * 0x9E3779B1 + s_index) & mask


def verify_against_oracle(ctx: DicksonCtx, s, seed: int = DEFAULT_SEED) -> bool:
    """Compare the closed-form factorization of g_s with a generic
    randomized factorization of the very same polynomial."""
    field = ctx.field
    s = field.elem(s)
    closed = factor_closed_form(ctx, s)
    generic = factorize(
        build_g(ctx, s), seed=_derived_seed(seed, field.q, field.index_of(s.rep))
    )
    return closed == generic
