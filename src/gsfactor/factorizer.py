"""Closed-form factorization of g_s(y) = y^n + (1-y)^n - s over F_q, n = (q+1)/2.

The parameter s falls into one of six cases, decided by s itself and the
quadratic characters of 1 - s^2 and (1+s)/2.  Three special values (s = 1,
-1, 0) have fully explicit factorizations into linear and quadratic pieces.
Two generic character patterns also stay in degree at most two.  The last
case produces factors of a common degree e >= 3: every irreducible factor is
the shape polynomial of the recurrence with parameter c = 1 - s^2, shifted
by a constant.  With T_E the Chebyshev polynomial, g_s(y) = T_E(1 - 2y) - s
and the shape is (-1)^e 2^(1-2e) (T_e(1 - 2y) - 1) (Lidl, Mullen and
Turnwald, Dickson Polynomials, 1993).

Every route ends with a reconstruction check: the product of the claimed
factors, times the leading unit, must equal g_s coefficient for coefficient.
A mismatch raises InvariantError rather than returning a wrong answer.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from ._kernels import kernel_for
from .dickson import DicksonCtx, build_g
from .errors import DomainError, InvariantError
from .ffield import FieldElement, elements, mult_order, quad_char, sqrt
from .polyring import DEFAULT_SEED, Factorization, Poly, decompose_by, factorize, roots_in_field


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


def _classify(ctx: DicksonCtx, s):
    field = ctx.field
    s = field.elem(s)
    if s == field.one:
        return s, CaseTag(CaseKind.S_PLUS_ONE), None
    if s == -field.one:
        return s, CaseTag(CaseKind.S_MINUS_ONE), None
    if not s:
        return s, CaseTag(CaseKind.S_ZERO), None
    chi_c = quad_char(1 - s * s)
    chi_half = quad_char((1 + s) / 2)
    if chi_c == 1:
        from .recurrence import build_profile

        profile = build_profile(field, 1 - s * s)
        return s, CaseTag(CaseKind.DEGREE_E, chi_c, chi_half, profile.e), profile
    kind = (
        CaseKind.SPLIT_LINEAR_QUADRATIC if chi_half == 1 else CaseKind.ALL_QUADRATIC
    )
    return s, CaseTag(kind, chi_c, chi_half), None


def classify(ctx: DicksonCtx, s) -> CaseTag:
    """Decide which of the six factorization cases the parameter s is in."""
    return _classify(ctx, s)[1]


def factor_shape_poly(profile) -> Poly:
    """The monic degree-e polynomial vanishing (with the right multiplicities)
    exactly on the first period of the recurrence: y, or y^2 - y for even e,
    times prod (y - c_k)^2 over 0 < k < e/2.  It equals
    (-1)^e 2^(1-2e) (T_e(1 - 2y) - 1), so it depends on e alone; T_e comes
    from T_{a+b} = 2 T_a T_b - T_{a-b} on the pair (T_k, T_{k+1}) over the
    bits of e, in 2 bitlen(e) kernel products.
    """
    field, e = profile.ctx, profile.e
    ker, two = kernel_for(field, e + 1), field.rep_of(2)
    step = lambda a, b, c: ker.sub(ker.scale(ker.mul(a, b), two), c)
    one, x = ker.one(), ker.from_reps([field.one_rep, field.rep_of(-2)])
    lo, hi = one, x
    for bit in bin(e)[2:]:
        mid = step(lo, hi, x)
        lo, hi = (mid, step(hi, hi, one)) if bit == "1" else (step(lo, lo, one), mid)
    unit = (field.one / 2) ** (2 * e - 1) * (-1) ** e
    return Poly(field, ker.to_reps(ker.scale(ker.sub(lo, one), unit.rep)))


def _shape_preimages(ctx: DicksonCtx, s: FieldElement, profile, g: Poly) -> tuple:
    """The shape of s's profile and the E/e simple offsets m with shape - m | g = g_s."""
    shape = factor_shape_poly(profile)
    h = decompose_by(g.monic(), shape)
    if h is None:
        raise _failure(ctx, s, "shape", "the family polynomial is not composed of the shape")
    rs = roots_in_field(h)
    if len(rs) != h.degree or len(set(r.rep for r in rs)) != len(rs):
        raise _failure(ctx, s, "offsets", "shape offsets are not simple field roots")
    if len(rs) != ctx.E // profile.e:
        raise _failure(ctx, s, "offsets", "wrong number of shape offsets")
    return shape, tuple(sorted(rs, key=lambda r: r.key()))


def _failure(ctx: DicksonCtx, s: FieldElement, stage: str, what: str) -> InvariantError:
    """A closed-form failure naming the stage, q, s and the command that replays it."""
    at = f"q={ctx.field.q} s={s}"
    return InvariantError(f"{what} (stage={stage} {at} replay: gsfactor factor {at})")


def _closed_form(ctx: DicksonCtx, s) -> tuple:
    """One closed-form pass: (s, case tag, factorization, offsets or None)."""
    field = ctx.field
    s, tag, profile = _classify(ctx, s)
    g = build_g(ctx, s)
    ms = None
    x = Poly.x(field)
    one = field.one
    half = one / 2

    # the factors below are distinct by construction, so none is merged: the
    # linear coefficients are injective in a and w (s != 0 in those cases),
    # C excludes 0 and 1, and _shape_preimages checks the offsets are simple
    kind = tag.kind
    if kind is CaseKind.S_PLUS_ONE:
        factors = [(x, 1), (x - 1, 1)] + [(x - a, 2) for a in ctx.C]
    elif kind is CaseKind.S_MINUS_ONE:
        # roots are the j with both j and 1-j nonsquare; these are exactly
        # the images (1+w)/2 of the W parameters
        factors = [(x - (1 + w) * half, 2) for w in ctx.W]
    elif kind is CaseKind.S_ZERO:
        quarter = half * half
        factors = [(x * x - x + (1 + w) * half * quarter, 1) for w in ctx.W]
    elif kind is CaseKind.SPLIT_LINEAR_QUADRATIC:
        factors = [(x - (1 + s) * half, 1), (x - (1 - s) * half, 1)]
        for a in ctx.C:
            b = 2 * a - 1 - s
            factors.append((x * x + (2 * a * s - 1 - s) * x + b * b / 4, 1))
    elif kind is CaseKind.ALL_QUADRATIC:
        factors = []
        for w in ctx.W:
            t = s + w
            factors.append((x * x - (1 + s * w) * x + t * t / 4, 1))
    else:
        shape, ms = _shape_preimages(ctx, s, profile, g)
        factors = [(shape - m, 1) for m in ms]

    lead = ctx.tau * ctx.tau / 2
    result = Factorization(lead, factors)
    if result.expand() != g:
        raise _failure(ctx, s, "reconstruct", "the closed form failed reconstruction")
    return s, tag, result, ms


def factor_closed_form(ctx: DicksonCtx, s) -> Factorization:
    """Factor g_s into irreducibles without any polynomial factorization."""
    return _closed_form(ctx, s)[2]


def constant_terms(ctx: DicksonCtx, s):
    """For a degree-e parameter, the pair (e, offsets): the irreducible
    factors of g_s are exactly shape - m over the returned offsets m."""
    s, tag, profile = _classify(ctx, s)
    if tag.kind is not CaseKind.DEGREE_E:
        raise DomainError("constant terms are defined only in the degree-e case")
    return profile.e, _shape_preimages(ctx, s, profile, build_g(ctx, s))[1]


def is_irreducible_gs(ctx: DicksonCtx, s) -> bool:
    """True when g_s is classified as a single irreducible of degree E."""
    tag = classify(ctx, s)
    return tag.kind is CaseKind.DEGREE_E and tag.e == ctx.E


def irreducible_s_values(ctx: DicksonCtx) -> tuple:
    """All s with g_s irreducible, by classification, in canonical order."""
    return tuple(
        s for s in elements(ctx.field) if is_irreducible_gs(ctx, s)
    )


def half_sum_s_values(ctx: DicksonCtx) -> tuple:
    """All values (B + 1/B)/2 over the elements B of maximal even order 2E
    in the quadratic extension, projected to the field and sorted.

    For q >= 7 this is an independent route to the same set as
    irreducible_s_values; the two are compared in the test suite.
    """
    field = ctx.field
    ext = field.ext
    group = ext.q - 1
    gamma = None
    for x in elements(ext):
        if x and mult_order(x) == group:
            gamma = x
            break
    if gamma is None:
        raise InvariantError("no generator found for the extension group")
    two_e = 2 * ctx.E
    b0 = gamma ** (group // two_e)
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
    equal to s, and in the minus class when such a B exists for -s.  The two
    candidates for B are s +/- i*sqrt(1 - s^2) in the quadratic extension,
    so two order computations decide everything.
    """
    if d < 1:
        raise DomainError("the class index d must be positive")
    field = ctx.field
    ext = field.ext
    s = field.elem(s)
    rc = sqrt(ext.embed(1 - s * s))
    beta = ext.embed(s) + ext.i * rc
    in_plus = mult_order(beta) == 2 * d
    in_minus = mult_order(-beta) == 2 * d
    if d % 2 == 0 and in_plus != in_minus:
        raise InvariantError(f"even-index classes must be symmetric (q={field.q}, s={s})")
    if d % 2 == 1 and in_plus and in_minus:
        raise InvariantError(f"odd-index classes must be exclusive (q={field.q}, s={s})")
    if in_plus:
        return SignClass.PLUS
    if in_minus:
        return SignClass.MINUS
    return SignClass.NEITHER


def _norm_class(ctx: DicksonCtx, s: FieldElement, d: int, norms) -> NormClass:
    """Sign class of s for degree d, and the character the norms share."""
    residues = {quad_char(m) for m in norms}
    residue = residues.pop() if len(residues) == 1 else None
    return NormClass(s, d, sign_class(ctx, s, d), norms, residue)


def norm_residuacity(ctx: DicksonCtx, d: int) -> list:
    """Constant-term character data for every s whose factors have degree d.

    For odd d the constant terms of one s share a single quadratic character
    determined by the sign class (plus -> nonsquares, minus -> squares);
    that law is enforced here.  For even d no law is asserted and the shared
    character is reported as None whenever the terms are mixed.
    """
    field = ctx.field
    out = []
    for s in elements(field):
        s, tag, profile = _classify(ctx, s)
        if tag.e != d:
            continue
        ms = _shape_preimages(ctx, s, profile, build_g(ctx, s))[1]
        nc = _norm_class(ctx, s, d, ms)
        if nc.membership is SignClass.NEITHER:
            raise InvariantError(
                f"degree-d parameter outside both sign classes (q={field.q}, s={s})"
            )
        if d % 2 == 1:
            expected = -1 if nc.membership is SignClass.PLUS else 1
            if nc.residue != expected:
                raise InvariantError(
                    f"norm residues for q={field.q}, s={s} violate the odd-degree law"
                )
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


def _surd_pair(radicand):
    def build(field):
        r = sqrt(field.elem(radicand))
        if r is None:
            return None
        return [r, -r]

    return build


_SHAPE_TABLE = {
    3: (12, lambda f: [f.elem(_F(3, 4))], [0, _F(9, 16), _F(-3, 2), 1]),
    4: (8, lambda f: [f.elem(_F(1, 2))], [0, _F(-1, 4), _F(5, 4), -2, 1]),
    5: (
        20,
        lambda f: None
        if (r := _surd_pair(5)(f)) is None
        else [(5 + x) / 8 for x in r],
        [0, _F(25, 256), _F(-25, 32), _F(35, 16), _F(-5, 2), 1],
    ),
    6: (
        12,
        lambda f: [f.elem(_F(1, 4))],
        [0, _F(-9, 256), _F(105, 256), _F(-7, 4), _F(27, 8), -3, 1],
    ),
    8: (
        16,
        lambda f: None
        if (r := _surd_pair(2)(f)) is None
        else [(2 + x) / 4 for x in r],
        [
            0,
            _F(-1, 256),
            _F(21, 256),
            _F(-21, 32),
            _F(165, 64),
            _F(-11, 2),
            _F(13, 2),
            -4,
            1,
        ],
    ),
    10: (
        20,
        lambda f: None
        if (r := _surd_pair(5)(f)) is None
        else [(3 + x) / 8 for x in r],
        [
            0,
            _F(-25, 65536),
            _F(825, 65536),
            _F(-165, 1024),
            _F(2145, 2048),
            _F(-1001, 256),
            _F(2275, 256),
            _F(-25, 2),
            _F(85, 8),
            -5,
            1,
        ],
    ),
    12: (
        24,
        lambda f: None
        if (r := _surd_pair(3)(f)) is None
        else [(2 + x) / 4 for x in r],
        [
            0,
            _F(-9, 262144),
            _F(429, 262144),
            _F(-1001, 32768),
            _F(19305, 65536),
            _F(-429, 256),
            _F(1547, 256),
            _F(-459, 32),
            _F(2907, 128),
            _F(-95, 4),
            _F(63, 4),
            -6,
            1,
        ],
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
    expected = Poly(field, coeffs)
    for c in cs:
        try:
            profile = build_profile(field, c)
        except DomainError:
            return False
        if profile.e != d or factor_shape_poly(profile) != expected:
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
