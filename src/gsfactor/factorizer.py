"""Closed-form factorization of g_s(y) = y^n + (1-y)^n - s over F_q, n = (q+1)/2.

The parameter s falls into one of six cases, decided by s itself and the
quadratic characters of 1 - s^2 and (1+s)/2.  Three special values (s = 1,
-1, 0) have fully explicit factorizations into linear and quadratic pieces.
Two generic character patterns also stay in degree at most two.  The last
case produces factors of a common degree e >= 3: every irreducible factor is
the shape polynomial of the recurrence with parameter c = 1 - s^2, shifted
by a constant.

Every route ends with a reconstruction check: the product of the claimed
factors, times the leading unit, must equal g_s coefficient for coefficient.
A mismatch raises InvariantError rather than returning a wrong answer.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .dickson import DicksonCtx, build_g
from .errors import DomainError, InvariantError
from .ffield import FieldElement, elements, mult_order, quad_char, sqrt
from .polyring import DEFAULT_SEED, Factorization, Poly, factorize, roots_in_field
from .polyring import decompose_by


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
    exactly on the first period of the recurrence:

        e odd:   y * prod_{k=1}^{(e-1)/2} (y - c_k)^2
        e even:  (y^2 - y) * prod_{k=1}^{(e-2)/2} (y - c_k)^2
    """
    x = Poly.x(profile.ctx)
    if profile.e % 2:
        acc = x
        top = (profile.e - 1) // 2
    else:
        acc = x * x - x
        top = (profile.e - 2) // 2
    for k in range(1, top + 1):
        lin = x - profile.terms[k]
        acc = acc * lin * lin
    return acc


def _shape_preimages(ctx: DicksonCtx, s: FieldElement, shape: Poly) -> list:
    """The constants m with shape - m dividing g_s, each necessarily simple."""
    lead = ctx.tau * ctx.tau / 2
    h = decompose_by(build_g(ctx, s) / lead, shape)
    if h is None:
        raise InvariantError("the family polynomial is not composed of the shape")
    rs = roots_in_field(h)
    if len(rs) != h.degree or len(set(r.rep for r in rs)) != len(rs):
        raise InvariantError("shape offsets are not simple field roots")
    return sorted(rs, key=lambda r: r.key())


def factor_closed_form(ctx: DicksonCtx, s) -> Factorization:
    """Factor g_s into irreducibles without any polynomial factorization."""
    field = ctx.field
    s, tag, profile = _classify(ctx, s)
    x = Poly.x(field)
    one = field.one
    half = one / 2

    merged: dict = {}

    def put(f: Poly, m: int = 1):
        k = f.key()
        if k in merged:
            merged[k] = (f, merged[k][1] + m)
        else:
            merged[k] = (f, m)

    kind = tag.kind
    if kind is CaseKind.S_PLUS_ONE:
        put(x)
        put(x - 1)
        for a in ctx.C:
            put(x - a, 2)
    elif kind is CaseKind.S_MINUS_ONE:
        # roots are the j with both j and 1-j nonsquare; these are exactly
        # the images (1+w)/2 of the W parameters
        for w in ctx.W:
            put(x - (1 + w) * half, 2)
    elif kind is CaseKind.S_ZERO:
        quarter = half * half
        for w in ctx.W:
            v = (1 + w) * half
            put(x * x - x + v * quarter)
    elif kind is CaseKind.SPLIT_LINEAR_QUADRATIC:
        put(x - (1 + s) * half)
        put(x - (1 - s) * half)
        for a in ctx.C:
            b = 2 * a - 1 - s
            put(x * x + (2 * a * s - 1 - s) * x + b * b / 4)
    elif kind is CaseKind.ALL_QUADRATIC:
        for w in ctx.W:
            t = s + w
            put(x * x - (1 + s * w) * x + t * t / 4)
    else:
        shape = factor_shape_poly(profile)
        for m in _shape_preimages(ctx, s, shape):
            put(shape - m)

    lead = ctx.tau * ctx.tau / 2
    result = Factorization(lead, merged.values())
    if result.expand() != build_g(ctx, s):
        raise InvariantError(f"closed form for q={ctx.field.q}, s={s} failed reconstruction")
    return result


def constant_terms(ctx: DicksonCtx, s):
    """For a degree-e parameter, the pair (e, offsets): the irreducible
    factors of g_s are exactly shape - m over the returned offsets m."""
    s, tag, profile = _classify(ctx, s)
    if tag.kind is not CaseKind.DEGREE_E:
        raise DomainError("constant terms are defined only in the degree-e case")
    ms = _shape_preimages(ctx, s, factor_shape_poly(profile))
    if len(ms) != ctx.E // profile.e:
        raise InvariantError("wrong number of shape offsets")
    return profile.e, tuple(ms)


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
        raise InvariantError("even-index classes must be symmetric")
    if d % 2 == 1 and in_plus and in_minus:
        raise InvariantError("odd-index classes must be exclusive")
    if in_plus:
        return SignClass.PLUS
    if in_minus:
        return SignClass.MINUS
    return SignClass.NEITHER


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
        if not s or s == field.one or s == -field.one:
            continue
        if quad_char(1 - s * s) != 1:
            continue
        e, ms = constant_terms(ctx, s)
        if e != d:
            continue
        cls = sign_class(ctx, s, d)
        if cls is SignClass.NEITHER:
            raise InvariantError("degree-d parameter outside both sign classes")
        residues = {quad_char(m) for m in ms}
        residue = residues.pop() if len(residues) == 1 else None
        if d % 2 == 1:
            expected = -1 if cls is SignClass.PLUS else 1
            if residue != expected:
                raise InvariantError(
                    f"norm residues for s={s} violate the odd-degree law"
                )
        out.append(NormClass(s=s, d=d, membership=cls, norms=ms, residue=residue))
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
