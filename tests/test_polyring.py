"""Polynomial ring and the generic factorization engine.

Where possible the engine is checked against sympy's GF(p) factorization,
which shares no code with this package; extension fields fall back to
self-consistency (expand, irreducibility, degree bookkeeping).
"""

import random
import re
import shlex
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gsfactor import _kernels
from gsfactor.errors import DomainError, InvariantError
from gsfactor.ffield import FieldElement, elements, make_field
from gsfactor.polyring import (
    Factorization,
    Poly,
    decompose_by,
    elem_json,
    factorize,
    is_irreducible,
    poly,
    poly_str,
    roots_in_field,
)

F13 = make_field(13)


def rand_poly(F, deg, rng):
    cs = [rng.randrange(F.q) for _ in range(deg)]
    cs.append(rng.randrange(1, F.q))
    if F.k > 1:
        cs = [F.rep_at(c) for c in cs]
    return Poly(F, cs)


class TestPolyBasics:
    def test_trim_and_degree(self):
        f = Poly(F13, [1, 2, 0, 0])
        assert f.degree == 1
        assert Poly(F13, []).is_zero
        assert Poly(F13, [0]).is_zero
        assert Poly.x(F13).degree == 1

    def test_coercion_in_coeffs(self):
        f = Poly(F13, [Fraction(1, 2), F13.elem(3), -1])
        assert f.coeff(0).rep == 7 and f.coeff(2).rep == 12

    def test_evaluation_matches_horner_by_hand(self):
        rng = random.Random(1)
        for _ in range(40):
            f = rand_poly(F13, rng.randrange(0, 6), rng)
            a = rng.randrange(13)
            direct = sum(
                f.coeff(i).rep * pow(a, i, 13) for i in range(f.degree + 1)
            ) % 13
            assert f(F13.elem(a)).rep == direct

    def test_ring_ops_against_sympy(self):
        y = sympy.symbols("y")
        rng = random.Random(2)
        for _ in range(25):
            f = rand_poly(F13, rng.randrange(0, 7), rng)
            g = rand_poly(F13, rng.randrange(0, 7), rng)
            sf = sympy.Poly([c.rep for c in reversed(f.coeffs)], y, modulus=13)
            sg = sympy.Poly([c.rep for c in reversed(g.coeffs)], y, modulus=13)
            q, r = divmod(f, g)
            sq, sr = sf.div(sg)
            for ours, theirs in (
                (f + g, sf + sg),
                (f - g, sf - sg),
                (f * g, sf * sg),
                (q, sq),
                (r, sr),
            ):
                got = [c.rep for c in reversed(ours.coeffs)] or [0]
                want = [c % 13 for c in theirs.all_coeffs()]
                assert got == want

    def test_scalar_ops_both_sides(self):
        x = Poly.x(F13)
        assert (1 - x) + x == Poly.one(F13)
        assert (x + Fraction(1, 2)) * 2 == 2 * x + 1
        assert (x - F13.elem(5)).coeff(0).rep == 8

    def test_divmod_invariant(self):
        # one field per kernel route: ModPKernel (F_13), DigitKernel (F_9,
        # F_125), ObjectKernel (quadratic extension, and p past the int64 guard)
        rng = random.Random(3)
        fields = (F13, make_field(3, 2), make_field(5, 3), F13.ext, make_field(2**40 + 15))
        for F in fields:
            for _ in range(30):
                f = rand_poly(F, rng.randrange(0, 8), rng)
                g = rand_poly(F, rng.randrange(1, 5), rng)
                q, r = divmod(f, g)
                assert q * g + r == f
                assert r.is_zero or r.degree < g.degree

    def test_pow(self):
        x = Poly.x(F13)
        assert (x + 1) ** 0 == Poly.one(F13)
        assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1

    @pytest.mark.parametrize("m, products", [(1, 0), (2, 1), (5, 3)])
    def test_pow_products(self, monkeypatch, m, products):
        # bitlen(m) - 1 squarings and popcount(m) - 1 other products, none with one
        f = Poly(F13, [3, 1, 4])
        want = Poly.one(F13)
        for _ in range(m):
            want = want * f
        calls = []
        real = _kernels.ModPKernel.mul
        monkeypatch.setattr(_kernels.ModPKernel, "mul", lambda *a: calls.append(1) or real(*a))
        assert f**m == want
        assert len(calls) == products

    def test_derivative(self):
        x = Poly.x(F13)
        f = x**13 + 2 * x**3 + 5
        assert f.derivative() == 6 * x**2  # 13 x^12 vanishes mod 13

    def test_poly_str(self):
        x = Poly.x(F13)
        assert poly_str(7 * x**2 + 1) == "7*y^2 + 1"
        assert poly_str(x - 1, var="z") == "z + 12"


class TestGcdPowmod:
    """gcd and powmod live on the kernels; checked here over F_13 against
    sympy and against Poly arithmetic."""

    KER = _kernels.kernel_for(F13, 64)

    def vec(self, f):
        return self.KER.from_reps([c.rep for c in f.coeffs])

    def test_gcd_against_sympy(self):
        ker = self.KER
        y = sympy.symbols("y")
        rng = random.Random(4)
        for _ in range(25):
            f = rand_poly(F13, rng.randrange(1, 7), rng)
            g = rand_poly(F13, rng.randrange(1, 7), rng)
            ours = ker.to_reps(ker.gcd(self.vec(f), self.vec(g)))
            sf = sympy.Poly([c.rep for c in reversed(f.coeffs)], y, modulus=13)
            sg = sympy.Poly([c.rep for c in reversed(g.coeffs)], y, modulus=13)
            theirs = sf.gcd(sg).monic()
            assert ours[::-1] == [c % 13 for c in theirs.all_coeffs()]

    def test_powmod_matches_naive(self):
        ker = self.KER

        def powmod(f, e, m):
            v = ker.powmod(self.vec(f), e, ker.reducer(self.vec(m.monic())))
            return Poly(F13, ker.to_reps(v))

        x = Poly.x(F13)
        m = x**2 - 1
        assert powmod(x, 13, m) == (x**13) % m == x
        rng = random.Random(5)
        for _ in range(10):
            f = rand_poly(F13, 3, rng)
            m = rand_poly(F13, rng.randrange(2, 5), rng)
            e = rng.randrange(1, 40)
            assert powmod(f, e, m) == (f**e) % m


class TestFactorize:
    def test_against_sympy_prime_fields(self):
        y = sympy.symbols("y")
        rng = random.Random(6)
        for p in (5, 13, 199):
            F = make_field(p)
            for _ in range(15):
                f = rand_poly(F, rng.randrange(1, 9), rng)
                fac = factorize(f)
                assert fac.expand() == f
                sf = sympy.Poly([c.rep for c in reversed(f.coeffs)], y, modulus=p)
                _, slist = sf.factor_list()
                theirs = sorted(
                    (tuple(c % p for c in q.monic().all_coeffs()), m)
                    for q, m in slist
                )
                ours = sorted(
                    (tuple(c.rep for c in reversed(g.coeffs)), m)
                    for g, m in fac.factors
                )
                assert [(list(c), m) for c, m in ours] == [
                    (list(c), m) for c, m in theirs
                ]

    def test_char_p_multiplicities(self):
        x = Poly.x(F13)
        f = 3 * (x - 1) ** 13 * (x - 2) ** 2
        fac = factorize(f)
        assert fac.expand() == f
        assert sorted(m for _, m in fac.factors) == [2, 13]

    def test_extension_field_self_checks(self):
        rng = random.Random(7)
        for F in (make_field(3, 3), make_field(5, 2)):
            for _ in range(10):
                f = rand_poly(F, rng.randrange(1, 7), rng)
                fac = factorize(f)
                assert fac.expand() == f
                for g, _ in fac.factors:
                    assert is_irreducible(g)

    def test_seed_independence_of_result(self):
        F = make_field(19)
        rng = random.Random(8)
        for _ in range(8):
            f = rand_poly(F, 6, rng)
            assert factorize(f, seed=1) == factorize(f, seed=2)

    def test_quadratic_extension_coefficients(self):
        ext = F13.ext
        x = Poly.x(ext)
        f = x * x + 1  # splits since -1 is a square in the extension
        fac = factorize(f)
        consts = sorted(g.coeff(0).rep for g, _ in fac.factors)
        assert consts == [(5, 0), (8, 0)]

    def test_is_irreducible(self):
        x = Poly.x(F13)
        assert is_irreducible(x**2 + 2)  # -2 = 11 is a nonsquare mod 13
        assert not is_irreducible(x**2 - 3)
        assert not is_irreducible((x**2 + 2) * (x + 1))

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            factorize(Poly.zero(F13))

    def test_invariant_failure_names_field_and_seed(self, monkeypatch):
        monkeypatch.setattr(_kernels.ModPKernel, "factor_monic", lambda self, f, rng: [])
        x = Poly.x(F13)
        with pytest.raises(InvariantError) as err:
            factorize(x**2 + 2, seed=77)
        assert re.search(r"\bq=13\b", str(err.value))
        assert re.search(r"\bseed=77\b", str(err.value))

    def test_exact_division_names_field_and_degrees(self, monkeypatch):
        # a gcd that does not divide f makes the distinct-degree step's division fail
        monkeypatch.setattr(_kernels.ModPKernel, "gcd", lambda self, a, b: self.from_reps([1, 1]))
        x = Poly.x(F13)
        with pytest.raises(InvariantError) as err:
            factorize(x**2 + 2)
        assert re.search(r"\bq=13\b", str(err.value))
        assert re.search(r"\bdegree 2 by degree 1\b", str(err.value))

    @pytest.mark.parametrize(
        "stage, name, fake, roots, squared",
        [
            # gcd(f, f') is not a divisor of f with a squared factor
            ("squarefree", "gcd", lambda ker, a, b: ker.from_reps([1, 1]), (1, 2), (1,)),
            # the divisor gcd of an irreducible quadratic is not a divisor
            ("distinct-degree", "gcd", lambda ker, a, b: ker.from_reps([1, 1]), (), ()),
            # constant draws never split three linear factors
            ("equal-degree", "rand_vec", lambda ker, rng, n: ker.one(), (1, 2, 3), ()),
        ],
    )
    def test_engine_failure_names_stage_seed_and_replay(
        self, stage, name, fake, roots, squared, monkeypatch
    ):
        monkeypatch.setattr(_kernels.ModPKernel, name, fake)
        x = Poly.x(F13)
        f = x**2 + 2 if not roots else Poly.one(F13)
        for r in roots + squared:
            f = f * (x - r)
        with pytest.raises(InvariantError) as err:
            factorize(f, seed=77)
        message = str(err.value)
        assert f"stage={stage} (q=13 seed=77 replay: " in message
        # the replay command raises the same failure while the fault lasts
        argv = shlex.split(re.search(r"replay: (.*)\)$", message).group(1))
        assert argv[:2] == ["python3", "-c"]
        with pytest.raises(InvariantError) as again:
            exec(argv[2], {})
        assert str(again.value) == message


class TestRoots:
    def test_roots_with_multiplicity(self):
        x = Poly.x(F13)
        f = (x - 3) ** 2 * (x - 5) * (x**2 + 2)
        rs = roots_in_field(f)
        assert sorted(r.rep for r in rs) == [3, 3, 5]

    def test_roots_match_brute_evaluation(self):
        rng = random.Random(9)
        for _ in range(15):
            f = rand_poly(F13, rng.randrange(1, 6), rng)
            got = {r.rep for r in roots_in_field(f)}
            want = {a.rep for a in elements(F13) if not f(a)}
            assert got == want


class TestDecompose:
    def test_recovers_outer_polynomial(self):
        x = Poly.x(F13)
        N = x**3 + 5 * x**2 + 3 * x
        rng = random.Random(10)
        for _ in range(10):
            h = rand_poly(F13, rng.randrange(1, 4), rng)
            G = sum(
                (h.coeff(i) * N**i for i in range(h.degree + 1)), Poly.zero(F13)
            )
            assert decompose_by(G, N) == h

    def test_returns_none_when_not_composed(self):
        x = Poly.x(F13)
        N = x**2 + x
        assert decompose_by(x**4 + x, N) is None

    def test_rejects_bad_shapes(self):
        x = Poly.x(F13)
        with pytest.raises(DomainError):
            decompose_by(x**4, 2 * x**2)  # non-monic inner
        with pytest.raises(DomainError):
            decompose_by(x**3, x**2)  # degree not divisible


class TestFactorizationType:
    def test_validation(self):
        x = Poly.x(F13)
        with pytest.raises(DomainError):
            Factorization(F13.one, [(2 * x, 1)])
        with pytest.raises(DomainError):
            Factorization(F13.one, [(x, 0)])

    def test_canonical_order_and_eq(self):
        x = Poly.x(F13)
        a = Factorization(F13.elem(3), [(x + 1, 2), (x, 1)])
        b = Factorization(F13.elem(3), [(x, 1), (x + 1, 2)])
        assert a == b and hash(a) == hash(b)
        assert a.expand() == 3 * x * (x + 1) ** 2

    def test_to_json_shape(self):
        x = Poly.x(F13)
        fac = Factorization(F13.elem(7), [(x + 3, 1)])
        assert fac.to_json() == {
            "lead": 7,
            "factors": [{"coeffs": [3, 1], "mult": 1}],
        }

    def test_elem_json_variants(self):
        assert elem_json(F13.elem(5)) == 5
        F9 = make_field(3, 2)
        assert elem_json(F9.elem((1, 2))) == [1, 2]
        ext = F13.ext
        assert elem_json(ext.elem((3, 4))) == "3+4*t"


# -- Poly arithmetic as properties, against a coefficient-wise reference -----
#
# Coefficients are drawn by canonical index, so every example is reproducible
# from the integers hypothesis reports.  One field per kernel route:
# ModPKernel (F_13, F_101), DigitKernel (F_27, F_25), ObjectKernel (quadratic
# extensions, and F_{2^40+15} past the int64 guard).

F9 = make_field(3, 2)
PROP_FIELDS = {
    "F13": F13,
    "F101": make_field(101),
    "F27": make_field(3, 3),
    "F25": make_field(5, 2),
    "F13.ext": F13.ext,
    "F9.ext": F9.ext,
    "F2^40+15": make_field(2**40 + 15),
}
PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
INDEX = st.integers(min_value=0, max_value=2**48)  # past q = 2^40 + 15
INDICES = st.lists(INDEX, max_size=8)
over_prop_fields = pytest.mark.parametrize(
    "field", PROP_FIELDS.values(), ids=PROP_FIELDS.keys()
)


def elem_at(field, i):
    return FieldElement(field, field.rep_at(i % field.q))


def ref_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def ref_add(field, f, g, sign=1):
    n = max(len(f), len(g))
    f, g = f + [field.zero] * (n - len(f)), g + [field.zero] * (n - len(g))
    return ref_trim(a + sign * b for a, b in zip(f, g))


def ref_mul(field, f, g):
    out = [field.zero] * max(len(f) + len(g) - 1, 0)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return ref_trim(out)


def ref_divmod(field, f, g):
    """Schoolbook long division of trimmed coefficient lists, g nonzero."""
    r, q = list(f), [field.zero] * max(len(f) - len(g) + 1, 0)
    inv = g[-1].inverse()
    for i in range(len(q) - 1, -1, -1):
        q[i] = c = r[i + len(g) - 1] * inv
        for j, b in enumerate(g):
            r[i + j] = r[i + j] - c * b
    return ref_trim(q), ref_trim(r)


@over_prop_fields
@PROPERTY
@given(fi=INDICES, gi=INDICES, c=INDEX)
def test_ring_ops_match_reference(field, fi, gi, c):
    fc, gc = [elem_at(field, i) for i in fi], [elem_at(field, i) for i in gi]
    f, g, k = Poly(field, fc), Poly(field, gc), elem_at(field, c)
    fr, gr = ref_trim(fc), ref_trim(gc)
    assert list(f.coeffs) == fr and len(f.reps) == len(fr)
    assert list((f + g).coeffs) == ref_add(field, fr, gr)
    assert list((f - g).coeffs) == ref_add(field, fr, gr, sign=-1)
    assert list((-f).coeffs) == ref_trim(-a for a in fr)
    assert list((f * k).coeffs) == list((k * f).coeffs) == ref_trim(a * k for a in fr)
    assert list((f * g).coeffs) == ref_mul(field, fr, gr)
    assert list(f.derivative().coeffs) == ref_trim(i * a for i, a in enumerate(fr))[1:]
    if k:
        assert list((f / k).coeffs) == ref_trim(a / k for a in fr)
    total = field.zero
    for i, a in enumerate(fr):
        total = total + a * k**i
    assert f(k) == total


@over_prop_fields
@PROPERTY
@given(fi=INDICES, gi=st.lists(INDEX, min_size=1, max_size=8))
def test_divmod_matches_reference(field, fi, gi):
    fc, gc = [elem_at(field, i) for i in fi], [elem_at(field, i) for i in gi]
    f, g = Poly(field, fc), Poly(field, gc)
    if g.is_zero:
        with pytest.raises(ZeroDivisionError):
            divmod(f, g)
        return
    q, r = divmod(f, g)
    assert (list(q.coeffs), list(r.coeffs)) == ref_divmod(field, ref_trim(fc), ref_trim(gc))
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree


FOREIGN = {
    "F13<-F17": (F13, make_field(17).one),
    "F13<-F13.ext": (F13, F13.ext.one),
    "F13.ext<-F13": (F13.ext, F13.elem(2)),  # a base-field element is not embedded
    "F9.ext<-F9": (F9.ext, F9.one),
    "F27<-F9": (make_field(3, 3), F9.one),
    "F9<-F3": (F9, make_field(3).one),
}


@pytest.mark.parametrize("field, coeff", FOREIGN.values(), ids=FOREIGN.keys())
def test_foreign_coefficients_raise(field, coeff):
    with pytest.raises(DomainError, match="coefficient from a different field"):
        Poly(field, [field.one, coeff])


@over_prop_fields
def test_coeffs_round_trip(field):
    cs = [elem_at(field, i) for i in (5, 0, 7, 1)]
    f = Poly(field, cs)
    assert f.coeffs == tuple(cs) and Poly(field, f.coeffs) == f
    assert Poly(field, f.reps) == f and f.key() == (4, tuple(c.rep for c in cs))
    assert f.lead == cs[-1] and f.coeff(9) == field.zero
    with pytest.raises(DomainError, match="different fields"):
        f + Poly.x(make_field(7))
