"""Polynomial ring and the generic factorization engine.

Where possible the engine is checked against sympy's GF(p) factorization,
which shares no code with this package; extension fields fall back to
self-consistency (expand, irreducibility, degree bookkeeping).
"""

import random
import re
from fractions import Fraction

import pytest
import sympy

from gsfactor import _kernels
from gsfactor.errors import DomainError, InvariantError
from gsfactor.ffield import elements, make_field
from gsfactor.polyring import (
    Factorization,
    Poly,
    decompose_by,
    elem_json,
    factorize,
    is_irreducible,
    poly,
    poly_gcd,
    poly_str,
    powmod,
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
            for ours, theirs in (
                (f + g, sf + sg),
                (f - g, sf - sg),
                (f * g, sf * sg),
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
        rng = random.Random(3)
        for F in (F13, make_field(3, 2)):
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

    def test_derivative(self):
        x = Poly.x(F13)
        f = x**13 + 2 * x**3 + 5
        assert f.derivative() == 6 * x**2  # 13 x^12 vanishes mod 13

    def test_poly_str(self):
        x = Poly.x(F13)
        assert poly_str(7 * x**2 + 1) == "7*y^2 + 1"
        assert poly_str(x - 1, var="z") == "z + 12"


class TestGcdPowmod:
    def test_gcd_against_sympy(self):
        y = sympy.symbols("y")
        rng = random.Random(4)
        for _ in range(25):
            f = rand_poly(F13, rng.randrange(1, 7), rng)
            g = rand_poly(F13, rng.randrange(1, 7), rng)
            ours = poly_gcd(f, g)
            sf = sympy.Poly([c.rep for c in reversed(f.coeffs)], y, modulus=13)
            sg = sympy.Poly([c.rep for c in reversed(g.coeffs)], y, modulus=13)
            theirs = sf.gcd(sg).monic()
            assert [c.rep for c in reversed(ours.coeffs)] == [
                c % 13 for c in theirs.all_coeffs()
            ]

    def test_powmod_matches_naive(self):
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
