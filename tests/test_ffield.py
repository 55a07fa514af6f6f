"""Field construction, canonical choices, and element arithmetic.

The reference values here are recomputed inside the tests by brute force
(integer arithmetic, exhaustive scans) rather than trusted from the
implementation under test.
"""

import itertools
import math
import random
import signal
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy

from gsfactor import _kernels
from gsfactor.errors import DomainError, InvariantError
from gsfactor.ffield import (
    FieldElement,
    PrimeField,
    _factor_int,
    elements,
    make_field,
    make_field_q,
    mult_order,
    quad_char,
    quadratic_extension,
    sqrt,
)


def brute_squares(p):
    return {(x * x) % p for x in range(1, p)}


class TestConstruction:
    def test_prime_field_basics(self):
        F = make_field(13)
        assert F.p == 13 and F.k == 1 and F.q == 13
        assert F.elem(20).rep == 7
        assert F.elem(-1).rep == 12

    def test_rejects_even_and_composite(self):
        with pytest.raises(DomainError):
            make_field(2)
        with pytest.raises(DomainError):
            make_field(9)  # p must be prime; use k for powers
        with pytest.raises(DomainError):
            make_field_q(4)
        with pytest.raises(DomainError):
            make_field_q(15)
        with pytest.raises(DomainError):
            make_field(13, 0)

    def test_make_field_q_dispatch(self):
        assert make_field_q(13).k == 1
        F27 = make_field_q(27)
        assert (F27.p, F27.k) == (3, 3)
        F81 = make_field_q(81)
        assert (F81.p, F81.k) == (3, 4)

    def test_make_field_q_messages(self):
        cases = [
            (2, "q must be an odd prime power >= 3"),
            (4, "q must be an odd prime power"),
            (15, "q = 15 is not a prime power"),
            (3**13, "extension fields are limited to q <= 10^6, got 3^13"),
        ]
        for q, message in cases:
            with pytest.raises(DomainError) as info:
                make_field_q(q)
            assert str(info.value) == message

    def test_make_field_q_large_inputs_answer_at_once(self):
        # no trial division: primality first, then integer k-th roots
        F = make_field_q(2**61 - 1)
        assert isinstance(F, PrimeField) and F.q == 2**61 - 1
        with pytest.raises(DomainError, match="extension fields are limited"):
            make_field_q((2**31 - 1) ** 2)
        with pytest.raises(DomainError, match="is not a prime power"):
            make_field_q((2**31 - 1) * 1000000007)

    def test_extension_modulus_is_first_irreducible(self):
        # independent scan: lexicographic over (c0, c1), constant term first,
        # monic x^2 + c1 x + c0, irreducible = no root in F_3
        found = None
        for c0, c1 in itertools.product(range(3), repeat=2):
            if c0 == 0:
                continue
            if all((x * x + c1 * x + c0) % 3 for x in range(3)):
                found = (c0, c1, 1)
                break
        F9 = make_field(3, 2)
        assert F9.modulus == found == (1, 0, 1)

    def test_f27_modulus(self):
        # brute scan over cubics mod 3, same ordering
        def has_root(c):
            return any((x**3 + c[2] * x * x + c[1] * x + c[0]) % 3 == 0 for x in range(3))

        found = None
        for c in itertools.product(range(3), repeat=3):
            if c[0] == 0 or has_root(c):
                continue
            # cubic with no root is irreducible
            found = c + (1,)
            break
        assert make_field(3, 3).modulus == found

    def test_extension_moduli_against_sympy(self):
        # every extension field with q <= 2000: the modulus is irreducible and
        # every earlier candidate (same order, nonzero constant term) is not
        y = sympy.symbols("y")

        def irreducible(c, p):
            return sympy.Poly(list(reversed(c)), y, modulus=p).is_irreducible

        for p in sympy.primerange(3, math.isqrt(2000) + 1):
            for k in range(2, 12):
                if p**k > 2000:
                    break
                modulus = make_field(p, k).modulus
                assert modulus[-1] == 1 and irreducible(modulus, p)
                for tail in itertools.product(range(p), repeat=k):
                    if tail + (1,) == modulus:
                        break
                    if tail[0]:
                        assert not irreducible(tail + (1,), p), (p, k, tail)


class TestCanonicalOrder:
    def test_prime_order_is_integer_order(self):
        F = make_field(11)
        assert [a.rep for a in elements(F)] == list(range(11))

    def test_extension_order_constant_digit_most_significant(self):
        F9 = make_field(3, 2)
        seq = [a.rep for a in elements(F9)]
        assert seq[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]
        assert len(seq) == 9 and len(set(seq)) == 9

    def test_index_bijection(self):
        # extension fields enumerate through their own reps(), not rep_at
        for p, k in ((13, 1), (3, 2), (5, 2), (3, 3), (5, 3), (3, 7)):
            F = make_field(p, k)
            reps = [a.rep for a in elements(F)]
            assert reps == [F.rep_at(i) for i in range(F.q)]
            assert [F.index_of(r) for r in reps] == list(range(F.q))

    def test_keys_strictly_increasing(self):
        for F in (make_field(13), make_field(3, 3)):
            keys = [a.key() for a in elements(F)]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


class TestArithmetic:
    def test_matches_integer_arithmetic(self):
        F = make_field(101)
        rng = random.Random(7)
        for _ in range(200):
            a, b = rng.randrange(101), rng.randrange(101)
            x, y = F.elem(a), F.elem(b)
            assert (x + y).rep == (a + b) % 101
            assert (x - y).rep == (a - b) % 101
            assert (x * y).rep == (a * b) % 101
            if b:
                assert (x / y).rep == (a * pow(b, -1, 101)) % 101
            assert (-x).rep == (-a) % 101
            assert (x ** 5).rep == pow(a, 5, 101)

    def test_fraction_coercion(self):
        F = make_field(13)
        assert F.elem(1) / 2 * 2 == F.one
        assert F.elem(Fraction(-1, 2)) * 2 == -F.one
        assert F.elem(Fraction(3, 4)).rep == 4  # 3 * inv(4) = 3*10 = 30 = 4

    def test_negative_powers(self):
        F = make_field(17)
        a = F.elem(3)
        assert a ** -1 == a.inverse()
        assert a ** -3 * a ** 3 == F.one
        for E in (make_field(3, 2), make_field(5, 3)):
            for b in list(elements(E))[1:]:
                assert b * b.inverse() == E.one

    def test_extension_arithmetic_against_polynomials(self):
        # multiply digit tuples as polynomials mod (t^2 + 1) and mod 3 by hand
        F9 = make_field(3, 2)
        rng = random.Random(3)
        for _ in range(60):
            a = (rng.randrange(3), rng.randrange(3))
            b = (rng.randrange(3), rng.randrange(3))
            # (a0 + a1 t)(b0 + b1 t) with t^2 = -1
            c0 = (a[0] * b[0] - a[1] * b[1]) % 3
            c1 = (a[0] * b[1] + a[1] * b[0]) % 3
            assert (F9.elem(a) * F9.elem(b)).rep == (c0, c1)

    def test_division_by_zero(self):
        for F in (make_field(13), make_field(5, 3)):
            with pytest.raises(ZeroDivisionError):
                F.one / F.zero

    def test_cross_field_mixing_rejected(self):
        a = make_field(13).one
        b = make_field(17).one
        with pytest.raises(DomainError):
            a + b

    def test_hash_and_eq(self):
        F = make_field(13)
        assert F.elem(5) == F.elem(18)
        assert hash(F.elem(5)) == hash(F.elem(18))
        assert F.elem(5) == 5 and F.elem(5) != 6
        assert len({F.elem(i % 13) for i in range(26)}) == 13


class TestQuadraticCharacterAndSqrt:
    def test_quad_char_matches_brute_squares(self):
        for p in (3, 5, 13, 17, 19):
            F = make_field(p)
            sq = brute_squares(p)
            for a in range(p):
                expect = 0 if a == 0 else (1 if a in sq else -1)
                assert quad_char(F.elem(a)) == expect

    def test_sqrt_returns_smaller_root(self):
        F = make_field(13)
        assert sqrt(F.elem(3)).rep == 4  # roots 4 and 9
        assert sqrt(F.elem(2)) is None
        for a in range(13):
            r = sqrt(F.elem(a))
            if r is not None:
                assert r * r == F.elem(a)
                roots = sorted(x for x in range(13) if x * x % 13 == a)
                assert r.rep == roots[0]

    def test_sqrt_extension_field(self):
        F25 = make_field(5, 2)
        hits = 0
        for a in elements(F25):
            r = sqrt(a)
            if r is not None:
                hits += 1
                assert r * r == a
        assert hits == 1 + (25 - 1) // 2  # zero plus half the units

    def test_quad_char_multiplicative(self):
        F = make_field(3, 3)
        es = list(elements(F))
        rng = random.Random(5)
        for _ in range(80):
            a, b = rng.choice(es), rng.choice(es)
            assert quad_char(a * b) == quad_char(a) * quad_char(b)


class TestMultOrder:
    def test_against_brute_force(self):
        F = make_field(17)
        for a in range(1, 17):
            x = F.elem(a)
            k, acc = 1, x
            while acc != F.one:
                acc *= x
                k += 1
            assert mult_order(x) == k

    def test_known_orders(self):
        assert mult_order(make_field(17).elem(3)) == 16
        F19 = make_field(19)
        assert mult_order(F19.ext.elem((4, 2))) == 20

    def test_order_of_zero_rejected(self):
        with pytest.raises(DomainError):
            mult_order(make_field(13).zero)

    def test_safe_prime(self):
        p = 4611686018427394499  # p - 1 = 2r with r prime
        start = time.perf_counter()
        order = mult_order(make_field(p).elem(3))
        assert time.perf_counter() - start < 1.0
        assert order == sympy.n_order(3, p)


class TestFactorInt:
    def test_against_sympy(self):
        cases = list(range(2, 3000)) + [
            1031**2,  # a prime square above the trial-division limit
            1031**3 * 1033,
            3 * 2**40,
            (2**31 - 1) ** 2,
            1031 * 1033 * 1039 * 1049,
            (10**9 + 7) * (10**9 + 9) * 3**5,
            2**62 - 57,
        ]
        for n in cases:
            got = _factor_int(n)
            assert got == sympy.factorint(n), n
            assert list(got) == sorted(got)
        assert _factor_int(1) == {}

    def test_two_primes_near_2_31(self):
        start = time.perf_counter()
        got = _factor_int(2147483647 * 2147483629)
        assert time.perf_counter() - start < 1.0
        assert got == {2147483629: 1, 2147483647: 1}


class TestQuadraticExtension:
    def test_nu_when_minus_one_is_square(self):
        # 13 = 1 mod 4: -1 is a square, so nu is the first nonsquare, 2
        ext = quadratic_extension(make_field(13))
        assert ext.nu == 2
        assert ext.i.rep == (5, 0)  # embedded sqrt(-1), smaller of 5, 8
        assert ext.i * ext.i == -ext.one

    def test_nu_when_minus_one_is_nonsquare(self):
        ext = quadratic_extension(make_field(19))
        assert ext.nu == 18  # -1 itself; modulus t^2 + 1
        assert ext.i.rep == (0, 1)  # i is t
        assert ext.i * ext.i == -ext.one

    def test_prime_base_products_against_sympy(self):
        # both moduli: t^2 - 2 over F_13 and t^2 + 1 over F_19
        t = sympy.symbols("t")
        for p in (13, 19):
            ext = make_field(p).ext
            mod = sympy.Poly(t**2 - ext.nu, t, modulus=p)
            rng = random.Random(p)
            for _ in range(40):
                a = (rng.randrange(p), rng.randrange(p))
                b = (rng.randrange(p), rng.randrange(p))
                pa = sympy.Poly(a[0] + a[1] * t, t, modulus=p)
                pb = sympy.Poly(b[0] + b[1] * t, t, modulus=p)
                coeffs = [int(c) % p for c in reversed((pa * pb).rem(mod).all_coeffs())]
                coeffs += [0] * (2 - len(coeffs))
                assert ext.rmul(a, b) == tuple(coeffs)

    def test_embed_project_roundtrip(self):
        F = make_field(19)
        ext = F.ext
        for a in elements(F):
            assert ext.project(ext.embed(a)) == a
        with pytest.raises(DomainError):
            ext.project(ext.i)

    def test_frobenius_is_conjugation(self):
        F = make_field(19)
        ext = F.ext
        rng = random.Random(11)
        for _ in range(40):
            x = ext.elem((rng.randrange(19), rng.randrange(19)))
            assert x ** 19 == ext.conj(x)

    def test_norm_and_quad_char(self):
        F = make_field(13)
        ext = F.ext
        # the norm of any nonzero element is nonzero and multiplicative
        a = ext.elem((3, 5))
        b = ext.elem((1, 7))
        n = lambda x: x * ext.conj(x)
        assert n(a * b) == n(a) * n(b)
        # base elements are always squares in the quadratic extension
        for x in elements(F):
            if x:
                assert quad_char(ext.embed(x)) == 1

    def test_every_base_element_has_sqrt_upstairs(self):
        F = make_field(11)
        ext = F.ext
        for x in elements(F):
            r = sqrt(ext.embed(x))
            assert r is not None and r * r == ext.embed(x)

    def test_log_inverts_powers_of_the_generator(self):
        # every element upstairs over F_13 and F_9; a sample over F_10007
        fields = ((make_field(13), None), (make_field(3, 2), None), (make_field(10007), 200))
        for F, sample in fields:
            ext = F.ext
            rng = random.Random(F.q)
            exps = range(ext.q - 1) if sample is None else rng.sample(range(ext.q - 1), sample)
            for x in exps:
                assert ext.log_rep(ext.rpow(ext.generator_rep, x)) == x
        with pytest.raises(DomainError):
            make_field(13).ext.log_rep(make_field(13).ext.zero_rep)

    def test_log_giant_steps_are_bounded(self, monkeypatch):
        # giant steps of 1 never reach a baby step: after ``width`` of them
        # the search stops with an InvariantError (the alarm is only a guard)
        ext = make_field(13).ext
        steps = tuple((m, w, baby, ext.one_rep) for m, w, baby, _ in ext._build_log_steps())
        monkeypatch.setattr(ext, "_log_steps", steps)

        def hang(signum, frame):
            raise TimeoutError("log_rep is still looping after 5 s")

        old = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            with pytest.raises(InvariantError, match=r"q=169, m=8\)"):
                ext.log_rep(ext.rinv(ext.generator_rep))  # log 167: 7 in the order-8 group
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    def test_no_iterated_extension(self):
        ext = make_field(13).ext
        with pytest.raises(DomainError):
            quadratic_extension(ext)

    def test_extension_of_extension_field(self):
        F9 = make_field(3, 2)
        ext = F9.ext
        assert ext.q == 81
        assert ext.i * ext.i == -ext.one
        x = ext.embed(F9.elem((1, 2)))
        assert ext.project(x) == F9.elem((1, 2))


class TestElementsGuard:
    def test_elements_count(self):
        assert len(list(elements(make_field(5, 2)))) == 25


# ---------------------------------------------------------------------------
# pinned contract: coercion, identity and canonical order


F13 = make_field(13)
F27 = make_field(3, 3)
E13 = F13.ext

COERCIONS = [
    (F13, 20, 7),
    (F13, -1, 12),
    (F13, Fraction(3, 4), 4),
    (F13, F13.elem(5), 5),
    (F27, 5, (2, 0, 0)),
    (F27, -1, (2, 0, 0)),
    (F27, Fraction(1, 2), (2, 0, 0)),
    (F27, F27.elem((1, 2, 0)), (1, 2, 0)),
    (F27, (1, 2), (1, 2, 0)),
    (F27, [4, 5, 6], (1, 2, 0)),
    (E13, 20, (7, 0)),
    (E13, -1, (12, 0)),
    (E13, Fraction(1, 2), (7, 0)),
    (E13, E13.elem((1, 2)), (1, 2)),
    (E13, F13.elem(4), (4, 0)),
    (E13, (3, 20), (3, 7)),
]

REJECTS = [
    (F13, True, "cannot coerce True into GF(13)"),
    (F13, 1.5, "cannot coerce 1.5 into GF(13)"),
    (F13, "1", "cannot coerce '1' into GF(13)"),
    (F13, (1, 2), "cannot coerce (1, 2) into GF(13)"),
    (F13, make_field(17).one, "element belongs to a different field"),
    (F27, False, "cannot coerce False into GF(27)"),
    (F27, 1.5, "cannot coerce 1.5 into GF(27)"),
    (F27, "12", "cannot coerce '12' into GF(27)"),
    (F27, make_field(3, 2).one, "element belongs to a different field"),
    (F27, (1, 2, 0, 1), "digit vector longer than the field degree"),
    (E13, True, "cannot coerce True into GF(169)"),
    (E13, 1.5, "cannot coerce 1.5 into GF(169)"),
    (E13, "1", "cannot coerce '1' into GF(169)"),
    (E13, make_field(17).one, "element belongs to a different field"),
    (E13, (1, 2, 3), "cannot coerce (1, 2, 3) into GF(169)"),
    (E13, [1, 2], "cannot coerce [1, 2] into GF(169)"),
    (E13, (1.5, 0), "cannot coerce 1.5 into GF(13)"),
]


class TestCoercionTable:
    @pytest.mark.parametrize("field, x, rep", COERCIONS)
    def test_accepts(self, field, x, rep):
        assert field.rep_of(x) == rep
        assert field.elem(x).rep == rep

    @pytest.mark.parametrize("field, x, message", REJECTS)
    def test_rejects(self, field, x, message):
        with pytest.raises(DomainError) as info:
            field.rep_of(x)
        assert str(info.value) == message


class TestFieldIdentity:
    def test_hash_values(self):
        assert hash(make_field(13)) == hash(("PrimeField", 13))
        assert hash(make_field(3, 3)) == hash(("ExtensionField", 3, 3))
        assert hash(make_field(13).ext) == hash(("QuadraticExtension", make_field(13)))
        assert hash(make_field(3, 2).ext) == hash(("QuadraticExtension", make_field(3, 2)))

    def test_equality(self):
        assert make_field(13) == make_field(13) and make_field(13) != make_field(17)
        assert make_field(3, 3) == make_field(3, 3) != make_field(3, 2)
        assert make_field(13).ext == make_field(13).ext != make_field(17).ext
        assert make_field(13) != make_field(13).ext
        assert make_field(3, 2) != make_field(3, 2).ext
        assert make_field(13) != 13


class TestRepOrderIsCanonical:
    @pytest.mark.parametrize(
        "field",
        [make_field(13), make_field(3, 3), make_field(3, 2).ext, make_field(13).ext],
        ids=["F13", "F27", "F9.ext", "F13.ext"],
    )
    def test_sorted_reps_follow_elements(self, field):
        reps = [a.rep for a in elements(field)]
        assert reps == sorted(reps) and len(set(reps)) == field.q
        assert [field.rep_at(i) for i in range(field.q)] == reps


class TestLogTables:
    """Extension-field arithmetic on the log tables against the digit loops
    that build them: the same field with ``ZECH_MAX_Q`` below its size."""

    @pytest.fixture(params=[(3, 2), (5, 2), (3, 3), (7, 2), (5, 3)], ids=str)
    def sides(self, request, monkeypatch):
        tables = make_field(*request.param)
        assert isinstance(tables.log_tables(), _kernels.ZechTables)
        monkeypatch.setattr(_kernels, "ZECH_MAX_Q", tables.q - 1)
        loops = make_field(*request.param)
        assert loops.log_tables() is False
        monkeypatch.undo()  # each field read the bound once
        return tables, loops

    @staticmethod
    def same(tables, loops, name, *args):
        """One operation on both sides: equal results, or the same error."""
        try:
            want = getattr(loops, name)(*args)
        except (ZeroDivisionError, DomainError) as err:
            with pytest.raises(type(err)):
                getattr(tables, name)(*args)
            return
        assert getattr(tables, name)(*args) == want, (name, args)

    def test_every_pair(self, sides):
        tables, loops = sides
        q, reps = tables.q, list(tables.reps())
        for a in reps:
            for b in reps:
                self.same(tables, loops, "rmul", a, b)
                # negative, zero and positive exponents over the pairs
                self.same(tables, loops, "rpow", a, tables.index_of(b) - q // 2)

    def test_every_element(self, sides):
        tables, loops = sides
        q = tables.q
        large = [q - 1, q, 3 * q + 2, 10**30 + 7, -(10**30) - 7]
        for a in tables.reps():
            for e in large:
                self.same(tables, loops, "rpow", a, e)
            for name in ("rinv", "sqrt_rep", "quad_char_rep", "mult_order_rep"):
                self.same(tables, loops, name, a)

    def test_canonical_tuples_coerce_to_the_table_reps(self, sides):
        tables, loops = sides
        for a in tables.reps():
            for x in (a, tuple(map(np.int64, a)), list(a), a[:-1]):
                got = tables.rep_of(x)
                assert got == loops.rep_of(x) and all(type(d) is int for d in got)
