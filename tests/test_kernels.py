"""Differential tests of the coefficient-vector kernels.

``ObjectKernel`` works on plain lists of field representatives and is the
reference: on seeded random polynomials the numpy kernels (``ModPKernel``
over prime fields, ``DigitKernel`` over extension fields) must agree with it
operation by operation.  The Frobenius matrix is checked against the powmod
ladder it replaces, and the size rule that chooses between them at its edge.
"""

import math
import random

import pytest
import sympy

from gsfactor import _kernels
from gsfactor._kernels import DigitKernel, ModPKernel, ObjectKernel, kernel_for
from gsfactor.ffield import make_field
from gsfactor.polyring import Poly, factorize

FIELDS = {
    "F3": make_field(3),
    "F199": make_field(199),
    "F9": make_field(3, 2),
    "F125": make_field(5, 3),
}


def fast_kernel(F):
    return ModPKernel(F) if F.k == 1 else DigitKernel(F)


def rand_reps(F, deg, rng, monic=False):
    reps = [F.rep_at(rng.randrange(F.q)) for _ in range(deg)]
    reps.append(F.one_rep if monic else F.rep_at(rng.randrange(1, F.q)))
    return reps


def both(F):
    return fast_kernel(F), ObjectKernel(F)


def same(fast, ref, v_fast, v_ref):
    return fast.to_reps(v_fast) == ref.to_reps(v_ref)


@pytest.fixture(params=sorted(FIELDS))
def field(request):
    return FIELDS[request.param]


class TestAgainstObjectKernel:
    def test_mul_and_pdivmod(self, field):
        fast, ref = both(field)
        rng = random.Random(1)
        for _ in range(20):
            a = rand_reps(field, rng.randrange(0, 14), rng)
            b = rand_reps(field, rng.randrange(0, 9), rng)
            fa, fb = fast.from_reps(a), fast.from_reps(b)
            ra, rb = ref.from_reps(a), ref.from_reps(b)
            assert same(fast, ref, fast.mul(fa, fb), ref.mul(ra, rb))
            fq, fr = fast.pdivmod(fa, fb)
            rq, rr = ref.pdivmod(ra, rb)
            assert same(fast, ref, fq, rq)
            assert same(fast, ref, fr, rr)

    def test_gcd(self, field):
        fast, ref = both(field)
        rng = random.Random(2)
        for _ in range(15):
            common = rand_reps(field, rng.randrange(0, 4), rng)
            a = ref.mul(ref.from_reps(common), ref.from_reps(rand_reps(field, 5, rng)))
            b = ref.mul(ref.from_reps(common), ref.from_reps(rand_reps(field, 4, rng)))
            got = fast.gcd(fast.from_reps(ref.to_reps(a)), fast.from_reps(ref.to_reps(b)))
            assert same(fast, ref, got, ref.gcd(a, b))

    def test_powmod(self, field):
        fast, ref = both(field)
        rng = random.Random(3)
        for _ in range(6):
            m = rand_reps(field, rng.randrange(2, 12), rng, monic=True)
            v = rand_reps(field, rng.randrange(0, 20), rng)
            e = rng.choice([0, 1, 2, field.q, (field.q**2 - 1) // 2, rng.randrange(1000)])
            got = fast.powmod(fast.from_reps(v), e, fast.reducer(fast.from_reps(m)))
            want = ref.powmod(ref.from_reps(v), e, ref.reducer(ref.from_reps(m)))
            assert same(fast, ref, got, want)

    def test_factor_monic(self, field):
        fast, ref = both(field)
        rng = random.Random(4)
        for _ in range(4):
            reps = rand_reps(field, 4, rng, monic=True)
            f = ref.mul(ref.from_reps(reps), ref.from_reps(reps))  # a repeated part
            f = ref.mul(f, ref.from_reps(rand_reps(field, 7, rng, monic=True)))
            got = fast.factor_monic(fast.from_reps(ref.to_reps(f)), random.Random(9))
            want = ref.factor_monic(f, random.Random(9))
            assert sorted((fast.to_reps(g), m) for g, m in got) == sorted(
                (ref.to_reps(g), m) for g, m in want
            )


class TestStages:
    def irreducibles(self, F, degrees, rng):
        ref = ObjectKernel(F)
        out = []
        for d in degrees:
            while True:
                f = ref.from_reps(rand_reps(F, d, rng, monic=True))
                if ref.is_irreducible(f) and f not in out:
                    out.append(f)
                    break
        return out

    @pytest.mark.parametrize("name", ["F3", "F9"])
    def test_distinct_degree_blocks(self, name):
        # n = 49, blocks of 7 degrees: two blocks split, one factor is left over
        F = FIELDS[name]
        ref = ObjectKernel(F)
        degrees = [1, 1, 2, 3, 3, 5, 7, 8, 8, 11]
        factors = self.irreducibles(F, degrees, random.Random(10))
        f = ref.one()
        for g in factors:
            f = ref.mul(f, g)
        want = {}
        for d, g in zip(degrees, factors):
            want[d] = ref.mul(want.get(d, ref.one()), g)
        for ker in (fast_kernel(F), ref):
            parts = ker.distinct_degree_parts(ker.from_reps(ref.to_reps(f)))
            assert sorted(d for _, d in parts) == sorted(want)
            for part, d in parts:
                assert ker.to_reps(part) == ref.to_reps(want[d])
            assert ker.is_irreducible(ker.from_reps(ref.to_reps(factors[-1])))
            assert not ker.is_irreducible(ker.from_reps(ref.to_reps(want[8])))


class TestFrobenius:
    def test_matrix_matches_ladder(self, field):
        rng = random.Random(5)
        for ker in (fast_kernel(field), ObjectKernel(field)):
            f = ker.from_reps(rand_reps(field, 9, rng, monic=True))
            g = ker.from_reps(rand_reps(field, 4, rng, monic=True))
            fg = ker.mul(f, g)
            frob = ker.frobenius(fg)
            red_g = ker.reducer(g)
            for _ in range(4):
                v = ker.from_reps(rand_reps(field, rng.randrange(0, 13), rng))
                assert frob.use_matrix
                assert ker.eq(frob(v), ker.powmod(v, field.q, frob.red))
                # the result reduced modulo a divisor of the modulus
                assert ker.eq(frob(v, red_g), ker.powmod(v, field.q, red_g))
            assert frob.matrix is not None

    def test_rows_are_q_powers_of_x(self, field):
        ker = fast_kernel(field)
        f = ker.from_reps(rand_reps(field, 6, random.Random(6), monic=True))
        red = ker.reducer(f)
        rows = ker.frobenius_matrix(red)
        xq = ker.powmod(ker.xvec(), field.q, red)
        power = ker.one()
        for i in range(6):
            assert ker.eq(ker.trim(rows[i]), power)
            power = red.reduce(ker.mul(power, xq))

    def test_ladder_and_matrix_factor_alike(self, field, monkeypatch):
        ker = fast_kernel(field)
        rng = random.Random(7)
        f = ker.from_reps(rand_reps(field, 12, rng, monic=True))
        with_matrix = ker.factor_monic(f, random.Random(1))
        monkeypatch.setattr(_kernels, "FROBENIUS_MAX_ENTRIES", 0)
        assert not ker.frobenius(f).use_matrix
        with_ladder = ker.factor_monic(f, random.Random(1))
        key = lambda t: (ker.to_reps(t[0]), t[1])  # noqa: E731
        assert sorted(map(key, with_matrix)) == sorted(map(key, with_ladder))
        assert ker.is_irreducible(f) == (len(with_ladder) == 1 and with_ladder[0][1] == 1)

    def test_size_rule_edge(self, field):
        ker = fast_kernel(field)
        assert ker.width == field.k
        edge = math.isqrt(_kernels.FROBENIUS_MAX_ENTRIES // ker.width)
        assert edge * edge * ker.width <= _kernels.FROBENIUS_MAX_ENTRIES
        assert ker.frobenius_fits(edge)
        assert not ker.frobenius_fits(edge + 1)

    def test_past_the_edge_uses_the_ladder(self, monkeypatch):
        F = FIELDS["F199"]
        ker = ModPKernel(F)
        monkeypatch.setattr(_kernels, "FROBENIUS_MAX_ENTRIES", 5 * 5 - 1)
        f = ker.from_reps(rand_reps(F, 5, random.Random(8), monic=True))
        frob = ker.frobenius(f)
        v = ker.from_reps(rand_reps(F, 4, random.Random(9)))
        assert ker.eq(frob(v), ker.powmod(v, F.q, frob.red))
        assert not frob.use_matrix and frob.matrix is None


class TestKernelChoice:
    def test_large_prime_takes_object_kernel(self):
        p = 1099511627791  # the first prime above 2^40
        F = make_field(p)
        assert isinstance(kernel_for(F, 4), ObjectKernel)
        assert isinstance(kernel_for(make_field(199), 100), ModPKernel)
        y = Poly.x(F)
        f = (y - 1) * (y + 5) * (y * y + y + 7) * (y - 1)
        fact = factorize(f)
        assert fact.expand() == f
        x = sympy.symbols("x")
        _, want = sympy.Poly([c.rep for c in reversed(f.coeffs)], x, modulus=p).factor_list()
        got = sorted((tuple(c.rep for c in g.coeffs), m) for g, m in fact.factors)
        ref = sorted((tuple(int(c) % p for c in reversed(g.all_coeffs())), m) for g, m in want)
        assert got == ref

    def test_digit_kernel_bound(self):
        F = make_field(5, 3)
        assert isinstance(kernel_for(F, 100), DigitKernel)
        # k * (degree + 1) * (p - 1)^2 reaching 2^62 leaves the int64 kernels
        assert isinstance(kernel_for(F, 2**62 // (3 * 16) - 1), DigitKernel)
        assert isinstance(kernel_for(F, 2**62 // (3 * 16)), ObjectKernel)
