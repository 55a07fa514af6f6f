"""Differential tests of the coefficient-vector kernels.

``ObjectKernel`` works on plain lists of field representatives and is the
reference: on seeded random polynomials the numpy kernels (``ModPKernel``
over prime fields, ``DigitKernel`` over extension fields) must agree with it
operation by operation.  The Frobenius matrix is checked against the powmod
ladder it replaces, and the size rule that chooses between them at its edge;
the gcd's list and Zech-logarithm sides on both sides of their bounds.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest
import sympy

from gsfactor import _kernels, ffield
from gsfactor._kernels import DigitKernel, ModPKernel, ObjectKernel, kernel_for
from gsfactor.errors import InvariantError
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


def irreducibles(F, degrees, rng):
    """Distinct monic irreducibles of the given degrees, as ObjectKernel vectors."""
    ref = ObjectKernel(F)
    out = []
    for d in degrees:
        while True:
            f = ref.from_reps(rand_reps(F, d, rng, monic=True))
            if ref.is_irreducible(f) and f not in out:
                out.append(f)
                break
    return out


def product(ker, factors):
    out = ker.one()
    for g in factors:
        out = ker.mul(out, g)
    return out


class TestStages:
    @pytest.mark.parametrize("name", ["F3", "F9"])
    def test_distinct_degree_blocks(self, name):
        # n = 49, blocks of 7 degrees: two blocks split, one factor is left over
        F = FIELDS[name]
        ref = ObjectKernel(F)
        degrees = [1, 1, 2, 3, 3, 5, 7, 8, 8, 11]
        factors = irreducibles(F, degrees, random.Random(10))
        f = product(ref, factors)
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

    def test_failed_draws_raise(self, monkeypatch):
        # a powmod that always returns 1 never splits: the cap turns the
        # endless draw loop into an InvariantError naming q, deg f and d
        # (three linear factors: a piece of two is finished without powers)
        ker = ModPKernel(FIELDS["F199"])
        monkeypatch.setattr(ModPKernel, "powmod", lambda self, v, e, red: self.one())
        f = product(ker, [ker.from_reps([c, 1]) for c in (3, 5, 7)])
        start = time.perf_counter()
        with pytest.raises(InvariantError, match=r"q=199, deg f=3, d=1"):
            ker.equal_degree_split(f, 1, random.Random(1))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("d", [1, 3])
    def test_constant_traces_raise(self, field, d, monkeypatch):
        # a draw whose trace is the same constant on both factors cannot
        # split a pair: the cap turns the endless loop into an InvariantError
        fast, ref = both(field)
        pair = irreducibles(field, [d, d], random.Random(12))
        f = fast.from_reps(ref.to_reps(product(ref, pair)))
        draws = []
        constant = lambda ker, rng, n: draws.append(n) or ker.one()  # noqa: E731
        monkeypatch.setattr(type(fast), "rand_vec", constant)
        with pytest.raises(InvariantError, match=rf"q={field.q}, deg f={2 * d}, d={d}"):
            fast.equal_degree_split(f, d, random.Random(1))
        assert len(draws) == _kernels.MAX_FAILED_DRAWS

    @pytest.mark.parametrize(
        "owner, name, fake, message",
        [
            (ffield.FieldCtx, "sqrt_rep", lambda ctx, a: None, "nonsquare discriminant"),
            (ModPKernel, "gcd", lambda ker, a, b: ker.one(), "gcd has degree 0"),
        ],
    )
    def test_pair_faults_raise(self, owner, name, fake, message, monkeypatch):
        F = FIELDS["F199"]
        ker = ModPKernel(F)
        f = product(ker, [ker.from_reps([c, 1]) for c in (3, 5)])
        # a fault in the square root or the gcd, after one draw that splits
        monkeypatch.setattr(owner, name, fake)
        with pytest.raises(InvariantError, match=rf"{message} \(q=199, deg f=2, d=1\)"):
            ker.equal_degree_split(f, 1, random.Random(1))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pair_finish(self, field, d, monkeypatch):
        # two factors of degree d split through the trace, with no power
        # taken but the x^q that builds the Frobenius matrix (d > 1)
        ref = ObjectKernel(field)
        pair = irreducibles(field, [d, d], random.Random(13))
        for ker in both(field):
            f = ker.from_reps(ref.to_reps(product(ref, pair)))
            real, powers = type(ker).powmod, []
            monkeypatch.setattr(type(ker), "powmod", lambda *a: powers.append(1) or real(*a))
            for seed in range(5):
                got = ker.equal_degree_split(f, d, random.Random(seed))
                assert sorted(map(ker.to_reps, got)) == sorted(map(ref.to_reps, pair))
            assert len(powers) == 5 * (d > 1)
            monkeypatch.undo()

    def test_roots_build_no_matrix(self, field, monkeypatch):
        # equal-degree splitting at d = 1 takes no q-power step, so it neither
        # builds nor restricts a Frobenius matrix
        ker = fast_kernel(field)
        f = product(ker, [ker.from_reps([field.rep_at(i), field.one_rep]) for i in range(3)])
        red = ker.reducer(f)
        monkeypatch.setattr(_kernels._Reducer, "frobenius_matrix", lambda self: pytest.fail())
        assert len(ker.equal_degree_split(f, 1, random.Random(1), red)) == 3
        assert red.matrix is None


def factor_both(F, degrees, squared=()):
    """factor_monic, fast kernel against the reference, of a product of
    distinct irreducibles of these degrees, those at the indices in
    ``squared`` taken twice; the fast kernel's factors."""
    fast, ref = both(F)
    factors = irreducibles(F, degrees, random.Random(len(degrees)))
    f = product(ref, factors + [factors[i] for i in squared])
    got = fast.factor_monic(fast.from_reps(ref.to_reps(f)), random.Random(3))
    want = ref.factor_monic(f, random.Random(3))
    key = lambda ker: lambda t: (ker.to_reps(t[0]), t[1])  # noqa: E731
    assert sorted(map(key(fast), got)) == sorted(map(key(ref), want))
    assert sorted(fast.deg(g) for g, _ in got) == sorted(degrees)
    return got


class TestWalk:
    """The exits of ``factor_monic``'s walk of x^(q^j) mod f."""

    @pytest.fixture
    def watch(self, monkeypatch):
        """The fast kernels' reducers made by ``Kernel.reducer``, in order,
        and their calls of ``squarefree_parts``."""
        seen = {"reducers": [], "squarefree": []}
        real_reducer, real_parts = _kernels.Kernel.reducer, _kernels.Kernel.squarefree_parts

        def reducer(self, m):
            red = real_reducer(self, m)
            if not isinstance(self, ObjectKernel):
                seen["reducers"].append(red)
            return red

        def parts(self, f):
            if not isinstance(self, ObjectKernel):
                seen["squarefree"].append(f)
            return real_parts(self, f)

        monkeypatch.setattr(_kernels.Kernel, "reducer", reducer)
        monkeypatch.setattr(_kernels.Kernel, "squarefree_parts", parts)
        return seen

    @pytest.mark.parametrize(
        "degrees, period",
        [
            ([3, 3, 3], 3),  # equal degrees, e prime
            ([4, 4], 4),  # equal degrees, e composite
            ([1, 1, 2, 2], 2),
            ([2, 3, 3], 6),  # lcm 6 <= n = 8
        ],
    )
    def test_period_found(self, field, degrees, period, watch):
        factor_both(field, degrees)
        assert watch["reducers"][0].period == period
        assert watch["squarefree"] == []

    @pytest.mark.parametrize(
        "degrees, squared",
        [
            ([2, 3], ()),  # lcm 6 above n = 5
            ([1, 2, 3], (0,)),  # a squared factor
            ([2, 2], (0, 1)),  # every factor squared
        ],
    )
    def test_no_period_takes_squarefree_parts(self, field, degrees, squared, watch):
        factor_both(field, degrees, squared)
        red = watch["reducers"][0]
        assert red.period is None and len(red.powers) == red.n + 1
        assert len(watch["squarefree"]) == 1

    def test_ladder_walks_half_the_degree(self, field, watch, monkeypatch):
        monkeypatch.setattr(_kernels, "FROBENIUS_MAX_ENTRIES", 0)
        for degrees, period in [([1, 2, 2], 2), ([3, 4], None), ([2, 2, 2], 2)]:
            watch["reducers"].clear()
            factor_both(field, degrees)
            red = watch["reducers"][0]
            assert not red.use_matrix and red.period == period
            assert len(red.powers) - 1 <= red.n // 2

    def test_squarefree_input_skips_squarefree_parts(self, field, monkeypatch):
        monkeypatch.setattr(_kernels.Kernel, "squarefree_parts", lambda self, f: pytest.fail())
        factor_both(field, [1, 2, 3, 3])

    @pytest.mark.parametrize("squared", [(), (1,)])
    def test_one_matrix_per_polynomial(self, field, squared, monkeypatch):
        built = []
        real = _kernels._Reducer.frobenius_matrix

        def counted(red):
            if red.matrix is None and not isinstance(red.kernel, ObjectKernel):
                built.append(red.n)
            return real(red)

        monkeypatch.setattr(_kernels._Reducer, "frobenius_matrix", counted)
        degrees = [1, 2, 2, 3, 3, 4]
        factor_both(field, degrees, squared)
        assert built == [sum(degrees) + sum(degrees[i] for i in squared)]


class TestFrobenius:
    def test_matrix_matches_ladder(self, field):
        rng = random.Random(5)
        for ker in (fast_kernel(field), ObjectKernel(field)):
            f = ker.from_reps(rand_reps(field, 9, rng, monic=True))
            g = ker.from_reps(rand_reps(field, 4, rng, monic=True))
            fg = ker.mul(f, g)
            red = ker.reducer(fg)
            red_g = red.restrict(g)
            for _ in range(4):
                v = ker.from_reps(rand_reps(field, rng.randrange(0, 13), rng))
                assert red.use_matrix
                assert ker.eq(red.frobenius(v), ker.powmod(v, field.q, red))
                # the map restricted to a divisor of the modulus
                want = ker.powmod(v, field.q, red_g)
                assert ker.eq(red_g.frobenius(red_g.reduce(v)), want)
            assert red.matrix is not None

    def test_rows_are_q_powers_of_x(self, field):
        ker = fast_kernel(field)
        f = ker.from_reps(rand_reps(field, 6, random.Random(6), monic=True))
        red = ker.reducer(f)
        rows = red.frobenius_matrix()
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
        assert not ker.reducer(f).use_matrix
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
        red = ker.reducer(f)
        v = ker.from_reps(rand_reps(F, 4, random.Random(9)))
        assert ker.eq(red.frobenius(v), ker.powmod(v, F.q, red))
        assert not red.use_matrix and red.matrix is None

    def test_ladder_restricts_to_a_ladder(self, field, monkeypatch):
        # the child would fit under the bound on its own, but stays a ladder
        rng = random.Random(10)
        for ker in both(field):
            g = ker.from_reps(rand_reps(field, 4, rng, monic=True))
            f = ker.mul(g, ker.from_reps(rand_reps(field, 6, rng, monic=True)))
            monkeypatch.setattr(_kernels, "FROBENIUS_MAX_ENTRIES", 10 * 10 * ker.width - 1)
            red_g = ker.reducer(f).restrict(g)
            assert ker.frobenius_fits(red_g.n) and not red_g.use_matrix
            for _ in range(3):
                v = red_g.reduce(ker.from_reps(rand_reps(field, 13, rng)))
                assert ker.eq(red_g.frobenius(v), ker.powmod(v, field.q, ker.reducer(g)))
            assert red_g.matrix is None


def x_power(ker, e):
    F = ker.ctx
    return ker.from_reps([F.zero_rep] * e + [F.one_rep])


class TestTableReduction:
    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_rows_are_remainders_of_x_powers(self, field, n):
        rng = random.Random(20 + n)
        m_reps = rand_reps(field, n, rng, monic=True)
        for ker in both(field):
            m = ker.from_reps(m_reps)
            red = ker.reducer(m)
            assert red.tabled
            red.reduce(x_power(ker, max(2 * n - 2, n)))  # a product's length, or one more
            first = len(red.table)
            assert first == max(n - 1, 1)
            red.reduce(ker.from_reps(rand_reps(field, 3 * n + 4, rng)))  # extends the table
            assert len(red.table) == 2 * n + 5 > first
            for j, row in enumerate(red.table):
                got = ker.from_reps(ker.to_reps(row))
                assert ker.eq(got, ker.pdivmod(x_power(ker, n + j), m)[1])

    def test_reduce_long_inputs(self, field):
        fast, ref = both(field)
        rng = random.Random(21)
        for n in (1, 3, 8, 17):
            m = rand_reps(field, n, rng, monic=True)
            reds = fast.reducer(fast.from_reps(m)), ref.reducer(ref.from_reps(m))
            for length in (2 * n, 2 * n + 1, 4 * n + 3, 9 * n + 7):
                v = rand_reps(field, length - 1, rng)
                want = ref.pdivmod(ref.from_reps(v), ref.from_reps(m))[1]
                assert same(fast, ref, reds[0].reduce(fast.from_reps(v)), want)
                assert ref.eq(reds[1].reduce(ref.from_reps(v)), want)

    def test_restrict_matches_powmod(self, field):
        rng = random.Random(22)
        for ker in both(field):
            g = ker.from_reps(rand_reps(field, 3, rng, monic=True))
            f = ker.mul(g, ker.from_reps(rand_reps(field, 5, rng, monic=True)))
            part = ker.mul(f, ker.from_reps(rand_reps(field, 6, rng, monic=True)))
            red_f = ker.reducer(part).restrict(f)
            red_g = red_f.restrict(g)  # restricted twice: g | f | part
            assert red_f.restrict(f) is red_f
            for red in (red_f, red_g):
                assert len(red.matrix) == red.n == len(red.matrix[0])
                for _ in range(3):
                    v = red.reduce(ker.from_reps(rand_reps(field, 13, rng)))
                    assert ker.eq(red.frobenius(v), ker.powmod(v, field.q, ker.reducer(red.m)))

    def test_newton_side_of_the_bound(self, field, monkeypatch):
        rng = random.Random(23)
        fast, ref = both(field)
        m = rand_reps(field, 9, rng, monic=True)
        g = rand_reps(field, 5, rng, monic=True)
        v = rand_reps(field, 30, rng)
        monkeypatch.setattr(_kernels, "TABLE_MAX_DEGREE", 6)
        red = fast.reducer(fast.from_reps(m))
        assert not red.tabled and fast.reducer(fast.from_reps(g)).tabled
        want = ref.pdivmod(ref.from_reps(v), ref.from_reps(m))[1]
        assert same(fast, ref, red.reduce(fast.from_reps(v)), want)
        assert red.table is None and red.minv is not None
        # a piece above the bound keeps the parent's rows and reduces each output
        part = fast.mul(fast.from_reps(m), fast.from_reps(g))
        piece = fast.reducer(part).restrict(fast.from_reps(m))
        w = red.reduce(fast.from_reps(v))
        assert len(piece.matrix[0]) == 14
        assert fast.eq(piece.frobenius(w), fast.powmod(w, field.q, red))
        with_newton = fast.factor_monic(part, random.Random(3))
        monkeypatch.undo()
        with_table = fast.factor_monic(part, random.Random(3))
        key = lambda t: (fast.to_reps(t[0]), t[1])  # noqa: E731
        assert sorted(map(key, with_newton)) == sorted(map(key, with_table))

    @pytest.mark.parametrize("name, count", [("F3", 3), ("F199", 20), ("F9", 20)])
    def test_many_distinct_quadratics(self, name, count):
        # F_3 has only three monic irreducible quadratics; F_199 carries the
        # 20-quadratic case over a prime field
        F = FIELDS[name]
        fast, ref = both(F)
        f = product(ref, irreducibles(F, [2] * count, random.Random(24)))
        got = fast.factor_monic(fast.from_reps(ref.to_reps(f)), random.Random(5))
        want = ref.factor_monic(f, random.Random(5))
        assert len(want) == count
        assert sorted((fast.to_reps(g), m) for g, m in got) == sorted(
            (ref.to_reps(g), m) for g, m in want
        )


EUCLID_FIELDS = {"F199": (199, 1), "F169": (13, 2), "F3^7": (3, 7)}


def gcd_case(F, rng, deg):
    """Two ObjectKernel vectors of degree about ``deg`` with a common factor."""
    ref = ObjectKernel(F)
    common = ref.from_reps(rand_reps(F, rng.randrange(0, 4), rng))
    a = ref.mul(common, ref.from_reps(rand_reps(F, deg - ref.deg(common), rng)))
    b = ref.mul(common, ref.from_reps(rand_reps(F, deg - 1 - ref.deg(common), rng)))
    return a, b


class TestEuclid:
    """The list and log-code sides of ``gcd`` against ``ObjectKernel``, on
    both sides of ``EUCLID_LIST_MAX_DEGREE`` and ``ZECH_MAX_Q``."""

    @pytest.fixture(params=sorted(EUCLID_FIELDS))
    def efield(self, request):
        return make_field(*EUCLID_FIELDS[request.param])  # a fresh field: no tables yet

    def check(self, F, pairs):
        fast, ref = fast_kernel(F), ObjectKernel(F)
        for a, b in pairs:
            got = fast.gcd(fast.from_reps(a), fast.from_reps(b))
            assert got.dtype == np.int64 and got.shape[1:] == fast.row
            assert fast.to_reps(got) == ref.gcd(ref.from_reps(a), ref.from_reps(b))

    def count_pdivmod(self, F, monkeypatch):
        calls = []
        cls = type(fast_kernel(F))
        real = cls.pdivmod
        monkeypatch.setattr(cls, "pdivmod", lambda self, a, b: calls.append(1) or real(self, a, b))
        return calls

    def test_lists_below_the_bound(self, efield, monkeypatch):
        calls = self.count_pdivmod(efield, monkeypatch)
        rng = random.Random(7)
        self.check(efield, [gcd_case(efield, rng, 20) for _ in range(10)])
        assert not calls

    def test_sequence_crosses_the_bound(self, efield, monkeypatch):
        monkeypatch.setattr(_kernels, "EUCLID_LIST_MAX_DEGREE", 4)
        calls = self.count_pdivmod(efield, monkeypatch)
        rng = random.Random(8)
        self.check(efield, [gcd_case(efield, rng, 20) for _ in range(10)])
        # over F_p the head ran through pdivmod and the tail on lists; log
        # codes carry every step over F_{p^k}
        assert bool(calls) == (efield.k == 1)

    def test_log_codes_above_the_bound(self, monkeypatch):
        F = make_field(*EUCLID_FIELDS["F169"])
        calls = self.count_pdivmod(F, monkeypatch)
        rng = random.Random(11)
        deg = _kernels.EUCLID_LIST_MAX_DEGREE + 40
        self.check(F, [gcd_case(F, rng, deg) for _ in range(2)])
        assert not calls

    def test_zech_bound_falls_back(self, monkeypatch):
        F = make_field(*EUCLID_FIELDS["F169"])
        monkeypatch.setattr(_kernels, "ZECH_MAX_Q", F.q - 1)
        calls = self.count_pdivmod(F, monkeypatch)
        rng = random.Random(9)
        self.check(F, [gcd_case(F, rng, 12) for _ in range(10)])
        assert calls and "_zech" not in F.__dict__
        monkeypatch.setattr(_kernels, "ZECH_MAX_Q", F.q)
        self.check(F, [gcd_case(F, rng, 12)])
        assert "_zech" in F.__dict__

    def test_edge_inputs(self, efield):
        F, rng = efield, random.Random(10)
        a, b = gcd_case(F, rng, 9)
        unit = rand_reps(F, 0, rng)  # a nonzero constant
        zero = []
        pairs = [(zero, zero), (a, zero), (zero, b), (a, a), (b, b), (unit, unit)]
        pairs += [(unit, a), (a, unit), (unit, zero), (zero, unit), (a[:1], b[:1])]
        self.check(F, pairs)


class TestZechTables:
    @pytest.mark.parametrize("p, k", [(3, 2), (3, 3), (5, 3), (13, 2)])
    def test_tables(self, p, k):
        F = make_field(p, k)
        tab, q = _kernels.ZechTables(F), F.q
        assert F.mult_order_rep(tab.g) == q - 1
        assert all(F.mult_order_rep(F.rep_at(i)) < q - 1 for i in range(1, F.index_of(tab.g)))
        power = F.one_rep
        for n in range(q - 1):
            assert tab.exp[n] == F.index_of(power)
            assert tab.zech[n] == tab.log[F.index_of(F.radd(F.one_rep, power))]
            power = F.rmul(power, tab.g)
        assert power == F.one_rep
        assert tab.exp[q - 1] == 0 and tab.log[0] == q - 1
        assert sorted(tab.exp.tolist()) == list(range(q))
        assert tab.log[tab.exp].tolist() == list(range(q))
        assert tab.exp[tab.log].tolist() == list(range(q))
        assert [n for n in range(q - 1) if tab.zech[n] == q - 1] == [(q - 1) // 2]

    def test_built_once_per_field(self, monkeypatch):
        built = []
        real = _kernels.ZechTables
        monkeypatch.setattr(_kernels, "ZechTables", lambda F: built.append(F) or real(F))
        F = make_field(5, 2)
        a = [F.rep_at(i) for i in (3, 7, 1)]
        b = [F.rep_at(i) for i in (2, 1)]
        ker = kernel_for(F, 10)
        assert not built  # nothing is built before the first gcd
        first = ker.gcd(ker.from_reps(a), ker.from_reps(b))
        ker2 = kernel_for(F, 10)
        assert ker2 is not ker
        assert ker2.eq(ker2.gcd(ker2.from_reps(a), ker2.from_reps(b)), first)
        assert built == [F]


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

    def test_pdivmod_at_the_int64_bound(self):
        # ModPKernel.pdivmod reduces its remainder lazily; at the largest
        # dividend the guard allows, each coefficient still fits in int64
        p = sympy.prevprime(2**29)
        F = make_field(p)
        bound = 2**62 // (p - 1) ** 2 - 1
        assert isinstance(kernel_for(F, bound), ModPKernel)
        assert isinstance(kernel_for(F, bound + 1), ObjectKernel)
        fast, ref = both(F)
        rng = random.Random(3)
        for lb in range(2, bound + 1):
            a = [p - 1 - rng.randrange(3) for _ in range(bound - 1)] + [1]
            b = rand_reps(F, lb - 1, rng)
            qf, rf = fast.pdivmod(fast.from_reps(a), fast.from_reps(b))
            qr, rr = ref.pdivmod(ref.from_reps(a), ref.from_reps(b))
            assert same(fast, ref, qf, qr) and same(fast, ref, rf, rr)


class TestToReps:
    """``to_reps`` hands plain ints (ModP) or tuples of plain ints (Digit) to
    ``Poly``, whose hashing and equality compare reps directly."""

    @pytest.mark.parametrize("F", [make_field(199), make_field(13, 2), make_field(3, 7)])
    def test_plain_python_reps(self, F):
        ker = fast_kernel(F)
        rng = random.Random(11)
        for deg in (0, 1, 7, 60):
            v = ker.from_reps(rand_reps(F, deg, rng))
            if F.k == 1:
                want = [int(c) for c in v]
            else:
                want = [tuple(int(d) for d in row) for row in v]
            got = ker.to_reps(v)
            assert got == want
            assert all(type(r) is (int if F.k == 1 else tuple) for r in got)
            assert all(type(d) is int for r in got if F.k > 1 for d in r)
            assert hash(Poly(F, got)) == hash(Poly(F, want))
        assert ker.to_reps(ker.from_reps([])) == []


def untrimmed(ker, v, zeros):
    """v with ``zeros`` zero coefficients on top, as ``fold`` returns vectors."""
    return np.concatenate([v, np.zeros((zeros, ker.kk), dtype=np.int64)])


def rand_matrix(F, rows, n, rng):
    return [[F.rep_at(rng.randrange(F.q)) for _ in range(n)] for _ in range(rows)]


DIGIT_FIELDS = [(3, 2), (3, 3), (3, 4), (5, 3), (13, 2), (3, 7)]


class TestPackedDigitKernel:
    """``DigitKernel``'s packed products, one-product matrix applications and
    one-call trim against ``ObjectKernel``, over F_9 .. F_169 and F_{3^7}."""

    @pytest.fixture(params=DIGIT_FIELDS, ids=lambda pk: f"F{pk[0]}^{pk[1]}")
    def efield(self, request):
        return make_field(*request.param)

    def test_mul_untrimmed(self, efield):
        fast, ref = both(efield)
        rng = random.Random(31)
        for la in range(1, 41):
            lb = rng.randrange(1, 41)
            a, b = rand_reps(efield, la - 1, rng), rand_reps(efield, lb - 1, rng)
            fa = untrimmed(fast, fast.from_reps(a), rng.randrange(3))
            fb = untrimmed(fast, fast.from_reps(b), rng.randrange(3))
            got = fast.mul(fa, fb)
            assert same(fast, ref, got, ref.mul(ref.from_reps(a), ref.from_reps(b)))
            assert len(got) == la + lb - 1
        zero = untrimmed(fast, fast.from_reps([]), 3)
        assert len(fast.mul(zero, fast.from_reps(a))) == 0
        assert len(fast.mul(fast.from_reps([]), fast.from_reps(a))) == 0

    def test_matrix_applications(self, efield):
        fast, ref = both(efield)
        rng = random.Random(32)
        for rows, n in ((1, 1), (3, 5), (12, 4), (25, 25)):
            reps = rand_matrix(efield, rows, n, rng)
            fmat = fast.to_matrix([fast.from_reps(r) for r in reps], n)
            rmat = ref.to_matrix([ref.from_reps(r) for r in reps], n)
            for ell in range(rows + 1):
                v = rand_reps(efield, ell - 1, rng) if ell else []
                want = ref.apply_matrix(rmat, ref.from_reps(v))
                assert same(fast, ref, fast.apply_matrix(fmat, fast.from_reps(v)), want)
            # fold: the low n coefficients plus the rest through the table
            v = rand_reps(efield, n + rows - 1, rng)
            want = ref.fold(ref.from_reps(v), rmat)
            assert same(fast, ref, fast.trim(fast.fold(fast.from_reps(v), fmat)), want)
            # a stack of vectors padded to one length, folded row by row
            stack = [rand_reps(efield, rng.randrange(n + rows), rng) for _ in range(6)]
            fstack = fast.to_matrix([fast.from_reps(r) for r in stack], n + rows)
            rstack = ref.to_matrix([ref.from_reps(r) for r in stack], n + rows)
            got, want = fast.fold_rows(fstack, fmat), ref.fold_rows(rstack, rmat)
            assert got.shape == (6, n, efield.k)
            assert [fast.to_reps(r) for r in got] == want
            for row, v in zip(got, fstack):
                assert fast.eq(row, fast.fold(v, fmat))

    def test_trim(self, efield):
        ker = DigitKernel(efield)
        k = efield.k
        for m in (0, 1, 5):
            assert ker.trim(np.zeros((m, k), dtype=np.int64)).shape == (0, k)
        rng = random.Random(33)
        v = ker.from_reps(rand_reps(efield, 6, rng))
        for digit in (0, k - 1):  # the top row's only nonzero digit
            top = np.zeros((1, k), dtype=np.int64)
            top[0, digit] = 1
            w = np.concatenate([v[:4], top])
            assert ker.eq(ker.trim(untrimmed(ker, w, 3)), w)
        assert ker.eq(ker.trim(v), v)

    def test_products_at_the_int64_bound(self, monkeypatch):
        # at the largest degree kernel_for admits, the packed convolution's and
        # the matrix application's sums of products below p^2 fit in int64
        p = sympy.prevprime(2**29)
        assert pow(p - 3, (p - 1) // 2, p) == p - 1  # t^2 + t + 1 is irreducible
        # past make_field's size limit; the modulus search would walk all of F_p
        monkeypatch.setattr(ffield, "_smallest_modulus", lambda p, k: (1, 1, 1))
        F = ffield.ExtensionField(p, 2)
        bound = 2**62 // (2 * (p - 1) ** 2) - 1
        assert isinstance(kernel_for(F, bound), DigitKernel)
        assert isinstance(kernel_for(F, bound + 1), ObjectKernel)
        fast, ref = both(F)
        rng = random.Random(34)

        def big(length):
            return [(p - 1 - rng.randrange(3), p - 1 - rng.randrange(3)) for _ in range(length)]

        for la in range(1, bound + 2):
            for lb in range(1, bound + 2):
                a, b = big(la), big(lb)
                got = fast.mul(fast.from_reps(a), fast.from_reps(b))
                assert same(fast, ref, got, ref.mul(ref.from_reps(a), ref.from_reps(b)))
        for rows in range(1, bound + 2):
            reps = [big(3) for _ in range(rows)]
            fmat = fast.to_matrix([fast.from_reps(r) for r in reps], 3)
            rmat = ref.to_matrix([ref.from_reps(r) for r in reps], 3)
            v = big(rows)
            want = ref.apply_matrix(rmat, ref.from_reps(v))
            assert same(fast, ref, fast.apply_matrix(fmat, fast.from_reps(v)), want)

    def test_one_copy_of_the_tables_per_field(self, monkeypatch):
        built = []
        real = _kernels._t_powers
        monkeypatch.setattr(_kernels, "_t_powers", lambda F: built.append(F) or real(F))
        F = make_field(7, 3)
        ker, ker2 = kernel_for(F, 10), kernel_for(F, 20)
        assert ker2 is not ker
        assert ker2._tpow is ker._tpow and ker2._tpair is ker._tpair
        assert built == [F]
        t = [tuple(int(u == j) for j in range(3)) for u in range(3)]
        power = F.one_rep
        for s in range(5):  # row s of the first table is t^s
            assert tuple(ker._tpow[s].tolist()) == power
            power = F.rmul(power, t[1])
        for u, x in itertools.product(range(3), repeat=2):
            assert tuple(ker._tpair[3 * u + x].tolist()) == F.rmul(t[u], F.rpow(t[1], x))
