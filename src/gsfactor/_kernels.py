"""Coefficient-vector kernels: the package's polynomial arithmetic.

Every ``Poly`` operation but evaluation, the extension-field modulus search
and the factorization oracle run here.

The algorithms (square-free decomposition, distinct-degree splitting,
equal-degree splitting, Rabin irreducibility) are written once against a
small primitive interface.  Three implementations trade generality for
speed:

* ``ModPKernel``  -- prime fields, numpy int64 vectors, convolution products.
* ``DigitKernel`` -- extension fields F_{p^k}, vectors of base-p digit rows;
  a product is one packed convolution, a matrix application one product.
* ``ObjectKernel``-- any context, plain lists of representatives; slow but
  it is the reference the fast kernels are tested against.

The two numpy kernels share ``_ArrayKernel``, which holds every primitive
whose code does not depend on the shape of one coefficient (an int, or a
row of k digits).

Vectors are dense, low-degree-first, always trimmed (no trailing zeros);
the zero polynomial is the empty vector.  Everything done modulo one fixed
monic m of degree n goes through one ``_Reducer``: reduction, as one
product with a table whose row j is x^(n+j) mod m (or a Newton inverse
above ``TABLE_MAX_DEGREE``), and the q-power map.

Distinct-degree splitting, equal-degree splitting and the Rabin test all
step through q-th powers modulo f.  They share the reducer's
``frobenius(v)``: the q-power map as a product with the Frobenius matrix of
f (row i is x^(q*i) mod f), built once per polynomial and restricted to
each square-free part and each piece that equal-degree splitting splits
(von zur Gathen & Shoup, Comput. Complexity 2, 1992; Kaltofen & Shoup,
Math. Comp. 67, 1998).

Factoring starts with the walk h_j = x^(q^j) mod f, kept on the reducer.
Where h_L = x for some L <= deg f, f divides x^(q^L) - x: it is square-free,
with every factor degree dividing L, so the square-free split is skipped
and distinct-degree splitting takes one gcd(f, h_(L/l) - x) per prime l of
L, peeling the proper divisors of L only where one of those is nontrivial.
Otherwise (squared factors, or a degree lcm above deg f) the square-free
split and the block search run on the same walk.  A piece of two factors
of degree d is split with one draw: its trace r + r^q + ... + r^(q^(d-1))
is a different constant modulo each factor (Berlekamp, Math. Comp. 24,
1970), a root of a quadratic over F_q.

The numpy kernels' ``gcd`` runs Euclid's remainder sequence on lists of
Python ints, with no numpy call per step.  ``ModPKernel`` keeps residues
mod p, and takes its steps whose divisor has degree above
``EUCLID_LIST_MAX_DEGREE`` as one ``pdivmod`` each.  ``DigitKernel`` runs
every step on the log codes of the field's ``ZechTables``, built on its
first gcd and cached on the field (fields of at most ``ZECH_MAX_Q``
elements; larger ones keep ``Kernel.gcd``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DomainError, InvariantError
from .ffield import ExtensionField, FieldCtx, PrimeField, _factor_int

# Largest Frobenius matrix, in coefficient entries (n * n * digits per entry;
# 8 MiB as int64).  Above it the q-power map falls back to the powmod ladder.
FROBENIUS_MAX_ENTRIES = 1 << 20
# Moduli of degree above this are reduced through a Newton inverse, the rest
# through a table product.  Per reduction of a product of two reduced
# vectors over F_1009 (best of 7, 2-core x86-64 VM), table / Newton: 0.5 at
# n = 300-500, 0.75 at 600-700, 0.77-1.13 (within noise) at 800-1000, 1.8-3.4
# at 1024-1031; over F_125, 0.6 at 600 and 0.98 at 800.  The table also
# costs about 4x the Newton inverse to build.
TABLE_MAX_DEGREE = 800
# Over a prime field Euclid's remainder sequence runs on lists of Python
# ints once the divisor's degree is at most this; above it each step is one
# ``pdivmod``.  A whole Euclid of a random pair of degree d over F_199 and
# F_1009, numpy / lists (best of 5, 2-core x86-64 VM): 2.7-4.2 at d = 20,
# 1.4-1.8 at 80, 1.1-1.4 at 120, 0.98-1.1 at 160, 0.85-1.04 at 200, 0.6-0.7
# at 300.  Lists at every degree took factorize(g_4) over F_1009 from 0.67 to
# 1.05 s.  Over F_169, F_625 and F_{3^7} the log-code lists win 1.3-7x even
# at d = 300, so ``DigitKernel`` has no such bound.
EUCLID_LIST_MAX_DEGREE = 160
# Extension fields up to this size get ``ZechTables``, built on the first
# gcd over the field; above it ``DigitKernel.gcd`` is ``Kernel.gcd``.
# Building them (best of 3, same VM):
# 0.1-2 ms up to q = 3^7, mostly the search for a primitive element; 6.7 ms
# and 1.0 MiB kept at 3^9; 15 ms and 4.2 MiB at 5^7; 0.25 s and 28 MiB at 3^12.
ZECH_MAX_Q = 1 << 16
# A draw splits a product of degree-d factors with probability about 1/2 (a
# pair's trace fails with probability 1/q), so this many failures in a row
# (odds near 2^-64 or below) means an arithmetic fault.
MAX_FAILED_DRAWS = 64


class ZechTables:
    """Exp, log and Zech-logarithm tables of an extension field F_q.

    g is the first element of order q - 1 in canonical order.  A nonzero
    element g^n has the log code n in [0, q - 1); zero has the code q - 1.
    Elements are addressed by ``index_of``:

    * ``log[index_of(a)]`` is the code of a (so ``log[0] == q - 1``);
    * ``exp[n]`` is ``index_of(g^n)``, and ``exp[q - 1] == 0``;
    * ``zech[n]`` is the code of 1 + g^n, a list of q - 1 Python ints; it
      is q - 1 only at n = (q - 1) / 2, where g^n = -1.

    With them a product is a sum of codes mod q - 1, and a sum is
    g^m + g^n = g^(m + zech[n - m]).  ``log`` and ``exp`` are int64 arrays.
    The powers of g are built by doubling: the block g^m .. g^(2m-1) is the
    block 1 .. g^(m-1) times the digit matrix of multiplication by g^m."""

    def __init__(self, field: ExtensionField):
        p, k, q = field.p, field.k, field.q
        self.g = next(
            a for a in map(field.rep_at, itertools.count(1)) if field.mult_order_rep(a) == q - 1
        )
        # row u: the digits of t^u * g, so a digit row times it is that element times g
        step = np.array(
            [field.rmul(tuple(int(u == j) for j in range(k)), self.g) for u in range(k)],
            dtype=np.int64,
        )
        powers = np.zeros((q - 1, k), dtype=np.int64)
        powers[0, 0] = 1
        m = 1
        while m < q - 1:
            n = min(m, q - 1 - m)
            powers[m : m + n] = powers[:n] @ step % p
            step = step @ step % p
            m += n
        self.weights = p ** np.arange(k - 1, -1, -1, dtype=np.int64)  # index_of
        self.exp = np.append(powers @ self.weights, 0)
        self.log = np.empty(q, dtype=np.int64)
        self.log[self.exp] = np.arange(q, dtype=np.int64)
        powers[:, 0] = (powers[:, 0] + 1) % p
        self.zech = self.log[powers @ self.weights].tolist()


class _Reducer:
    """Arithmetic modulo one fixed monic polynomial m of degree n >= 1:
    reduction and the q-power map, each set up on first use.

    Up to ``TABLE_MAX_DEGREE``, f mod m is one product: the low n
    coefficients of f plus its high coefficients times the table whose row j
    is x^(n+j) mod m.  The table is built on first use and extended when a
    longer input arrives; each row is x times the one before, its top
    coefficient folded back through row 0.  Above that degree the quotient
    comes from a Newton inverse of the reversed modulus, likewise computed on
    first use and extended for longer quotients.

    On F_q[x]/(m) the q-power map v -> v^q is F_q-linear: v^q = sum_i v_i
    x^(q*i), one product of v with the Frobenius matrix.  The matrix is built
    on the first call; where it would pass ``FROBENIUS_MAX_ENTRIES`` the map
    is the square-and-multiply ladder instead.  ``x_power`` keeps the walk
    of x^(q^j) mod m, and ``find_period`` the least j >= 1 where it is x
    again.  ``restrict`` gives the same object modulo a divisor of m."""

    def __init__(self, kernel: "Kernel", m):
        self.kernel = kernel
        self.m = m
        self.n = kernel.deg(m)
        self.tabled = self.n <= TABLE_MAX_DEGREE
        self.table = None
        self.minv = None
        self.prec = 0
        self.matrix = None
        self.use_matrix = kernel.frobenius_fits(self.n)
        self.powers = None  # x^(q^j) mod m for j = 0, 1, ..., as far as walked
        self.period = None  # least L >= 1 with x^(q^L) = x mod m, once found

    def _grow(self, rows: int):
        """Make the table hold at least ``rows`` rows (at least n - 1, enough
        for any product of two reduced vectors)."""
        ker, n = self.kernel, self.n
        if self.table is None:
            self.table = ker.to_matrix([ker.neg(ker.trunc(self.m, n))], n)
        if len(self.table) < rows:
            self.table = ker.extend_table(self.table, max(rows, n - 1))

    def reduce(self, f):
        ker, n = self.kernel, self.n
        extra = ker.deg(f) + 1 - n  # coefficients above x^(n-1)
        if extra <= 0:
            return f
        if self.tabled:
            self._grow(extra)
            return ker.trim(ker.fold(f, self.table))
        e = extra - 1  # quotient degree
        if e >= self.prec:
            self.prec = max(e + 1, n - 1)
            self.minv = ker.inv_series(ker.reverse_to(self.m, n + 1), self.prec)
        fr = ker.trunc(ker.reverse_to(f, ker.deg(f) + 1), e + 1)
        qr = ker.trunc(ker.mul(fr, ker.trunc(self.minv, e + 1)), e + 1)
        q = ker.reverse_to(qr, e + 1)
        return ker.trunc(ker.sub(f, ker.mul(q, self.m)), n)

    def reduce_rows(self, mat):
        """The rows of a matrix (vectors padded to one length) each reduced
        modulo a tabled m, as an n-column matrix: one table product."""
        self._grow(len(mat[0]) - self.n)
        return self.kernel.fold_rows(mat, self.table)

    def frobenius_matrix(self):
        """Matrix whose row i is x^(q*i) mod m, built on the first call.

        The rows are powers of x^q; each comes from the previous one through
        the matrix of multiplication by x^q (row j is x^j * x^q mod m), which
        takes one shift-and-reduce step per row."""
        if self.matrix is None:
            ker, n, x = self.kernel, self.n, self.kernel.xvec()
            mult = [ker.powmod(x, ker.ctx.q, self)]
            while len(mult) < n:
                mult.append(self.reduce(ker.mul(mult[-1], x)))
            mult = ker.to_matrix(mult, n)
            rows = [ker.one()]
            while len(rows) < n:
                rows.append(ker.apply_matrix(mult, rows[-1]))
            self.matrix = ker.to_matrix(rows, n)
        return self.matrix

    def frobenius(self, v):
        """v^q mod m, for v of degree below n."""
        ker = self.kernel
        if not self.use_matrix:
            return ker.powmod(v, ker.ctx.q, self)
        return self.reduce(ker.apply_matrix(self.frobenius_matrix(), v))

    def x_power(self, j: int):
        """x^(q^j) mod m, one q-power map from x^(q^(j-1)); every power
        walked so far is kept."""
        if self.powers is None:
            self.powers = [self.reduce(self.kernel.xvec())]
        powers = self.powers
        while len(powers) <= j:
            powers.append(self.frobenius(powers[-1]))
        return powers[j]

    def find_period(self, limit: int):
        """The least L <= ``limit`` with x^(q^L) = x mod m, kept as
        ``period``, or None.  With one, m divides x^(q^L) - x: it is
        square-free and the degree of each of its factors divides L."""
        x = self.x_power(0)
        for j in range(1, limit + 1):
            if self.kernel.eq(self.x_power(j), x):
                self.period = j
                break
        return self.period

    def restrict(self, g) -> "_Reducer":
        """The object for a monic divisor g of m.  Its Frobenius matrix is the
        first deg g rows of this one, reduced modulo g in one table product;
        above ``TABLE_MAX_DEGREE`` the rows stay unreduced and each output is
        reduced instead.  The ladder stays a ladder."""
        ker = self.kernel
        if ker.deg(g) == self.n:
            return self
        child = _Reducer(ker, g)
        child.use_matrix = self.use_matrix
        if self.use_matrix:
            rows = self.frobenius_matrix()[: child.n]
            child.matrix = child.reduce_rows(rows) if child.tabled else rows
        return child


class Kernel:
    """Shared algorithms; subclasses provide the vector primitives."""

    ctx: FieldCtx
    width = 1  # matrix entries per field element (digits for DigitKernel)

    # -- primitives supplied by subclasses: from_reps, to_reps, trim, eq,
    #    add, sub, neg, mul, scale, lead_rep, pad, pdivmod, deriv ----------

    def deg(self, v) -> int:
        return len(v) - 1

    def one(self):
        return self.from_reps([self.ctx.one_rep])

    def xvec(self):
        return self.from_reps([self.ctx.zero_rep, self.ctx.one_rep])

    def trunc(self, v, n: int):
        return self.trim(v[:n])

    def reverse_to(self, v, length: int):
        return self.trim(self.pad(v, length)[::-1])

    def make_monic(self, v):
        lead = self.lead_rep(v)
        if lead == self.ctx.one_rep:
            return lead, v
        return lead, self.scale(v, self.ctx.rinv(lead))

    def exact_div(self, a, b):
        q, r = self.pdivmod(a, b)
        if self.deg(r) >= 0:
            raise InvariantError(
                f"exact division left a remainder (q={self.ctx.q}, degree {self.deg(a)}"
                f" by degree {self.deg(b)})"
            )
        return q

    def gcd(self, a, b):
        while self.deg(b) >= 0:
            a, b = b, self.pdivmod(a, b)[1]
        if self.deg(a) < 0:
            return a
        return self.make_monic(a)[1]

    def inv_series(self, f, n: int):
        """Inverse of f modulo x^n (constant term invertible)."""
        v = self.from_reps([self.ctx.rinv(self.to_reps(self.trunc(f, 1))[0])])
        two = self.from_reps([self.ctx.radd(self.ctx.one_rep, self.ctx.one_rep)])
        prec = 1
        while prec < n:
            prec = min(2 * prec, n)
            fv = self.trunc(self.mul(self.trunc(f, prec), v), prec)
            v = self.trunc(self.mul(v, self.sub(two, fv)), prec)
        return v

    def reducer(self, m) -> _Reducer:
        """Reduction and the q-power map modulo the monic m (see ``_Reducer``)."""
        return _Reducer(self, m)

    def powmod(self, v, e: int, red: _Reducer):
        if e < 0:
            raise DomainError("powmod exponent must be nonnegative")
        out = self.one()
        base = red.reduce(v)
        while e:
            if e & 1:
                out = red.reduce(self.mul(out, base))
            e >>= 1
            if e:
                base = red.reduce(self.mul(base, base))
        return out

    # -- the Frobenius map ----------------------------------------------------

    def frobenius_fits(self, n: int) -> bool:
        """Whether the n x n Frobenius matrix stays within the memory bound."""
        return n * n * self.width <= FROBENIUS_MAX_ENTRIES

    def extend_table(self, table, rows: int):
        """A reducer's table (row j is x^(n+j) mod m, padded to n) grown to
        ``rows`` rows: each row is x times the one before, its top
        coefficient folded back through row 0."""
        out = [self.from_reps(self.to_reps(r)) for r in table]
        while len(out) < rows:
            out.append(self.fold(self.mul(self.xvec(), out[-1]), table[:1]))
        return self.to_matrix(out, len(table[0]))

    def fold(self, v, table):
        """v mod m through a reducer's table (n = its row length): the low n
        coefficients of v plus its higher ones times the table."""
        n = len(table[0])
        return self.add(self.trunc(v, n), self.apply_matrix(table, v[n:]))

    def fold_rows(self, mat, table):
        """``fold`` of each row of a matrix, as an n-column matrix."""
        rows = [self.fold(self.from_reps(self.to_reps(r)), table) for r in mat]
        return self.to_matrix(rows, len(table[0]))

    def to_matrix(self, rows, n: int):
        """Pack vectors of degree below n as the rows of a matrix."""
        return [self.pad(r, n) for r in rows]

    def apply_matrix(self, mat, v):
        """sum_i v_i * row_i: the F_q-linear map with these rows, applied
        to a vector no longer than the matrix."""
        zero = self.ctx.zero_rep
        out = self.from_reps([])
        for c, row in zip(self.to_reps(v), mat):
            if c != zero:
                out = self.add(out, self.scale(row, c))
        return out

    # -- factorization ------------------------------------------------------

    def pth_root(self, v):
        """p-th root of a polynomial whose derivative vanishes."""
        p = self.ctx.p
        e = self.ctx.p ** (self.ctx.k - 1)  # coefficient-wise p-th root
        reps = self.to_reps(v)
        root = [self.ctx.rpow(reps[i], e) for i in range(0, len(reps), p)]
        return self.from_reps(root)

    def squarefree_parts(self, f):
        """Monic f, deg >= 1 -> [(monic squarefree part, multiplicity)]."""
        out = []
        n_mult = 1
        while True:
            df = self.deriv(f)
            if self.deg(df) >= 0:
                g = self.gcd(f, df)
                h = self.exact_div(f, g)
                i = 1
                while self.deg(h) > 0:
                    gg = self.gcd(g, h)
                    hh = self.exact_div(h, gg)
                    if self.deg(hh) > 0:
                        out.append((hh, i * n_mult))
                    g = self.exact_div(g, gg)
                    h = gg
                    i += 1
                if self.deg(g) == 0:
                    break
                f = g
            f = self.pth_root(f)
            n_mult *= self.ctx.p
        return out

    def distinct_degree_parts(self, f, red: _Reducer | None = None):
        """Monic squarefree f -> [(product of degree-d factors, d)].

        h_j = x^(q^j) mod f comes from ``red.x_power``, which keeps the
        walk.  Where the walk has found the period L of x (``find_period``),
        every factor degree divides L: one gcd(f, h_(L/l) - x) per prime l
        of L tells whether any factor has a proper divisor of L as degree,
        and only then are those divisors peeled off in increasing order.
        Otherwise the products of (h_j - x) over a block of
        ceil(sqrt(deg f)) degrees share one gcd with the part of f not yet
        split off; only a block whose gcd is nontrivial is searched degree
        by degree."""
        if red is None:
            red = self.reducer(f)
        if red.period is not None:
            return self._period_parts(f, red.period, red)
        x = red.x_power(0)
        block = math.isqrt(max(self.deg(f) - 1, 0)) + 1
        out = []
        rest, j = f, 0
        while self.deg(rest) >= 2 * (j + 1):
            first = j + 1
            stop = min(j + block, self.deg(rest) // 2)
            prod = self.one()
            while j < stop:
                j += 1
                prod = red.reduce(self.mul(prod, self.sub(red.x_power(j), x)))
            g = self.gcd(rest, prod)
            if self.deg(g) <= 0:
                continue
            rest = self.exact_div(rest, g)
            for i in range(first, j + 1):
                if self.deg(g) < 2 * i:
                    # every factor left has degree >= i: g is one or none
                    if self.deg(g) > 0:
                        out.append((g, self.deg(g)))
                    break
                gi = self.gcd(g, self.sub(red.x_power(i), x))
                if self.deg(gi) > 0:
                    out.append((gi, i))
                    g = self.exact_div(g, gi)
        if self.deg(rest) > 0:
            out.append((rest, self.deg(rest)))
        return out

    def _period_parts(self, f, period: int, red: _Reducer):
        """``distinct_degree_parts`` of an f that divides x^(q^L) - x, L =
        ``period`` the least such: gcd(f, h_(L/l) - x) is the product of the
        factors whose degree divides L/l, so where it is 1 for every prime
        l of L, f is a product of degree-L factors."""
        x = red.x_power(0)
        low = {
            period // ell: self.gcd(f, self.sub(red.x_power(period // ell), x))
            for ell in _factor_int(period)
        }
        if all(self.deg(g) == 0 for g in low.values()):
            return [(f, period)]
        out, rest = [], f
        for d in range(1, period):
            # a factor of degree d divides every low[m] with d | m
            if period % d or any(m % d == 0 and self.deg(g) == 0 for m, g in low.items()):
                continue
            # before anything is peeled, gcd(rest, h_d - x) is low[d] if known
            g = low[d] if not out and d in low else self.gcd(rest, self.sub(red.x_power(d), x))
            if self.deg(g) > 0:
                out.append((g, d))
                rest = self.exact_div(rest, g)
        if self.deg(rest) > 0:
            out.append((rest, period))
        return out

    def equal_degree_split(self, f, d: int, rng, red: _Reducer | None = None):
        """Monic squarefree f, all factors of degree d -> list of factors.

        ``red`` is the reducer modulo f or a multiple of f; for d > 1 it is
        restricted to f once, and each piece passes its own down.  A
        random r splits f through r^((q^d-1)/2) - 1, computed as the norm
        r * r^q * ... * r^(q^(d-1)) raised to (q-1)/2; a piece of two
        factors is finished by ``_split_pair`` instead.
        ``MAX_FAILED_DRAWS`` failed draws in a row raise ``InvariantError``."""
        n = self.deg(f)
        if n == d:
            return [f]
        # restricting builds the parent's Frobenius matrix, which d = 1 never uses
        red = red.restrict(f) if red is not None and d > 1 else self.reducer(f)
        if n == 2 * d:
            return self._split_pair(f, d, rng, red)
        half = (self.ctx.q - 1) // 2
        for _ in range(MAX_FAILED_DRAWS):
            r = self.rand_vec(rng, n)
            if self.deg(r) < 1:
                continue
            norm = conj = r
            for _ in range(d - 1):
                conj = red.frobenius(conj)
                norm = red.reduce(self.mul(norm, conj))
            g = self.gcd(f, self.sub(self.powmod(norm, half, red), self.one()))
            if 0 < self.deg(g) < n:
                break
        else:
            raise InvariantError(
                f"equal-degree splitting failed {MAX_FAILED_DRAWS} draws in a row"
                f" (q={self.ctx.q}, deg f={n}, d={d})"
            )
        rest = self.exact_div(f, g)
        return self.equal_degree_split(g, d, rng, red) + self.equal_degree_split(
            rest, d, rng, red
        )

    def _split_pair(self, f, d: int, rng, red: _Reducer):
        """The two degree-d factors of f, from one draw that does not fail
        (Berlekamp, Math. Comp. 24, 1970): the trace u = r + r^q + ... +
        r^(q^(d-1)) is a constant c1 modulo one factor and c2 modulo the
        other, so u^2 = (c1 + c2) u - c1 c2, c1 is a root of that quadratic
        over F_q, and gcd(f, u - c1) is one factor.  A draw fails where
        c1 = c2, u then being constant."""
        ctx, n = self.ctx, self.deg(f)
        where = f"(q={ctx.q}, deg f={n}, d={d})"
        for _ in range(MAX_FAILED_DRAWS):
            u = r = self.rand_vec(rng, n)
            for _ in range(d - 1):
                r = red.frobenius(r)
                u = self.add(u, r)
            if self.deg(u) >= 1:
                break
        else:
            raise InvariantError(
                f"equal-degree splitting drew {MAX_FAILED_DRAWS} constant traces {where}"
            )
        t = self.deg(u)
        sq = red.reduce(self.mul(u, u))
        us, ss = self.to_reps(u), self.to_reps(self.pad(sq, t + 1))
        a = ctx.rmul(ss[t], ctx.rinv(us[t]))  # c1 + c2
        b = ctx.rsub(ss[0], ctx.rmul(a, us[0]))  # -c1 c2
        if not self.eq(sq, self.add(self.scale(u, a), self.from_reps([b]))):
            raise InvariantError(f"a trace is not a root of a quadratic over F_q {where}")
        root = ctx.sqrt_rep(ctx.radd(ctx.rmul(a, a), ctx.rmul(ctx.rep_of(4), b)))
        if root is None:
            raise InvariantError(f"a trace's quadratic has a nonsquare discriminant {where}")
        c1 = ctx.rmul(ctx.radd(a, root), ctx.rinv(ctx.rep_of(2)))
        g = self.gcd(f, self.sub(u, self.from_reps([c1])))
        if self.deg(g) != d:
            raise InvariantError(f"a trace's gcd has degree {self.deg(g)} {where}")
        return [g, self.exact_div(f, g)]

    def factor_monic(self, f, rng):
        """Monic f, deg >= 1 -> [(monic irreducible, multiplicity)].

        The walk of x^(q^j) mod f comes first, up to deg f while the q-power
        map is a matrix product and up to deg f / 2 on the ladder.  Where it
        returns to x, f is square-free and ``distinct_degree_parts`` reuses
        the walk.  Otherwise f is split into square-free parts, each on f's
        reducer restricted to it (f's own where the part is f)."""
        n = self.deg(f)
        red = self.reducer(f)
        walk = n if red.use_matrix else n // 2
        parts = [(f, 1)] if red.find_period(walk) else self.squarefree_parts(f)
        out = []
        for part, mult in parts:
            pred = red.restrict(part)
            for prod, d in self.distinct_degree_parts(part, pred):
                for irr in self.equal_degree_split(prod, d, rng, pred):
                    out.append((irr, mult))
        return out

    def is_irreducible(self, f) -> bool:
        """Rabin test for a monic polynomial of degree >= 1."""
        n = self.deg(f)
        if n == 1:
            return True
        red = self.reducer(f)
        x = red.reduce(self.xvec())
        checkpoints = {n // ell for ell in _factor_int(n)}
        h = x
        for j in range(1, n + 1):
            h = red.frobenius(h)
            if j in checkpoints:
                if self.deg(self.gcd(f, self.sub(h, x))) != 0:
                    return False
        return self.eq(h, x)

    def rand_vec(self, rng, ncoeffs: int):
        reps = [self.ctx.rep_at(rng.randrange(self.ctx.q)) for _ in range(ncoeffs)]
        return self.from_reps(reps)


class _ArrayKernel(Kernel):
    """numpy int64 vectors, values in [0, p), one row of shape ``row`` per
    coefficient.  The primitives here do not depend on that shape."""

    row: tuple = ()

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.p = ctx.p

    def from_reps(self, reps):
        if not reps:
            return np.zeros((0,) + self.row, dtype=np.int64)
        return self.trim(np.array(reps, dtype=np.int64))

    def eq(self, a, b):
        return len(a) == len(b) and bool(np.array_equal(a, b))

    def pad(self, v, length):
        if len(v) >= length:
            return v[:length]
        fill = np.zeros((length - len(v),) + self.row, dtype=np.int64)
        return np.concatenate([v, fill])

    def add(self, a, b):
        n = max(len(a), len(b))
        return self.trim((self.pad(a, n) + self.pad(b, n)) % self.p)

    def sub(self, a, b):
        n = max(len(a), len(b))
        return self.trim((self.pad(a, n) - self.pad(b, n)) % self.p)

    def neg(self, a):
        return (-a) % self.p

    def deriv(self, v):
        if len(v) < 2:
            return v[:0]
        # coefficient i times i; transposed, the coefficient axis is the last
        return self.trim((v[1:].T * np.arange(1, len(v), dtype=np.int64)).T % self.p)

    def to_matrix(self, rows, n):
        return np.array([self.pad(r, n) for r in rows])

    def fold_rows(self, mat, table):
        return self.fold(mat, table)  # fold takes a stack of vectors


class ModPKernel(_ArrayKernel):
    """Prime-field vectors as numpy int64 arrays."""

    def to_reps(self, v):
        return v.tolist()

    def trim(self, v):
        n = len(v)
        while n and v[n - 1] == 0:
            n -= 1
        return v[:n]

    def mul(self, a, b):
        if len(a) == 0 or len(b) == 0:
            return a[:0]
        return np.convolve(a, b) % self.p

    def scale(self, v, c):
        return self.trim(v * c % self.p)

    def lead_rep(self, v):
        return int(v[-1])

    def apply_matrix(self, mat, v):
        return self.trim(v @ mat[: len(v)] % self.p)

    def extend_table(self, table, rows):
        out = np.empty((rows, table.shape[1]), dtype=np.int64)
        out[: len(table)] = table
        first = out[0]
        for j in range(len(table), rows):
            prev, row = out[j - 1], out[j]
            np.multiply(first, prev[-1], out=row)
            row[1:] += prev[:-1]
            row %= self.p
        return out

    def fold(self, v, table):
        # also folds a stack of vectors, one per row; the result is untrimmed
        n = table.shape[1]
        return (v[..., :n] + v[..., n:] @ table[: v.shape[-1] - n]) % self.p

    def gcd(self, a, b):
        """Monic gcd: ``pdivmod`` steps down to ``EUCLID_LIST_MAX_DEGREE``,
        then the rest of the remainder sequence on lists of ints."""
        while len(b) > EUCLID_LIST_MAX_DEGREE + 1:
            a, b = b, self.pdivmod(a, b)[1]
        p = self.p
        a, b = a.tolist(), b.tolist()
        while b:
            a, b = b, _rem_modp(a, b, p)
        if a and a[-1] != 1:
            inv = pow(a[-1], -1, p)
            a = [c * inv % p for c in a]
        return np.array(a, dtype=np.int64)

    def pdivmod(self, a, b):
        if len(b) == 0:
            raise ZeroDivisionError("polynomial division by zero")
        lb = len(b)
        if len(a) < lb:
            return a[:0], a
        p = self.p
        inv = pow(int(b[-1]), -1, p)
        bm = b * inv % p
        bm_low = bm[:-1]
        r = a.copy()
        qlen = len(a) - lb + 1
        qv = np.zeros(qlen, dtype=np.int64)
        # r is reduced lazily: a coefficient takes at most min(qlen, lb - 1)
        # subtractions below p^2, which kernel_for's int64 guard covers
        for i in range(qlen - 1, -1, -1):
            c = int(r[i + lb - 1]) % p
            if c:
                qv[i] = c
                r[i : i + lb - 1] -= c * bm_low
        return self.trim(qv * inv % p), self.trim(r[: lb - 1] % p)


class DigitKernel(_ArrayKernel):
    """Extension-field vectors as (ncoeffs, k) arrays of base-p digits.

    A product is one packed convolution: with each coefficient's k digits in
    a slot of 2k - 1 (Kronecker substitution), one ``np.convolve`` of the
    flat arrays gives the product's digits up to t^(2k-2), folded back in
    one product.  A matrix application is one product with the matrix's
    (rows, n*k) view, its digit shifts folded back in one more.  The fold
    tables are the field's, built on its first kernel and kept on it."""

    def __init__(self, ctx: ExtensionField):
        super().__init__(ctx)
        self.kk = self.width = ctx.k
        self.row = (ctx.k,)
        tables = ctx.__dict__.get("_t_powers") or _t_powers(ctx)
        self._tpow, self._tpair = ctx.__dict__.setdefault("_t_powers", tables)

    def to_reps(self, v):
        return list(map(tuple, v.tolist()))

    def trim(self, v):
        nz = v.ravel().nonzero()[0]
        return v[: nz[-1] // self.kk + 1 if len(nz) else 0]

    def mul(self, a, b):
        if len(a) == 0 or len(b) == 0:
            return a[:0]
        # row i: digits of t^0 .. t^(2k-2) of coefficient i, folded through _tpow
        wide = np.convolve(self._packed(a), self._packed(b)).reshape(-1, 2 * self.kk - 1)
        return self.trim((wide % self.p) @ self._tpow % self.p)

    def _packed(self, v):
        """v's digits in slots of 2k - 1, flat, less the last slot's k - 1
        zeros; slot i of a product of two holds the sum of a_j * b_(i-j)."""
        k = self.kk
        out = np.zeros((len(v), 2 * k - 1), dtype=np.int64)
        out[:, :k] = v
        return out.ravel()[: out.size - k + 1]

    def _t_multiples(self, v):
        """(k, len(v), k) array whose entry u is t^u * v, digit by digit."""
        out = np.empty((self.kk,) + v.shape, dtype=np.int64)
        out[0] = v
        for u in range(1, self.kk):
            prev = out[u - 1]
            out[u, :, 0] = 0
            out[u, :, 1:] = prev[:, :-1]
            out[u] = (out[u] + prev[:, -1:] * self._tpow[self.kk]) % self.p
        return out

    def apply_matrix(self, mat, v):
        return self.trim(self._apply(mat, v))

    def _apply(self, mat, vs):
        """sum_i v_i * row_i for a vector v of shape (L, k), or for each
        vector of a stack of shape (..., L, k); untrimmed.  Digit u of v
        times the (L, n*k) view gives the [u, i, x] terms of t^(u+x) in
        coefficient i, folded through the table of t^(u+x)."""
        ell, (n, k) = vs.shape[-2], mat.shape[1:]
        part = vs.swapaxes(-1, -2) @ mat[:ell].reshape(ell, n * k) % self.p
        part = part.reshape(part.shape[:-1] + (n, k)).swapaxes(-3, -2)
        return part.reshape(part.shape[:-2] + (k * k,)) @ self._tpair % self.p

    def extend_table(self, table, rows):
        old, n, k = table.shape
        out = np.empty((rows, n, k), dtype=np.int64)
        out[:old] = table
        first = self._t_multiples(out[0]).reshape(k, n * k)  # row u: t^u * row 0
        for j in range(old, rows):
            prev, row = out[j - 1], out[j]
            row[:] = (prev[-1] @ first).reshape(n, k)
            row[1:] += prev[:-1]
            row %= self.p
        return out

    def fold(self, v, table):
        # also folds a stack of vectors, one per row; the result is untrimmed
        n = table.shape[1]
        return (v[..., :n, :] + self._apply(table, v[..., n:, :])) % self.p

    def scale(self, v, c_rep):
        if len(v) == 0:
            return v
        c = np.array([c_rep], dtype=np.int64)
        return self.trim(v @ self._t_multiples(c)[:, 0, :] % self.p)

    def lead_rep(self, v):
        return tuple(int(d) for d in v[-1])

    def gcd(self, a, b):
        """Monic gcd, the remainder sequence on lists of the field's log
        codes (``ZechTables``, built once per field and kept on it).  Fields
        above ``ZECH_MAX_Q`` keep ``Kernel.gcd``."""
        ctx = self.ctx
        if ctx.q > ZECH_MAX_Q:
            return Kernel.gcd(self, a, b)
        tab = ctx.__dict__.get("_zech") or ctx.__dict__.setdefault("_zech", ZechTables(ctx))
        zero = ctx.q - 1
        a, b = tab.log[a @ tab.weights].tolist(), tab.log[b @ tab.weights].tolist()
        while b:
            a, b = b, _rem_zech(a, b, tab.zech, zero)
        if a and a[-1]:  # code 0 is g^0 = 1: already monic
            lead = a[-1]
            a = [c if c == zero else (c - lead) % zero for c in a]
        idx = tab.exp[np.array(a, dtype=np.int64)]
        return idx[:, None] // tab.weights % self.p

    def pdivmod(self, a, b):
        if len(b) == 0:
            raise ZeroDivisionError("polynomial division by zero")
        lb = len(b)
        if len(a) < lb:
            return a[:0], a
        inv = None
        if self.lead_rep(b) != self.ctx.one_rep:
            inv = self.ctx.rinv(self.lead_rep(b))
            b = self.pad(self.scale(b, inv), lb)  # scale() trims; keep the length
        k = self.kk
        # row u of `rows` is t^u * (b without its lead), so c * b is c @ rows
        rows = self._t_multiples(b[:-1]).reshape(k, -1)
        r = a.copy()
        qlen = len(a) - lb + 1
        qv = np.zeros((qlen, k), dtype=np.int64)
        for i in range(qlen - 1, -1, -1):
            row = r[i + lb - 1]
            if row.any():
                qv[i] = row
                r[i : i + lb - 1] = (r[i : i + lb - 1] - (row @ rows).reshape(lb - 1, k)) % self.p
        q = self.trim(qv) if inv is None else self.scale(qv, inv)
        return q, self.trim(r[: lb - 1])


def _rem_modp(a, b, p):
    """a mod b for lists of ints in [0, p), b trimmed and nonzero.  a is
    used up: the trimmed remainder is built in its place.

    Quotient coefficients go in pairs, one pass over a for both: Euclid's
    quotients mostly have exactly two.  A whole Euclid of a random pair of
    degree d over F_199 and F_1009 took 1.2-1.6x as long with one
    coefficient per pass (d = 10-160, best of 7, 2-core x86-64 VM)."""
    top = len(b) - 1
    if top == 0:
        return []
    inv = pow(b[-1], -1, p)
    low = b[:-1]
    shifted = [0] + low[:-1]
    i = len(a) - 1 - top  # index of the next quotient coefficient
    while i >= 1:
        hi = a[i + top] * inv % p
        lo = (a[i + top - 1] - hi * low[-1]) * inv % p
        seg = a[i - 1 : i - 1 + top]
        a[i - 1 : i - 1 + top] = [(x - lo * y - hi * z) % p for x, y, z in zip(seg, low, shifted)]
        i -= 2
    if i == 0:
        c = a[top] * inv % p
        a[:top] = [(x - c * y) % p for x, y in zip(a, low)]
    del a[top:]
    while a and not a[-1]:
        a.pop()
    return a


def _rem_zech(a, b, zech, zero):
    """``_rem_modp`` on log codes: ``zero`` (= q - 1) is the code of 0 and
    g^m + g^n = g^(m + zech[n - m]).  Subtracting c * b, c = a_top / b_lead,
    adds the codes of -c * b_j, which are b_j + a_top - b_lead + (q - 1)/2."""
    top = len(b) - 1
    shift = zero // 2 - b[-1]
    low = b[:-1]
    for i in range(len(a) - 1 - top, -1, -1):
        c = a[i + top]
        if c != zero:
            s = c + shift
            a[i : i + top] = [
                x if y == zero
                else (y + s) % zero if x == zero
                else z if (z := zech[(y + s - x) % zero]) == zero
                else (x + z) % zero
                for x, y in zip(a[i : i + top], low)
            ]
    del a[top:]
    while a and a[-1] == zero:
        a.pop()
    return a


def _t_powers(field: ExtensionField):
    """Digits of t^0 .. t^(2k-2) modulo the field modulus, as a (2k-1, k)
    array, and the (k*k, k) array whose row u*k + x is t^(u+x)."""
    k = field.k
    red = np.array(field._red[: k - 1], dtype=np.int64).reshape(-1, k)
    tpow = np.vstack([np.eye(k, dtype=np.int64), red])
    return tpow, tpow[np.add.outer(np.arange(k), np.arange(k)).ravel()]


class ObjectKernel(Kernel):
    """List-of-representatives fallback; works over any field context."""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx

    def from_reps(self, reps):
        return self.trim(list(reps))

    def to_reps(self, v):
        return list(v)

    def trim(self, v):
        z = self.ctx.zero_rep
        while v and v[-1] == z:
            v.pop()
        return v

    def eq(self, a, b):
        return a == b

    def pad(self, v, length):
        if len(v) >= length:
            return v[:length]
        return v + [self.ctx.zero_rep] * (length - len(v))

    def add(self, a, b):
        n = max(len(a), len(b))
        a, b = self.pad(a, n), self.pad(b, n)
        return self.trim([self.ctx.radd(x, y) for x, y in zip(a, b)])

    def sub(self, a, b):
        n = max(len(a), len(b))
        a, b = self.pad(a, n), self.pad(b, n)
        return self.trim([self.ctx.rsub(x, y) for x, y in zip(a, b)])

    def neg(self, a):
        return [self.ctx.rneg(x) for x in a]

    def mul(self, a, b):
        if not a or not b:
            return []
        ctx = self.ctx
        out = [ctx.zero_rep] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == ctx.zero_rep:
                continue
            for j, y in enumerate(b):
                out[i + j] = ctx.radd(out[i + j], ctx.rmul(x, y))
        return self.trim(out)

    def scale(self, v, c):
        return self.trim([self.ctx.rmul(x, c) for x in v])

    def lead_rep(self, v):
        return v[-1]

    def deriv(self, v):
        ctx = self.ctx
        out = [ctx.rmul(ctx.rep_of(i), v[i]) for i in range(1, len(v))]
        return self.trim(out)

    def pdivmod(self, a, b):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        ctx = self.ctx
        lb = len(b)
        if len(a) < lb:
            return [], list(a)
        inv = ctx.rinv(b[-1])
        bm = [ctx.rmul(x, inv) for x in b]
        r = list(a)
        qv = [ctx.zero_rep] * (len(a) - lb + 1)
        for i in range(len(qv) - 1, -1, -1):
            c = r[i + lb - 1]
            if c != ctx.zero_rep:
                qv[i] = c
                for j in range(lb - 1):
                    r[i + j] = ctx.rsub(r[i + j], ctx.rmul(c, bm[j]))
                r[i + lb - 1] = ctx.zero_rep
        q = self.trim([ctx.rmul(c, inv) for c in qv])
        return q, self.trim(r[: lb - 1])


def kernel_for(ctx: FieldCtx, degree_bound: int) -> Kernel:
    """Pick the fastest kernel that is exact for this field and size."""
    # product accumulators sum up to k * (degree_bound + 1) terms below p^2,
    # matrix applications up to degree_bound + 1 and then k * k; all within int64
    if isinstance(ctx, (PrimeField, ExtensionField)):
        if ctx.k * max(ctx.k, degree_bound + 1) * (ctx.p - 1) ** 2 >= 2**62:
            return ObjectKernel(ctx)
    if isinstance(ctx, PrimeField):
        return ModPKernel(ctx)
    if isinstance(ctx, ExtensionField):
        return DigitKernel(ctx)
    return ObjectKernel(ctx)
