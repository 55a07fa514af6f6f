"""Coefficient-vector kernels backing the factorization oracle.

The algorithms (square-free decomposition, distinct-degree splitting,
equal-degree splitting, Rabin irreducibility) are written once against a
small primitive interface.  Three implementations trade generality for
speed:

* ``ModPKernel``  -- prime fields, numpy int64 vectors, convolution products.
* ``DigitKernel`` -- extension fields F_{p^k}, vectors of base-p digit rows.
* ``ObjectKernel``-- any context, plain lists of representatives; slow but
  it is the reference the fast kernels are tested against.

Vectors are dense, low-degree-first, always trimmed (no trailing zeros);
the zero polynomial is the empty vector.  Repeated reduction by one modulus
goes through a precomputed Newton-inverse reducer.

Distinct-degree splitting, equal-degree splitting and the Rabin test all
step through q-th powers modulo one square-free f.  They share one
primitive, ``Kernel.frobenius(f)``: the q-power map as a product with the
Frobenius matrix of f (row i is x^(q*i) mod f), built once per square-free
part (von zur Gathen & Shoup, Comput. Complexity 2, 1992; Kaltofen & Shoup,
Math. Comp. 67, 1998).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InvariantError
from .ffield import ExtensionField, FieldCtx, PrimeField

_DIRECT_QUOTIENT = 8  # quotients shorter than this skip the Newton machinery
# Largest Frobenius matrix, in coefficient entries (n * n * digits per entry;
# 8 MiB as int64).  Above it the q-power map falls back to the powmod ladder.
FROBENIUS_MAX_ENTRIES = 1 << 20


class _Reducer:
    """Precomputed reduction modulo one fixed monic polynomial.

    The inverse of the reversed modulus is computed on first use and
    extended when a longer quotient needs more precision, so one reducer
    serves inputs of any degree."""

    def __init__(self, kernel: "Kernel", m):
        self.kernel = kernel
        self.m = m
        self.n = kernel.deg(m)
        self.minv = None
        self.prec = 0

    def reduce(self, f):
        ker = self.kernel
        e = ker.deg(f) - self.n  # quotient degree
        if e < 0:
            return f
        if e < _DIRECT_QUOTIENT:
            return ker.pdivmod(f, self.m)[1]
        if e >= self.prec:
            self.prec = max(e + 1, self.n - 1)
            self.minv = ker.inv_series(ker.reverse_to(self.m, self.n + 1), self.prec)
        fr = ker.trunc(ker.reverse_to(f, ker.deg(f) + 1), e + 1)
        qr = ker.trunc(ker.mul(fr, ker.trunc(self.minv, e + 1)), e + 1)
        q = ker.reverse_to(qr, e + 1)
        return ker.trunc(ker.sub(f, ker.mul(q, self.m)), self.n)


class _Frobenius:
    """The q-power map v -> v^q modulo one fixed monic f of degree n.

    On F_q[x]/(f) the map is F_q-linear: v^q = sum_i v_i x^(q*i), one
    product of v with the Frobenius matrix.  The matrix is built on the
    first call; where it would pass ``FROBENIUS_MAX_ENTRIES`` the map is the
    square-and-multiply ladder instead.  Inputs have degree below n; the
    result is reduced by ``red``, a reducer for f or for any divisor of f.
    """

    def __init__(self, kernel: "Kernel", f):
        self.kernel = kernel
        self.red = kernel.reducer(f)
        self.x = self.red.reduce(kernel.xvec())
        self.matrix = None
        self.use_matrix = kernel.frobenius_fits(self.red.n)

    def __call__(self, v, red: _Reducer | None = None):
        ker = self.kernel
        if red is None:
            red = self.red
        if not self.use_matrix:
            return ker.powmod(v, ker.ctx.q, red)
        if self.matrix is None:
            self.matrix = ker.frobenius_matrix(self.red)
        return red.reduce(ker.apply_matrix(self.matrix, v))


class Kernel:
    """Shared algorithms; subclasses provide the vector primitives."""

    ctx: FieldCtx
    width = 1  # matrix entries per field element (digits for DigitKernel)

    # -- primitives supplied by subclasses: from_reps, to_reps, eq, add,
    #    sub, neg, mul, scale, lead_rep, pad, trunc, pdivmod, deriv --------

    def deg(self, v) -> int:
        return len(v) - 1

    def is_one(self, v) -> bool:
        return self.deg(v) == 0 and self.lead_rep(v) == self.ctx.one_rep

    def one(self):
        return self.from_reps([self.ctx.one_rep])

    def xvec(self):
        return self.from_reps([self.ctx.zero_rep, self.ctx.one_rep])

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
            raise InvariantError("exact division left a remainder")
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

    def frobenius(self, f) -> _Frobenius:
        """The q-power map modulo the monic f (see ``_Frobenius``)."""
        return _Frobenius(self, f)

    def frobenius_fits(self, n: int) -> bool:
        """Whether the n x n Frobenius matrix stays within the memory bound."""
        return n * n * self.width <= FROBENIUS_MAX_ENTRIES

    def frobenius_matrix(self, red: _Reducer):
        """Matrix whose row i is x^(q*i) mod f, for f = red.m.

        The rows are powers of x^q; each comes from the previous one through
        the matrix of multiplication by x^q (row j is x^j * x^q mod f), which
        takes one shift-and-reduce step per row."""
        n = red.n
        x = self.xvec()
        mult = [self.powmod(x, self.ctx.q, red)]
        while len(mult) < n:
            mult.append(red.reduce(self.mul(mult[-1], x)))
        mult = self.to_matrix(mult, n)
        rows = [self.one()]
        while len(rows) < n:
            rows.append(self.apply_matrix(mult, rows[-1]))
        return self.to_matrix(rows, n)

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

    def distinct_degree_parts(self, f, frob: _Frobenius | None = None):
        """Monic squarefree f -> [(product of degree-d factors, d)].

        h_j = x^(q^j) is kept modulo f itself, one Frobenius step per j.
        The products of (h_j - x) over a block of ceil(sqrt(deg f)) degrees
        share one gcd with the part of f not yet split off; only a block
        whose gcd is nontrivial is searched degree by degree."""
        if frob is None:
            frob = self.frobenius(f)
        red, x = frob.red, frob.x
        block = math.isqrt(max(self.deg(f) - 1, 0)) + 1
        out = []
        rest, h, j = f, x, 0
        while self.deg(rest) >= 2 * (j + 1):
            first = j + 1
            stop = min(j + block, self.deg(rest) // 2)
            hs, prod = [], self.one()
            while j < stop:
                j += 1
                h = frob(h)
                hs.append(h)
                prod = red.reduce(self.mul(prod, self.sub(h, x)))
            g = self.gcd(rest, prod)
            if self.deg(g) <= 0:
                continue
            rest = self.exact_div(rest, g)
            for i, hi in enumerate(hs, first):
                if self.deg(g) < 2 * i:
                    # every factor left has degree >= i: g is one or none
                    if self.deg(g) > 0:
                        out.append((g, self.deg(g)))
                    break
                gi = self.gcd(g, self.sub(hi, x))
                if self.deg(gi) > 0:
                    out.append((gi, i))
                    g = self.exact_div(g, gi)
        if self.deg(rest) > 0:
            out.append((rest, self.deg(rest)))
        return out

    def equal_degree_split(self, f, d: int, rng, frob: _Frobenius | None = None):
        """Monic squarefree f, all factors of degree d -> list of factors.

        ``frob`` is the q-power map modulo f or a multiple of f.  A random r
        splits f through r^((q^d-1)/2) - 1, computed as the norm
        r * r^q * ... * r^(q^(d-1)) raised to (q-1)/2."""
        n = self.deg(f)
        if n == d:
            return [f]
        if frob is None and d > 1:
            frob = self.frobenius(f)
        red = self.reducer(f)
        half = (self.ctx.q - 1) // 2
        while True:
            r = self.rand_vec(rng, n)
            if self.deg(r) < 1:
                continue
            norm = conj = r
            for _ in range(d - 1):
                conj = frob(conj, red)
                norm = red.reduce(self.mul(norm, conj))
            g = self.gcd(f, self.sub(self.powmod(norm, half, red), self.one()))
            if 0 < self.deg(g) < n:
                break
        rest = self.exact_div(f, g)
        return self.equal_degree_split(g, d, rng, frob) + self.equal_degree_split(
            rest, d, rng, frob
        )

    def factor_monic(self, f, rng):
        """Monic f, deg >= 1 -> [(monic irreducible, multiplicity)]."""
        out = []
        for part, mult in self.squarefree_parts(f):
            frob = self.frobenius(part)  # one Frobenius matrix per part
            for prod, d in self.distinct_degree_parts(part, frob):
                for irr in self.equal_degree_split(prod, d, rng, frob):
                    out.append((irr, mult))
        return out

    def is_irreducible(self, f) -> bool:
        """Rabin test for a monic polynomial of degree >= 1."""
        n = self.deg(f)
        if n == 1:
            return True
        frob = self.frobenius(f)
        x = frob.x
        checkpoints = {n // ell for ell in _prime_divisors(n)}
        h = x
        for j in range(1, n + 1):
            h = frob(h)
            if j in checkpoints:
                if self.deg(self.gcd(f, self.sub(h, x))) != 0:
                    return False
        return self.eq(h, x)

    def distinct_roots(self, f, rng):
        """Monic f -> representatives of its distinct roots in the field."""
        red = self.reducer(f)
        xq = self.powmod(self.xvec(), self.ctx.q, red)
        lin = self.gcd(f, self.sub(xq, self.xvec()))
        if self.deg(lin) < 1:
            return []
        roots = []
        for piece in self.equal_degree_split(lin, 1, rng):
            roots.append(self.ctx.rneg(self.to_reps(piece)[0]))
        return roots

    def rand_vec(self, rng, ncoeffs: int):
        reps = [self.ctx.rep_at(rng.randrange(self.ctx.q)) for _ in range(ncoeffs)]
        return self.from_reps(reps)

    def trim(self, v):
        raise NotImplementedError


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class ModPKernel(Kernel):
    """Prime-field vectors as numpy int64 arrays, values in [0, p)."""

    def __init__(self, ctx: PrimeField):
        self.ctx = ctx
        self.p = ctx.p

    def from_reps(self, reps):
        return self.trim(np.array(reps, dtype=np.int64))

    def to_reps(self, v):
        return [int(c) for c in v]

    def trim(self, v):
        n = len(v)
        while n and v[n - 1] == 0:
            n -= 1
        return v[:n]

    def eq(self, a, b):
        return len(a) == len(b) and bool(np.array_equal(a, b))

    def pad(self, v, length):
        if len(v) >= length:
            return v[:length]
        return np.concatenate([v, np.zeros(length - len(v), dtype=np.int64)])

    def trunc(self, v, n):
        return self.trim(v[:n])

    def add(self, a, b):
        n = max(len(a), len(b))
        return self.trim((self.pad(a, n) + self.pad(b, n)) % self.p)

    def sub(self, a, b):
        n = max(len(a), len(b))
        return self.trim((self.pad(a, n) - self.pad(b, n)) % self.p)

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        if len(a) == 0 or len(b) == 0:
            return a[:0]
        return np.convolve(a, b) % self.p

    def scale(self, v, c):
        return self.trim(v * c % self.p)

    def lead_rep(self, v):
        return int(v[-1])

    def deriv(self, v):
        if len(v) < 2:
            return v[:0]
        return self.trim(v[1:] * np.arange(1, len(v), dtype=np.int64) % self.p)

    def to_matrix(self, rows, n):
        return np.array([self.pad(r, n) for r in rows])

    def apply_matrix(self, mat, v):
        return self.trim(v @ mat[: len(v)] % self.p)

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
        for i in range(qlen - 1, -1, -1):
            c = int(r[i + lb - 1])
            if c:
                qv[i] = c
                r[i : i + lb - 1] = (r[i : i + lb - 1] - c * bm_low) % p
        return self.trim(qv * inv % p), self.trim(r[: lb - 1])


class DigitKernel(Kernel):
    """Extension-field vectors as (ncoeffs, k) arrays of base-p digits."""

    def __init__(self, ctx: ExtensionField):
        self.ctx = ctx
        self.p = ctx.p
        self.kk = self.width = ctx.k
        # fold table: row j = digits of t^(k+j) modulo the field modulus
        self._fold = np.array(ctx._red, dtype=np.int64) if ctx.k > 1 else None

    def from_reps(self, reps):
        if not reps:
            return np.zeros((0, self.kk), dtype=np.int64)
        return self.trim(np.array(reps, dtype=np.int64))

    def to_reps(self, v):
        return [tuple(int(d) for d in row) for row in v]

    def trim(self, v):
        n = len(v)
        while n and not v[n - 1].any():
            n -= 1
        return v[:n]

    def eq(self, a, b):
        return len(a) == len(b) and bool(np.array_equal(a, b))

    def pad(self, v, length):
        if len(v) >= length:
            return v[:length]
        fill = np.zeros((length - len(v), self.kk), dtype=np.int64)
        return np.concatenate([v, fill])

    def trunc(self, v, n):
        return self.trim(v[:n])

    def add(self, a, b):
        n = max(len(a), len(b))
        return self.trim((self.pad(a, n) + self.pad(b, n)) % self.p)

    def sub(self, a, b):
        n = max(len(a), len(b))
        return self.trim((self.pad(a, n) - self.pad(b, n)) % self.p)

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        if len(a) == 0 or len(b) == 0:
            return a[:0]
        k = self.kk
        wide = np.zeros((len(a) + len(b) - 1, 2 * k - 1), dtype=np.int64)
        for u in range(k):
            au = a[:, u]
            if not au.any():
                continue
            for w in range(k):
                bw = b[:, w]
                if bw.any():
                    wide[:, u + w] += np.convolve(au, bw)
        return self._fold_wide(wide)

    def _fold_wide(self, wide):
        """Digit rows of degree up to 2k-2 in t -> reduced, trimmed vector."""
        k = self.kk
        wide %= self.p
        out = wide[:, :k]
        if k > 1:
            out = out + wide[:, k:] @ self._fold
        return self.trim(out % self.p)

    def _t_multiples(self, v):
        """(k, len(v), k) array whose entry u is t^u * v, digit by digit."""
        out = np.empty((self.kk,) + v.shape, dtype=np.int64)
        out[0] = v
        for u in range(1, self.kk):
            prev = out[u - 1]
            out[u, :, 0] = 0
            out[u, :, 1:] = prev[:, :-1]
            out[u] = (out[u] + prev[:, -1:] * self._fold[0]) % self.p
        return out

    def to_matrix(self, rows, n):
        return np.array([self.pad(r, n) for r in rows])

    def apply_matrix(self, mat, v):
        n, k = mat.shape[1], self.kk
        flat = mat[: len(v)].reshape(len(v), n * k)
        wide = np.zeros((n, 2 * k - 1), dtype=np.int64)
        for u in range(k):
            vu = v[:, u]
            if vu.any():
                wide[:, u : u + k] += (vu @ flat).reshape(n, k)
        return self._fold_wide(wide)

    def scale(self, v, c_rep):
        if len(v) == 0:
            return v
        c = np.array([c_rep], dtype=np.int64)
        return self.trim(v @ self._t_multiples(c)[:, 0, :] % self.p)

    def lead_rep(self, v):
        return tuple(int(d) for d in v[-1])

    def deriv(self, v):
        if len(v) < 2:
            return v[:0]
        mults = np.arange(1, len(v), dtype=np.int64)[:, None]
        return self.trim(v[1:] * mults % self.p)

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

    def trunc(self, v, n):
        return self.trim(v[:n])

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
    # product and Frobenius-matrix accumulators sum up to
    # k * (degree_bound + 1) terms below p^2; they must stay within int64
    if isinstance(ctx, (PrimeField, ExtensionField)):
        if ctx.k * (degree_bound + 1) * (ctx.p - 1) ** 2 >= 2**62:
            return ObjectKernel(ctx)
    if isinstance(ctx, PrimeField):
        return ModPKernel(ctx)
    if isinstance(ctx, ExtensionField):
        return DigitKernel(ctx)
    return ObjectKernel(ctx)
