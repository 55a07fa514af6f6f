"""Finite fields of odd order with deterministic canonical choices.

Three context classes share one interface:

* ``PrimeField`` -- F_p, elements represented by integers in ``[0, p)``.
* ``ExtensionField`` -- F_{p^k} with ``k > 1``, elements represented by
  length-``k`` tuples of base-p digits, low degree first, reduced modulo a
  deterministic modulus: the lexicographically smallest monic irreducible of
  degree ``k`` (coefficient vectors compared low-to-high), found by running
  the prime-field kernel's Rabin test over the candidates in that order.
  Inverses are ``a^(q-2)``.  Up to ``_kernels.ZECH_MAX_Q`` elements, products
  and powers are lookups in log tables (``ExtensionField.log_tables``) that
  the digit loops build; larger fields keep the loops.
* ``QuadraticExtension`` -- F_q[t]/(t^2 - nu) over a base field, elements
  represented by pairs of base representatives.  When -1 is a nonsquare the
  modulus is t^2 + 1 and ``i`` is t itself; otherwise nu is the canonically
  smallest nonsquare and ``i`` is the embedded square root of -1.

``FieldCtx`` states each shared rule once (coercion, equality and hashing,
square roots, orders, enumeration); a class supplies only its rep-level
hooks, listed in the ``FieldCtx`` docstring.

Everything that involves a choice (square roots, nonsquare witnesses, the
extension modulus) is resolved by the canonical total order on elements,
which is the natural order of the reps: integer order for prime fields,
tuple order on digit vectors (constant digit most significant) and on
pairs.  ``rep_at`` walks that order.  Identical inputs therefore always
produce identical outputs.
"""

from __future__ import annotations

import itertools
import math
import threading
from fractions import Fraction

from .errors import DomainError, InvariantError

ENUM_LIMIT = 10**7            # largest field we will fully enumerate
PRIME_Q_LIMIT = 2**63         # guard for k = 1
EXT_Q_LIMIT = 10**6           # guard for k > 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# trial division runs below this bound; a composite cofactor left above it is
# split by rho
TRIAL_DIVISION_LIMIT = 1 << 10


def _factor_int(n: int) -> dict[int, int]:
    """Prime factorization, primes in increasing order.

    Trial division by d below ``TRIAL_DIVISION_LIMIT`` stops as soon as the
    cofactor is 1 or prime, so q - 1 = 2r with r prime costs one division
    and one primality test.  A composite cofactor left over is split by
    ``_rho_factor`` until every piece is prime."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d < TRIAL_DIVISION_LIMIT:
        if n % d == 0:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            if _is_prime(n):
                break
        d += 1 if d == 2 else 2
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho_factor(m)
            pending += [f, m // f]
    return dict(sorted(out.items()))


def _rho_factor(n: int) -> int:
    """A nontrivial factor of a composite n with no prime factor below
    ``TRIAL_DIVISION_LIMIT``: Pollard's rho (BIT 15, 1975) with Brent's cycle
    search and one gcd per 128 differences (Brent, BIT 20, 1980).  The map
    is x -> x^2 + c for c = 1, 2, ... until one splits n, so the result is
    deterministic."""
    block = 128
    for c in itertools.count(1):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(block, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = math.gcd(acc, n)
                k += block
            r *= 2
        if g == n:  # the block overshot: redo it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _iroot(n: int, k: int) -> int:
    """Largest r with r^k <= n, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _smallest_modulus(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over F_p."""
    from ._kernels import ModPKernel  # _kernels imports this module

    ker = ModPKernel(PrimeField(p))
    for tail in itertools.product(range(p), repeat=k):
        if tail[0] == 0:
            continue  # divisible by t
        cand = tail + (1,)
        if ker.is_irreducible(ker.from_reps(cand)):
            return cand
    raise DomainError(f"no irreducible of degree {k} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------


class FieldCtx:
    """Shared behaviour for the three field context classes.

    ``__init__`` sets ``p``, ``k``, ``q``, ``zero_rep``, ``one_rep`` and the
    identity tuple that equality and hashing compare.  Subclasses provide the
    hooks:

    * rep-level arithmetic: ``radd``, ``rsub``, ``rmul``, ``rneg``, ``rinv``
      (``rpow`` defaults to square-and-multiply);
    * ``_rep_of_int``, and ``_rep_of_other`` where the class coerces more than
      elements, ints and Fractions;
    * ``rep_at`` / ``index_of`` (position in the canonical order),
      ``reps`` (every rep in that order; walks ``rep_at`` by default) and
      ``str_rep``.

    Reps are ints, digit tuples or pairs of those, and their natural order is
    the canonical order.  Everything built on the hooks (coercion, square
    roots, multiplicative order, the lazy quadratic extension) lives here.
    """

    def __init__(self, p: int, k: int, zero_rep, one_rep, ident: tuple) -> None:
        self.p = p
        self.k = k
        self.q = p**k
        self.zero_rep = zero_rep
        self.one_rep = one_rep
        self._ident = ident
        self._ext: QuadraticExtension | None = None
        self._nonsquare = None  # nonsquare_rep, once found
        self._order_primes = None  # prime divisors of q - 1, once factored
        self._ext_lock = threading.Lock()

    # -- construction ------------------------------------------------------

    def elem(self, x) -> "FieldElement":
        return FieldElement(self, self.rep_of(x))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, self.zero_rep)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, self.one_rep)

    def rep_of(self, x):
        """Representative of ``x``: an element of this field, an int, a
        Fraction, or whatever the class's ``_rep_of_other`` accepts."""
        if isinstance(x, FieldElement) and x.ctx == self:
            return x.rep
        if isinstance(x, int) and not isinstance(x, bool):
            return self._rep_of_int(x)
        rep = self._rep_of_other(x)  # before the slower Fraction check, which it never accepts
        if rep is not None:
            return rep
        if isinstance(x, Fraction):
            num = self.rep_of(x.numerator)
            return self.rmul(num, self.rinv(self.rep_of(x.denominator)))
        if isinstance(x, FieldElement):
            raise DomainError("element belongs to a different field")
        raise DomainError(f"cannot coerce {x!r} into GF({self.q})")

    def _rep_of_other(self, x):
        """Coercion hook for further input kinds; None rejects ``x``."""
        return None

    def reps(self):
        """Every representative once, in canonical order."""
        return map(self.rep_at, range(self.q))

    # -- powers, character, roots, orders ------------------------------------

    def rpow(self, a, e: int):
        if e < 0:
            a = self.rinv(a)
            e = -e
        out = self.one_rep
        while e:
            if e & 1:
                out = self.rmul(out, a)
            a = self.rmul(a, a)
            e >>= 1
        return out

    def quad_char_rep(self, a) -> int:
        if a == self.zero_rep:
            return 0
        r = self.rpow(a, (self.q - 1) // 2)
        return 1 if r == self.one_rep else -1

    def nonsquare_rep(self):
        """Canonically first nonsquare, found once; the witness for sqrt."""
        if self._nonsquare is None:
            self._nonsquare = self._first_nonsquare()
        return self._nonsquare

    def _first_nonsquare(self):
        return next(a for a in map(self.rep_at, itertools.count(2)) if self.quad_char_rep(a) == -1)

    def sqrt_rep(self, a):
        """Tonelli-Shanks; returns the canonically smaller root, or None when
        ``a`` is a nonsquare."""
        if a == self.zero_rep:
            return a
        if self.quad_char_rep(a) == -1:
            return None
        n = self.q - 1
        s = (n & -n).bit_length() - 1
        m = n >> s
        x = self.rpow(a, (m + 1) // 2)
        t = self.rpow(a, m)
        if t != self.one_rep:
            c = self.rpow(self.nonsquare_rep(), m)
            ss = s
            while t != self.one_rep:
                i = 0
                t2 = t
                while t2 != self.one_rep:
                    t2 = self.rmul(t2, t2)
                    i += 1
                b = self.rpow(c, 1 << (ss - i - 1))
                x = self.rmul(x, b)
                c = self.rmul(b, b)
                t = self.rmul(t, c)
                ss = i
        return min(x, self.rneg(x))

    def _factor_order(self) -> tuple[int, ...]:
        """Prime divisors of q - 1, factored on first use and kept."""
        self._order_primes = tuple(_factor_int(self.q - 1))
        return self._order_primes

    def mult_order_rep(self, a) -> int:
        if a == self.zero_rep:
            raise DomainError("multiplicative order of zero is undefined")
        t = self.q - 1
        for ell in self._order_primes or self._factor_order():
            while t % ell == 0 and self.rpow(a, t // ell) == self.one_rep:
                t //= ell
        return t

    # -- quadratic extension -------------------------------------------------

    @property
    def ext(self) -> "QuadraticExtension":
        """The canonical quadratic extension, built once."""
        if self._ext is None:
            with self._ext_lock:
                if self._ext is None:
                    self._ext = QuadraticExtension(self)
        return self._ext

    def __eq__(self, other):
        return type(other) is type(self) and other._ident == self._ident

    def __hash__(self):
        return hash((type(self).__name__,) + self._ident)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GF({self.q})"


class PrimeField(FieldCtx):
    modulus = None

    def __init__(self, p: int):
        super().__init__(p, 1, 0, 1, (p,))

    def _rep_of_int(self, x: int):
        return x % self.p

    def radd(self, a, b):
        return (a + b) % self.p

    def rsub(self, a, b):
        return (a - b) % self.p

    def rmul(self, a, b):
        return a * b % self.p

    def rneg(self, a):
        return -a % self.p

    def rinv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def rpow(self, a, e: int):
        if e < 0 and a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, e, self.p)

    def rep_at(self, i: int):
        return i

    def index_of(self, a) -> int:
        return a

    def str_rep(self, a) -> str:
        return str(a)


class ExtensionField(FieldCtx):
    """F_{p^k}: log-table arithmetic up to ``ZECH_MAX_Q`` elements, digit loops above."""

    def __init__(self, p: int, k: int):
        super().__init__(p, k, (0,) * k, (1,) + (0,) * (k - 1), (p, k))
        self._zech = None  # log_tables(), once looked up
        self._t_powers = None  # DigitKernel's fold tables, built with its first kernel
        self.modulus: tuple[int, ...] = _smallest_modulus(p, k)
        # reduction table: _red[j] = representative of t^(k+j)
        red = []
        row = [(-c) % p for c in self.modulus[:k]]
        red.append(tuple(row))
        for _ in range(k - 2):
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [(row[i] - top * self.modulus[i]) % p for i in range(k)]
            red.append(tuple(row))
        self._red = red

    def _rep_of_int(self, x: int):
        return (x % self.p,) + (0,) * (self.k - 1)

    def log_tables(self):
        """``ZechTables``, built on the digit loops at the first call; False above ZECH_MAX_Q."""
        if self._zech is None:
            from . import _kernels  # imports numpy, which this module does not
            self._zech = False  # the digit loops build the tables
            self._zech = self.q <= _kernels.ZECH_MAX_Q and _kernels.ZechTables(self)
        return self._zech

    def _rep_of_other(self, x):
        """Digit vectors, low degree first, zero-padded to length k."""
        if type(x) is tuple and (tab := self._zech or self.log_tables()) and x in tab.codes:
            return tab.reps[tab.codes[x]]  # canonical already: the table's own tuple
        if not isinstance(x, (tuple, list)):
            return None
        if len(x) > self.k:
            raise DomainError("digit vector longer than the field degree")
        digits = [int(c) % self.p for c in x]
        digits += [0] * (self.k - len(digits))
        return tuple(digits)

    def radd(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def rsub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def rneg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def rmul(self, a, b):
        if tab := self._zech or self.log_tables():
            x, y, z = tab.codes[a], tab.codes[b], self.q - 1
            return self.zero_rep if x == z or y == z else tab.reps[(x + y) % z]
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        out = prod[:k]
        for j in range(k - 2, -1, -1):
            c = prod[k + j]
            if c:
                row = self._red[j]
                for i in range(k):
                    out[i] = (out[i] + c * row[i]) % p
        return tuple(out)

    def rinv(self, a):
        if a == self.zero_rep:
            raise ZeroDivisionError("inverse of zero")
        return self.rpow(a, self.q - 2)

    def rpow(self, a, e: int):
        if (tab := self._zech or self.log_tables()) and a != self.zero_rep:
            return tab.reps[tab.codes[a] * e % (self.q - 1)]
        return super().rpow(a, e)

    def rep_at(self, i: int):
        digits = []
        for _ in range(self.k):
            i, r = divmod(i, self.p)
            digits.append(r)
        return tuple(reversed(digits))

    def reps(self):
        # digit tuples in lexicographic order, constant digit most significant
        return itertools.product(range(self.p), repeat=self.k)

    def index_of(self, a) -> int:
        i = 0
        for d in a:
            i = i * self.p + d
        return i

    def str_rep(self, a) -> str:
        return ",".join(str(c) for c in a)

    def __repr__(self) -> str:  # pragma: no cover
        return f"GF({self.p}^{self.k})"


class QuadraticExtension(FieldCtx):
    """F_q[t]/(t^2 - nu) with a distinguished square root of -1."""

    def __init__(self, base: FieldCtx):
        if isinstance(base, QuadraticExtension):
            raise DomainError("iterated quadratic extensions are not supported")
        zero, one = base.zero_rep, base.one_rep
        super().__init__(base.p, 2 * base.k, (zero, zero), (one, zero), (base,))
        self.base = base
        minus_one = base.rneg(one)
        if base.quad_char_rep(minus_one) == -1:
            self.nu = minus_one  # modulus t^2 + 1
            self._i_rep = (zero, one)
        else:
            self.nu = base.nonsquare_rep()
            self._i_rep = (base.sqrt_rep(minus_one), zero)
        self._generator = None  # generator_rep, once found
        self._log_steps = None  # _build_log_steps(), once built

    @property
    def i(self) -> "FieldElement":
        """An element whose square is -1."""
        return FieldElement(self, self._i_rep)

    def embed(self, a: "FieldElement") -> "FieldElement":
        if a.ctx != self.base:
            raise DomainError("embed expects an element of the base field")
        return FieldElement(self, (a.rep, self.base.zero_rep))

    def project(self, x: "FieldElement") -> "FieldElement":
        """Inverse of embed; defined only when the t-coordinate is zero."""
        if x.ctx != self:
            raise DomainError("project expects an element of the extension")
        if x.rep[1] != self.base.zero_rep:
            raise DomainError(f"{x} has a nonzero t-coordinate")
        return FieldElement(self.base, x.rep[0])

    def conj(self, x: "FieldElement") -> "FieldElement":
        if x.ctx != self:
            raise DomainError("conj expects an element of the extension")
        return FieldElement(self, (x.rep[0], self.base.rneg(x.rep[1])))

    def _rep_of_int(self, x: int):
        return (self.base._rep_of_int(x), self.base.zero_rep)

    def _rep_of_other(self, x):
        """Embedded base elements and pairs of base-field values."""
        if isinstance(x, FieldElement) and x.ctx == self.base:
            return (x.rep, self.base.zero_rep)
        if isinstance(x, tuple) and len(x) == 2:
            return (self.base.rep_of(x[0]), self.base.rep_of(x[1]))
        return None

    def radd(self, a, b):
        br = self.base
        return (br.radd(a[0], b[0]), br.radd(a[1], b[1]))

    def rsub(self, a, b):
        br = self.base
        return (br.rsub(a[0], b[0]), br.rsub(a[1], b[1]))

    def rneg(self, a):
        br = self.base
        return (br.rneg(a[0]), br.rneg(a[1]))

    def rmul(self, a, b):
        a0, a1 = a
        b0, b1 = b
        if self.k == 2:  # prime base field: int arithmetic, no base-field calls
            p = self.p
            return ((a0 * b0 + self.nu * a1 * b1) % p, (a0 * b1 + a1 * b0) % p)
        br = self.base
        re = br.radd(br.rmul(a0, b0), br.rmul(self.nu, br.rmul(a1, b1)))
        im = br.radd(br.rmul(a0, b1), br.rmul(a1, b0))
        return (re, im)

    def rnorm(self, a):
        """Norm to the base field: a0^2 - nu * a1^2."""
        br = self.base
        return br.rsub(br.rmul(a[0], a[0]), br.rmul(self.nu, br.rmul(a[1], a[1])))

    def rinv(self, a):
        if a == self.zero_rep:
            raise ZeroDivisionError("inverse of zero")
        br = self.base
        n_inv = br.rinv(self.rnorm(a))
        return (br.rmul(a[0], n_inv), br.rmul(br.rneg(a[1]), n_inv))

    def quad_char_rep(self, a) -> int:
        if a == self.zero_rep:
            return 0
        return self.base.quad_char_rep(self.rnorm(a))

    def _first_nonsquare(self):
        # elements of the base field are always squares here, so scan t,
        # then a + t for a in canonical base order
        br = self.base
        cand = (br.zero_rep, br.one_rep)
        i = 0
        while self.quad_char_rep(cand) != -1:
            cand = (br.rep_at(i), br.one_rep)
            i += 1
        return cand

    @property
    def generator_rep(self):
        """First a + t, a in canonical base order, of order q - 1.  The elements
        a*t, which come first in canonical order, never generate; some a + t
        always does (Cohen, J. London Math. Soc. 27, 1983).  Found once."""
        if self._generator is None:
            br = self.base
            cands = ((br.rep_at(i), br.one_rep) for i in range(br.q))
            self._generator = next(a for a in cands if self.mult_order_rep(a) == self.q - 1)
        return self._generator

    def _build_log_steps(self) -> tuple:
        """Per prime power m exactly dividing q - 1, with h = generator_rep^((q-1)/m)
        and w = isqrt(m - 1) + 1: (m, w, {h^j: j for j < w}, h^-w); kept."""
        out = []
        for ell in self._order_primes or self._factor_order():
            m = ell
            while (self.q - 1) % (m * ell) == 0:
                m *= ell
            h, width = self.rpow(self.generator_rep, (self.q - 1) // m), math.isqrt(m - 1) + 1
            baby, cur = {}, self.one_rep
            for j in range(width):
                baby[cur] = j
                cur = self.rmul(cur, h)
            out.append((m, width, baby, self.rinv(cur)))
        self._log_steps = tuple(out)
        return self._log_steps

    def log_rep(self, a) -> int:
        """The discrete log of the rep a to ``generator_rep``: Pohlig-Hellman
        (IEEE Trans. Inf. Theory 24, 1978) over the prime powers m of q - 1,
        with baby-step/giant-step in each subgroup of order m."""
        if a == self.zero_rep:
            raise DomainError("discrete log of zero is undefined")
        x, mod = 0, 1
        for m, width, baby, giant in self._log_steps or self._build_log_steps():
            t = self.rpow(a, (self.q - 1) // m)
            for i in range(width):  # width^2 > m - 1: enough giant steps
                if t in baby:
                    break
                t = self.rmul(t, giant)
            else:
                raise InvariantError(f"no discrete log found (q={self.q}, m={m})")
            x += mod * ((i * width + baby[t] - x) * pow(mod, -1, m) % m)
            mod *= m
        return x

    def rep_at(self, i: int):
        hi, lo = divmod(i, self.base.q)
        return (self.base.rep_at(hi), self.base.rep_at(lo))

    def index_of(self, a) -> int:
        return self.base.index_of(a[0]) * self.base.q + self.base.index_of(a[1])

    def str_rep(self, a) -> str:
        return f"{self.base.str_rep(a[0])}+{self.base.str_rep(a[1])}*t"

    def __repr__(self) -> str:  # pragma: no cover
        return f"GF({self.base.q})[t]"


class FieldElement:
    """An element of one of the field contexts; immutable value object."""

    __slots__ = ("ctx", "rep")

    def __init__(self, ctx: FieldCtx, rep):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.ctx is self.ctx or other.ctx == self.ctx:
                return other.rep
            raise DomainError("elements belong to different fields")
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.ctx.rep_of(other)
        return None

    def __add__(self, other):
        rep = self._coerce(other)
        if rep is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.radd(self.rep, rep))

    __radd__ = __add__

    def __sub__(self, other):
        rep = self._coerce(other)
        if rep is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.rsub(self.rep, rep))

    def __rsub__(self, other):
        rep = self._coerce(other)
        if rep is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.rsub(rep, self.rep))

    def __mul__(self, other):
        rep = self._coerce(other)
        if rep is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.rmul(self.rep, rep))

    __rmul__ = __mul__

    def __truediv__(self, other):
        rep = self._coerce(other)
        if rep is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.rmul(self.rep, self.ctx.rinv(rep)))

    def __rtruediv__(self, other):
        rep = self._coerce(other)
        if rep is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.rmul(rep, self.ctx.rinv(self.rep)))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.rneg(self.rep))

    def __pow__(self, e: int):
        if not isinstance(e, int) or isinstance(e, bool):
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.rpow(self.rep, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.rinv(self.rep))

    def __eq__(self, other):
        try:
            rep = self._coerce(other)
        except DomainError:
            return False
        if rep is None:
            return NotImplemented
        return self.rep == rep

    def __hash__(self):
        return hash((self.ctx, self.rep))

    def __bool__(self):
        return self.rep != self.ctx.zero_rep

    def key(self):
        """Canonical sort key (total order within one field): the rep."""
        return self.rep

    def __str__(self):
        return self.ctx.str_rep(self.rep)

    def __repr__(self):
        return f"{self.ctx!r}({self})"


# ---------------------------------------------------------------------------
# module-level operations


def make_field(p: int, k: int = 1) -> FieldCtx:
    """Construct F_{p^k} for an odd prime p; k = 1 gives the prime field."""
    if not isinstance(p, int) or not isinstance(k, int):
        raise DomainError("p and k must be integers")
    if p == 2:
        raise DomainError("q must be an odd prime power")
    if not _is_prime(p):
        raise DomainError(f"p = {p} is not prime")
    if k < 1:
        raise DomainError("k must be at least 1")
    if k == 1:
        if p > PRIME_Q_LIMIT:
            raise DomainError(f"prime fields are limited to q <= 2^63, got {p}")
        return PrimeField(p)
    if p**k > EXT_Q_LIMIT:
        raise DomainError(f"extension fields are limited to q <= 10^6, got {p}^{k}")
    return ExtensionField(p, k)


def make_field_q(q: int) -> FieldCtx:
    """Construct F_q from the prime power q itself."""
    if not isinstance(q, int) or q < 3:
        raise DomainError("q must be an odd prime power >= 3")
    for k in range(1, q.bit_length()):
        p = _iroot(q, k)
        if p**k == q and _is_prime(p):
            return make_field(p, k)
    raise DomainError(f"q = {q} is not a prime power")


def quad_char(a: FieldElement) -> int:
    """Quadratic character: 1 for nonzero squares, -1 for nonsquares, 0 at 0."""
    return a.ctx.quad_char_rep(a.rep)


def sqrt(a: FieldElement) -> FieldElement | None:
    """Deterministic square root, or None when ``a`` is a nonsquare."""
    rep = a.ctx.sqrt_rep(a.rep)
    return None if rep is None else FieldElement(a.ctx, rep)


def mult_order(a: FieldElement) -> int:
    """Order of ``a`` in the multiplicative group."""
    return a.ctx.mult_order_rep(a.rep)


def quadratic_extension(ctx: FieldCtx) -> QuadraticExtension:
    """The canonical quadratic extension of a base field (built once)."""
    return ctx.ext


def elements(ctx: FieldCtx):
    """Yield every element once, in canonical order.  Guarded at 10^7."""
    if ctx.q > ENUM_LIMIT:
        raise DomainError(f"refusing to enumerate a field of size {ctx.q}")
    for rep in ctx.reps():
        yield FieldElement(ctx, rep)
