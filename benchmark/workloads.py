"""The benchmark's workloads: inputs made from a seed, one request, the
output check and the input census.

Each workload is a closed loop with one client in one process: the next
request starts when the previous one has returned.  Calls into gsfactor go
through module attributes (``factorizer.verify_against_oracle``, ``cli.main``)
so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import statistics
from collections import Counter

from gsfactor import cli, factorizer, ffield
from gsfactor.factorizer import CaseKind

HERE = os.path.dirname(os.path.abspath(__file__))


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


# the acceptance sweep: every odd prime q <= 199 plus these prime powers
SWEEP_FIELDS = [q for q in range(3, 200, 2) if _is_prime(q)] + [
    9, 25, 27, 49, 81, 121, 125, 169,
]
TINY_LIMIT = 31  # self-test sizes: no field above this


def case_tag(ctx, s):
    """(CaseKind, e) of one parameter without building a recurrence profile:
    for a degree-e parameter, beta = s + i*sqrt(1 - s^2) in the quadratic
    extension has order e or 2e.  The self-test compares it with classify."""
    field = ctx.field
    if s in (field.one, -field.one, field.zero) or ffield.quad_char(1 - s * s) != 1:
        return factorizer.classify(ctx, s).kind, None
    ext = field.ext
    order = ffield.mult_order(ext.embed(s) + ext.i * ext.embed(ffield.sqrt(1 - s * s)))
    return CaseKind.DEGREE_E, order if order % 2 else order // 2


def _van_der_corput(k: int) -> float:
    x, d = 0.0, 0.5
    while k:
        if k & 1:
            x += d
        k >>= 1
        d /= 2
    return x


def spread_order(items, key, rng) -> list:
    """The items in an order whose every prefix holds each key in close to
    its share of the whole.

    Items are ranked by key, ties broken by the seeded rng, and the ranks are
    visited along the van der Corput sequence.  The walk is the same for
    every seed, so a run of a given length always meets the same mix of keys;
    the seed decides which items of each key are met.  Without this, a run
    of a few hundred requests drawn from a heavy-tailed cost mix reads
    10-20% apart from seed to seed."""
    ranked = sorted(items, key=lambda x: (key(x), rng.random()))
    n = len(ranked)
    seen, out = set(), []
    for k in range(1 << (n - 1).bit_length()):
        r = int(_van_der_corput(k) * n)
        if r not in seen:
            seen.add(r)
            out.append(ranked[r])
    return out


def _census(tags, prime_flags) -> dict:
    """Share of each case kind, prime-field share and the spread of e."""
    n = len(tags)
    counts = Counter(kind for kind, _ in tags)
    es = sorted(e for _, e in tags if e is not None)
    out = {
        "items": n,
        "kind_share": {k.value: round(counts[k] / n, 4) for k in CaseKind} if n else {},
        "prime_share": round(sum(prime_flags) / n, 4) if n else None,
        "e": None,
    }
    if es:
        qs = statistics.quantiles(es, n=4) if len(es) > 1 else es * 3
        out["e"] = {"count": len(es), "min": es[0], "q1": qs[0], "median": qs[1], "q3": qs[2], "max": es[-1]}
    return out


class VerifyMixed:
    """``verify_against_oracle(ctx, s, seed)`` on one (q, s) pair of the
    acceptance sweep per request.  The stream spreads the 4831 pairs by
    (prime or extension field, q, case kind, e); the seed draws the pairs and
    is the oracle's seed."""

    name = "verify_mixed"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.fields = [q for q in SWEEP_FIELDS if not tiny or q <= TINY_LIMIT]

    def setup(self, ctxs: dict) -> None:
        self.ctxs = ctxs
        self.elems = {q: list(ffield.elements(ctx.field)) for q, ctx in ctxs.items()}
        self.tags = {
            (q, i): case_tag(ctxs[q], s) for q in self.fields for i, s in enumerate(self.elems[q])
        }

        def key(pair):
            kind, e = self.tags[pair]
            return ctxs[pair[0]].field.k > 1, pair[0], kind.value, e or 0

        self.pairs = spread_order(self.tags, key, random.Random(self.seed))

    def requests(self):
        return itertools.cycle(self.pairs)

    def call(self, req):
        q, i = req
        return factorizer.verify_against_oracle(self.ctxs[q], self.elems[q][i], self.seed)

    def check(self, req, out) -> bool:
        return out is True

    def census(self, reqs) -> dict:
        return _census([self.tags[r] for r in reqs], [self.ctxs[q].field.k == 1 for q, _ in reqs])


_HEAD = re.compile(r"q = (\d+), n = \d+, E = (\d+)$")
_CASE = re.compile(r"case: (\w+)(?: \(e = (\d+)\))?$")
_FACTOR = re.compile(r"\((y[^)]*)\)(?:\^(\d+))?$")
_DEGREE = re.compile(r"y(?:\^(\d+))?")


def parse_factor_text(text: str) -> dict:
    """Fields of `gsfactor factor` text output over a prime field.

    Raises ValueError when the text does not have the expected shape."""
    lines = text.splitlines()
    head = _HEAD.match(lines[0])
    case = _CASE.match(lines[2])
    if not head or not case or not lines[1].startswith("s = ") or not lines[-1].startswith("g_s = "):
        raise ValueError("unexpected factor output layout")
    factors = []
    for part in lines[-1][len("g_s = "):].split(" * ")[1:]:
        m = _FACTOR.match(part)
        if not m:
            raise ValueError(f"unparsable factor {part!r}")
        deg = _DEGREE.match(m.group(1))
        factors.append((int(deg.group(1) or 1), int(m.group(2) or 1)))
    return {
        "q": int(head.group(1)),
        "E": int(head.group(2)),
        "s": lines[1][len("s = "):],
        "case": case.group(1),
        "e": int(case.group(2)) if case.group(2) else None,
        "factors": factors,
    }


def factor_text_ok(q: int, s: int, text: str) -> bool:
    """Factor degrees sum to E and match the printed case."""
    try:
        rec = parse_factor_text(text)
    except (ValueError, IndexError):
        return False
    facs = rec["factors"]
    if rec["q"] != q or rec["s"] != str(s) or sum(d * m for d, m in facs) != rec["E"]:
        return False
    degs = Counter(d for d, _ in facs)
    simple = all(m == 1 for _, m in facs)
    case = rec["case"]
    if case == CaseKind.DEGREE_E.value:
        e = rec["e"]
        return e is not None and simple and set(degs) == {e} and degs[e] * e == rec["E"]
    if rec["e"] is not None:
        return False
    if case in (CaseKind.S_PLUS_ONE.value, CaseKind.S_MINUS_ONE.value):
        return set(degs) == {1}
    if case in (CaseKind.S_ZERO.value, CaseKind.ALL_QUADRATIC.value):
        return simple and set(degs) == {2}
    if case == CaseKind.SPLIT_LINEAR_QUADRATIC.value:
        return simple and degs[1] == 2 and set(degs) <= {1, 2}
    return False


class ClosedForm:
    """In-process ``gsfactor factor q=563 s=<s>`` with text output.  The
    stream spreads the s values of the field by (case kind, e); the seed
    draws them.  The engine never runs on the closed form's main path, and
    ``build_ctx`` runs inside every request, as it does for a CLI user."""

    name = "closed_form"
    # 563 = 3 mod 4 and E = 282 = 2*3*47: the case structure of q = 2003
    # (E = 2*3*167) at a tenth of the cost per request, so a run holds enough
    # requests that its 11th-slowest lies inside the costliest case (e = E,
    # a sixth of all s) rather than on the edge of it.
    Q = 563

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.q = TINY_LIMIT if tiny else self.Q
        self.fields = [self.q]
        with open(os.path.join(HERE, "factor_digests.json")) as fh:
            self.digests = json.load(fh).get(str(self.q), {})

    def setup(self, ctxs: dict) -> None:
        ctx = ctxs[self.q]
        self.tags = {i: case_tag(ctx, s) for i, s in enumerate(ffield.elements(ctx.field))}

        def key(s):
            kind, e = self.tags[s]
            return kind.value, e or 0

        self.svals = spread_order(self.tags, key, random.Random(self.seed))

    def requests(self):
        return itertools.cycle(self.svals)

    def call(self, s):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["factor", f"q={self.q}", f"s={s}"])
        return code, buf.getvalue()

    def check(self, s, out) -> bool:
        """Exit code 0, degrees consistent with the printed case, and the
        text equal to the one recorded in factor_digests.json."""
        code, text = out
        if code != 0 or not factor_text_ok(self.q, s, text):
            return False
        return hashlib.sha256(text.encode()).hexdigest()[:16] == self.digests.get(str(s))

    def census(self, reqs) -> dict:
        return _census([self.tags[s] for s in reqs], [True] * len(reqs))


# Prime fields near 2000 whose full scans cost the same: a degree-e
# parameter costs time in proportion to e, and the sum of e over a field's
# parameters is 557,000-563,000 for these four (427,000-758,000 over the
# primes from 1951 to 2053).
SCAN_POOL = [1999, 2027, 2029, 2053]
TINY_SCAN_POOL = [19, 23, 29, 31]
SCAN_BLOCK = 8  # parameters per request


class IrreducibleScan:
    """``is_irreducible_gs(ctx, s)`` for every s of one prime field, as
    ``gsfactor irreducible`` does; the seed picks the field from a fixed pool
    and draws the order of its parameters.

    One request is a block of SCAN_BLOCK parameters, half of them degree-e
    ones.  About half of all s cost ~0.05 ms and the rest 15-75 ms, so the
    median of single-parameter latencies sits on the gap between the two and
    jumps between them from run to run."""

    name = "irreducible_scan"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.q = random.Random(seed).choice(TINY_SCAN_POOL if tiny else SCAN_POOL)
        self.fields = [self.q]

    def setup(self, ctxs: dict) -> None:
        self.ctx = ctxs[self.q]
        self.elems = list(ffield.elements(self.ctx.field))
        self.tags = [case_tag(self.ctx, s) for s in self.elems]
        order = spread_order(
            range(self.q), lambda i: self.tags[i][0] is CaseKind.DEGREE_E, random.Random(self.seed)
        )
        self.blocks = [tuple(order[i : i + SCAN_BLOCK]) for i in range(0, self.q, SCAN_BLOCK)]
        # the library's independent route to the irreducible set
        self.expected = set(factorizer.half_sum_s_values(self.ctx))

    def requests(self):
        return itertools.cycle(self.blocks)

    def call(self, block):
        return [factorizer.is_irreducible_gs(self.ctx, self.elems[i]) for i in block]

    def check(self, block, out) -> bool:
        return list(out) == [self.elems[i] in self.expected for i in block]

    def census(self, reqs) -> dict:
        items = [i for block in reqs for i in block]
        return _census([self.tags[i] for i in items], [True] * len(items))


WORKLOADS = {w.name: w for w in (VerifyMixed, ClosedForm, IrreducibleScan)}
