"""The sequence c_0 = 0, c_1 = c, c_{k+1} = (2-4c) c_k - c_{k-1} + 2c over F_q,
for parameters c with both c and 1-c nonzero squares.

Each such sequence is periodic; its period e is the first positive index
where the sequence returns to 0.  The whole sequence is generated by an
element beta = sqrt(1-c) + i*sqrt(c) of the quadratic extension, normalized
to even multiplicative order 2e, through

    c_k = -(beta^k - beta^-k)^2 / 4.

A profile freezes, per index k, one coherent choice of the three square
roots sqrt(c_k), sqrt(1-c_k) and sqrt(c_k - c_k^2).  These choices are
functions of the index, not of the value: two indices sharing a value may
legitimately carry different roots, so consumers must never look roots up
by value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InvariantError
from .ffield import FieldCtx, FieldElement, mult_order, quad_char, sqrt


@dataclass(frozen=True)
class RecurrenceProfile:
    ctx: FieldCtx
    c: FieldElement
    e: int
    terms: tuple  # c_0 .. c_e, with terms[0] == terms[e] == 0
    beta: FieldElement  # in the quadratic extension, of order 2e
    sqrt_term: tuple  # sqrt(c_k) for k = 0..e
    sqrt_one_minus: tuple  # sqrt(1 - c_k)
    sqrt_product: tuple  # sqrt(c_k - c_k^2)

    def term(self, k: int) -> FieldElement:
        """c_k for any integer k (the sequence is periodic and symmetric)."""
        return self.terms[k % self.e]


def build_profile(ctx: FieldCtx, c) -> RecurrenceProfile:
    """Run the recurrence to its period and freeze the root conventions.

    The recurrence and the per-index checks run on representatives, with
    beta^-k kept as a running product of one inverse of beta; elements are
    built only for the stored tuples.  Every failed check names q, c and the
    stage.
    """
    c = ctx.elem(c)
    if quad_char(c) != 1 or quad_char(1 - c) != 1:
        raise DomainError("need both c and 1-c to be nonzero squares")

    def where(stage, k=None):
        at = "" if k is None else f" at k={k}"
        return f"{at} (q={ctx.q}, c={c}, stage={stage})"

    radd, rsub, rmul = ctx.radd, ctx.rsub, ctx.rmul
    zero, one = ctx.zero_rep, ctx.one_rep
    coef = (2 - 4 * c).rep
    twoc = (2 * c).rep
    terms = [zero, c.rep]
    while terms[-1] != zero:
        terms.append(radd(rsub(rmul(coef, terms[-1]), terms[-2]), twoc))
        if len(terms) > ctx.q + 1:
            raise InvariantError("recurrence failed to return to zero" + where("recurrence"))
    e = len(terms) - 1

    ext = ctx.ext
    beta = ext.embed(sqrt(1 - c)) + ext.i * ext.embed(sqrt(c))
    order = mult_order(beta)
    if order % 2 == 1:
        beta, order = -beta, 2 * order
    if order != 2 * e:
        raise InvariantError(
            f"generator order {order} does not match the period 2e = {2 * e}" + where("order")
        )

    eadd, esub, emul = ext.radd, ext.rsub, ext.rmul
    neg_quarter = ext.rep_of(Fraction(-1, 4))
    half = ext.rep_of(Fraction(1, 2))
    half_i = emul(ext.i.rep, ext.rep_of(Fraction(-1, 2)))
    b, binv = beta.rep, ext.rinv(beta.rep)
    sq_t, sq_om, sq_pr = [], [], []
    bk = bki = ext.one_rep
    for k in range(e + 1):
        diff = esub(bk, bki)
        ck = emul(neg_quarter, emul(diff, diff))
        if ck[1] != zero:
            raise DomainError("closed form has a nonzero t-coordinate" + where("closed-form", k))
        if ck[0] != terms[k]:
            raise InvariantError(
                "closed form disagrees with the recurrence" + where("closed-form", k)
            )
        st = emul(half_i, diff)
        so = emul(eadd(bk, bki), half)
        sp = emul(emul(half_i, esub(emul(bk, bk), emul(bki, bki))), half)
        if st[1] != zero or so[1] != zero or sp[1] != zero:
            raise DomainError("a root has a nonzero t-coordinate" + where("roots", k))
        st, so, sp = st[0], so[0], sp[0]
        if rmul(st, st) != terms[k] or rmul(so, so) != rsub(one, terms[k]) or rmul(st, so) != sp:
            raise InvariantError("root conventions are inconsistent" + where("roots", k))
        sq_t.append(st)
        sq_om.append(so)
        sq_pr.append(sp)
        bk, bki = emul(bk, b), emul(bki, binv)

    def elems(reps):
        return tuple(FieldElement(ctx, r) for r in reps)

    return RecurrenceProfile(
        ctx=ctx,
        c=c,
        e=e,
        terms=elems(terms),
        beta=beta,
        sqrt_term=elems(sq_t),
        sqrt_one_minus=elems(sq_om),
        sqrt_product=elems(sq_pr),
    )


def term(profile: RecurrenceProfile, k: int) -> FieldElement:
    """c_k for any integer k."""
    return profile.term(k)


def adjacent_pair(profile: RecurrenceProfile, k: int):
    """The two candidate neighbours of c_k, as an ordered pair.

    Evaluates c_k + c_1 - 2 c_k c_1 +/- 2 sqrt(c_k - c_k^2) sqrt(c_1 - c_1^2)
    with the profile's frozen root conventions; as an unordered set this is
    always {c_{k-1}, c_{k+1}}.
    """
    km = k % profile.e
    ck = profile.terms[km]
    c1 = profile.terms[1]
    base = ck + c1 - 2 * ck * c1
    cross = 2 * profile.sqrt_product[km] * profile.sqrt_product[1]
    return (base + cross, base - cross)


def full_period_sequence(ctx: FieldCtx, B: FieldElement):
    """Values -(B^k - B^-k)^2/4 for k = 1 .. E/2 - 1, from a generator of
    maximal even order 2E, where E = (q - chi(-1))/2.

    Returns (first value, frozenset of all values).  B may live in the field
    itself or in its quadratic extension.
    """
    chi = quad_char(ctx.elem(-1))
    E = (ctx.q - chi) // 2
    if B.ctx == ctx:
        work = ctx
        proj = lambda x: x
    elif B.ctx == ctx.ext:
        work = ctx.ext
        proj = ctx.ext.project
    else:
        raise DomainError("B must lie in the field or its quadratic extension")
    if mult_order(B) != 2 * E:
        raise DomainError(f"B must have order {2 * E}, got {mult_order(B)}")

    quarter = work.elem(Fraction(1, 4))
    binv = B.inverse()
    bk, bki = work.one, work.one
    values = []
    for _ in range(1, E // 2):
        bk, bki = bk * B, bki * binv
        values.append(proj(-quarter * (bk - bki) ** 2))
    bk, bki = bk * B, bki * binv
    if proj(-quarter * (bk - bki) ** 2) != ctx.one:
        raise InvariantError("midpoint of the full-period sequence is not 1")
    if not values:
        raise DomainError("the field is too small to carry a nontrivial sequence")
    return values[0], frozenset(values)
