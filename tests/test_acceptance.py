"""Acceptance gate: eight criteria, each test printing one PASS/FAIL line.

Criteria 4 and 5 share one module-scoped sweep that factors every g_s over
every odd prime q <= 199 plus the prime powers 9, 25, 27, 49, 81, 121, 125,
169, by both the closed form and the generic seeded engine.
"""

import time
from fractions import Fraction

import pytest
from shape_oracle import product_shape

from gsfactor.dickson import build_ctx, build_g
from gsfactor.factorizer import (
    TABLE_DEGREES,
    CaseKind,
    classify,
    constant_terms,
    cubic_norm_complement,
    degree_table_check,
    factor_closed_form,
    is_irreducible_gs,
)
from gsfactor.ffield import (
    elements,
    make_field,
    make_field_q,
    mult_order,
    quad_char,
    sqrt,
)
from gsfactor.polyring import Factorization, Poly, factorize, is_irreducible
from gsfactor.recurrence import adjacent_pair, build_profile, term


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


SWEEP_PRIMES = [q for q in range(3, 200, 2) if _is_prime(q)]
SWEEP_POWERS = [9, 25, 27, 49, 81, 121, 125, 169]
SWEEP_FIELDS = SWEEP_PRIMES + SWEEP_POWERS

TABLE_MODULI = {3: 12, 4: 8, 5: 20, 6: 12, 8: 16, 10: 20, 12: 24}


def _report(num: int, desc: str, failures: list):
    status = "FAIL" if failures else "PASS"
    print(f"\n[criterion {num}] {status}: {desc}")
    assert not failures, f"criterion {num}: {len(failures)} failure(s): " + "; ".join(
        str(f) for f in failures[:10]
    )


@pytest.fixture(scope="module")
def sweep():
    """Closed-form and generic factorizations for every s over every sweep
    field, plus the wall-clock time the whole run took."""
    data = {}
    t0 = time.monotonic()
    for q in SWEEP_FIELDS:
        field = make_field_q(q)
        ctx = build_ctx(field)
        rows = []
        for i, s in enumerate(elements(field)):
            tag = classify(ctx, s)
            closed = factor_closed_form(ctx, s)
            generic = factorize(build_g(ctx, s), seed=(q << 20) ^ (i * 2654435761))
            rows.append((s, tag, closed, generic))
        data[q] = (ctx, rows)
    return data, time.monotonic() - t0


def test_criterion_1_golden_pair_over_f13():
    t0 = time.monotonic()
    ctx = build_ctx(make_field(13))
    F = ctx.field
    x = Poly.x(F)
    cubic = lambda c0: x**3 + 5 * x**2 + 3 * x + c0
    lead = F.elem(7)
    failures = []
    got_minus = factor_closed_form(ctx, Fraction(-1, 2))
    want_minus = Factorization(lead, [(cubic(1), 1), (cubic(3), 1)])
    if got_minus != want_minus:
        failures.append(f"s=-1/2 gave {got_minus}")
    got_plus = factor_closed_form(ctx, Fraction(1, 2))
    want_plus = Factorization(lead, [(cubic(6), 1), (cubic(11), 1)])
    if got_plus != want_plus:
        failures.append(f"s=1/2 gave {got_plus}")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s, budget 1s")
    _report(1, "F_13 golden factorizations at s = -1/2 and 1/2", failures)


def test_criterion_2_irreducible_goldens_q17_q19():
    t0 = time.monotonic()
    failures = []

    ctx17 = build_ctx(make_field(17))
    F17 = ctx17.field
    x = Poly.x(F17)
    n17 = (x * x - x) * (x - 2) ** 2 * (x - 9) ** 2 * (x - 16) ** 2
    want17 = Factorization(F17.one / 2, [(n17 - 7, 1)])
    if factor_closed_form(ctx17, 13) != want17:
        failures.append("q=17 s=13 factorization mismatch")
    if not is_irreducible_gs(ctx17, 13):
        failures.append("q=17 s=13 not classified irreducible")
    if not is_irreducible(build_g(ctx17, 13)):
        failures.append("q=17 s=13 engine says reducible")

    ctx19 = build_ctx(make_field(19))
    F19 = ctx19.field
    x = Poly.x(F19)
    n19 = (x * x - x) * (x - 4) ** 2 * (x - 9) ** 2 * (x - 11) ** 2 * (x - 16) ** 2
    want19 = Factorization(F19.elem(2), [(n19 - 11, 1)])
    if factor_closed_form(ctx19, 4) != want19:
        failures.append("q=19 s=4 factorization mismatch")
    if not is_irreducible_gs(ctx19, 4):
        failures.append("q=19 s=4 not classified irreducible")
    if not is_irreducible(build_g(ctx19, 4)):
        failures.append("q=19 s=4 engine says reducible")

    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s, budget 1s")
    _report(2, "single irreducible factors at q=17 s=13 and q=19 s=4", failures)


def test_criterion_3_constant_term_goldens():
    failures = []
    ctx19 = build_ctx(make_field(19))
    goldens = [(12, {3, 14}, -1), (-12, {1, 16}, 1), (17, {2, 15}, -1), (-17, {6, 11}, 1)]
    for s, want, res in goldens:
        e, ms = constant_terms(ctx19, s)
        got = {m.rep for m in ms}
        if got != want:
            failures.append(f"q=19 s={s}: terms {got} != {want}")
        if any(quad_char(m) != res for m in ms):
            failures.append(f"q=19 s={s}: residue not uniformly {res}")

    # q=37: six terms split three/three across s = 26 and s = -26
    ctx37 = build_ctx(make_field(37))
    e26, m26 = constant_terms(ctx37, 26)
    e11, m11 = constant_terms(ctx37, -26)
    union = {m.rep for m in m26} | {m.rep for m in m11}
    if union != {2, 5, 14, 20, 29, 32}:
        failures.append(f"q=37: union {union}")
    if len(m26) != 3 or len(m11) != 3:
        failures.append("q=37: expected three terms per parameter")
    if any(quad_char(m) != -1 for m in list(m26) + list(m11)):
        failures.append("q=37: residues not uniformly -1")
    _report(3, "constant-term sets and residues at q=19 and q=37", failures)


def test_criterion_4_oracle_equivalence_sweep(sweep):
    data, elapsed = sweep
    failures = []
    checked = 0
    for q, (ctx, rows) in data.items():
        for s, _, closed, generic in rows:
            checked += 1
            if closed != generic:
                failures.append(f"q={q} s={s}")
    if elapsed >= 600.0:
        failures.append(f"sweep runtime {elapsed:.1f}s, budget 600s")
    _report(
        4,
        f"closed form equals generic factorization for {checked} (q, s) pairs "
        f"in {elapsed:.1f}s",
        failures,
    )


def test_criterion_5_structural_laws(sweep):
    data, _ = sweep
    failures = []
    for q, (ctx, rows) in data.items():
        field = ctx.field
        sq = {(x * x).rep for x in elements(field) if x}
        chi = lambda a: 0 if not a else (1 if a.rep in sq else -1)
        chi_m1 = chi(field.elem(-1))

        # cardinalities, recomputed from scratch
        c_set = {a.rep for a in elements(field) if chi(a) == 1 and chi(1 - a) == 1}
        w_set = {
            w.rep
            for w in elements(field)
            if chi((1 + w) / 2) == -1 and chi((1 - w) / 2) == -1
        }
        if len(c_set) != ctx.E // 2 - 1:
            failures.append(f"q={q}: |C| = {len(c_set)}")
        if len(w_set) != (q - chi_m1) // 4:
            failures.append(f"q={q}: |W| = {len(w_set)}")

        for s, tag, closed, generic in rows:
            # partition law via independent predicates
            if s == field.one:
                want = CaseKind.S_PLUS_ONE
            elif s == -field.one:
                want = CaseKind.S_MINUS_ONE
            elif not s:
                want = CaseKind.S_ZERO
            elif chi(1 - s * s) == 1:
                want = CaseKind.DEGREE_E
            elif chi((1 + s) / 2) == 1:
                want = CaseKind.SPLIT_LINEAR_QUADRATIC
            else:
                want = CaseKind.ALL_QUADRATIC
            if tag.kind is not want:
                failures.append(f"q={q} s={s}: case {tag.kind} != {want}")
                continue

            if tag.kind is CaseKind.DEGREE_E:
                e = tag.e
                if not e or ctx.E % e:
                    failures.append(f"q={q} s={s}: e={e} does not divide E={ctx.E}")
                    continue
                # degree law on the generic engine's side
                degs = sorted(g.degree for g, m in generic.factors for _ in range(m))
                if degs != [e] * (ctx.E // e):
                    failures.append(f"q={q} s={s}: generic degrees {degs}")
                # period law: the e read from log(beta) is the recurrence's period
                profile = build_profile(field, 1 - s * s)
                if profile.e != e:
                    failures.append(f"q={q} s={s}: e={e} but the period is {profile.e}")
                # factor-shape law: all closed factors share their nonconstant
                # part, the product over the recurrence's first period
                shape = product_shape(profile)
                for g, _ in closed.factors:
                    if g - g.coeff(0) != shape:
                        failures.append(f"q={q} s={s}: factor off-shape")
                # constant-term product: lead * prod(-m) = g_s(0) = 1 - s
                prod = closed.lead
                for g, _ in closed.factors:
                    prod = prod * g.coeff(0)
                if prod != 1 - s:
                    failures.append(f"q={q} s={s}: constant-term product")

            if tag.kind is CaseKind.SPLIT_LINEAR_QUADRATIC:
                # the two stated roots are the only ones in the field
                roots = {
                    (-g.coeff(0)).rep
                    for g, _ in generic.factors
                    if g.degree == 1
                }
                want_roots = {((1 + s) / 2).rep, ((1 - s) / 2).rep}
                if roots != want_roots:
                    failures.append(f"q={q} s={s}: roots {roots} != {want_roots}")
    _report(5, "partition, degree, shape, and cardinality laws on the sweep", failures)


def test_criterion_6_shape_tables_and_residue_remarks():
    failures = []
    tabulated = 0
    for p in (p for p in range(3, 501, 2) if _is_prime(p)):
        applicable = [
            d for d in TABLE_DEGREES if p % TABLE_MODULI[d] in (1, TABLE_MODULI[d] - 1)
        ]
        if not applicable:
            continue
        ctx = build_ctx(make_field(p))
        for d in applicable:
            tabulated += 1
            if not degree_table_check(ctx, d):
                failures.append(f"q={p} d={d}")

    remarked = 0
    for p in (p for p in range(3, 1001, 2) if _is_prime(p)):
        F = make_field(p)
        if p % 20 in (9, 11):
            remarked += 1
            r = sqrt(F.elem(5))
            if r is None:
                failures.append(f"q={p}: 5 has no root")
            elif quad_char((5 + r) / 2) != -1 or quad_char((5 - r) / 2) != -1:
                failures.append(f"q={p}: (5+sqrt5)/2 unexpectedly a square")
        if p % 16 in (7, 9):
            remarked += 1
            r = sqrt(F.elem(2))
            if r is None:
                failures.append(f"q={p}: 2 has no root")
            elif quad_char(2 + r) != -1 or quad_char(2 - r) != -1:
                failures.append(f"q={p}: 2+sqrt2 unexpectedly a square")
    _report(
        6,
        f"{tabulated} shape-table instances (primes <= 500) and {remarked} "
        "nonsquare remarks (primes <= 1000)",
        failures,
    )


def test_criterion_7_cubic_complement_to_500():
    failures = []
    count = 0
    for p in (p for p in range(3, 501, 2) if _is_prime(p) and p % 12 in (1, 11)):
        count += 1
        ctx = build_ctx(make_field(p))
        U, V, holds = cubic_norm_complement(ctx)
        if not holds:
            failures.append(f"q={p}: complement statement fails")
        if len(V) != (2 * p + ctx.chi_minus_one) // 3:
            failures.append(f"q={p}: |V| = {len(V)}")
    _report(7, f"cubic value-set complement for {count} primes = +/-1 mod 12", failures)


def test_criterion_8_recurrence_property_suite():
    failures = []
    profiles = 0
    for q in (q for q in range(3, 201, 2) if len(set(_factorize_int(q))) == 1):
        field = make_field_q(q)
        chi_m1 = quad_char(field.elem(-1))
        E = (q - chi_m1) // 2
        cs = [
            a for a in elements(field) if quad_char(a) == 1 and quad_char(1 - a) == 1
        ]
        for c in cs:
            profiles += 1
            prof = build_profile(field, c)
            e = prof.e
            ext = field.ext

            if mult_order(prof.beta) != 2 * e:
                failures.append(f"q={q} c={c}: ord(beta) != 2e")
            if e < 3 or E % e:
                failures.append(f"q={q} c={c}: period e={e} vs E={E}")

            # closed form, recomputed directly from beta powers
            quarter = ext.one / 4
            bk = ext.one
            for k in range(e + 1):
                val = ext.project(-quarter * (bk - bk.inverse()) ** 2)
                if val != prof.terms[k]:
                    failures.append(f"q={q} c={c} k={k}: closed form")
                bk = bk * prof.beta

            for k in range(e):
                # nonlinear relation c_{k+1} c_{k-1} = (c - c_k)^2
                ck = term(prof, k)
                if term(prof, k + 1) * term(prof, k - 1) != (c - ck) ** 2:
                    failures.append(f"q={q} c={c} k={k}: nonlinear relation")
                # membership: every term is 0, 1, or in the square-square set
                if ck != 0 and ck != 1:
                    if quad_char(ck) != 1 or quad_char(1 - ck) != 1:
                        failures.append(f"q={q} c={c} k={k}: membership")
                # unordered neighbour pair at every index
                got = {a.rep for a in adjacent_pair(prof, k)}
                want = {term(prof, k - 1).rep, term(prof, k + 1).rep}
                if got != want:
                    failures.append(f"q={q} c={c} k={k}: neighbour pair")

            # terms equal to 1 occur exactly at e/2 mod e, and only for even e
            ones = {k for k in range(e) if prof.terms[k] == field.one}
            want_ones = {e // 2} if e % 2 == 0 else set()
            if ones != want_ones:
                failures.append(f"q={q} c={c}: ones at {ones}")

            # pairwise distinct through half a period
            half = [prof.terms[k].rep for k in range(e // 2 + 1)]
            if len(set(half)) != len(half):
                failures.append(f"q={q} c={c}: repeated terms in half period")
    _report(8, f"recurrence property suite over {profiles} profiles", failures)


def _factorize_int(n: int) -> dict:
    out = {}
    m = n
    f = 2
    while f * f <= m:
        while m % f == 0:
            out[f] = out.get(f, 0) + 1
            m //= f
        f += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out
