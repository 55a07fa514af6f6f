"""Case analysis and closed-form factorization, checked piece by piece.

The generic seeded factorization engine (exercised against sympy in
test_polyring) serves as the independent reference throughout.
"""

import re
from fractions import Fraction

import pytest
from shape_oracle import product_shape

from gsfactor import dickson, factorizer, ffield, polyring
from gsfactor._kernels import DigitKernel, Kernel, ModPKernel, ObjectKernel
from gsfactor.cli import _odd_prime_powers
from gsfactor.dickson import build_ctx, build_g
from gsfactor.errors import DomainError, InvariantError
from gsfactor.factorizer import (
    TABLE_DEGREES,
    CaseKind,
    SignClass,
    classify,
    constant_terms,
    cubic_norm_complement,
    degree_table_check,
    factor_closed_form,
    factor_shape_poly,
    half_sum_s_values,
    irreducible_s_values,
    is_irreducible_gs,
    norm_residuacity,
    sign_class,
    verify_against_oracle,
)
from gsfactor.ffield import elements, make_field, make_field_q, quad_char
from gsfactor.polyring import Factorization, Poly, factorize, is_irreducible, poly_str
from gsfactor.recurrence import build_profile

CTX13 = build_ctx(make_field(13))
CTX17 = build_ctx(make_field(17))
CTX19 = build_ctx(make_field(19))
CTX37 = build_ctx(make_field(37))


def degree_e_profiles(field):
    """The profiles of c = 1 - s^2 over the degree-e parameters s, one per c."""
    cs = {}
    for s in elements(field):
        if s not in (field.one, -field.one, field.zero) and quad_char(1 - s * s) == 1:
            cs.setdefault((1 - s * s).rep, 1 - s * s)
    return [build_profile(field, c) for c in cs.values()]


class TestClassify:
    def test_special_values(self):
        assert classify(CTX13, 1).kind is CaseKind.S_PLUS_ONE
        assert classify(CTX13, -1).kind is CaseKind.S_MINUS_ONE
        assert classify(CTX13, 0).kind is CaseKind.S_ZERO

    def test_witnesses_recorded(self):
        tag = classify(CTX13, 6)
        assert tag.kind is CaseKind.DEGREE_E
        assert (tag.chi_c, tag.e) == (1, 3)
        tag = classify(CTX13, 3)
        assert tag.chi_c == -1 and tag.e is None

    def test_partition_against_direct_predicates(self):
        for q in (13, 17, 19, 9, 27):
            field = make_field_q(q)
            ctx = build_ctx(field)
            for s in elements(field):
                kind = classify(ctx, s).kind
                if s == field.one:
                    want = CaseKind.S_PLUS_ONE
                elif s == -field.one:
                    want = CaseKind.S_MINUS_ONE
                elif not s:
                    want = CaseKind.S_ZERO
                elif quad_char(1 - s * s) == 1:
                    want = CaseKind.DEGREE_E
                elif quad_char((1 + s) / 2) == 1:
                    want = CaseKind.SPLIT_LINEAR_QUADRATIC
                else:
                    want = CaseKind.ALL_QUADRATIC
                assert kind is want, f"q={q} s={s}"

    def test_case_json(self):
        rec = classify(CTX13, 6).to_json()
        assert rec == {"case": "DegreeE", "chi_c": 1, "chi_half": 1, "e": 3}


class TestClosedFormBranches:
    def test_s_plus_one(self):
        fac = factor_closed_form(CTX13, 1)
        assert fac == factorize(build_g(CTX13, 1))
        mults = sorted((g.degree, m) for g, m in fac.factors)
        assert mults == [(1, 1), (1, 1), (1, 2), (1, 2)]

    def test_s_minus_one(self):
        fac = factor_closed_form(CTX13, -1)
        assert fac == factorize(build_g(CTX13, -1))
        assert sorted(g.coeff(0).rep for g, _ in fac.factors) == [5, 6, 7]
        assert all(m == 2 for _, m in fac.factors)

    def test_s_zero(self):
        fac = factor_closed_form(CTX13, 0)
        assert fac == factorize(build_g(CTX13, 0))
        assert all(g.degree == 2 and m == 1 for g, m in fac.factors)

    def test_split_linear_quadratic(self):
        # s = 3 over F_13: 1 - s^2 = -8 = 5 is a nonsquare, (1+s)/2 = 2... use
        # a checked instance instead of guessing characters by hand
        field = CTX13.field
        picks = [
            s
            for s in elements(field)
            if classify(CTX13, s).kind is CaseKind.SPLIT_LINEAR_QUADRATIC
        ]
        assert picks, "no split case over F_13?"
        for s in picks:
            fac = factor_closed_form(CTX13, s)
            assert fac == factorize(build_g(CTX13, s))
            degs = sorted(g.degree for g, _ in fac.factors)
            assert degs == [1, 1] + [2] * (len(degs) - 2)
            roots = {g.coeff(0).rep for g, _ in fac.factors if g.degree == 1}
            assert roots == {(-(1 + s) / 2).rep, (-(1 - s) / 2).rep}

    def test_all_quadratic(self):
        field = CTX19.field
        picks = [
            s
            for s in elements(field)
            if classify(CTX19, s).kind is CaseKind.ALL_QUADRATIC
        ]
        assert picks
        for s in picks:
            fac = factor_closed_form(CTX19, s)
            assert fac == factorize(build_g(CTX19, s))
            assert all(g.degree == 2 and m == 1 for g, m in fac.factors)

    def test_degree_e(self):
        fac = factor_closed_form(CTX13, 6)
        assert str(fac) == "7 * (y^3 + 5*y^2 + 3*y + 1) * (y^3 + 5*y^2 + 3*y + 3)"

    def test_every_s_many_fields(self):
        for q in (3, 5, 7, 11, 23, 9, 25):
            ctx = build_ctx(make_field_q(q))
            for s in elements(ctx.field):
                assert verify_against_oracle(ctx, s), f"q={q} s={s}"


class TestShapePoly:
    def test_f13_shape(self):
        prof = build_profile(CTX13.field, 4)
        N = factor_shape_poly(prof)
        assert poly_str(N) == "y^3 + 5*y^2 + 3*y"

    def test_even_period_shape(self):
        prof = build_profile(CTX17.field, 2)  # e = 8
        N = factor_shape_poly(prof)
        assert N.is_monic and N.degree == 8
        # (y^2 - y) * prod (y - c_k)^2 over k = 1..3, recomputed directly
        x = Poly.x(CTX17.field)
        want = x * x - x
        for k in range(1, 4):
            want = want * (x - prof.terms[k]) ** 2
        assert N == want

    def test_shape_vanishing_pattern(self):
        prof = build_profile(CTX19.field, 9)  # e = 5
        N = factor_shape_poly(prof)
        assert not N(CTX19.field.zero)
        for k in range(1, 5):
            assert not N(prof.term(k))


class TestChebyshevShape:
    """``factor_shape_poly`` against the product over the recurrence's terms."""

    def test_every_profile_up_to_200(self):
        fields = profiles = 0
        for q in _odd_prime_powers(200):
            fields += 1
            for prof in degree_e_profiles(make_field_q(q)):
                profiles += 1
                assert factor_shape_poly(prof) == product_shape(prof), f"q={q} e={prof.e}"
        assert (fields, profiles) == (53, 1154)

    def test_object_kernel(self, monkeypatch):
        # the kernel used past the int64 guard, forced on small fields
        monkeypatch.setattr(factorizer, "kernel_for", lambda ctx, bound: ObjectKernel(ctx))
        for q in (13, 27, 37):
            for prof in degree_e_profiles(make_field_q(q)):
                assert factor_shape_poly(prof) == product_shape(prof)

    def test_table_rows_are_chebyshev_over_q(self):
        # T_{k+1} = 2 x T_k - T_{k-1} on exact coefficient lists in y, x = 1 - 2y
        def chebyshev(e):
            prev, cur = [Fraction(1)], [Fraction(1), Fraction(-2)]
            for _ in range(e - 1):
                twice = [2 * (a - 2 * b) for a, b in zip(cur + [0], [0] + cur)]
                prev, cur = cur, [a - b for a, b in zip(twice, prev + [0, 0])]
            return cur

        for e in TABLE_DEGREES:
            unit = Fraction((-1) ** e, 2 ** (2 * e - 1))
            want = [unit * (c - (i == 0)) for i, c in enumerate(chebyshev(e))]
            assert want == [Fraction(c) for c in factorizer._SHAPE_TABLE[e][2]], e


class TestConstantTerms:
    def test_goldens(self):
        assert [m.rep for m in constant_terms(CTX13, 6)[1]] == [10, 12]
        e, ms = constant_terms(CTX17, 13)
        assert e == 8 and [m.rep for m in ms] == [7]
        e, ms = constant_terms(CTX19, 4)
        assert e == 10 and [m.rep for m in ms] == [11]

    def test_rejects_other_cases(self):
        with pytest.raises(DomainError):
            constant_terms(CTX13, 1)
        with pytest.raises(DomainError):
            constant_terms(CTX13, 3)  # split linear-quadratic over F_13

    def test_count_is_E_over_e(self):
        for s in (2, 6, 7, 8, 11):
            tag = classify(CTX13, s)
            if tag.kind is CaseKind.DEGREE_E:
                e, ms = constant_terms(CTX13, s)
                assert len(ms) == CTX13.E // e

    def test_f37_split_with_divisibility_crosscheck(self):
        # frozen per-parameter split of the six-element union
        e26, m26 = constant_terms(CTX37, 26)
        e11, m11 = constant_terms(CTX37, 11)
        assert e26 == e11 == 6
        assert [m.rep for m in m26] == [2, 20, 29]
        assert [m.rep for m in m11] == [5, 14, 32]
        # independent check: each shape - m really divides its g_s
        prof = build_profile(CTX37.field, 1 - CTX37.field.elem(26) ** 2)
        N = factor_shape_poly(prof)
        for s, ms in ((26, m26), (11, m11)):
            g = build_g(CTX37, s)
            for m in ms:
                assert (g % (N - m)).is_zero
        union = {m.rep for m in m26} | {m.rep for m in m11}
        assert union == {2, 5, 14, 20, 29, 32}


class TestIrreducibility:
    def test_f13_goldens(self):
        assert is_irreducible_gs(CTX13, 2)
        assert is_irreducible_gs(CTX13, 11)
        assert not is_irreducible_gs(CTX13, 6)
        assert not is_irreducible_gs(CTX13, 1)
        assert [v.rep for v in irreducible_s_values(CTX13)] == [2, 11]

    def test_oracle_agrees(self):
        for s in elements(CTX13.field):
            assert is_irreducible_gs(CTX13, s) == is_irreducible(build_g(CTX13, s))

    def test_two_routes_agree(self):
        for q in (7, 13, 17, 19, 9, 27, 25, 81, 121):
            ctx = build_ctx(make_field_q(q))
            assert tuple(irreducible_s_values(ctx)) == tuple(half_sum_s_values(ctx))

    def test_small_field_degeneracy(self):
        # q = 3, 5 have E = 2; the classification never reports irreducible
        # (s = 0 is its own case) while the order-scan route returns {0}
        for q in (3, 5):
            ctx = build_ctx(make_field_q(q))
            assert irreducible_s_values(ctx) == ()
            assert [v.rep for v in half_sum_s_values(ctx)] == [0]

    def test_count_matches_totient(self):
        # number of irreducible g_s equals phi(2E)/2 for q >= 7
        import math

        def phi(n):
            out = n
            m = n
            f = 2
            while f * f <= m:
                if m % f == 0:
                    out -= out // f
                    while m % f == 0:
                        m //= f
                f += 1
            if m > 1:
                out -= out // m
            return out

        for q in (7, 13, 17, 19, 23, 9):
            ctx = build_ctx(make_field_q(q))
            assert len(irreducible_s_values(ctx)) == phi(2 * ctx.E) // 2
        # the order-scan route alone above 3162, where F_{q^2} is too large
        # to enumerate
        ctx = build_ctx(make_field_q(3163))
        assert len(half_sum_s_values(ctx)) == phi(2 * ctx.E) // 2


class TestSignClass:
    def test_f19_goldens(self):
        assert sign_class(CTX19, 12, 5) is SignClass.PLUS
        assert sign_class(CTX19, 7, 5) is SignClass.MINUS
        assert sign_class(CTX19, 12, 4) is SignClass.NEITHER

    def test_odd_d_negation_swaps_class(self):
        assert sign_class(CTX19, -12, 5) is SignClass.MINUS
        assert sign_class(CTX19, -7, 5) is SignClass.PLUS

    def test_even_d_symmetric(self):
        # e(26) = 6 over F_37; both signs land in the plus class
        assert sign_class(CTX37, 26, 6) is SignClass.PLUS
        assert sign_class(CTX37, -26, 6) is SignClass.PLUS

    def test_wire_values(self):
        assert SignClass.PLUS.value == "B_d"
        assert SignClass.MINUS.value == "B_d_prime"
        assert SignClass.NEITHER.value == "neither"

    def test_rejects_bad_d(self):
        with pytest.raises(DomainError):
            sign_class(CTX19, 12, 0)


class TestOrderFactorization:
    def test_group_order_factored_once_per_field(self, monkeypatch):
        real = ffield._factor_int
        calls = []
        monkeypatch.setattr(ffield, "_factor_int", lambda n: calls.append(n) or real(n))
        ctx = build_ctx(make_field(31))
        for s in elements(ctx.field):
            classify(ctx, s)
        assert len(calls) <= 1
        before = len(calls)
        for s in elements(ctx.field):
            sign_class(ctx, s, 3)
        assert len(calls) == before


class TestNormResiduacity:
    def test_f19_d5_report(self):
        recs = {r.s.rep: r for r in norm_residuacity(CTX19, 5)}
        assert set(recs) == {2, 7, 12, 17}
        assert recs[12].membership is SignClass.PLUS and recs[12].residue == -1
        assert recs[7].membership is SignClass.MINUS and recs[7].residue == 1
        assert [m.rep for m in recs[12].norms] == [3, 14]
        assert [m.rep for m in recs[17].norms] == [2, 15]

    def test_f37_d6_observed_nonsquares(self):
        # even degree: no law asserted, but this instance is uniform
        recs = {r.s.rep: r for r in norm_residuacity(CTX37, 6)}
        assert {26, 11} <= set(recs)
        for r in recs.values():
            assert r.residue == -1

    def test_odd_law_holds_broadly(self):
        for q in (13, 17, 19, 29, 37):
            ctx = build_ctx(make_field_q(q))
            es = {classify(ctx, s).e for s in elements(ctx.field)}
            for d in sorted(e for e in es if e and e % 2):
                for rec in norm_residuacity(ctx, d):
                    want = -1 if rec.membership is SignClass.PLUS else 1
                    assert rec.residue == want


class TestCubicComplement:
    def test_f13_golden(self):
        U, V, holds = cubic_norm_complement(CTX13)
        assert holds
        assert [u.rep for u in U] == [2, 7, 10, 12]
        assert sorted(v.rep for v in V) == [0, 1, 3, 4, 5, 6, 8, 9, 11]
        assert len(V) == (2 * 13 + 1) // 3

    def test_f11_valid(self):
        ctx = build_ctx(make_field(11))
        U, V, holds = cubic_norm_complement(ctx)
        assert holds and len(U) + len(V) == 11

    def test_wrong_congruence(self):
        with pytest.raises(DomainError):
            cubic_norm_complement(build_ctx(make_field(7)))


class TestDegreeTables:
    def test_goldens(self):
        assert degree_table_check(CTX13, 3)
        assert degree_table_check(CTX17, 4)
        assert degree_table_check(CTX17, 8)
        ctx41 = build_ctx(make_field(41))
        for d in (5, 10):
            assert degree_table_check(ctx41, d)
        ctx23 = build_ctx(make_field(23))
        for d in (3, 4, 6, 12):
            assert degree_table_check(ctx23, d)

    def test_surd_signs_both_checked(self):
        # 19 = -1 mod 20: both square roots of 5 give period-5 parameters
        assert degree_table_check(CTX19, 5)

    def test_wrong_congruence(self):
        with pytest.raises(DomainError):
            degree_table_check(CTX13, 4)  # 13 = 5 mod 8
        with pytest.raises(DomainError):
            degree_table_check(CTX13, 7)  # no table at all

    def test_table_degrees_constant(self):
        assert TABLE_DEGREES == (3, 4, 5, 6, 8, 10, 12)


class TestInvariantContext:
    def test_failed_reconstruction_names_field_and_parameter(self, monkeypatch):
        monkeypatch.setattr(Factorization, "expand", lambda self: Poly.one(CTX13.field))
        # one s of each case kind over F_13: SPlusOne, SMinusOne, SZero,
        # SplitLinearQuadratic, AllQuadratic, DegreeE
        for s in (1, 12, 0, 4, 3, 6):
            with pytest.raises(InvariantError) as err:
                factor_closed_form(CTX13, s)
            assert re.search(r"\bq=13\b", str(err.value))
            assert re.search(rf"\bs={s}\b", str(err.value))
            assert "stage=reconstruct " in str(err.value)
            assert str(err.value).endswith(f"replay: gsfactor factor q=13 s={s})")

    @pytest.mark.parametrize(
        "name, stub",
        [("decompose_by", lambda f, shape: None), ("roots_in_field", lambda h: [])],
    )
    def test_shape_preimages_name_field_and_parameter(self, monkeypatch, name, stub):
        # the offsets (the shape preimages) come from a root of w^N = beta,
        # not from the engine helpers an earlier route called: with those
        # broken, a wrong root is still caught and named by the closed form.
        # A log of 0 gives the root w0 = 1, and 1^N is not beta at s = 6.
        monkeypatch.setattr(polyring, name, stub)
        monkeypatch.setattr(factorizer, name, stub, raising=False)
        monkeypatch.setattr(factorizer, "_log", lambda ext, h: 0)
        for entry in (factor_closed_form, constant_terms):
            with pytest.raises(InvariantError) as err:
                entry(CTX13, 6)
            assert re.search(r"\bq=13\b", str(err.value))
            assert re.search(r"\bs=6\b", str(err.value))
            assert "stage=offsets " in str(err.value)
            assert str(err.value).endswith("replay: gsfactor factor q=13 s=6)")


class TestOracleEquivalence:
    def test_seed_changes_keep_equality(self):
        for seed in (1, 1729, 999983):
            assert verify_against_oracle(CTX13, 6, seed=seed)

    def test_extension_fields(self):
        for q in (9, 27):
            ctx = build_ctx(make_field_q(q))
            for s in elements(ctx.field):
                assert verify_against_oracle(ctx, s)


class TestRouteIndependence:
    def test_closed_form_never_calls_the_engine(self, monkeypatch):
        # built before the patches: the modulus search for F_27, F_49 and
        # F_125 runs the Rabin test, and the s values enumerate the field
        ctxs = [build_ctx(make_field_q(q)) for q in (13, 27, 49, 125)]
        cases = [(ctx, list(elements(ctx.field))) for ctx in ctxs]

        def engine(*args, **kwargs):
            raise AssertionError("the closed form called the generic engine")

        # the closed form shares only the kernels' arithmetic with the engine
        for owner, name in [
            (factorizer, "factorize"),
            (polyring, "factorize"),
            (polyring, "decompose_by"),
            (polyring, "roots_in_field"),
            (Kernel, "factor_monic"),
            (Kernel, "squarefree_parts"),
            (Kernel, "distinct_degree_parts"),
            (Kernel, "equal_degree_split"),
            (Kernel, "distinct_roots"),
            (Kernel, "is_irreducible"),
            (Kernel, "powmod"),
            (Kernel, "gcd"),
            (ModPKernel, "gcd"),
            (DigitKernel, "gcd"),
            (ffield, "elements"),
            (factorizer, "elements"),
            (dickson, "elements"),
        ]:
            monkeypatch.setattr(owner, name, engine)
        # and under the names an import into the factorizer would bind
        for name in ("decompose_by", "roots_in_field"):
            monkeypatch.setattr(factorizer, name, engine, raising=False)
        for ctx, values in cases:
            for s in values:
                tag = classify(ctx, s)
                factor_closed_form(ctx, s)  # checks its own reconstruction
                if tag.kind is CaseKind.DEGREE_E:
                    assert constant_terms(ctx, s)[0] == tag.e
