"""Recurrence profiles: periods, generators, and frozen root conventions."""

import hashlib
import re
from fractions import Fraction

import pytest

from gsfactor import recurrence
from gsfactor.errors import DomainError, InvariantError
from gsfactor.ffield import elements, make_field, make_field_q, mult_order, quad_char
from gsfactor.recurrence import (
    adjacent_pair,
    build_profile,
    full_period_sequence,
    term,
)

F13 = make_field(13)
F17 = make_field(17)
F19 = make_field(19)


def brute_terms_mod_p(p, c):
    """Pure-integer rerun of the recurrence, sharing no field code."""
    coef = (2 - 4 * c) % p
    terms = [0, c % p]
    while terms[-1] != 0:
        terms.append((coef * terms[-1] - terms[-2] + 2 * c) % p)
        assert len(terms) <= p + 1
    return terms


# q -> (number of valid c, SHA-256 over the profiles of every valid c in
# canonical order: c, e, terms, beta and the three root tuples, as reps).
# Recorded with the element-level implementation, so that the rep-level one is
# held to the same index-dependent root conventions.
PROFILE_DIGESTS = {
    3: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    5: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    7: (1, "85798d2fd8d4e74f08d6276e66912bf4e0e6a4f8efec407baec86e896e875d53"),
    9: (1, "bac943dc61fb067bac9ac2b5a3f0da4ad93dbc7a97ebf5f36d6bcc39515d5f23"),
    11: (2, "7f466bc9e973ac61d5da52a38e7615dde4e2838662277d534317e16d1a6a6a2b"),
    13: (2, "5598a28ffba06d0235a381ca37614ce8cabf08ce86446dc3b9d146fcb0a76ea8"),
    17: (3, "36df127b39c105498c1ae65dd08a80d2ac65bfbdc45e9ddae07a98deb0a86774"),
    19: (4, "db6ea8b9a44b5dea48b81f5746f2b88c7b94909b9f14b678bc5388cb2158cf7b"),
    23: (5, "381c7b9614d0d949e383702ec35a1a5025cf517b0246da7396fca9e500fc0cbb"),
    25: (5, "1ff9e572f20c2cc8ba71ffd11317268331e35ad63cff058c95cc2167250d4102"),
    27: (6, "2cee5879a6c3de3b6fb2d8b929a0b573cda513f55dee003d0b56d8eaf85a1cca"),
    29: (6, "a50605b94bd3a59fdb7bc40fd870025195d94ee13ef7c44c8f4b240dd98dad6f"),
    31: (7, "b494e1ebb3370bd1b40140e6340b59eae3e0722663b6dd4aac05e923652bd78d"),
    37: (8, "9f89b101af054223c9902316aad0bbb27d7f6b83716eaa8d437b4e5ff32569ad"),
    41: (9, "ff28d233f3da6f3833e7a46082c8054fb032ba1df7e3ce02ff94e03440d6916d"),
    43: (10, "f1ecec9a102497812469ebaa16359227256333018077fc0dba02e62e27540276"),
    47: (11, "d11fcdb6a4fec9bc36be798db781165d8e990a7143c658cd4ab85081298bcc27"),
    49: (11, "ba6197048d03063cc94ea3382f8c233d706e0b89336dcc8ecb1a47495491bd11"),
    53: (12, "c851f171dad9ded26444f1f311096cf79a65ececc00631b3cbb899d7c64b12fe"),
    59: (14, "efe66d33e72da242733211222ff695c469009a517299dabdbd94c18ae173d272"),
    61: (14, "0959d9f1634312301625cd347af1dadab26a306913c6d3bae03b686827db348d"),
    67: (16, "7f88128af03ec4d6e78b5cf5a3b17e15f9bf422486a4113a82b25b2e4c1c69ca"),
    71: (17, "cb9f0dfa81c363619bc1520448eb0a62c135219ccbb04c47ae9a0153382d4c8a"),
    73: (17, "dfe77a25813241960d8f51352b1b644267c6b62e8db192ae3a729ba9740333dd"),
    79: (19, "65762f83ba0a916b93c39d116955e278a36b1c3c160e0575b45caec1afd95e40"),
    81: (19, "72ca9c69272f0a99dae44685b7e4e206c56ce1353e4ec1870e560c7c469f98c5"),
    83: (20, "f66326a4f4777ba1cd63dc075cc0a6a6d6da2641bdaddf0453a4f3b475bcbf16"),
    89: (21, "e51684dcdfbcad4096727a66de31cf3f6a1b359af7021ca5f171bcd8612c31af"),
    97: (23, "7f67f7a061d46f4445977d4c82f43528105ce891b60abda0bb31b32a8bebd29d"),
}


def profile_digest(F):
    reps = lambda xs: tuple(x.rep for x in xs)
    h = hashlib.sha256()
    n = 0
    for c in elements(F):
        if quad_char(c) != 1 or quad_char(1 - c) != 1:
            continue
        p = build_profile(F, c)
        record = (c.rep, p.e, reps(p.terms), p.beta.rep)
        record += (reps(p.sqrt_term), reps(p.sqrt_one_minus), reps(p.sqrt_product))
        h.update(repr(record).encode())
        n += 1
    return n, h.hexdigest()


class TestBuildProfile:
    def test_f13_c4(self):
        prof = build_profile(F13, 4)
        assert prof.e == 3
        assert [t.rep for t in prof.terms] == [0, 4, 4, 0]

    def test_terms_match_integer_recurrence(self):
        for p in (13, 17, 19, 29, 37):
            F = make_field(p)
            for c in range(2, p):
                x = F.elem(c)
                if quad_char(x) != 1 or quad_char(1 - x) != 1:
                    continue
                prof = build_profile(F, c)
                assert [t.rep for t in prof.terms] == brute_terms_mod_p(p, c)

    def test_rejects_bad_parameter(self):
        with pytest.raises(DomainError):
            build_profile(F13, 2)  # 2 is a nonsquare mod 13
        with pytest.raises(DomainError):
            build_profile(F13, 0)
        with pytest.raises(DomainError):
            build_profile(F13, 1)  # 1 - c = 0

    def test_known_periods(self):
        assert build_profile(F17, 2).e == 8
        assert build_profile(F19, 4).e == 10
        assert build_profile(F19, 9).e == 5

    def test_beta_normalized_to_even_order(self):
        # for c = 9 over F_19 the raw generator has odd order and gets negated
        prof = build_profile(F19, 9)
        assert prof.beta.rep == (12, 16)
        assert mult_order(prof.beta) == 10 == 2 * prof.e

    def test_beta_order_always_2e(self):
        for p in (13, 17, 19, 23):
            F = make_field(p)
            for c in range(2, p):
                x = F.elem(c)
                if quad_char(x) == 1 and quad_char(1 - x) == 1:
                    prof = build_profile(F, c)
                    assert mult_order(prof.beta) == 2 * prof.e

    def test_extension_field_profile(self):
        F9 = make_field(3, 2)
        c = F9.elem((2, 0))
        prof = build_profile(F9, c)
        assert prof.terms[0] == F9.zero and prof.terms[1] == c
        assert mult_order(prof.beta) == 2 * prof.e


class TestRootConventions:
    def test_roots_square_back(self):
        prof = build_profile(F17, 2)
        for k in range(prof.e + 1):
            ck = prof.terms[k]
            assert prof.sqrt_term[k] ** 2 == ck
            assert prof.sqrt_one_minus[k] ** 2 == 1 - ck
            assert prof.sqrt_product[k] ** 2 == ck - ck * ck
            assert prof.sqrt_term[k] * prof.sqrt_one_minus[k] == prof.sqrt_product[k]

    def test_index_dependence_of_roots(self):
        # c_1 = c_{e-1} but the frozen roots at those indices may differ in
        # sign; the convention is a function of the index, not the value
        prof = build_profile(F19, 4)
        e = prof.e
        assert prof.terms[1] == prof.terms[e - 1]
        assert prof.sqrt_one_minus[1] == -prof.sqrt_one_minus[e - 1]


class TestPinnedProfiles:
    def test_every_profile_up_to_100_matches_its_digest(self):
        # every odd prime power q <= 100, extension fields 9 .. 81 included
        got = {q: profile_digest(make_field_q(q)) for q in PROFILE_DIGESTS}
        assert got == PROFILE_DIGESTS
        assert sum(n for n, _ in got.values()) == 283


class TestInvariantContext:
    @pytest.mark.parametrize("stage", ["recurrence", "order", "closed-form", "roots"])
    def test_failures_name_field_parameter_and_stage(self, monkeypatch, stage):
        F = make_field(19)  # its own context: the patches stay local
        if stage == "recurrence":
            monkeypatch.setattr(F, "radd", lambda a, b: 1)  # never returns to 0
        elif stage == "order":
            monkeypatch.setattr(recurrence, "mult_order", lambda beta: 4)  # 2e = 20
        elif stage == "closed-form":  # -1/4 becomes 1/4, so c_1 comes out as -4
            monkeypatch.setattr(recurrence, "Fraction", lambda n, d: Fraction(abs(n), d))
        else:  # 1/2 becomes 1, so sqrt(1 - c_0) comes out as 2
            halves_to_wholes = lambda n, d: Fraction(n, 1 if d == 2 else d)
            monkeypatch.setattr(recurrence, "Fraction", halves_to_wholes)
        with pytest.raises(InvariantError) as err:
            build_profile(F, 4)
        msg = str(err.value)
        assert re.search(r"\bq=19\b", msg)
        assert re.search(r"\bc=4\b", msg)
        assert f"stage={stage})" in msg


class TestTermIndexing:
    def test_periodic_and_symmetric(self):
        prof = build_profile(F19, 4)
        e = prof.e
        for k in range(-2 * e, 2 * e):
            assert term(prof, k) == prof.terms[k % e]
            assert term(prof, -k) == term(prof, k)
            assert term(prof, k + e) == term(prof, k)


class TestAdjacentPair:
    def test_yields_neighbours_everywhere(self):
        for p in (13, 17, 19):
            F = make_field(p)
            for c in range(2, p):
                x = F.elem(c)
                if quad_char(x) != 1 or quad_char(1 - x) != 1:
                    continue
                prof = build_profile(F, c)
                for k in range(prof.e):
                    got = {a.rep for a in adjacent_pair(prof, k)}
                    want = {term(prof, k - 1).rep, term(prof, k + 1).rep}
                    assert got == want


class TestFullPeriodSequence:
    def test_f17_base_field_generator(self):
        c1, vals = full_period_sequence(F17, F17.elem(3))
        assert c1.rep == 2
        assert sorted(v.rep for v in vals) == [2, 9, 16]

    def test_f19_extension_generator(self):
        B = F19.ext.elem((4, 2))
        c1, vals = full_period_sequence(F19, B)
        assert c1.rep == 4
        assert sorted(v.rep for v in vals) == [4, 9, 11, 16]

    def test_values_all_lie_in_square_square_set(self):
        _, vals = full_period_sequence(F17, F17.elem(3))
        for v in vals:
            assert quad_char(v) == 1 and quad_char(1 - v) == 1

    def test_wrong_order_rejected(self):
        with pytest.raises(DomainError):
            full_period_sequence(F13, F13.elem(3))  # ord 3, need 2E = 12
        with pytest.raises(DomainError):
            full_period_sequence(F17, F17.elem(1))

    def test_foreign_element_rejected(self):
        with pytest.raises(DomainError):
            full_period_sequence(F17, F13.elem(3))
