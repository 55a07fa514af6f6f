"""CLI contract: parsing, output shapes, exit codes."""

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gsfactor import build_ctx, cli, factorizer, make_field_q, recurrence
from gsfactor.factorizer import (
    CaseKind,
    classify,
    constant_terms,
    factor_closed_form,
    norm_residuacity,
    sign_class,
)
from gsfactor.ffield import QuadraticExtension, elements, quad_char
from gsfactor.polyring import Factorization, elem_json

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestFactor:
    def test_golden_text(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "q=13", "s=6")
        assert code == 0
        assert "7 * (y^3 + 5*y^2 + 3*y + 1) * (y^3 + 5*y^2 + 3*y + 3)" in out
        assert "case: DegreeE (e = 3)" in out
        assert "constant terms: 10, 12" in out

    def test_flag_style_arguments(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--field", "q=13", "--s", "6")
        assert code == 0 and "DegreeE" in out

    def test_fraction_literal(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "factor", "q=13", "s=-1/2")
        code_b, out_b, _ = run_cli(capsys, "factor", "q=13", "s=6")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "q=13", "s=6", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["case"] == "DegreeE" and rec["e"] == 3
        assert rec["constant_terms"] == [10, 12]
        assert rec["b_set"] == "B_d_prime" and rec["residue"] == 1
        assert rec["factorization"]["lead"] == 7

    def test_text_mode_builds_no_json(self, capsys, monkeypatch):
        built = []
        real = Factorization.to_json
        monkeypatch.setattr(Factorization, "to_json", lambda f: built.append(f) or real(f))
        code, out, _ = run_cli(capsys, "factor", "q=13", "s=6")
        assert code == 0 and "g_s = 7 * (y^3" in out
        assert built == []
        code, out, _ = run_cli(capsys, "factor", "q=13", "s=6", "--format", "json")
        assert code == 0 and json.loads(out)["factorization"]["lead"] == 7
        assert len(built) == 1

    def test_extension_field_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "factor", "p=3,k=2", "s=0,1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["s"] == [0, 1]

    def test_special_case_text(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "q=13", "s=1")
        assert code == 0 and "case: SPlusOne" in out

    def test_even_q_rejected(self, capsys):
        code, _, err = run_cli(capsys, "factor", "q=4", "s=1")
        assert code == 2
        assert "q must be an odd prime power" in err

    def test_large_prime_refused_at_once(self, capsys):
        # the field is built at once; the enumeration guard then exits 2
        code, _, err = run_cli(capsys, "factor", "q=2305843009213693951", "s=5")
        assert code == 2 and "refusing to enumerate" in err

    def test_missing_s(self, capsys):
        code, _, err = run_cli(capsys, "factor", "q=13")
        assert code == 2 and "s" in err

    def test_unknown_token(self, capsys):
        code, _, err = run_cli(capsys, "factor", "q=13", "x=1")
        assert code == 2 and "unrecognized token" in err

    def test_conflicting_field(self, capsys):
        code, _, err = run_cli(capsys, "factor", "--field", "q=17", "q=13", "s=1")
        assert code == 2 and "more than once" in err

    def test_each_quantity_computed_once(self, capsys, monkeypatch):
        # one discrete log of beta per s gives e, the offsets and the sign
        # class; no recurrence profile is built on the closed-form path
        q = 13
        calls = {"build_profile": 0, "log_rep": 0, "_offsets": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(recurrence, "build_profile")
        counted(QuadraticExtension, "log_rep")
        counted(factorizer, "_offsets")
        assert run_cli(capsys, "factor", f"q={q}", "s=6")[0] == 0
        assert calls == {"build_profile": 0, "log_rep": 1, "_offsets": 1}
        calls.update(build_profile=0, log_rep=0, _offsets=0)
        assert run_cli(capsys, "atlas", f"q={q}")[0] == 0
        assert calls == {"build_profile": 0, "log_rep": q, "_offsets": q}


class TestVerify:
    def test_golden_line(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "q=17")
        assert code == 0
        assert out.strip() == "17/17 values of s verified"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "q=13", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec == {"q": 13, "verified": 13, "total": 13, "mismatches": []}

    def test_seed_flag(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "q=13", "--seed", "99")
        assert code == 0 and "13/13" in out

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("GS_SEED", "12345")
        code, out, _ = run_cli(capsys, "verify", "q=13")
        assert code == 0 and "13/13" in out

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("GS_SEED", "pi")
        code, _, err = run_cli(capsys, "verify", "q=13")
        assert code == 2 and "GS_SEED" in err

    def test_max_q_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-q", "9")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [
            "q=3: 3/3 values of s verified",
            "q=5: 5/5 values of s verified",
            "q=7: 7/7 values of s verified",
            "q=9: 9/9 values of s verified",
        ]

    def test_mismatch_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_against_oracle", lambda *a, **k: False)
        code, out, err = run_cli(capsys, "verify", "q=13", "--seed", "99")
        assert code == 3
        assert "0/13 values of s verified" in out
        lines = err.splitlines()
        assert len(lines) == 13
        for s, line in enumerate(lines):
            assert line.startswith(f"stage=verify q=13 s={s} seed=99 replay: ")
        replay = shlex.split(lines[6].split("replay: ", 1)[1])
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(replay, env=env, capture_output=True, text=True)
        assert done.returncode == 0 and done.stdout == "True\n"

    def test_needs_field_or_max_q(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2 and "max-q" in err

    def test_field_and_max_q_conflict(self, capsys):
        code, out, err = run_cli(capsys, "verify", "q=13", "--max-q", "9")
        assert code == 2 and out == ""
        assert "q=13" in err and "--max-q" in err

    def test_max_q_below_three(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--max-q", "2")
        assert code == 2 and out == ""
        assert err == "error: --max-q must be at least 3, got 2\n"


class TestAtlas:
    def test_record_per_s_and_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "atlas", "q=13")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 13
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {
                "s",
                "case",
                "e",
                "constant_terms",
                "residue",
                "b_set",
                "factorization",
            }
            assert json.dumps(rec) == line  # byte-identical re-emission

    @pytest.mark.parametrize("q", [13, 19, 27])
    def test_records_match_public_functions(self, capsys, q):
        ctx = build_ctx(make_field_q(q))
        code, out, _ = run_cli(capsys, "atlas", f"q={q}")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == q
        for s, rec in zip(elements(ctx.field), records):
            tag = classify(ctx, s)
            expected = {
                "s": elem_json(s),
                "case": tag.kind.value,
                "e": tag.e,
                "constant_terms": None,
                "residue": None,
                "b_set": None,
                "factorization": factor_closed_form(ctx, s).to_json(),
            }
            if tag.kind is CaseKind.DEGREE_E:
                e, ms = constant_terms(ctx, s)
                residues = [quad_char(m) for m in ms]
                expected["constant_terms"] = [elem_json(m) for m in ms]
                expected["residue"] = residues[0] if len(set(residues)) == 1 else None
                expected["b_set"] = sign_class(ctx, s, e).value
            assert rec == expected

    def test_deep_fields_only_in_degree_e(self, capsys):
        _, out, _ = run_cli(capsys, "atlas", "q=13")
        for line in out.strip().splitlines():
            rec = json.loads(line)
            if rec["case"] == "DegreeE":
                assert rec["e"] and rec["constant_terms"] and rec["b_set"]
            else:
                assert rec["e"] is None and rec["constant_terms"] is None

    def test_closed_stdout_ends_quietly(self):
        # the console entry point with its reader gone after one line; q = 199
        # writes about 270 KB, far more than the pipe holds
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        argv = [sys.executable, "-m", "gsfactor.cli", "atlas", "q=199"]
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert json.loads(first)["s"] == 0
        assert "Traceback" not in err and err == ""


class TestIrreducible:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "irreducible", "q=13")
        assert code == 0
        assert "2 values of s" in out and "2, 11" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "irreducible", "q=13", "--format", "json")
        rec = json.loads(out)
        assert code == 0 and rec["s_values"] == [2, 11]

    def test_empty(self, capsys):
        code, out, _ = run_cli(capsys, "irreducible", "q=5")
        assert code == 0 and "no irreducible" in out


class TestResiduacity:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "residuacity", "q=19", "s=12")
        assert code == 0
        assert "sign class B_d" in out and "d = 5" in out
        assert "constant terms: 3, 14" in out
        assert "uniform: -1" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "residuacity", "q=19", "s=12", "--format", "json"
        )
        rec = json.loads(out)
        assert rec == {
            "s": 12,
            "d": 5,
            "b_set": "B_d",
            "norms": [3, 14],
            "residues": [-1, -1],
            "residue": -1,
        }

    @pytest.mark.parametrize("q", [13, 19, 27])
    def test_matches_norm_residuacity(self, capsys, q):
        ctx = build_ctx(make_field_q(q))
        by_degree = {}
        checked = 0
        for s in elements(ctx.field):
            e = classify(ctx, s).e
            if e is None:
                continue
            if e not in by_degree:
                by_degree[e] = {nc.s: nc for nc in norm_residuacity(ctx, e)}
            nc = by_degree[e][s]
            literal = ",".join(map(str, s.rep)) if q == 27 else str(s.rep)
            code, out, _ = run_cli(
                capsys, "residuacity", f"q={q}", f"s={literal}", "--format", "json"
            )
            rec = json.loads(out)
            assert code == 0 and rec["s"] == elem_json(s) and rec["d"] == e
            assert rec["b_set"] == nc.membership.value
            assert rec["norms"] == [elem_json(m) for m in nc.norms]
            assert rec["residue"] == nc.residue
            checked += 1
        assert checked == sum(len(v) for v in by_degree.values()) > 0

    def test_requires_degree_e_parameter(self, capsys):
        code, _, err = run_cli(capsys, "residuacity", "q=13", "s=1")
        assert code == 2 and "degree-e" in err

    def test_requires_s(self, capsys):
        code, _, err = run_cli(capsys, "residuacity", "q=13")
        assert code == 2


class TestCheckCorollaries:
    def test_f13(self, capsys):
        code, out, _ = run_cli(capsys, "check-corollaries", "q=13")
        assert code == 0
        assert "shape table d=3: PASS" in out
        assert "shape table d=6: PASS" in out
        assert "cubic value-set complement: PASS" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-corollaries", "q=13", "--format", "json"
        )
        rec = json.loads(out)
        assert code == 0 and rec["q"] == 13
        assert all(c["pass"] for c in rec["checks"])

    def test_no_applicable(self, capsys):
        code, out, _ = run_cli(capsys, "check-corollaries", "q=5")
        assert code == 0 and "no applicable checks" in out

    def test_max_q_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "check-corollaries", "--max-q", "25")
        assert code == 0
        assert "q=13: shape table d=3: PASS" in out
        assert "q=17: shape table d=8: PASS" in out
        assert "q=23: shape table d=12: PASS" in out

    def test_failure_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "degree_table_check", lambda *a, **k: False)
        code, out, _ = run_cli(capsys, "check-corollaries", "q=13")
        assert code == 3 and "FAIL" in out

    def test_field_and_max_q_conflict(self, capsys):
        code, out, err = run_cli(capsys, "check-corollaries", "--max-q", "25", "q=13")
        assert code == 2 and out == ""
        assert "q=13" in err and "--max-q" in err

    def test_max_q_below_three(self, capsys):
        code, out, err = run_cli(capsys, "check-corollaries", "--max-q", "2", "--format", "json")
        assert code == 2 and out == ""
        assert err == "error: --max-q must be at least 3, got 2\n"


class TestParsing:
    def test_no_subcommand(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_bad_field_spec(self, capsys):
        code, _, err = run_cli(capsys, "factor", "--field", "z=13", "s=1")
        assert code == 2 and "bad field spec" in err

    def test_bad_element_literal(self, capsys):
        code, _, err = run_cli(capsys, "factor", "q=13", "s=banana")
        assert code == 2 and "bad element literal" in err

    @pytest.mark.parametrize("name", ["verify", "atlas", "irreducible", "check-corollaries"])
    def test_s_token_rejected_where_unused(self, capsys, name):
        code, out, err = run_cli(capsys, name, "q=13", "s=banana")
        assert (code, out) == (2, "")
        assert err == f"error: {name} takes no s (got 's=banana')\n"

    @pytest.mark.parametrize("name", ["verify", "atlas", "irreducible", "check-corollaries"])
    def test_s_flag_is_not_seed(self, capsys, name):
        # no prefix matching: --s is not read as --seed
        code, out, err = run_cli(capsys, name, "q=13", "--s", "3")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --s 3" in err

    @pytest.mark.parametrize("name", sorted(cli._COMMANDS))
    def test_no_abbreviated_flags(self, capsys, name):
        s = ["s=3"] if cli._COMMANDS[name][2] == "--s" else []
        code, out, err = run_cli(capsys, name, "q=13", *s, "--form", "json")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --form json" in err

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        real = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(parser)
            real(parser, *args, **kwargs)

        assert run_cli(capsys, "irreducible", "q=5")[0] == 0
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run_cli(capsys, "irreducible", "q=5")[0] == 0
        assert built == []
