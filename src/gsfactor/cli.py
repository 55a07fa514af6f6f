"""Command-line front end: six subcommands, one row each in ``_COMMANDS``
(``gsfactor --help`` lists them).  verify and check-corollaries take one
field or ``--max-q``, which sweeps every odd prime power up to it (at least 3).

Fields are given either as positional tokens (``q=13``, ``p=3,k=2``,
``s=6``) or through ``--field``/``--s``.  Element literals may be integers,
fractions such as ``-1/2``, or comma-separated base-p digits for extension
fields.  Exit codes: 0 success, 2 usage or domain error, 3 violated
mathematical invariant (including any verification mismatch).  When the
reader of stdout goes away early (``gsfactor atlas q=199 | head -1``), the
console script stops writing and exits with 1, printing nothing to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .dickson import DicksonCtx, build_ctx
from .errors import DomainError, InvariantError
from .factorizer import (
    TABLE_DEGREES,
    _closed_form,
    _constant_terms,
    _norm_class,
    cubic_norm_complement,
    degree_table_check,
    irreducible_s_values,
    verify_against_oracle,
)
from .ffield import FieldCtx, _factor_int, elements, make_field, make_field_q, quad_char
from .polyring import DEFAULT_SEED, elem_json


def _parse_field_spec(spec: str) -> FieldCtx:
    text = spec.strip()
    try:
        if text.startswith("q="):
            return make_field_q(int(text[2:]))
        if text.startswith("p="):
            parts = {}
            for chunk in text.split(","):
                key, _, val = chunk.partition("=")
                parts[key.strip()] = val.strip()
            return make_field(int(parts["p"]), int(parts.get("k", "1")))
    except DomainError:
        raise
    except Exception as exc:
        raise DomainError(f"bad field spec {spec!r}") from exc
    raise DomainError(f"bad field spec {spec!r} (expected q=... or p=...,k=...)")


def _parse_elem(field: FieldCtx, literal: str):
    text = literal.strip()
    try:
        if "/" in text:
            return field.elem(Fraction(text))
        if "," in text:
            return field.elem(tuple(int(d) for d in text.split(",")))
        return field.elem(int(text))
    except DomainError:
        raise
    except Exception as exc:
        raise DomainError(f"bad element literal {literal!r}") from exc


def _collect(args) -> tuple:
    """Field spec and s literal from positional tokens plus flags."""
    field_spec = args.field
    s_literal = getattr(args, "s", None)
    for token in args.tokens:
        if token.startswith(("q=", "p=")):
            if field_spec is not None:
                raise DomainError("field given more than once")
            field_spec = token
        elif token.startswith("s="):
            if not hasattr(args, "s"):
                raise DomainError(f"{args.subcommand} takes no s (got {token!r})")
            if s_literal is not None:
                raise DomainError("s given more than once")
            s_literal = token[2:]
        else:
            raise DomainError(f"unrecognized token {token!r}")
    return field_spec, s_literal


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"GS_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def _odd_prime_powers(limit: int):
    for q in range(3, limit + 1, 2):
        if len(_factor_int(q)) == 1:
            yield q


def _case_report(ctx: DicksonCtx, s) -> tuple:
    """(JSON record with its factorization left None, Factorization, constant
    terms or None) for one s."""
    s, tag, log, fac, ms = _closed_form(ctx, s)
    rec = {
        "s": elem_json(s),
        "case": tag.kind.value,
        "e": tag.e,
        "constant_terms": None,
        "residue": None,
        "b_set": None,
        "factorization": None,
    }
    if ms is not None:
        nc = _norm_class(ctx, s, tag.e, ms, log)
        rec["constant_terms"] = [elem_json(m) for m in ms]
        rec["residue"] = nc.residue
        rec["b_set"] = nc.membership.value
    return rec, fac, ms


def _one_field(args) -> tuple:
    """(context, s) for factor, atlas, irreducible and residuacity; s is
    parsed, and required, only by the subcommands that take --s."""
    field_spec, s_literal = _collect(args)
    takes_s = hasattr(args, "s")
    if field_spec is None or (takes_s and s_literal is None):
        what = " and a value of s" if takes_s else ""
        raise DomainError(f"{args.subcommand} needs a field{what}")
    field = _parse_field_spec(field_spec)
    ctx = build_ctx(field)
    return ctx, _parse_elem(field, s_literal) if takes_s else None


def _sweep(args, seeded: bool = False) -> tuple:
    """(seed or None, (field, output prefix) pairs) for verify and
    check-corollaries: one field, or every odd prime power up to --max-q.
    The seed is resolved, when ``seeded``, right after the field/--max-q
    conflict check."""
    field_spec, _ = _collect(args)
    name, max_q = args.subcommand, args.max_q
    if field_spec is not None and max_q is not None:
        raise DomainError(f"{name} got both a field ({field_spec}) and --max-q")
    seed = _resolve_seed(args) if seeded else None
    if field_spec is not None:
        return seed, [(_parse_field_spec(field_spec), "")]
    if max_q is None:
        raise DomainError(f"{name} needs a field or --max-q")
    if max_q < 3:
        raise DomainError(f"--max-q must be at least 3, got {max_q}")
    return seed, ((make_field_q(q), f"q={q}: ") for q in _odd_prime_powers(max_q))


def _emit(obj, out):
    print(json.dumps(obj, indent=2), file=out)


def _cmd_factor(args, out) -> int:
    ctx, s = _one_field(args)
    rec, fac, ms = _case_report(ctx, s)
    if args.format == "json":
        rec["factorization"] = fac.to_json()
        _emit(rec, out)
        return 0
    print(f"q = {ctx.field.q}, n = {ctx.n}, E = {ctx.E}", file=out)
    print(f"s = {s}", file=out)
    line = f"case: {rec['case']}"
    if rec["e"] is not None:
        line += f" (e = {rec['e']})"
    print(line, file=out)
    if ms is not None:
        print("constant terms: " + ", ".join(str(m) for m in ms), file=out)
        print(f"sign class: {rec['b_set']} | residue: {rec['residue']}", file=out)
    print(f"g_s = {fac}", file=out)
    return 0


def _cmd_verify(args, out) -> int:
    seed, sweep = _sweep(args, seeded=True)
    failed = False
    for field, prefix in sweep:
        ctx = build_ctx(field)
        mismatches = [
            s for s in elements(field) if not verify_against_oracle(ctx, s, seed=seed)
        ]
        ok = field.q - len(mismatches)
        for s in mismatches:
            sj = json.dumps(elem_json(s), separators=(",", ":"))
            print(
                f"stage=verify q={field.q} s={sj} seed={seed} replay: python3 -c "
                '"from gsfactor import build_ctx, make_field_q, verify_against_oracle as v; '
                f'print(v(build_ctx(make_field_q({field.q})), {sj}, seed={seed}))"',
                file=sys.stderr,
            )
        if args.format == "json":
            _emit(
                {
                    "q": field.q,
                    "verified": ok,
                    "total": field.q,
                    "mismatches": [elem_json(s) for s in mismatches],
                },
                out,
            )
        else:
            print(f"{prefix}{ok}/{field.q} values of s verified", file=out)
            for s in mismatches:
                print(f"{prefix}mismatch at s = {s}", file=out)
        failed = failed or bool(mismatches)
    return 3 if failed else 0


def _cmd_atlas(args, out) -> int:
    ctx, _ = _one_field(args)
    for s in elements(ctx.field):
        rec, fac, _ = _case_report(ctx, s)
        rec["factorization"] = fac.to_json()
        print(json.dumps(rec), file=out)
    return 0


def _cmd_irreducible(args, out) -> int:
    ctx, _ = _one_field(args)
    q, vals = ctx.field.q, irreducible_s_values(ctx)
    if args.format == "json":
        _emit({"q": q, "count": len(vals), "s_values": [elem_json(v) for v in vals]}, out)
        return 0
    if not vals:
        print(f"no irreducible g_s over F_{q}", file=out)
    else:
        print(
            f"irreducible g_s over F_{q} ({len(vals)} values of s): "
            + ", ".join(str(v) for v in vals),
            file=out,
        )
    return 0


def _cmd_residuacity(args, out) -> int:
    ctx, s = _one_field(args)
    s, e, ms, log = _constant_terms(ctx, s)
    nc = _norm_class(ctx, s, e, ms, log)
    residues = [quad_char(m) for m in ms]
    if args.format == "json":
        _emit(
            {
                "s": elem_json(s),
                "d": e,
                "b_set": nc.membership.value,
                "norms": [elem_json(m) for m in ms],
                "residues": residues,
                "residue": nc.residue,
            },
            out,
        )
        return 0
    print(f"s = {s}: sign class {nc.membership.value} with factor degree d = {e}", file=out)
    print("constant terms: " + ", ".join(str(m) for m in ms), file=out)
    print(
        "residues: "
        + ", ".join(str(r) for r in residues)
        + (f" (uniform: {nc.residue})" if nc.residue is not None else " (mixed)"),
        file=out,
    )
    return 0


def _corollary_checks(ctx: DicksonCtx) -> list:
    checks = []
    for d in TABLE_DEGREES:
        try:
            checks.append((f"shape table d={d}", degree_table_check(ctx, d)))
        except DomainError:
            continue
    if ctx.field.q % 12 in (1, 11):
        checks.append(("cubic value-set complement", cubic_norm_complement(ctx)[2]))
    return checks


def _cmd_check_corollaries(args, out) -> int:
    _, sweep = _sweep(args)
    failed = False
    records = []
    for field, _ in sweep:
        checks = _corollary_checks(build_ctx(field))
        records.append(
            {
                "q": field.q,
                "checks": [{"name": name, "pass": ok} for name, ok in checks],
            }
        )
        if args.format != "json":
            if not checks:
                print(f"q={field.q}: no applicable checks", file=out)
            for name, ok in checks:
                print(f"q={field.q}: {name}: {'PASS' if ok else 'FAIL'}", file=out)
        failed = failed or any(not ok for _, ok in checks)
    if args.format == "json":
        _emit(records if len(records) > 1 else records[0], out)
    return 3 if failed else 0


# name -> (handler, help, the one flag beyond the common ones)
_COMMANDS = {
    "factor": (_cmd_factor, "factor one g_s", "--s"),
    "verify": (_cmd_verify, "compare all closed forms with the oracle", "--max-q"),
    "atlas": (_cmd_atlas, "JSON-lines case report per s", None),
    "irreducible": (_cmd_irreducible, "all s with g_s irreducible", None),
    "residuacity": (_cmd_residuacity, "constant-term characters for one s", "--s"),
    "check-corollaries": (
        _cmd_check_corollaries,
        "shape tables and the cubic complement",
        "--max-q",
    ),
}
_FLAGS = {
    "--s": {"help": "parameter value"},
    "--max-q": {"type": int, "help": "sweep all odd prime powers up to this"},
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("tokens", nargs="*", help="q=..., p=...,k=..., s=...")
    common.add_argument("--field", help='field spec, e.g. "q=13" or "p=3,k=2"')
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    common.add_argument("--seed", type=int, help="base RNG seed for the oracle")

    # no prefix matching: on a subcommand without --s, "--s 3" would be --seed 3
    parser = argparse.ArgumentParser(
        prog="gsfactor",
        description="factor y^n + (1-y)^n - s over F_q (n = (q+1)/2) in closed form",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, flag) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text, allow_abbrev=False)
        if flag is not None:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.subcommand][0](args, sys.stdout)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout now points at devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    run()
