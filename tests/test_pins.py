"""Output pins: fixed outputs of the CLI and of the generic engine.

Each row is (command, exit code, time limit in seconds, expected stdout).
The command is written as a shell runs it, so a failing row can be replayed
by pasting it.  Here it runs in this process: ``gsfactor ARGS`` through
``cli.main`` and ``python3 -c CODE`` through ``exec``.  The expected stdout
is either the SHA-256 of all of it, or one line it must contain; a line
ending in "..." must start some line of the output.
"""

import contextlib
import hashlib
import io
import re
import shlex
import time

import pytest

from gsfactor import cli


def engine(q: int, s: str) -> str:
    code = "from gsfactor import build_ctx, build_g, factorize, make_field_q; "
    return f'python3 -c "{code}print(factorize(build_g(build_ctx(make_field_q({q})), {s})))"'


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


EMPTY = sha256(b"")

PINS = [
    ("gsfactor factor q=13 s=-1/2", 0, 60, "case: DegreeE (e = 3)"),
    # a field too large to enumerate fails fast with a domain error
    ("gsfactor factor q=2305843009213693951 s=5", 2, 10, EMPTY),
    (
        "gsfactor irreducible q=1009",
        0,
        60,
        "irreducible g_s over F_1009 (144 values of s): 12, 18, 52,...",
    ),
    (
        "gsfactor factor q=10007 s=4",
        0,
        60,
        "748210ac15689edcc9ea52dc161710dcb5243deeff7a60f7d3401f62d5e734ec",
    ),
    (
        "gsfactor factor q=100003 s=2",
        0,
        60,
        "3a61ef9c9360b236e9ed97bc1703d20c2d20caa47b828316d366b3e97cce7733",
    ),
    # the engine above the Euclid cut-over (F_1009), on Zech logarithms
    # (F_625), and splitting quadratics over F_169 and F_125
    (engine(1009, "4"), 0, 60, "18dfe78cd1aff482f6195930594f3ec5507001cc66131cff32c29d4ca125014e"),
    (engine(625, "4"), 0, 60, "c5fbcd51c22983a5ca56fe526c43aec63242f6be828b1fbb23fcc6eff48cacb1"),
    (
        engine(169, "(4, 8)"),
        0,
        60,
        "5499f5d6365a00c4514e877616a9c08804df88594af97387a3e50075917d9f04",
    ),
    (
        engine(125, "(1, 2, 2)"),
        0,
        60,
        "cd2d1d3d65ea3009d24a2e4536426c1cc64da0b2a69b584d1368eb0044d05d49",
    ),
    # closed-form shapes over an extension field
    (
        "gsfactor atlas q=125",
        0,
        60,
        "10ec94034865dd418fe7a66e33da33d6773069675bfc9eb08183d1d5fc34765a",
    ),
    # every other subcommand's output, sweeps included
    (
        "gsfactor verify --max-q 9 --format json",
        0,
        60,
        "8efc5cac67c418458fd9ae0c336b9b05c4e0bce9b08179141840609b1cee95bb",
    ),
    (
        "gsfactor check-corollaries --max-q 30 --format json",
        0,
        60,
        "2f39ba5a4912dfda5c22d1f21e08126fc36dbecdf0a4f4ec02c131523803a2ea",
    ),
    (
        "gsfactor residuacity q=19 s=12 --format json",
        0,
        60,
        "fb26d4e1cc1bcf0608f0f127fa1d9a8b608595d176d50d6d3fb3a277405d7d87",
    ),
    (
        "gsfactor irreducible q=13 --format json",
        0,
        60,
        "7f9501306b3530e7913663bfba162ef30bf831ec81f4b6a10fc527d02f60562b",
    ),
    (
        "gsfactor atlas p=3,k=3",
        0,
        60,
        "9d158fc4d8ba1d6fd38682c6497a124dec35daf79cc945e5521d85636a9bd825",
    ),
]


def run(command: str) -> tuple:
    """(exit code, stdout) of one command, run in this process."""
    argv, out, code = shlex.split(command), io.StringIO(), 0
    with contextlib.redirect_stdout(out):
        if argv[0] == "gsfactor":
            code = cli.main(argv[1:])
        else:
            assert argv[:2] == ["python3", "-c"], command
            exec(argv[2], {})
    return code, out.getvalue()


def matches(out: str, expected: str) -> bool:
    if re.fullmatch(r"[0-9a-f]{64}", expected):
        return sha256(out.encode()) == expected
    if expected.endswith("..."):
        return any(line.startswith(expected[:-3]) for line in out.splitlines())
    return expected in out.splitlines()


@pytest.mark.parametrize("command, code, seconds, expected", PINS, ids=[p[0] for p in PINS])
def test_pin(command, code, seconds, expected):
    start = time.perf_counter()
    got_code, out = run(command)
    elapsed = time.perf_counter() - start
    assert got_code == code
    assert matches(out, expected), out[:500]
    assert elapsed < seconds, f"{command} took {elapsed:.1f} s"
