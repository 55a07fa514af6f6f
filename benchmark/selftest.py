"""Self-test of the benchmark at tiny sizes (every field at most 31).

    python3 benchmark/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
on every workload, untraced and traced; that a deliberately wrong output
drives error_rate above 0; and that the output checks and the census agree
with the library on small fields.  Exits 0 when every check passes.
"""

import json
import os
import sys

import run

run._load_program()

from gsfactor import build_ctx, classify, elements, is_irreducible_gs  # noqa: E402
from gsfactor import make_field_q  # noqa: E402

import workloads  # noqa: E402

SECONDS = 1.0
failures = []


def expect(cond: bool, what: str):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    bench = json.load(fh)
wanted = {
    0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
    1: {m["name"]: m["unit"] for m in bench["per_layer"]},
}
expect(
    {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS),
    "BENCHMARK.json names exactly the implemented workloads",
)

for name in workloads.WORKLOADS:
    for trace in (0, 1):
        result, report = run.run_workload(name, seed=1, seconds=SECONDS, trace=trace, tiny=True)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == wanted[trace], f"{name} trace={trace}: metric names and units")
        expect(
            result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
            f"{name} trace={trace}: {result['attempted']} requests, none failed",
        )


def tamper_first():
    """A tamper hook that corrupts the first output only, in a way the
    workload's check must see."""
    seen = []

    def tamper(req, out):
        if seen:
            return out
        seen.append(req)
        if isinstance(out, bool):
            return not out
        if isinstance(out, list):
            return [not out[0]] + out[1:]
        code, text = out
        return code, text.replace("(y", "(y^2 + y", 1)

    return tamper


for name in workloads.WORKLOADS:
    result, report = run.run_workload(
        name, seed=2, seconds=SECONDS, trace=0, tiny=True, tamper=tamper_first()
    )
    expect(report["error_rate"] > 0, f"{name}: a wrong output raises error_rate above 0")

# a stdout that keeps its structure but differs from the recorded text
cf = workloads.ClosedForm(seed=3, tiny=True)
s = 5
code, text = cf.call(s)
expect(cf.check(s, (code, text)), "closed_form: recorded digest matches today's output")
forged = text.replace("q = ", "q  = ", 1)
expect(not cf.check(s, (code, forged)), "closed_form: a changed stdout fails the digest")
expect(not cf.check(s, (2, text)), "closed_form: a nonzero exit code fails the check")

# the ordering keys and the census against classify, on every tiny field
for q in workloads.SWEEP_FIELDS:
    if q > workloads.TINY_LIMIT:
        continue
    ctx = build_ctx(make_field_q(q))
    agree = True
    for s in elements(ctx.field):
        tag = classify(ctx, s)
        agree = agree and workloads.case_tag(ctx, s) == (tag.kind, tag.e)
    expect(agree, f"case_tag agrees with classify on F_{q}")

# the irreducible scan's check against the library on one field
scan = workloads.IrreducibleScan(seed=4, tiny=True)
ctx = build_ctx(make_field_q(scan.q))
scan.setup({scan.q: ctx})
irreducible = {s for s in elements(ctx.field) if is_irreducible_gs(ctx, s)}
expect(irreducible == scan.expected, f"irreducible_scan: both routes agree on F_{scan.q}")
wrong = [scan.elems[i] not in scan.expected for i in scan.blocks[0]]
expect(not scan.check(scan.blocks[0], wrong), "irreducible_scan: a wrong set fails the check")
expect(
    sorted(i for b in scan.blocks for i in b) == list(range(scan.q)),
    "irreducible_scan: one pass visits every s once",
)

print(f"{len(failures)} failure(s)")
sys.exit(1 if failures else 0)
