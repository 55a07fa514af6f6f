"""Record the text output of `gsfactor factor` for every s of one field.

The closed_form workload compares each request's stdout with the digest
stored here, so any change to the factor text output shows as a failed
request.  The committed table was recorded at commit 08e9dc4.

    python3 benchmark/record_digests.py 31 563 > benchmark/factor_digests.json
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from gsfactor import cli  # noqa: E402


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record(q: int) -> dict:
    table = {}
    for s in range(q):
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["factor", f"q={q}", f"s={s}"])
        if code != 0:
            raise SystemExit(f"factor q={q} s={s} exited with {code}")
        table[str(s)] = digest(buf.getvalue())
        print(f"q={q} s={s} {time.perf_counter() - start:.4f}", file=sys.stderr, flush=True)
    return table


if __name__ == "__main__":
    json.dump({q: record(int(q)) for q in sys.argv[1:]}, sys.stdout, indent=0, sort_keys=True)
    print()
