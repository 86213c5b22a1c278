"""Regenerate reference.json: every op's output at the default seed (0).

    python3 bench/make_reference.py

Run it only when a change is meant to alter outputs, and say so in the change.
"""

import json
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import cakelab as lab  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def answers(name):
    workload = WORKLOADS[name](lab, 0, False, None)
    return [(spec, workload.op(spec)) for spec in workload.specs]


def main():
    warnings.simplefilter("ignore")
    ops = answers("check")
    # the first check of each level is the default spelling
    check = {}
    for spec, r in ops:
        check.setdefault(spec.tag, {"lines": r["answer"], "sup": r["sup"]})
    reference = {"check": check}
    ops = answers("exchange")
    reference["exchange"] = {"key_hex": [r["answer"] for _, r in ops]}
    ops = answers("decode")
    reference["decode"] = {"bits": "".join(str(s.bit) for s, _ in ops),
                           "decoded": "".join(r["answer"] for _, r in ops)}
    ops = answers("disguise")
    reference["disguise"] = {"disguised": [r["answer"] for _, r in ops]}
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
