#!/usr/bin/env python3
"""Record the output digests the benchmark checks against.

Runs `scan` on the acceptance box and `enumerate-lines` on every surface of
the families pool through the package in this checkout, and writes their
SHA-256 digests and family counts to expected.json.  Run it from the
repository root only at a commit whose outputs are known to be right:

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import sys

import gen
from run import execute, import_package


def main() -> int:
    import_package()
    cli = sys.modules["abelianity.cli"]
    expected = {"scan": {}, "families": {}}
    out = execute(cli, ("scan", f"--box={gen.SCAN_BOX}"), keep=False)
    if out.rc != 0 or out.out.disagree or out.out.lines != gen.scan_line_count(gen.SCAN_BOX):
        raise SystemExit(f"scan --box {gen.SCAN_BOX} failed its own checks")
    expected["scan"][str(gen.SCAN_BOX)] = out.out.sha.hexdigest()
    for pool in gen.FAMILY_POOL.values():
        for s in pool:
            out = execute(cli, ("enumerate-lines", f"--surface={s[0]},{s[1]}",
                                f"--N={gen.N}"), keep=True)
            families = out.out.text().count('{"d": ')
            if out.rc != 0 or families != gen.family_count(s):
                raise SystemExit(f"enumerate-lines {s} failed its own checks")
            expected["families"][f"{s[0]},{s[1]}"] = {
                "families": families, "sha256": out.out.sha.hexdigest()}
    gen.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
