"""Record the digest of the canonical output of every op whose output does
not depend on the seed (all oracle_formal shapes, all CLI commands) into
digests.json.  Run it only when the program's output format changes on
purpose:

    python3 benchmarks/record_digests.py
"""

import json

import workloads as wl


def main() -> None:
    wl.import_package()
    ops = [wl.OracleOp(n, K) for K in sorted(set(wl.ORACLE_KS)) for n in wl.ORACLE_NS]
    ops += [wl.CliOp(argv, fn) for argv, fn in wl.cli_commands()]
    digests = {op.key: wl.digest(op.check(op.run())) for op in ops}
    with open(wl.DIGESTS_FILE, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
