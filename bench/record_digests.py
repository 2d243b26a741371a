"""Record the SHA-256 of each workload's output into ``digests.json``.

    python3 bench/record_digests.py --seeds 0-99

Run it from the repository root at the commit whose output bytes are the
reference: the CLI output must stay byte-identical, so ``run.py`` counts
an output whose digest differs from the recorded one as a failure. The
table is keyed by the SHA-256 of the generated config, so seeds that make
the same config (every seed of ``line-run``) share one entry. Entries
already in the file are kept; every new output must pass its reference
check before it is recorded.
"""

from __future__ import annotations

import argparse
import json
import sys

import run  # sets the BLAS thread count before numpy is imported
from workloads import MODE, WORKLOADS, Reference, make_config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="0-99", help="inclusive range A-B")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    sys.path.insert(0, str(run.SRC))
    from oqwalk.cli import main as oqw

    digests = run.load_digests()
    work = run.OUT / "record-digests"
    work.mkdir(parents=True, exist_ok=True)
    config_path, output_path = work / "config.json", work / "output"
    try:
        for workload in WORKLOADS:
            table = digests.setdefault(workload, {})
            for seed in seeds:
                config = make_config(workload, seed)
                text = json.dumps(config)
                key = run.sha256(text.encode())
                if key in table:
                    if seed not in table[key]["seeds"]:
                        table[key]["seeds"].append(seed)
                    continue
                config_path.write_text(text)
                code = run.call_main(oqw, [MODE[workload], str(config_path),
                                           "-o", str(output_path)])
                if code != 0:
                    print(f"error: {workload} seed {seed} exited {code}", file=sys.stderr)
                    return 1
                output = output_path.read_text(encoding="utf-8")
                ok, reason = Reference(workload, config).check(output)
                if not ok:
                    print(f"error: {workload} seed {seed}: {reason}", file=sys.stderr)
                    return 1
                table[key] = {"seeds": [seed], "output": run.sha256(output.encode())}
                print(f"{workload} seed {seed}: {table[key]['output']}", flush=True)
    finally:
        config_path.unlink(missing_ok=True)
        output_path.unlink(missing_ok=True)
    (run.BENCH / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
