"""Record the golden sha256 digests and count metrics the benchmark checks.

Run from the repository root:

    python3 bench/record_golden.py

For each workload and config seed, one untraced repeat gives the digest of
every output file and one traced repeat gives the count metrics; the traced
repeat must write the same bytes. The result replaces bench/golden.json.
Record again only with a change that is meant to alter the outputs.
"""

import json
import sys

import run
import spans

# The shipped seeds (3 and 0) and the runs that start there, other low
# seeds, and the held-out run starting at 1000.
SEEDS = list(range(0, 32)) + list(range(1000, 1000 + run.SEEDS_PER_RUN))


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    exact = [metric["name"] for metric in spec["per_layer"] if metric["unit"] in run.EXACT_UNITS]
    m = run.load_fedlbg()
    golden = {}
    for workload, (_, _, federated) in run.WORKLOADS.items():
        files = run.OUTPUT_FILES[federated]
        check = run.federated_problems if federated else run.analyzer_problems
        for seed in SEEDS:
            _, rc, cfg, out_dir = run.run_once(m, workload, seed)
            plain = run.digests(files, out_dir)
            tracer = spans.Tracer()
            _, rc_traced, _, out_dir = run.run_once(m, workload, seed, tracer)
            problems = check(cfg, out_dir)
            if rc or rc_traced or problems or run.digests(files, out_dir) != plain:
                sys.exit(f"{workload} seed {seed}: rc {rc}/{rc_traced}, {problems}, "
                         "or traced outputs differ from untraced ones")
            values, _ = run.layer_values(tracer)
            golden.setdefault(workload, {})[str(seed)] = {
                "digests": plain,
                "counts": {name: values[name] for name in exact},
            }
            print(workload, seed, flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
