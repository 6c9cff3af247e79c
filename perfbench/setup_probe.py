"""Time one set-up of an in-process workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED SRC_DIR

The seeded plain inputs are drawn first; the clock then covers
`import bgcert` and building the program's input objects, which is what the
in-process workloads do before their first timed operation. Prints seconds.
"""

import sys
import time

import inputs


def main() -> None:
    workload, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    if workload == "certify-sweep":
        cases, build = inputs.certify_cases(seed), inputs.build_certify_inputs
    else:
        cases, build = inputs.tilt_cases(seed), inputs.build_tilt_inputs
    sys.path.insert(0, src)
    start = time.perf_counter()
    import bgcert

    build(bgcert, cases)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
