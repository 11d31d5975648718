"""Record the reference values that run.py checks jobs against.

    python3 bench/record_reference.py

Runs the inputs of the first JOBS jobs of a seed-0 run of every workload
once, untraced, and writes the values each produced (iteration counts, final
objective, gap and dist_w per algorithm; plateau levels per rho) to
reference.json.  Jobs must pass every other output check to be recorded.
Re-record only when a change is meant to alter these values, and say why.
"""

import json
import shutil
import sys

import run
import workloads

# jobs of a seed-0 run whose inputs are recorded
JOBS = 32


def main():
    sys.path.insert(0, str(run.SRC))
    env = run.child_env()
    work_dir = run.WORK / "reference"
    reference = {}
    try:
        for name in workloads.WORKLOADS:
            keys = sorted({workloads.input_key(name, 0, i) for i in range(JOBS)})
            values_by_key = {}
            for key in keys:
                job = workloads.prepare(name, key, work_dir / str(key))
                done = run.run_job(job, env)
                problems, values = workloads.check(job, done.returncode, done.stderr)
                if problems:
                    print(f"{name} input {key}: {problems}", file=sys.stderr)
                    return 1
                values_by_key[str(key)] = values
                shutil.rmtree(job.dir)
            reference[name] = values_by_key
            print(f"{name}: {len(keys)} inputs recorded")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(workloads.REFERENCE_VALUES, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
