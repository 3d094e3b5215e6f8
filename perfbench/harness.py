"""Runs a workload script: times, counts and checks every operation.

An operation is one public call or one ``cli.main`` invocation. It is
attempted when called and failed when it raises, when a CLI run exits
non-zero, or when its output fails a check (see ``checks``). A call that
raises leaves nothing for the calls after it, so it ends the iteration.
Outputs are checked after the iteration's clock stops.
"""

import time

import checks
import tracer as tracing
import workloads


class IterationAborted(Exception):
    """An operation raised, so the rest of the iteration cannot run."""


class Runner:
    def __init__(self, workload, data_dir, scratch_dir, references=None):
        self.workload = workload
        self.data_dir = data_dir
        self.scratch_dir = scratch_dir
        self.references = references  # op key -> reference values, or None
        self.tracer = tracing.Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems = []  # (iteration, op key, problem)
        self.first = {}  # op key -> (values, digest) of its first run
        self.iteration = 0
        self._pending = []
        self._samples = None

    def op(self, key, fn, *args, stage=None, fixed_epochs=False, same_as=None,
           csv_dir=None, **kwargs):
        self.attempted += 1
        self.tracer.op_id += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self._fail(key, f"raised {type(exc).__name__}: {exc}")
            raise IterationAborted(key) from exc
        elapsed = time.perf_counter() - start
        if stage in (workloads.SOCIAL, workloads.BASIC):
            self._samples[stage].append(elapsed * 1e3 / max(result[1].epochs_run, 1))
        elif stage is not None:
            self._samples[stage] += elapsed
        budget = args[1].max_epochs if fixed_epochs else None
        self._pending.append((key, result, dict(same_as=same_as, csv_dir=csv_dir,
                                                fixed_epochs=budget)))
        return result

    def check(self, key, result, **options):
        """Check one output; counts the operation as failed on any problem."""
        values, digest, problems = checks.describe(result, **options)
        if key not in self.first:
            self.first[key] = (values, digest)
        elif self.first[key] != (values, digest):
            problems.append("output differs from the same operation's first run")
        if self.references is not None:
            if key in self.references:
                problems.extend(checks.compare_to_reference(values, self.references[key]))
            else:
                problems.append("no reference recorded")
        if problems:
            self._fail(key, "; ".join(problems))

    def _fail(self, key, problem):
        self.failed += 1
        self.problems.append((self.iteration, key, problem))

    def iterate(self, traced=False):
        """Run the script once; returns this iteration's samples."""
        self._samples = {workloads.PREPARE: 0.0, workloads.STUDY: 0.0,
                         workloads.SOCIAL: [], workloads.BASIC: []}
        if traced:
            self.tracer.install()
            root = self.tracer.begin(tracing.ROOT)
        start = time.perf_counter()
        try:
            workloads.run_script(self.workload, self)
            complete = True
        except IterationAborted:
            complete = False
        finally:
            run_s = time.perf_counter() - start
            if traced:
                self.tracer.end(root)
                self.tracer.uninstall()
        samples = dict(self._samples, run_s=run_s, complete=complete, traced=traced)
        if traced:
            samples["spans"] = (root, len(self.tracer.spans))
        pending, self._pending = self._pending, []
        for key, result, options in pending:
            self.check(key, result, **options)
        self.iteration += 1
        return samples
