"""One measured CLI process: import the CLI, check every pair, report.

    python3 child.py <src dir> <job.json>

The job names the pairs to check (``[problem, proof]`` paths) and whether
to trace.  A job without pairs only measures start-up.  Each pair goes
through ``certkernel.cli.run_one(problem, proof, "check", None,
machine=True, strict=False)``, as ``main`` does it; stdout receives one
JSON object with the monotonic time at which ``import certkernel.cli``
returned, per-pair exit codes, reports and ``run_one`` times, the peak RSS,
the speed samples and, when tracing, the spans.

Speed samples: on a shared machine the same work can take 3 s or 5 s a
minute apart.  So a SIGALRM handler times a fixed pure-Python task that
uses nothing from ``certkernel``: ``POST_IMPORT_SAMPLES`` times right after
the import, then every ``SAMPLE_INTERVAL_S`` of wall time.  The benchmark
scales the set-up time by ``REFERENCE_S`` over the median post-import
sample, and the other times by ``REFERENCE_S`` over the median of all.  Time spent in the
handler (about 1 %) is subtracted from the ``run_one`` times and reported,
so that it can be subtracted from the wall time as well.

Tracing wraps the names each caller looks up (``certkernel.cli``'s parse
functions, ``check``, ``_read`` and ``_machine_record``; the kernel's
``dispatch``; ``TermStore.intern``) and keeps every record in memory until
the end.  A name that is gone raises, so a refactor breaks the trace
loudly instead of reporting zero time.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import certkernel.cli as cli  # noqa: E402

READY = time.monotonic()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

SAMPLE_INTERVAL_S = 0.025
POST_IMPORT_SAMPLES = 10
# Times are reported at the speed at which speed_task() takes this long.
REFERENCE_S = 250e-6

# Layer spans under cli.run_one: (span name, module attribute wrapped).
CLI_SPANS = (
    ("frontend.parse_problem", "parse_dimacs"),
    ("frontend.parse_problem", "parse_smt2"),
    ("frontend.parse_certificate", "parse_certificate"),
    ("kernel.check", "check"),
    ("cli.read", "_read"),
    ("cli.render", "_machine_record"),
)


def speed_task() -> int:
    """Fixed work: hash-consing tuples, formatting and splitting numerals."""
    index = {}
    for i in range(300):
        key = ("k", i % 50, (i * 7) % 31, str(i))
        if index.get(key) is None:
            index[key] = len(index)
    return len(" ".join(str(i) for i in range(120)).split()) + len(index)


class SpeedSampler:
    """Times speed_task() at a fixed wall-clock interval."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self, *_):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        speed_task()
        dt = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.samples.append(dt)
        self.spent += dt

    def start(self):
        for _ in range(3):
            speed_task()  # lets the interpreter specialise it first
        for _ in range(POST_IMPORT_SAMPLES):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def peak_rss_kb() -> int:
    """Peak resident set of this process since exec.

    ``ru_maxrss`` starts from the parent's peak when the process is forked
    from a larger parent, so the kernel's VmHWM is read where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Trace:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.pair = -1
        self.spans = []        # (pair, name, parent, start, end)
        self.dispatch = {}     # rule name -> [calls, seconds, trivially true]
        self.intern_calls = 0
        self.intern_hits = 0
        self.new_nodes = 0

    def install(self):
        from certkernel import TRIVIALLY_TRUE, TermStore, kernel

        for name, attr in CLI_SPANS:
            setattr(cli, attr, self._span(name, getattr(cli, attr)))

        check = cli.check

        def traced_check(store, *args):
            before = len(store)
            try:
                return check(store, *args)
            finally:
                self.new_nodes += len(store) - before
        cli.check = traced_check

        clock = time.perf_counter
        dispatch = kernel.dispatch
        records = self.dispatch

        def traced_dispatch(ctx, rule, premises, payload):
            t0 = clock()
            out = dispatch(ctx, rule, premises, payload)
            dt = clock() - t0
            rec = records.get(rule.value)
            if rec is None:
                rec = records[rule.value] = [0, 0.0, 0]
            rec[0] += 1
            rec[1] += dt
            if out == TRIVIALLY_TRUE:
                rec[2] += 1
            return out
        kernel.dispatch = traced_dispatch

        intern = TermStore.intern

        def traced_intern(store, *args, **kwargs):
            before = len(store)
            out = intern(store, *args, **kwargs)
            self.intern_calls += 1
            if len(store) == before:
                self.intern_hits += 1
            return out
        TermStore.intern = traced_intern

    def _span(self, name, fn):
        if not callable(fn):
            raise TypeError(f"traced name for {name} is not callable")
        clock, spans = time.perf_counter, self.spans

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((self.pair, name, "cli.run_one", t0, clock()))
        return traced

    def report(self) -> dict:
        return {"spans": self.spans, "dispatch": self.dispatch,
                "intern_calls": self.intern_calls, "intern_hits": self.intern_hits,
                "new_nodes": self.new_nodes}


def main() -> int:
    with open(sys.argv[2], encoding="utf-8") as fh:
        job = json.load(fh)
    trace = None
    if job["trace"]:
        trace = Trace()
        trace.install()
    clock = time.perf_counter
    results = []
    sampler = SpeedSampler()
    sampler.start()
    for i, (problem, proof) in enumerate(job["pairs"]):
        if trace is not None:
            trace.pair = i
        spent = sampler.spent
        t0 = clock()
        try:
            code, report = cli.run_one(problem, proof, "check", None,
                                       machine=True, strict=False)
        except Exception as e:  # a traceback is a failed pair, not a crash
            code, report = None, f"raised {type(e).__name__}: {e}"
        t1 = clock()
        if trace is not None:
            trace.spans.append((i, "cli.run_one", None, t0, t1))
        results.append((code, report, t1 - t0 - (sampler.spent - spent)))
    sampler.stop()
    out = {"ready": READY, "results": results, "speed_samples": sampler.samples,
           "post_import_samples": POST_IMPORT_SAMPLES,
           "sampling_s": sampler.spent, "reference_s": REFERENCE_S,
           "maxrss_kb": peak_rss_kb(),
           "trace": trace.report() if trace is not None else None}
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
