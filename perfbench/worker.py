"""The timed process: one client, one op at a time, no threads.

    python3 perfbench/worker.py SRC WORKLOAD
        Set up once and print the set-up time in seconds.
    python3 perfbench/worker.py SRC WORKLOAD INPUTS SECONDS TRACE TRACE_OUT
        Set up, then run passes of ops read from INPUTS (one JSON line per
        pass, as inputs.py writes them) until SECONDS have passed, and print
        one JSON object with every op's label, latency, outcome and mode,
        and, untraced, the reference kernel's samples.
        With TRACE 1 every pass runs twice, once plain and once with spans,
        alternating which goes first, and the spans go to TRACE_OUT.

Set-up is timed from before ``import gridperms`` to after the workload's
matrices are parsed and run through find_signs; only Python's start-up
modules and the constants in spec.py are loaded before it.  Every op is the
in-process form of one CLI request and calls only functions that
``gridperms/__init__.py`` exports; its answer is checked after the clock
stops, by the benchmark's own code in ``oracle``.

A shared host can change speed by up to 2x within a minute, in wall and CPU
time alike, so untraced runs also time a fixed reference kernel of the
benchmark's own (see Reference) throughout the run.  Each op records its
start and end on the same clock as the samples, and its latency including
the samples that paused it.
"""
import signal
import sys
import time

import spec


def set_up(api, names):
    matrices = {name: api.parse_matrix(spec.MATRICES[name]) for name in names}
    return matrices, {name: api.find_signs(m) for name, m in matrices.items()}


def main(argv: list[str]) -> int:
    src, workload = argv[0], argv[1]
    names = spec.WORKLOAD_MATRICES[workload]
    start = time.perf_counter()
    sys.path.insert(0, src)
    import gridperms

    if len(argv) == 2:
        set_up(Api(gridperms), names)
        print(repr(time.perf_counter() - start))
        return 0
    inputs, seconds, trace, trace_out = argv[2], float(argv[3]), argv[4] == "1", argv[5]
    return run(gridperms, workload, names, inputs, seconds, trace, trace_out)


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, op, note].

    ``parent`` and ``op`` are indices into the span list (-1 for none); an
    op span is its own op.  ``note`` holds what a ratio needs from the
    call's result, or the exception type if the call raised.
    """

    def __init__(self):
        self.spans = []
        self.parent = -1
        self.op = -1

    def open(self, name, note=None) -> int:
        self.spans.append([name, time.perf_counter_ns(), 0, self.parent, self.op, note])
        self.parent = len(self.spans) - 1
        return self.parent

    def open_op(self, name, note=None) -> int:
        self.op = len(self.spans)
        return self.open(name, note)

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        self.parent = span[3]

    def wrap(self, name, fn, note=None):
        def traced(*args):
            index = self.open(name)
            try:
                result = fn(*args)
            except Exception as exc:
                self.spans[index][5] = {"error": type(exc).__name__}
                raise
            finally:
                self.close(index)
            if note is not None:
                self.spans[index][5] = note(args, result)
            return result

        return traced


class Api:
    """The gridperms calls the ops make, each through a span when traced.

    ``counting_sequence`` gets no span of its own: it calls enumerate_class
    once per length through the module global, which the traced passes wrap.
    """

    def __init__(self, g, tracer=None):
        calls = {
            "parse_matrix": ("matrices.GridMatrix.parse", g.GridMatrix.parse, None),
            "find_signs": ("graphs.find_signs", g.find_signs, None),
            "find_gridding": ("gridding.find_gridding", g.find_gridding,
                              lambda args, result: result is not None),
            "counting_sequence": (None, g.counting_sequence, None),
            "enumerate_via_words": ("enumeration.enumerate_via_words", g.enumerate_via_words,
                                    lambda args, result: [args[2], len(result)]),
            "encode": ("codec.encode", g.encode, None),
            "decode": ("codec.decode", g.decode, None),
            "parse_perm": ("perms.Permutation.parse", g.Permutation.parse, None),
            "parse_gridding": ("gridding.Gridding.parse", g.Gridding.parse, None),
            "gridded": ("gridding.GriddedPermutation", g.GriddedPermutation, None),
            "contains": ("perms.contains", g.contains, None),
        }
        for attribute, (span, fn, note) in calls.items():
            traced = tracer is not None and span is not None
            setattr(self, attribute, tracer.wrap(span, fn, note) if traced else fn)


class Reference:
    """Times the reference kernel every spec.REFERENCE_EVERY_S, from a
    SIGALRM handler, so that samples fall inside long ops as well as
    between short ones.

    Python runs the handler in this thread between bytecodes, so a sample
    that ends inside an op ran entirely inside it and paused it.
    ``samples`` holds [end_ns, duration_ns] pairs on the perf_counter_ns
    clock, one run of the kernel each.
    """

    def __init__(self, oracle):
        matrix = oracle.Matrix(spec.MATRICES["DEMO"])
        self.run = lambda: oracle.is_member(matrix, spec.REFERENCE_PERM)
        self.samples = []
        for _ in range(spec.REFERENCE_WARMUP):
            self.run()
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, spec.REFERENCE_EVERY_S, spec.REFERENCE_EVERY_S)

    def sample(self, *_) -> None:
        began = time.perf_counter_ns()
        self.run()
        ended = time.perf_counter_ns()
        self.samples.append([ended, ended - began])

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


# Each workload is (prepare, op, check).  prepare turns one generated input
# into program objects before the clock starts; op is the timed request;
# check decides, after the clock stops, whether op's answer is right.

def prepare_membership(ctx, raw):
    raw["perm"] = ctx.g.Permutation(tuple(raw["entries"]))
    raw["label"] = f"{raw['matrix']}/n={raw['n']}/{raw['kind']}"
    return raw


def op_membership(api, ctx, item):
    return api.find_gridding(item["perm"], ctx.matrices[item["matrix"]])


def check_membership(ctx, item, gridding):
    if item["kind"] == "nonmember":
        return gridding is None
    return gridding is not None and ctx.oracle.valid_gridding(
        ctx.own[item["matrix"]], item["entries"], gridding.cols, gridding.rows)


def prepare_sweep(ctx, raw):
    raw["label"] = f"{raw['matrix']}/n_max={raw['n_max']}"
    return raw


def op_sweep(api, ctx, item):
    name, n_max = item["matrix"], item["n_max"]
    m, signs = ctx.matrices[name], ctx.signs[name]
    counts = api.counting_sequence(m, n_max)
    images = tuple(len(api.enumerate_via_words(m, signs, n)) for n in range(1, n_max + 1))
    return counts, images


def check_sweep(ctx, item, result):
    counts, images = result
    expected = spec.COUNTS[item["matrix"]][: item["n_max"]]
    return tuple(counts) == expected and images == expected


def prepare_codec(ctx, raw):
    name, cut = raw["matrix"], raw["delete"]
    own = ctx.own[name]
    word = tuple(own.letters[int(digit)] for digit in raw["word"])
    shorter = ctx.oracle.encode(own, *ctx.own_signs[name], word[:cut] + word[cut + 1:])[0]
    raw["letters"] = word
    raw["sigma"] = ctx.g.Permutation(tuple(shorter))
    raw["label"] = f"{name}/n={len(word)}"
    return raw


def op_codec(api, ctx, item):
    name = item["matrix"]
    m, signs = ctx.matrices[name], ctx.signs[name]
    gp = api.encode(m, signs, item["letters"])
    # the two arguments `gridperms encode` prints and `gridperms decode` reads
    perm_text, gridding_text = str(gp.perm), gp.gridding.format()
    parsed = api.gridded(api.parse_perm(perm_text), m, api.parse_gridding(gridding_text))
    again = api.encode(m, signs, api.decode(parsed, signs))
    return gp, again, api.contains(gp.perm, item["sigma"])


def check_codec(ctx, item, result):
    gp, again, contained = result
    name = item["matrix"]
    entries, cols, rows = ctx.oracle.encode(ctx.own[name], *ctx.own_signs[name], item["letters"])
    return (
        contained is True
        and again == gp
        and gp.perm.entries == tuple(entries)
        and gp.gridding.cols == tuple(cols)
        and gp.gridding.rows == tuple(rows)
    )


WORKLOADS = {
    "membership": (prepare_membership, op_membership, check_membership),
    "sweep": (prepare_sweep, op_sweep, check_sweep),
    "codec": (prepare_codec, op_codec, check_codec),
}


def run(g, workload, names, inputs, seconds, trace, trace_out) -> int:
    import json
    import resource
    from types import SimpleNamespace

    import oracle

    tracer = Tracer() if trace else None
    plain = Api(g)
    traced = Api(g, tracer) if trace else None
    if trace:
        tracer.open_op("setup")
    matrices, signs = set_up(traced or plain, names)
    if trace:
        tracer.close(tracer.op)
        enumerate_class = g.enumeration.enumerate_class
        traced_enumerate_class = tracer.wrap(
            "enumeration.enumerate_class", enumerate_class,
            lambda args, result: [args[1], len(result)])
    own = {name: oracle.Matrix(spec.MATRICES[name]) for name in names}
    ctx = SimpleNamespace(g=g, matrices=matrices, signs=signs, oracle=oracle, own=own,
                          own_signs={name: oracle.signs(m) for name, m in own.items()})
    setup_ok = all(
        (signs[name].col_signs, signs[name].row_signs) == ctx.own_signs[name] for name in names
    )
    prepare, op, check = WORKLOADS[workload]
    log, failures, passes, repeats, wrapped = [], [], 0, 0, False
    reference = None if trace else Reference(oracle)
    start = time.perf_counter()
    with open(inputs, encoding="utf-8") as source:
        while True:
            line = source.readline()
            if not line:
                wrapped = True
                source.seek(0)
                line = source.readline()
            items = [prepare(ctx, raw) for raw in json.loads(line)]
            repeats += len(items) if wrapped else 0
            modes = ((False,) if not trace
                     else (False, True) if passes % 2 == 0 else (True, False))
            for traced_mode in modes:
                api = traced if traced_mode else plain
                if trace:
                    g.enumeration.enumerate_class = (
                        traced_enumerate_class if traced_mode else enumerate_class)
                for item in items:
                    if traced_mode:
                        tracer.open_op("op", {key: item.get(key)
                                              for key in ("label", "matrix", "kind")})
                    began = time.perf_counter_ns()
                    try:
                        result = op(api, ctx, item)
                    except Exception as exc:
                        result = exc
                    ended = time.perf_counter_ns()
                    if traced_mode:
                        tracer.close(tracer.op)
                    try:
                        ok = not isinstance(result, Exception) and check(ctx, item, result)
                    except Exception as exc:
                        ok, result = False, exc
                    if not ok and len(failures) < 5:
                        failures.append(f"{item['label']}: {result!r}"[:300])
                    log.append([item["label"], ended - began, ok, traced_mode, began, ended])
            passes += 1
            if time.perf_counter() - start >= seconds and len(log) >= spec.MIN_OPS:
                break
    if reference:
        reference.stop()
    if trace:
        g.enumeration.enumerate_class = enumerate_class
        with open(trace_out, "w", encoding="utf-8") as out:
            json.dump(tracer.spans, out, separators=(",", ":"))
    print(json.dumps({
        "setup_ok": setup_ok,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": passes,
        "repeats": repeats,
        "failures": failures,
        "ops": log,
        "refs": reference.samples if reference else [],
    }, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
