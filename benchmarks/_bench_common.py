"""Shared configuration for the benchmark harness.

Every paper table/figure has one benchmark module that (a) regenerates the
artefact — printing the same rows/series the paper reports — and (b)
asserts the qualitative *shape* the paper claims.  Regenerators run once
(``pedantic`` single round): they are end-to-end experiments, not
micro-kernels.  Wall-clock performance is measured by ``bench/run.py``.

``BENCH_SCALE`` trades fidelity for wall-clock; 0.35 keeps the whole
harness to a few minutes while preserving every qualitative shape.
"""

BENCH_SCALE = 0.35

#: Larger scale for the two shapes that only emerge with enough floor
#: (the global-sort STC gap and the CDT memory gap).
SHAPE_SCALE = 0.6


def run_once(benchmark, fn, *args, **kwargs):
    """Run an end-to-end regenerator exactly once under the benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)

