"""RPL702 bad fixture: closures captured into pool submissions.

Two distinct capture hazards: a lambda (unpicklable under spawn) and a
function defined inside the submitting scope (same). A live RNG passed
as an argument is refused at run time, by the grid-cell guard in
``repro.experiments.parallel``, not by this rule.
"""

from concurrent.futures import ProcessPoolExecutor


def run_lambda(values):
    with ProcessPoolExecutor() as pool:
        futures = [pool.submit(lambda v: v * 2, v) for v in values]  # RPL702
        return [f.result() for f in futures]


def run_local(values):
    def helper(v):
        return v * 2

    with ProcessPoolExecutor() as pool:
        futures = [pool.submit(helper, v) for v in values]  # RPL702
        return [f.result() for f in futures]
