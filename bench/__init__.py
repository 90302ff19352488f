"""The repository's benchmark: how fast the simulator runs, end to end and
by layer.  Run it with ``python3 -m bench``; see ``bench/README.md``."""

#: seconds one run measures; equal to ``run_seconds`` in BENCHMARK.json.
#: Fixed, because a run's length sets how many repeats each op seed gets,
#: and runs of different lengths are not comparable.
RUN_SECONDS = 20
