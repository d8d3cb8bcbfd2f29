"""The runtime needs numpy alone: scipy stays a test-only oracle.

Each test reads the import report of the golden set's one run (the
`fresh_run` fixture in `conftest.py`), which needs a fresh interpreter,
because the one running the tests has scipy loaded already.  That
interpreter refuses and records every scipy import, then imports the CLI,
snapshots `sys.modules` and runs all 16 scenarios, the six defaults among
them.
"""


def test_importing_the_cli_loads_no_scipy(fresh_run):
    # attempts are recorded, so a `try: import scipy` guard fails here too
    assert fresh_run[0]["scipy_imports"] == []


def test_importing_the_cli_loads_no_numpy_ma(fresh_run):
    # no code path uses numpy.ma (the latency probe's median is one
    # partition, not np.median), so loading it would only slow the import
    assert fresh_run[0]["numpy_ma"] == []


def test_default_scenarios_run_without_scipy_and_import_nothing_lazily(fresh_run):
    # no numpy or scipy module added over the runs, `--wav-in` reads and
    # 5-192 kHz rates included, so no row imports one lazily
    assert fresh_run[0]["added"] == []
