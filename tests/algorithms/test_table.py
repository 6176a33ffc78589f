"""The one algorithm table (`repro.algorithms.ALGORITHMS`) and its readers."""

import inspect

from repro.algorithms import ALGORITHMS, algorithm_module
from repro.cli import build_parser
from repro.serve.api import SERVABLE_ALGORITHMS


def test_every_settable_param_is_a_build_job_parameter():
    for name, entry in ALGORITHMS.items():
        signature = inspect.signature(algorithm_module(name).build_job)
        named = {
            param.name for param in signature.parameters.values()
            if param.kind is not inspect.Parameter.VAR_KEYWORD
        }
        assert set(entry.params) <= named, name


def test_cli_and_serve_read_the_same_rows():
    parser = build_parser()
    for name in ALGORITHMS:
        assert parser.parse_args(["run", name, "--input", "x"]).algorithm == name
    assert SERVABLE_ALGORITHMS == {
        name: (entry.module, entry.params)
        for name, entry in ALGORITHMS.items()
        if entry.servable
    }
    # The drift this table replaced: two rows the CLI copy had lost.
    assert SERVABLE_ALGORITHMS["reachability"][1] == ("sources",)
    assert SERVABLE_ALGORITHMS["bfs-tree"][1] == ("root",)
