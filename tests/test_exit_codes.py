"""The command line's exit-code contract, fuzzed in-process.

Whatever the argv, ``bridgelab`` exits 0 (success), 1 (a check failed),
2 (usage error) or 3 (numerical failure), never with a traceback, and an
exit 2 or 3 leaves no output behind. Each example starts from a tiny valid
command and appends one or two options with hostile values, on the command
line or in a --config file. ``python -m bridgelab`` passes the code through.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bridgelab
from bridgelab.cli import _iter_parsers, build_parser, main
from bridgelab.model import ModelConfig, init, save_parameters
from bridgelab.numerics import RngStream

# Values that name paths are resolved inside each example's temporary directory.
# <params> holds a tiny model for the default gaussian_shift task (D=2);
# <wrong-width> is a valid params file whose model has D=3.
_PARAMS, _WRONG_WIDTH = "<params>", "<wrong-width>"
_MISSING, _DIRECTORY, _MALFORMED = "<missing>", "<directory>", "<malformed-json>"
_HOSTILE = ["", "0", "-1", "nan", "inf", "1e308", "abc", _MISSING, _DIRECTORY, _MALFORMED,
            _WRONG_WIDTH]
# An array size no address space holds, which numpy refuses without touching
# memory. Only flags that size an array get it: a step count this large would
# not fail, it would run for years.
_UNALLOCATABLE = "1000000000000000"
_SIZE_FLAGS = {"--runs", "--batch-size", "--hidden", "--N", "--mc", "--dim"}

# Tiny valid commands, as (command words, options): each runs in milliseconds.
_BASE = {
    "train": (
        ["train"],
        {"--steps": "3", "--batch-size": "4", "--hidden": "4", "--log-every": "1", "--seed": "1"},
    ),
    "sample": (["sample"], {"--params": _PARAMS, "--runs": "4", "--N": "4", "--seed": "1"}),
    "ablate": (
        ["ablate"],
        {"--axis": "gamma", "--values": "1,2", "--steps": "3", "--batch-size": "4",
         "--hidden": "4", "--runs": "4", "--N": "4", "--seed": "1"},
    ),
    "profile": (["profile"], {"--grid": "0:0.9:5"}),
    "verify": (["verify"], {"--suite": "schedules", "--mc": "4", "--seed": "1"}),
    "schedule": (["schedule", "dump"], {"--N": "4"}),
}

# Each command's options that take a value, as its parser declares them (an
# option with nargs 0, such as a switch or --help, takes none).
_PARSERS = {parser.prog: parser for parser in _iter_parsers(build_parser())}
_FLAGS = {
    command: [
        action.option_strings[0]
        for action in _PARSERS[" ".join(["bridgelab", *words])]._actions  # noqa: SLF001
        if action.option_strings and action.nargs != 0
    ]
    for command, (words, _) in _BASE.items()
}


def _write_params(path: str, input_dim: int) -> None:
    config = ModelConfig(input_dim=input_dim, hidden=(4,))
    save_parameters(path, config, init(config, RngStream(seed=0)), "velocity")


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(sorted(_BASE)))
    options = draw(
        st.lists(
            st.sampled_from(_FLAGS[command]).flatmap(
                lambda flag: st.tuples(
                    st.just(flag),
                    st.sampled_from(_HOSTILE + [_UNALLOCATABLE] if flag in _SIZE_FLAGS else _HOSTILE),
                )
            ),
            min_size=1,
            max_size=2,
        )
    )
    in_config = draw(st.booleans())
    return command, options, in_config


def _run(argv: list[str], cwd: str) -> tuple[object, str]:
    """Exit code and stderr of ``bridgelab argv`` run in ``cwd``, where an empty
    --out-dir writes. Any exception other than SystemExit propagates: it is
    the traceback a user would see."""
    err = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.callback(os.chdir, os.getcwd())
        os.chdir(cwd)
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@given(_invocations())
@example(("sample", [("--params", _WRONG_WIDTH)], False))
@example(("sample", [("--params", _WRONG_WIDTH)], True))
@settings(max_examples=250, deadline=None, derandomize=True)
def test_exit_code_contract(invocation):
    command, options, in_config = invocation
    with tempfile.TemporaryDirectory() as workdir:
        paths = {
            _MISSING: os.path.join(workdir, "missing", "file"),
            _DIRECTORY: os.path.join(workdir, "directory"),
            _MALFORMED: os.path.join(workdir, "malformed.json"),
            _PARAMS: os.path.join(workdir, "params.bin"),
            _WRONG_WIDTH: os.path.join(workdir, "wrong-width.bin"),
        }
        os.mkdir(paths[_DIRECTORY])
        _write_params(paths[_PARAMS], 2)
        _write_params(paths[_WRONG_WIDTH], 3)
        with open(paths[_MALFORMED], "w", encoding="utf-8") as fh:
            fh.write("{not json")
        words, base = _BASE[command]
        base = {flag: paths.get(value, value) for flag, value in base.items()}
        base = {**base, "--out-dir": os.path.join(workdir, "out")}
        hostile = [(flag, paths.get(value, value)) for flag, value in options]
        if in_config:
            # Config values are only defaults, so the base options they set are dropped.
            config = os.path.join(workdir, "config.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump({flag[2:]: value for flag, value in hostile}, fh)
            kept = [item for flag, value in base.items() if flag not in dict(hostile)
                    for item in (flag, value)]
            argv = ["--config", config, *words, *kept]
        else:
            argv = [*words, *(item for option in [*base.items(), *hostile] for item in option)]
        before = sorted(os.listdir(workdir)) + sorted(os.listdir(paths[_DIRECTORY]))

        code, err = _run(argv, workdir)

        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        if code in (2, 3):
            after = sorted(os.listdir(workdir)) + sorted(os.listdir(paths[_DIRECTORY]))
            assert after == before, (argv, err)


@pytest.mark.parametrize(
    "argv,code",
    [
        (["schedule", "dump", "--N", "2", "--out-dir", "D"], 0),
        (["verify", "--suite", "schedules", "--mc", "4", "--override", "boundary_exactness=-1"], 1),
        (["sample", "--oracle"], 2),
    ],
    ids=["ok", "check-failed", "usage-no-seed"],
)
def test_module_entry_point_passes_exit_code(tmp_path, argv, code):
    """``python -m bridgelab`` in a fresh interpreter exits with main's code, never a traceback."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(bridgelab.__file__)))
    done = subprocess.run([sys.executable, "-m", "bridgelab", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
