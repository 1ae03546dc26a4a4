"""Fuzzed input contract of every public function and of the command line.

API: each function in modpart.__all__ (found with inspect, so a new public
function is fuzzed without editing this file) is called with valid arguments
except one, replaced by a bad value. The call must return a value (a
generator is consumed for up to 50 items) or raise a ModpartError.

CLI: argv is drawn per subcommand from its options and a pool of good and bad
tokens. main(argv) must return 0, 1 or 2 (argparse's usage exit counts), and
stderr must never hold a traceback. verify and report always get a small
--max-n, and --n never gets a huge value (enumerate and js would print
without end); the default sweeps have their own tests.

The number of examples comes from the hypothesis profile, never from the
decorators: tier-1 runs the default profile, and CI runs this file again
under the "fuzz-deep" profile (tests/conftest.py), ten times as many
examples. Both are derandomized.
"""

import inspect
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import modpart
from modpart import EMPTY, LemmaReport, Partition, make_label
from modpart.cli import main
from modpart.errors import ModpartError

LAM = Partition((3, 1))
LABEL = make_label(LAM, 5)

# One valid value per parameter name; a function whose parameter is missing
# here fails test_every_parameter_has_a_valid_value.
VALID = {
    "lam": LAM,
    "mu": EMPTY,
    "a": 2,
    "r": 2,
    "p": 5,
    "i": 1,
    "n": 6,
    "n_min": 1,
    "n_max": 4,
    "max_n": 4,
    "cap": 3,
    "check_id": "L52",
    "checks": ("L52",),
    "primes": (5,),
    "fixed_only": True,
    "regular_only": False,
    "exponents": False,
    "sign": None,
    "d1": LABEL,
    "d2": LABEL,
    "label": LABEL,
    "node": (1, 2),
    "text": "3,1",
    "reports": [LemmaReport("L52", 3, 3, (5,), 1, [], 0, 0.0)],
}

BAD = [
    None, True, False, -1, -7, 1.5, math.nan, "x", "3,1", (), (3, 1), [], [3, 1],
    Partition((2, 2, 2, 2, 2)),  # p-singular at p = 3 and p = 5
    EMPTY, object(),
]
# only where the valid value is an int: 2**61 - 1 is a prime far above the
# bound on p
HUGE = [10**18, 2**61 - 1]

# The one known escape: a Mullineux chain deeper than the recursion's frame
# budget raises RecursionError (ROADMAP item 1, the recursion as a loop).
# The first fixed-point candidate of a huge n is the one-row partition (n).
KNOWN_ESCAPES = [("enumerate_js", "n", value) for value in HUGE]


def _public_functions():
    return {name: getattr(modpart, name) for name in modpart.__all__ if inspect.isfunction(getattr(modpart, name))}


def _parameters(fn):
    # private keywords (a run's signature cache) are not part of the contract
    return [q for q in inspect.signature(fn).parameters.values() if not q.name.startswith("_")]


def _draws():
    for name, fn in _public_functions().items():
        for param in _parameters(fn):
            valid = VALID[param.name]
            pool = BAD + (HUGE if type(valid) is int else [])
            for value in pool:
                yield name, param.name, value


DRAWS = list(_draws())


def _call(name, replaced, value):
    fn = getattr(modpart, name)
    args, kwargs = [], {}
    for param in _parameters(fn):
        arg = value if param.name == replaced else VALID[param.name]
        if param.kind is param.KEYWORD_ONLY:
            kwargs[param.name] = arg
        else:
            args.append(arg)
    out = fn(*args, **kwargs)
    if inspect.isgenerator(out):
        out = list(islice(out, 50))
    return out


def _value_or_modpart_error(name, replaced, value):
    try:
        _call(name, replaced, value)
    except ModpartError:
        pass


def test_every_parameter_has_a_valid_value():
    names = {q.name for fn in _public_functions().values() for q in _parameters(fn)}
    assert names <= set(VALID)


@pytest.mark.parametrize("name", sorted(_public_functions()))
def test_valid_arguments_give_a_value(name):
    # the baseline every fuzzed call departs from
    _call(name, None, None)


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(DRAWS))
def test_one_bad_argument_gives_a_value_or_a_named_error(draw):
    name, replaced, value = draw
    if draw in KNOWN_ESCAPES:
        with pytest.raises(RecursionError):
            _call(name, replaced, value)
    else:
        _value_or_modpart_error(name, replaced, value)


@pytest.mark.xfail(strict=True, raises=RecursionError, reason="ROADMAP item 1: the Mullineux recursion as a loop")
@pytest.mark.parametrize("name,replaced,value", KNOWN_ESCAPES, ids=[f"{d[0]}-{d[1]}={d[2]}" for d in KNOWN_ESCAPES])
def test_known_escape(name, replaced, value):
    try:
        _value_or_modpart_error(name, replaced, value)
    except RecursionError as e:
        # raised afresh without its thousand frames, which pytest would spend
        # seconds formatting
        raise RecursionError(str(e)) from None


PARTITIONS = ["8,2", "3,1", "[]", "2,2,2,2,2", "4^3,1^2", "1,2", "0", "x", "", "1500"]
PRIMES = ["5", "3", "7", "9", "2", "-1", "x", "2305843009213693951"]
SMALL_N = ["0", "4", "7", "-1", "x", "1.5"]
MAX_N = ["0", "2", "3", "5", "-1", "x"]

# subcommand -> (positional pool or None, {option: value pool, or None for a
# flag}, options that are always given)
COMMANDS = {
    "mull": (PARTITIONS, {"--p": PRIMES, "--json": None}, ()),
    "nodes": (PARTITIONS, {"--p": PRIMES, "--json": None}, ()),
    "js": (None, {"--n": SMALL_N, "--p": PRIMES, "--fixed-only": None, "--json": None}, ()),
    "classify": (None, {"--split": PARTITIONS, "--sign": ["+", "-", "x"], "--nonsplit": PARTITIONS,
                        "--p": PRIMES, "--json": None}, ()),
    "enumerate": (None, {"--n": SMALL_N, "--p": PRIMES, "--regular-only": None, "--dims": None,
                         "--json": None}, ()),
    "verify": (None, {"--max-n": MAX_N, "--checks": ["L52", "L52,JSEQ", "MULLX", "NOPE", ",", ""],
                      "--cap": ["0", "3", "-1", "x"], "--json": None}, ("--max-n",)),
    "report": (None, {"--max-n": MAX_N, "--cap": ["0", "3", "-1", "x"]}, ("--max-n",)),
}
JUNK = ["--bogus", "extra", "--p"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positional, options, required = COMMANDS[command]
    argv = [command]
    if positional is not None:
        argv.append(draw(st.sampled_from(positional)))
    for option, pool in options.items():
        if option in required or draw(st.booleans()):
            argv.append(option)
            if pool is not None:
                argv.append(draw(st.sampled_from(pool)))
    if draw(st.booleans()):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(JUNK)))
    return argv


@settings(derandomize=True, deadline=None)
@given(argvs())
def test_cli_exits_0_1_or_2_without_a_traceback(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
