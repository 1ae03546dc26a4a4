"""The input contract of every public entry point, as one table.

Each row calls one public function (or one test-local entry from LOCAL,
which names what the package computes inline) with one bad input (or a combination of
two, which pins the order in which the checks run) and names the exact error
class and message it raises, or None when the input is accepted. Every
function that takes a partition accepts only a Partition: a plain tuple is
rejected first, before any other argument is checked. The rows
describe the package's behaviour at the API boundary only, so they must hold
unchanged whatever the internal code does after validation.
"""

import pytest

import modpart
from modpart import EMPTY, LemmaReport, Partition
from modpart.errors import (
    EmptyPartition,
    MalformedPartition,
    NotPRegular,
    OddPrimeRequired,
    ReconstructionFailure,
)

LAM = Partition((3, 1))  # p-regular for every p
SING = Partition((2, 1, 1, 1))  # 3-singular

BAD_P = [
    (2, "p must be an odd prime >= 3, got 2"),
    (9, "p must be prime, got 9 = 3 * 3"),
    (True, "p must be an integer, got True"),
    (5.0, "p must be an integer, got 5.0"),
]
P9 = (OddPrimeRequired, BAD_P[1][1])
MULL_SING = (NotPRegular, "the Mullineux map is defined on p-regular partitions, got 2,1,1,1 at p=3")
NO_RIM = (EmptyPartition, "cannot remove a p-rim from the empty partition")
NO_LABEL = (EmptyPartition, "labels need a nonempty partition")


def _sing(what):
    return (NotPRegular, f"{what} needs a p-regular partition, got 2,1,1,1 at p=3")


def _residue(i, p):
    return (ValueError, f"residue must satisfy 0 <= i < p, got i={i}, p={p}")


def _not_partition(parts):
    return (MalformedPartition, f"expected a Partition, got tuple {parts!r}; build one with Partition(...)")


# entry: (arguments before p, outcomes for (SING, 3), (EMPTY, 5), (SING, 9),
# (EMPTY, 9)); the operators take a residue before p.
LAM_P = {
    "classify_nodes": ((), (None, None, P9, P9)),
    "node_counts": ((), (None, None, P9, P9)),
    "tilde_e": ((0,), (_sing("tilde_e"), None, P9, P9)),
    "tilde_f": ((0,), (_sing("tilde_f"), None, P9, P9)),
    "is_js": ((), (_sing("is_js"), (EmptyPartition, "is_js needs a nonempty partition"), P9,
                   (EmptyPartition, "is_js needs a nonempty partition"))),
    "is_js_arith": ((), (_sing("is_js_arith"), (EmptyPartition, "is_js_arith needs a nonempty partition"),
                         P9, P9)),
    "is_p_regular": ((), (None, None, P9, P9)),
    "mullineux": ((), (MULL_SING, None, P9, P9)),
    "mullineux_image": ((), (MULL_SING, None, P9, P9)),
    "is_mullineux_fixed": ((), (MULL_SING, None, P9, P9)),
    "canonical_label": ((), (MULL_SING, None, P9, P9)),
    "mullineux_symbol": ((), (MULL_SING, None, P9, P9)),
    "mullineux_via_symbol": ((), (MULL_SING, None, P9, P9)),
    "remove_p_rim": ((), (None, NO_RIM, P9, NO_RIM)),
    "make_label": ((), (MULL_SING, NO_LABEL, P9, NO_LABEL)),
}

# entry: arguments after the partition. A plain tuple is not a Partition,
# whether its parts would pass Partition's checks or not.
TAKES_PARTITION = {
    **{name: (*extra, 5) for name, (extra, _) in LAM_P.items()},
    "attach_p_rim": (2, 2, 5),
    "addable_nodes": (),
    "removable_nodes": (),
    "nu_of": (),
    "conjugate": (),
    "specht_dimension": (),
    "exponent_form": (),
    "format_partition": (),
}


def _canonical_label(lam, p):
    """The stored name of a nonsplit pair, max(lam, M(lam)), as make_label takes it."""
    return max(lam, modpart.mullineux_image(lam, p))


# test-local entries: what the package computes inline rather than exports
LOCAL = {"canonical_label": _canonical_label}


def _rows():
    cases = [(SING, 3, "singular"), (EMPTY, 5, "empty"), (SING, 9, "singular,p=9"), (EMPTY, 9, "empty,p=9")]
    for name, rest in TAKES_PARTITION.items():
        for parts in ((3, 1), (1, 3)):
            yield name, f"tuple{parts}", (parts, *rest), _not_partition(parts)
    yield "classify_nodes", "tuple,p=9", ((3, 1), 9), _not_partition((3, 1))
    for name, (extra, outcomes) in LAM_P.items():
        for p, msg in BAD_P:
            yield name, f"p={p!r}", (LAM, *extra, p), (OddPrimeRequired, msg)
        for (lam, p, label), want in zip(cases, outcomes):
            yield name, label, (lam, *extra, p), want
    for name in ("tilde_e", "tilde_f"):
        for i in (True, 1.5):
            yield name, f"i={i!r}", (LAM, i, 5), (ValueError, f"residue i must be an integer, got {i!r}")
        yield name, "i=1.5,p=9", (LAM, 1.5, 9), P9
        yield name, "singular,i=1.5", (SING, 1.5, 3), (ValueError, "residue i must be an integer, got 1.5")
        yield name, "i=-1", (LAM, -1, 3), _residue(-1, 3)
        yield name, "i=p", (LAM, 3, 3), _residue(3, 3)
        yield name, "i=-1,p=9", (LAM, -1, 9), P9
        yield name, "singular,i=p", (SING, 3, 3), _residue(3, 3)
        yield name, "empty,i=p", (EMPTY, 5, 5), _residue(5, 5)
    choice = (ValueError, "residue_choice must be 'smallest' or 'largest', got 'middle'")
    yield "mullineux", "choice", (LAM, 3, "middle"), choice
    yield "mullineux", "singular,choice", (SING, 3, "middle"), MULL_SING
    yield "mullineux", "p=9,choice", (LAM, 9, "middle"), P9
    # the scan orientation is checked before it keys a cache
    for value in ("bottom-up", None, 0, []):
        orient = (ValueError, f"orientation must be an Orientation, got {value!r}")
        yield "classify_nodes", f"orientation={value!r}", (LAM, 5, value), orient
        for name in ("mullineux", "mullineux_image"):
            yield name, f"orientation={value!r}", (LAM, 5, "smallest", value), orient
    yield "classify_nodes", "p=9,orientation", (LAM, 9, None), P9
    for name in ("mullineux", "mullineux_image"):
        yield name, "choice,orientation", (LAM, 5, "middle", None), choice
        yield name, "singular,orientation", (SING, 3, "smallest", None), MULL_SING
    sign = (ValueError, "sign must be '+' or '-', got 'x'")
    yield "make_label", "sign", (LAM, 3, "x"), sign
    yield "make_label", "p=9,sign", (LAM, 9, "x"), sign
    yield "make_label", "singular,sign", (SING, 3, "+"), MULL_SING
    for value in (True, 1.0):
        yield "make_label", f"sign={value!r}", (LAM, 5, value), (
            ValueError, f"sign must be +1, -1 or None, got {value!r}")
    yield "make_label", "p=9,sign=True", (LAM, 9, True), (ValueError, "sign must be +1, -1 or None, got True")
    for name in ("enumerate_js", "enumerate_partitions"):
        for p, msg in BAD_P:
            yield name, f"p={p!r}", (4, p), (OddPrimeRequired, msg)
        yield name, "n=-1", (-1, 5), (ValueError, "n must be >= 0, got -1")
        yield name, "n=-1,p=9", (-1, 9), P9
        for n in (True, 4.0, -1.0):
            yield name, f"n={n!r}", (n, 5), (ValueError, f"n must be an integer, got {n!r}")
        yield name, "n=4.0,p=9", (4.0, 9), P9
    for p, msg in BAD_P:
        yield "residue", f"p={p!r}", ((1, 2), p), (OddPrimeRequired, msg)
        yield "attach_p_rim", f"p={p!r}", (EMPTY, 2, 2, p), (OddPrimeRequired, msg)
    yield "attach_p_rim", "singular", (Partition((1, 1, 1)), 3, 3, 3), None
    yield "attach_p_rim", "a<r", (EMPTY, 1, 2, 3), (
        ReconstructionFailure, "no partition adds a 3-rim of 1 nodes over 2 rows onto []")
    yield "attach_p_rim", "a<r,p=9", (EMPTY, 1, 2, 9), P9
    for key, value in (("a", True), ("a", 2.0), ("r", True), ("r", 1.0)):
        args = (EMPTY, value, 1, 5) if key == "a" else (EMPTY, 2, value, 5)
        yield "attach_p_rim", f"{key}={value!r}", args, (
            ReconstructionFailure, f"{key} must be an integer, got {value!r}")
    yield "attach_p_rim", "a=2.0,p=9", (EMPTY, 2.0, 2, 9), P9
    yield "attach_p_rim", "a=2.0,r=1.0", (EMPTY, 2.0, 1.0, 5), (ReconstructionFailure, "a must be an integer, got 2.0")
    # keyword arguments of the sweep runners; a dict row is passed as keywords
    for key, value in (("n_min", True), ("n_min", 1.5), ("n_max", 2.5), ("n_max", 40.5), ("cap", True), ("cap", 1.5)):
        name = "counterexample cap" if key == "cap" else key
        yield "run_check", f"{key}={value!r}", {"check_id": "L52", "n_max": 3, key: value}, (
            ValueError, f"{name} must be an integer, got {value!r}")
    yield "run_check", "n_min=1.5,p=9", {"check_id": "L52", "n_min": 1.5, "primes": (9,)}, P9
    for value in (5, "5"):
        yield "run_check", f"primes={value!r}", {"check_id": "L52", "n_max": 3, "primes": value}, (
            ValueError, f"primes must be a tuple of odd primes, got {value!r}")
    yield "run_check", "n_min=-1", {"check_id": "L52", "n_min": -1, "n_max": 3}, (ValueError, "n_min must be >= 0, got -1")
    yield "run_check", "cap=-1", {"check_id": "L52", "n_max": 3, "cap": -1}, (
        ValueError, "counterexample cap must be >= 0, got -1")
    yield "run_check", "n_min=1.5,n_max=-1", {"check_id": "L52", "n_min": 1.5, "n_max": -1}, (
        ValueError, "n_min must be an integer, got 1.5")
    for value in ([], 5, None):
        yield "run_check", f"check_id={value!r}", {"check_id": value}, (
            ValueError, f"check id must be a string, got {value!r}")
    for value in ("L52", 5, True, ["L52", 5]):
        yield "run_all", f"checks={value!r}", {"max_n": 2, "checks": value}, (
            ValueError, f"checks must be a tuple of check ids, got {value!r}")
    yield "run_all", "max_n=1.5,checks='L52'", {"max_n": 1.5, "checks": "L52"}, (
        ValueError, "max_n must be an integer, got 1.5")
    for value in (True, 1.5, -1.5):
        yield "run_all", f"max_n={value!r}", {"max_n": value}, (ValueError, f"max_n must be an integer, got {value!r}")
    yield "run_all", "max_n=1.5,checks=()", {"max_n": 1.5, "checks": ()}, (
        ValueError, "max_n must be an integer, got 1.5")
    yield "run_all", "cap=1.5", {"max_n": 2, "cap": 1.5}, (ValueError, "counterexample cap must be an integer, got 1.5")
    report = LemmaReport("L52", 3, 3, (5,), 1, [{"n": 3}], 1, 0.0)
    for value, want in ((-1, "must be >= 0, got -1"), (1.5, "must be an integer, got 1.5"),
                        (True, "must be an integer, got True")):
        yield "merge_reports", f"cap={value!r}", {"reports": [report], "cap": value}, (
            ValueError, f"counterexample cap {want}")
    yield "merge_reports", "cap=1.5,empty", {"reports": [], "cap": 1.5}, (
        ValueError, "counterexample cap must be an integer, got 1.5")
    for value in (True, 3.5):
        yield "calibration_report", f"n_max={value!r}", {"n_max": value}, (
            ValueError, f"n_max must be an integer, got {value!r}")


ROWS = list(_rows())


@pytest.mark.parametrize("name,label,args,want", ROWS, ids=[f"{r[0]}-{r[1]}" for r in ROWS])
def test_contract(name, label, args, want):
    fn = LOCAL.get(name) or getattr(modpart, name)
    try:
        out = fn(**args) if isinstance(args, dict) else fn(*args)
        if name.startswith("enumerate"):
            list(out)
    except Exception as e:  # the class and message are the assertion
        got = (type(e), str(e))
    else:
        got = None
    assert got == want
