"""Golden report digests: a change that alters any answer fails here.

The SHA-256 of every pinned report was recorded before the integer
numerator form kernel replaced the per-term Gaussian-rational one; a
pure speedup must leave all of them unchanged.  The whitney, diagram
and gauge digests were recorded later, before a character's harmonic
part became a form; they take about 1.5, 1.1 and 0.3 s and guard the
character and Chern-class layers.  The remaining suites are not pinned,
to keep tier-1 fast.

``SMALL_DIGESTS`` pin ``verify --seed 7`` of the seven seeded suites at
``--cases 2``, and of whitney at ``--cases 1``, where its T^6 share
``max(1, cases // 5)`` takes over: the case streams at the sizes the
benchmark asks for.  They were recorded before the suites became
generators of checks run by one loop in ``run_suite``.
"""

import hashlib
from pathlib import Path

import pytest

from chernforge.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

CONFIG_DIGESTS = {
    ("chern", "example_even", "json"):
        "04ae094c7933df6ef691ad171c9826ddfc93e8c81e074fa8d33dc5532a06b5ee",
    ("chern", "example_even", "text"):
        "12731d38f279c311441d7353990b8d89da77d4470fe1e9bcca4317ef47fbf938",
    ("chern", "example_even", "csv"):
        "282b009316b8aa502703e26eb6d46fbdd95987faada9b2cb8b5745d9dec21953",
    ("odd", "example_odd", "json"):
        "82f1013dc77a39eb559225ee62c6890ab2232cbe9b8e1586cff34b428c1ebc0a",
    ("odd", "example_odd", "text"):
        "0666beac1704ef15a46fc78c5bfc836071bf17548888b9d11d6bf8a05f9194f9",
    ("odd", "example_odd", "csv"):
        "7c1c7a25fa4f93ce2fadaa7385ba8d634ba6d3f64f7f0fcaf6a97bd90b56f80c",
}

VERIFY_DIGESTS = {
    "calculus": "946787a129aa1cc3d8890816420eae536f9559ba8729521236b490cb4f8f9450",
    "diagram": "870eaa4552912088428d69954a66e47a559fd98e726a7862bebe6631d07a1d14",
    "gauge": "7ab8c194823e5db28bbeec8b9cea43635fe764cfdd7c0888dd78cecb440a7b1f",
    "multiplicativity": "3b8f6c916b9efdbe0f8f43b3a4682325a0644c9ae063d1890537f75eb971bbfa",
    "naturality": "3595fdf4aa266d0d825f6daddaaa3954b2beb30ce2a61341b66f16d4486f9ffe",
    "newton": "1b4953124c0a872d0a56954c0314f6253ddfed38aad228d25d7c21ee475a466d",
    "odd": "46d9165413b608fc25b261af502cee372904c27af394ee269afbb30bcb932fe9",
    "paths": "34a341113648287a070f372ce32ee6e30b430c4f2ad4db0b8693dbf5b7625e0e",
    "whitney": "3f8b92d9ff7134156295ec9e1067c95a38133cefbb0b7a74962722e2700b012c",
}

SMALL_DIGESTS = {
    ("calculus", 2): "dedf69bc89bd9ac12b9f04ae7b680710efc86168de451fcd3cb2b958ddfaf18f",
    ("diagram", 2): "baca3fdf6b93ff86c03e89b3339f8716e5ff2bd6acda5cb9d7260a9b46b622f1",
    ("gauge", 2): "9071940b3b8f653dbc944e73c9a83b849e82e953e6eb912a99c266ccedbf4a29",
    ("naturality", 2): "9c01b6b32d10ac98762503cbe32cc46859920e2689d9e339a9618430977a640a",
    ("odd", 2): "330d2a9340a1d5421b4754492cd3b2e2f691a8b1fa58b2af87a1baa997500cfd",
    ("paths", 2): "8abff9b1af8315004502b85afd0270ea591d93cde01e6fa897cfcef1d9b6a59a",
    ("whitney", 1): "6fa5bc5d937e48346b01b00737d218c4ae62cb3e137bc294de8ffb6ce6a651c2",
    ("whitney", 2): "39655690feea4f036c39d596264600e9581672a2076a0bbb1c94543e835b06b0",
}


def _digest(argv, capsys) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command,config,fmt", sorted(CONFIG_DIGESTS))
def test_config_report_digest(command, config, fmt, capsys):
    argv = [command, "--config", str(SCRIPTS / f"{config}.cfg"), "--format", fmt]
    assert _digest(argv, capsys) == CONFIG_DIGESTS[(command, config, fmt)]


@pytest.mark.parametrize("suite", sorted(VERIFY_DIGESTS))
def test_verify_report_digest(suite, capsys):
    argv = ["verify", "--suite", suite, "--seed", "42", "--format", "json"]
    assert _digest(argv, capsys) == VERIFY_DIGESTS[suite]


@pytest.mark.parametrize("suite,cases", sorted(SMALL_DIGESTS))
def test_small_verify_report_digest(suite, cases, capsys):
    argv = ["verify", "--suite", suite, "--seed", "7", "--cases", str(cases),
            "--format", "json"]
    assert _digest(argv, capsys) == SMALL_DIGESTS[(suite, cases)]
