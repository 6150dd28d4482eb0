"""Pin the default Figure 3, Figure 4 and multi-concern DES runs bit for bit.

The digests below were recorded from the simulator before the manager
refactors that share code between the simulated and the live control
loops.  A change to the manager, the rule engine or the farm ABC that
moves any event mark, detail value or series point by one ulp changes
a digest, so "the DES traces stay identical" is checked, not asserted.
"""

import hashlib

import pytest

from repro.experiments.fig3 import Fig3Config, run_fig3
from repro.experiments.fig4 import Fig4Config, run_fig4
from repro.experiments.multiconcern import MultiConcernConfig, run_multiconcern

FIG3_DIGEST = "43b68616b41c85d27ae65d1594ff26a40a12680253799e18f855568ef3d7e825"
FIG4_DIGEST = "7093a5e1d96bee63d9fe6d15995c06abb3a293dc0194a127a23acb692254d142"
FIG4_GM_DIGEST = "008bcd76abc3c60ee473d6b5c7092d4a9c41c8168153fcf1841b90ff70ca4ed6"
MC_DIGESTS = {
    "two-phase": "4dabf91b89225062f84d616bb678b02b46aeb796929a81315736f617e8a2ea77",
    "naive": "e0befd379b7adfaaf6e5520d617c5b91ca785767b78cac04bf87d96e65db37bf",
}


def _event_tuples(result):
    return [
        (e.time, e.actor, e.name, tuple(sorted((k, str(v)) for k, v in e.detail.items())))
        for e in result.trace.events
    ]


def _digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def test_fig3_default_run_is_pinned():
    result = run_fig3(Fig3Config())
    digest = _digest(
        _event_tuples(result), result.workers_series, result.throughput_series
    )
    assert digest == FIG3_DIGEST


def test_fig4_default_run_is_pinned():
    result = run_fig4(Fig4Config())
    digest = _digest(
        _event_tuples(result), result.cores_series, result.throughput_series
    )
    assert digest == FIG4_DIGEST


def test_fig4_coordinated_run_is_pinned():
    result = run_fig4(Fig4Config(with_coordinator=True))
    digest = _digest(
        _event_tuples(result), result.cores_series, result.throughput_series
    )
    assert digest == FIG4_GM_DIGEST


@pytest.mark.parametrize("mode", sorted(MC_DIGESTS))
def test_multiconcern_run_is_pinned(mode):
    result = run_multiconcern(MultiConcernConfig(mode=mode))
    series = [
        result.trace.series_values(name) for name in ("workers", "throughput", "leaks")
    ]
    assert _digest(_event_tuples(result), *series) == MC_DIGESTS[mode]
