"""Byte-level pin of the simulator's output for every Table 4.1 dataset.

The golden fixtures rebuild one houseA trace, and houseA has only binary
sensors.  This table pins the other half of the simulator — numeric
rendering (ramps, confirmations, held reports, noise, quantisation and the
final stable sort) — on all ten datasets: a change to any sample, its
order or its dtype changes a digest.

The table was produced by ``digest(load_dataset(name, seed, hours=48))``
and must only be regenerated by a change that is meant to alter traces.
The second table pins seed 0 at the lengths the Ch. V protocol generates
(``ProtocolSettings(hours_scale=1.0).scaled_hours(name)``): multi-week
daylight, and hh102's 62 days of schedules.
"""

import hashlib

import pytest

from repro.datasets import ALL_NAMES, load_dataset
from repro.eval.experiments import ProtocolSettings

HOURS = 48.0

#: ``(seed, dataset) -> (events, blake2b-128 of timestamps, device indices
#: and values)``.
DIGESTS = {
    (0, "houseA"): (762, "003e2253bdbc6e1ed67208cb03fc0f9a"),
    (0, "houseB"): (7240, "f411a7ddbbebafec01cd037981cc5944"),
    (0, "houseC"): (11984, "6b84406f8547b91b01ab8d7356276dbb"),
    (0, "twor"): (46544, "f321d1d6ff29db1b08b0194f131a3fab"),
    (0, "hh102"): (18896, "c9fb835bcf538b3545bed56abd19a627"),
    (0, "D_houseA"): (9549, "0a73ba49f6f66b03984c05ba1d8bbfc9"),
    (0, "D_houseB"): (10613, "e482de2258cd69b96ef5e1f13758c0e3"),
    (0, "D_houseC"): (15056, "ff455a692a1f3077d73b98bfc9aea2ba"),
    (0, "D_twor"): (20998, "24f128e7e786e7e3dda7df98735dbfbe"),
    (0, "D_hh102"): (13946, "307afdd4c44a6fe782f85e6af87379a5"),
    (3, "houseA"): (815, "cd77ea7b4aee12944edb1e9874172b05"),
    (3, "houseB"): (8200, "c0796b8fc982df428d4101448595a3c9"),
    (3, "houseC"): (11408, "4f32e94d2f6d2aea3643992461cb426f"),
    (3, "twor"): (47595, "651ab16c4c2bbc4d57553aac8f088621"),
    (3, "hh102"): (18862, "1fac3ce7c05275c3b9e697d04e15184f"),
    (3, "D_houseA"): (9860, "282ff4f0a2b81cfc0d61cade1b3ea215"),
    (3, "D_houseB"): (10828, "e8e0f74134c51fd360d102234e0af0f6"),
    (3, "D_houseC"): (15112, "b316a824ba0d0708508faf98511f3ae4"),
    (3, "D_twor"): (20757, "673a450d4fcf7b9a7c59fdef40f9f945"),
    (3, "D_hh102"): (14092, "c7a620fd3f230ab66323a30b6a35aeaf"),
}

#: ``dataset -> (events, digest)`` at seed 0 and the protocol's full length.
FULL_SCALE_DIGESTS = {
    "houseA": (10414, "633aea4ae75289ce5163d5c24314f7ab"),
    "houseB": (107501, "11ae14d2e6376fbc53fa97877d7fb7d3"),
    "houseC": (121302, "27d1fcbc4f4199303a3961f5372a6616"),
    "twor": (1091146, "63132afd708cc84194aba9baa1b2d09b"),
    "hh102": (596226, "d097629c0b45f1250d512555dbac8e4f"),
    "D_houseA": (131159, "487d87c3f6932bc7b0abb2e8ccb954f7"),
    "D_houseB": (156141, "b78eb0b2cd78a4b70ff2d14747a12bc7"),
    "D_houseC": (167376, "0f1d5f58745d74d125f78d5fe7cf9b07"),
    "D_twor": (537255, "07a1d7898c7f5ac6e414adfbfe02c8f6"),
    "D_hh102": (482421, "c988e738a3c0a34830f964cc99e2409e"),
}

#: ``(seed, dataset, hours, pinned)``: the 48-hour table keeps its
#: ``seed-dataset`` ids; the full-length rows add ``-full``.
CASES = [
    pytest.param(seed, name, HOURS, DIGESTS[(seed, name)], id=f"{seed}-{name}")
    for seed, name in sorted(DIGESTS)
] + [
    pytest.param(
        0,
        name,
        ProtocolSettings(hours_scale=1.0).scaled_hours(name),
        FULL_SCALE_DIGESTS[name],
        id=f"0-{name}-full",
    )
    for name in sorted(FULL_SCALE_DIGESTS)
]


def digest(trace) -> str:
    h = hashlib.blake2b(digest_size=16)
    for array in (trace.timestamps, trace.device_indices, trace.values):
        h.update(array.dtype.str.encode())
        h.update(array.tobytes())
    return h.hexdigest()


def test_table_covers_every_dataset():
    assert {name for _seed, name in DIGESTS} == set(ALL_NAMES)
    assert set(FULL_SCALE_DIGESTS) == set(ALL_NAMES)


@pytest.mark.parametrize("seed, name, hours, pinned", CASES)
def test_generated_trace_matches_pinned_digest(seed, name, hours, pinned):
    trace = load_dataset(name, seed=seed, hours=hours).trace
    assert (len(trace), digest(trace)) == pinned
