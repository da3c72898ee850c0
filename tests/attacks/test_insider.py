"""Tests for repro.attacks.insider — Section 5.2 pollution traffic."""

import numpy as np
import pytest

from repro.attacks.insider import InsiderAttack
from repro.core.bitmap_filter import BitmapFilter
from repro.core.parameters import insider_utilization_increase


@pytest.fixture()
def attacker(protected):
    return protected.networks[0].host(10)


class TestGeneration:
    def test_outgoing_from_attacker(self, protected, attacker):
        attack = InsiderAttack(attacker, rate_pps=100.0, start=0.0, duration=10.0)
        pkts = attack.generate(protected)
        assert len(pkts) == 1000
        assert bool(np.all(pkts.src == attacker))
        directions = pkts.directions(protected)
        assert bool(np.all(directions == 0))  # all outgoing

    def test_random_destinations_outside(self, protected, attacker):
        attack = InsiderAttack(attacker, rate_pps=200.0, start=0.0, duration=5.0)
        pkts = attack.generate(protected)
        assert len(np.unique(pkts.dst)) > 950
        for dst in np.unique(pkts.dst)[:500]:
            assert not protected.contains_int(int(dst))

    def test_attacker_must_be_inside(self, protected):
        attack = InsiderAttack(0x01010101, rate_pps=10.0, start=0.0, duration=1.0)
        with pytest.raises(ValueError):
            attack.generate(protected)

    def test_validation(self, attacker):
        with pytest.raises(ValueError):
            InsiderAttack(attacker, rate_pps=0.0, start=0.0, duration=1.0)


class TestPollutionEffect:
    def test_utilization_increase_matches_formula(self, protected, attacker, small_config):
        """Section 5.2: dU ~= m*r*Te / 2^n."""
        rate = 50.0
        attack = InsiderAttack(attacker, rate_pps=rate, start=0.0, duration=60.0)
        pkts = attack.generate(protected)
        filt = BitmapFilter(small_config, protected)
        filt.process_batch(pkts)
        measured = filt.utilization()
        predicted = insider_utilization_increase(
            rate, small_config.num_hashes, small_config.order,
            small_config.expiry_timer,
        )
        # The formula ignores collisions and rotation phase; 2x band.
        assert predicted / 2.5 < measured < predicted * 1.5

    def test_pollution_raises_penetration(self, protected, attacker, small_config):
        """Polluted bitmaps pass more random probes than clean ones."""
        from repro.attacks.scanner import RandomScanAttack, ScanConfig

        probes = RandomScanAttack(
            ScanConfig(rate_pps=2000.0, start=61.0, duration=10.0, seed=8),
            protected,
        ).generate()

        clean = BitmapFilter(small_config, protected)
        clean_pass = int(clean.process_batch(probes).sum())

        polluted = BitmapFilter(small_config, protected)
        pollution = InsiderAttack(attacker, rate_pps=300.0, start=0.0,
                                  duration=60.0).generate(protected)
        polluted.process_batch(pollution)
        polluted_pass = int(polluted.process_batch(probes).sum())
        assert polluted_pass > clean_pass
