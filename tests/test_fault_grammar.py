"""Differential corpus for the fault-plan spec grammar.

``FaultPlan`` and ``NetworkFaultPlan`` parse the same
``kind@time[:arg...]`` grammar.  Each corpus entry pins, byte for byte,
what a spec renders to (``describe()``, ``to_spec()``, the plan's
seed) or the exact error it raises, covering every error branch and
``random:`` entries; the seeded ``random()`` campaigns are pinned for
seeds 0-9, because their draw order is the reproducibility contract.
"""

import pytest

from repro.errors import ConfigurationError
from repro.faults.network import NetworkFaultPlan
from repro.faults.plan import FaultPlan

# A valid spec maps to (describe, to_spec, seed); an invalid one to the
# exact ConfigurationError text.
FAULT_CORPUS = [
    ('',
     ('',
      '',
      None)),
    (' ; ,',
     ('',
      '',
      None)),
    ('meter-dropout@5',
     ('meter-dropout@5:2',
      'meter-dropout@5.0:2.0',
      None)),
    ('meter-dropout@5:3;pid-exit@4',
     ('pid-exit@4:0;meter-dropout@5:3',
      'pid-exit@4.0:0;meter-dropout@5.0:3.0',
      None)),
    ('pid-exit@2:1, starve@1:2.5:3 ; hpc-loss@0.1',
     ('hpc-loss@0.1:1;starve@1:2.5:3;pid-exit@2:1',
      'hpc-loss@0.1:1.0;starve@1.0:2.5:3;pid-exit@2.0:1',
      None)),
    ('starve@3;hpc-loss@7:0.30000000000000004',
     ('starve@3:2:0;hpc-loss@7:0.3',
      'starve@3.0:2.0:0;hpc-loss@7.0:0.30000000000000004',
      None)),
    ('crash@1.25:formula-0;meter-dropout@1.25:0.1',
     ('crash@1.25:formula-0;meter-dropout@1.25:0.1',
      'crash@1.25:formula-0;meter-dropout@1.25:0.1',
      None)),
    ('meter-dropout@1e-7:123456.789',
     ('meter-dropout@1e-07:123457',
      'meter-dropout@1e-07:123456.789',
      None)),
    ('random:7',
     ('pid-exit@10.2:0;meter-dropout@18:3.7;meter-dropout@21.6:1.7;'
      'hpc-loss@22.7:2.6;starve@24:2:0',
      'pid-exit@10.2:0;meter-dropout@18.0:3.7;meter-dropout@21.6:1.7;'
      'hpc-loss@22.7:2.6;starve@24.0:2.0:0',
      7)),
    ('random:3:12.5;crash@0:sensor',
     ('crash@0:sensor;meter-dropout@2.1:1.7;pid-exit@2.2:0;'
      'hpc-loss@2.8:2.5;starve@5.6:3.4:0;meter-dropout@9.3:2.7',
      'crash@0.0:sensor;meter-dropout@2.1:1.7;pid-exit@2.2:0;'
      'hpc-loss@2.8:2.5;starve@5.6:3.4:0;meter-dropout@9.3:2.7',
      3)),
    ('meter-dropout@x',
     "bad fault entry 'meter-dropout@x' at position 0: invalid time 'x'"),
    ('meter-dropout@1:x',
     "bad fault entry 'meter-dropout@1:x' at position 0: invalid down "
     "duration 'x'"),
    ('meter-dropout@1:2:3',
     "bad fault entry 'meter-dropout@1:2:3' at position 0: unexpected "
     "argument '3'"),
    ('pid-exit@1:1.5',
     "bad fault entry 'pid-exit@1:1.5' at position 0: invalid pid index "
     "'1.5'"),
    ('pid-exit@1:0:9',
     "bad fault entry 'pid-exit@1:0:9' at position 0: unexpected argument "
     "'9'"),
    ('starve@1:x',
     "bad fault entry 'starve@1:x' at position 0: invalid duration 'x'"),
    ('starve@1:2:y',
     "bad fault entry 'starve@1:2:y' at position 0: invalid slot count 'y'"),
    ('starve@1:2:3:4',
     "bad fault entry 'starve@1:2:3:4' at position 0: unexpected argument "
     "'4'"),
    ('hpc-loss@1:z',
     "bad fault entry 'hpc-loss@1:z' at position 0: invalid duration 'z'"),
    ('hpc-loss@1:2:3',
     "bad fault entry 'hpc-loss@1:2:3' at position 0: unexpected argument "
     "'3'"),
    ('crash@1',
     "bad fault entry 'crash@1' at position 0: crash needs an actor name "
     '(crash@TIME:ACTOR)'),
    ('crash@1:',
     "bad fault entry 'crash@1:' at position 0: crash needs an actor name "
     '(crash@TIME:ACTOR)'),
    ('crash@1:a:b',
     "bad fault entry 'crash@1:a:b' at position 0: unexpected argument 'b'"),
    ('bogus@1',
     "bad fault entry 'bogus@1' at position 0: unknown fault kind 'bogus'"),
    ('pid-exit@1;  nope',
     "bad fault entry 'nope' at position 13: expected kind@time[:args]"),
    ('meter-dropout@-1',
     'fault time must be >= 0, got -1.0'),
    ('random:',
     "bad random fault entry 'random:' at position 0: invalid seed ''; use "
     'random:SEED[:DURATION]'),
    ('random:x',
     "bad random fault entry 'random:x' at position 0: invalid seed 'x'; "
     'use random:SEED[:DURATION]'),
    ('random:1:abc',
     "bad random fault entry 'random:1:abc' at position 0: invalid "
     "duration 'abc'; use random:SEED[:DURATION]"),
    ('random:1:10:5',
     "bad random fault entry 'random:1:10:5' at position 0: unexpected "
     "argument '5'; use random:SEED[:DURATION]"),
    ('random:1:0',
     'campaign duration must be positive'),
    ('bogus@x',
     "bad fault entry 'bogus@x' at position 0: invalid time 'x'"),
    ('@1',
     "bad fault entry '@1' at position 0: unknown fault kind ''"),
    ('crash@x',
     "bad fault entry 'crash@x' at position 0: invalid time 'x'"),
    ('random:1;random:2:9',
     ('hpc-loss@1.3:1.5;meter-dropout@2.8:1.9;pid-exit@5.2:0;'
      'starve@6.1:2.6:0;meter-dropout@6.5:3.8;meter-dropout@6.8:1.3;'
      'pid-exit@10.5:0;hpc-loss@12.8:2.1;starve@13.2:4.5:0;'
      'meter-dropout@15.3:3.9',
      'hpc-loss@1.3:1.5;meter-dropout@2.8:1.9;pid-exit@5.2:0;'
      'starve@6.1:2.6:0;meter-dropout@6.5:3.8;meter-dropout@6.8:1.3;'
      'pid-exit@10.5:0;hpc-loss@12.8:2.1;starve@13.2:4.5:0;'
      'meter-dropout@15.3:3.9',
      2)),
    ('meter-dropout@2:-3;pid-exit@0:-1',
     ('pid-exit@0:-1;meter-dropout@2:-3',
      'pid-exit@0.0:-1;meter-dropout@2.0:-3.0',
      None)),
]

NET_CORPUS = [
    ('',
     ('',
      '',
      None)),
    ('partition@1',
     ('partition@1:1',
      'partition@1.0:1.0',
      None)),
    ('partition@1:0.25;reset@2, corrupt@3:2',
     ('partition@1:0.25;reset@2;corrupt@3:2',
      'partition@1.0:0.25;reset@2.0;corrupt@3.0:2',
      None)),
    ('truncate@0.5;stall@4',
     ('truncate@0.5;stall@4:0.5:0.05',
      'truncate@0.5;stall@4.0:0.5:0.05',
      None)),
    ('stall@4:0.2:0.01;reset@0.30000000000000004',
     ('reset@0.3;stall@4:0.2:0.01',
      'reset@0.30000000000000004;stall@4.0:0.2:0.01',
      None)),
    ('random:4',
     ('reset@1.65;stall@2.4:0.45:0.02;corrupt@5.86:1;truncate@7.42;'
      'partition@8.54:0.61;reset@8.81',
      'reset@1.65;stall@2.4:0.45:0.02;corrupt@5.86:1;truncate@7.42;'
      'partition@8.54:0.61;reset@8.81',
      4)),
    ('random:2:3.5;truncate@1',
     ('stall@0.5:0.21:0.02;reset@0.61;truncate@0.88;truncate@1;'
      'partition@1.08:0.44;corrupt@2.03:3;reset@2.63',
      'stall@0.5:0.21:0.02;reset@0.61;truncate@0.88;truncate@1.0;'
      'partition@1.08:0.44;corrupt@2.03:3;reset@2.63',
      2)),
    ('partition@x',
     "bad network fault entry 'partition@x' at position 0: invalid time 'x'"),
    ('partition@1:y',
     "bad network fault entry 'partition@1:y' at position 0: invalid "
     "duration 'y'"),
    ('partition@1:2:3',
     "bad network fault entry 'partition@1:2:3' at position 0: unexpected "
     "argument '3'"),
    ('reset@1:2',
     "bad network fault entry 'reset@1:2' at position 0: unexpected "
     "argument '2'"),
    ('corrupt@1:1.5',
     "bad network fault entry 'corrupt@1:1.5' at position 0: invalid byte "
     "count '1.5'"),
    ('corrupt@1:1:1',
     "bad network fault entry 'corrupt@1:1:1' at position 0: unexpected "
     "argument '1'"),
    ('truncate@1:2',
     "bad network fault entry 'truncate@1:2' at position 0: unexpected "
     "argument '2'"),
    ('stall@1:x',
     "bad network fault entry 'stall@1:x' at position 0: invalid duration "
     "'x'"),
    ('stall@1:0.1:y',
     "bad network fault entry 'stall@1:0.1:y' at position 0: invalid delay "
     "'y'"),
    ('stall@1:0.1:0.2:0.3',
     "bad network fault entry 'stall@1:0.1:0.2:0.3' at position 0: "
     "unexpected argument '0.3'"),
    ('meter-dropout@1',
     "bad network fault entry 'meter-dropout@1' at position 0: unknown "
     "network fault kind 'meter-dropout'"),
    ('reset@1 ;  reset',
     "bad network fault entry 'reset' at position 11: expected "
     'kind@time[:args]'),
    ('reset@-2',
     'network fault time must be >= 0, got -2.0'),
    ('random:',
     "bad random network fault entry 'random:' at position 0: invalid seed "
     "''; use random:SEED[:DURATION]"),
    ('random:q',
     "bad random network fault entry 'random:q' at position 0: invalid "
     "seed 'q'; use random:SEED[:DURATION]"),
    ('random:1:w',
     "bad random network fault entry 'random:1:w' at position 0: invalid "
     "duration 'w'; use random:SEED[:DURATION]"),
    ('random:1:2:3',
     "bad random network fault entry 'random:1:2:3' at position 0: "
     "unexpected argument '3'; use random:SEED[:DURATION]"),
    ('random:1:-1',
     'campaign duration must be positive'),
    ('bogus@x',
     "bad network fault entry 'bogus@x' at position 0: invalid time 'x'"),
    ('reset@x',
     "bad network fault entry 'reset@x' at position 0: invalid time 'x'"),
    ('random:5:4;random:6',
     ('stall@0.54:0.12:0.02;corrupt@0.57:1;reset@1.31;truncate@1.71;'
      'reset@2.05;partition@2.98:0.85;stall@3.64:0.37:0.02;reset@3.95;'
      'reset@4;partition@5.31:0.47;truncate@6.39;corrupt@8.9:1',
      'stall@0.54:0.12:0.02;corrupt@0.57:1;reset@1.31;truncate@1.71;'
      'reset@2.05;partition@2.98:0.85;stall@3.64:0.37:0.02;reset@3.95;'
      'reset@4.0;partition@5.31:0.47;truncate@6.39;corrupt@8.9:1',
      6)),
]

FAULT_RANDOM = [
    'meter-dropout@4.0:1.0;meter-dropout@18.3:1.8;hpc-loss@20.5:2.1;'
    'pid-exit@22.5:0;starve@24.9:3.8:0',
    'meter-dropout@6.5:3.8;pid-exit@10.5:0;hpc-loss@12.8:2.1;'
    'starve@13.2:4.5:0;meter-dropout@15.3:3.9',
    'hpc-loss@4.3:1.5;meter-dropout@9.3:1.9;pid-exit@17.4:0;'
    'starve@20.5:2.6:0;meter-dropout@22.5:1.3',
    'meter-dropout@5.1:1.7;pid-exit@5.3:0;hpc-loss@6.8:2.5;'
    'starve@13.4:3.4:0;meter-dropout@22.2:2.7',
    'hpc-loss@7.2:2.7;starve@12.0:4.4:0;pid-exit@17.6:0;'
    'meter-dropout@25.6:2.5;meter-dropout@26.4:1.2',
    'hpc-loss@4.1:1.1;pid-exit@4.3:0;starve@12.2:3.2:0;'
    'meter-dropout@15.4:1.9;meter-dropout@22.3:3.4',
    'hpc-loss@10.9:2.4;meter-dropout@11.9:2.1;meter-dropout@15.9:2.0;'
    'starve@18.2:4.0:0;pid-exit@26.7:0',
    'pid-exit@10.2:0;meter-dropout@18.0:3.7;meter-dropout@21.6:1.7;'
    'hpc-loss@22.7:2.6;starve@24.0:2.0:0',
    'meter-dropout@10.6:3.4;meter-dropout@10.8:4.0;hpc-loss@11.9:1.2;'
    'starve@12.4:3.3:0;pid-exit@23.9:0',
    'meter-dropout@17.5:3.3;pid-exit@20.2:0;meter-dropout@23.9:1.9;'
    'starve@25.0:4.6:0;hpc-loss@25.0:1.1',
]

NET_RANDOM = [
    'reset@1.13;reset@1.33;truncate@5.85;partition@6.1:0.42;'
    'stall@6.84:0.32:0.02;corrupt@7.51:2',
    'reset@2.15;corrupt@3.49:3;stall@4.27:0.32:0.02;partition@5.09:0.96;'
    'truncate@7.62;reset@8.59',
    'stall@1.44:0.21:0.02;reset@1.74;truncate@2.5;partition@3.09:0.44;'
    'corrupt@5.8:3;reset@7.51',
    'partition@1.69:0.39;corrupt@1.75:1;stall@2.28:0.39:0.02;truncate@4.83;'
    'reset@5.66;reset@7.41',
    'reset@1.65;stall@2.4:0.45:0.02;corrupt@5.86:1;truncate@7.42;'
    'partition@8.54:0.61;reset@8.81',
    'stall@1.36:0.12:0.02;corrupt@1.43:1;reset@3.29;truncate@4.27;'
    'reset@5.12;partition@7.44:0.85',
    'stall@3.64:0.37:0.02;reset@3.95;reset@4.0;partition@5.31:0.47;'
    'truncate@6.39;corrupt@8.9:1',
    'truncate@1.04;reset@2.8;corrupt@3.4:1;partition@6.0:0.92;reset@7.21;'
    'stall@7.57:0.42:0.02',
    'reset@3.55;partition@3.62:0.99;stall@3.98:0.14:0.02;truncate@4.5;'
    'reset@7.31;corrupt@7.96:1',
    'reset@5.83;corrupt@6.73:3;reset@7.22;truncate@7.88;'
    'partition@7.96:0.43;stall@8.35:0.11:0.02',
]


@pytest.mark.parametrize("plan_cls, spec, expected", [
    *[(FaultPlan, spec, expected) for spec, expected in FAULT_CORPUS],
    *[(NetworkFaultPlan, spec, expected) for spec, expected in NET_CORPUS],
])
def test_spec_renders_or_fails_exactly(plan_cls, spec, expected):
    if isinstance(expected, str):
        with pytest.raises(ConfigurationError) as info:
            plan_cls.parse(spec)
        assert str(info.value) == expected
        return
    plan = plan_cls.parse(spec)
    assert (plan.describe(), plan.to_spec(), plan.seed) == expected
    assert plan_cls.parse(plan.to_spec()).events == plan.events


@pytest.mark.parametrize("plan_cls, seed, expected", [
    *[(FaultPlan, seed, spec) for seed, spec in enumerate(FAULT_RANDOM)],
    *[(NetworkFaultPlan, seed, spec) for seed, spec in enumerate(NET_RANDOM)],
])
def test_random_campaign_is_pinned(plan_cls, seed, expected):
    assert plan_cls.random(seed).to_spec() == expected
