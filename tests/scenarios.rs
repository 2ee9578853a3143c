//! The scenario catalogue against its own oracles: every named machine
//! runs to completion without faults, passes `validate()`, and ends
//! with exactly the probe words its parameters predict.

use vmp::machine::scenarios::{soak_config, Scenario};

#[test]
fn every_scenario_meets_its_oracle() {
    for s in Scenario::ALL {
        for processors in [s.default_processors(), 4] {
            let tag = format!("{s:?} on {processors} cpus");
            let mut m = s.build(soak_config(processors)).unwrap();
            m.run().unwrap_or_else(|e| panic!("{tag}: run failed: {e}"));
            m.validate().unwrap_or_else(|e| panic!("{tag}: invalid: {e}"));
            let expected = s.expected(processors, m.page_size().bytes());
            assert!(expected.len() >= 2, "{tag}: the oracle must pin some words");
            assert_eq!(s.probe_words(&m), expected, "{tag}: final memory");
        }
    }
}

#[test]
fn oracles_follow_the_parameters() {
    let page = soak_config(2).cache.page_size().bytes();
    let word = |s: Scenario, processors: usize, addr: u64| {
        let at = s.probes(processors, page).iter().position(|va| va.raw() == addr);
        at.map(|i| s.expected(processors, page)[i])
    };
    // Counter = workers × sections, lock released.
    assert_eq!(word(Scenario::SpinLock, 2, 0x2000), Some(Some(16)));
    assert_eq!(word(Scenario::NotifyLock, 3, 0x2000), Some(Some(24)));
    assert_eq!(word(Scenario::Contended, 4, 0x2000), Some(Some(32)));
    assert_eq!(word(Scenario::LockFight, 4, 0x2000), Some(Some(64)));
    assert_eq!(word(Scenario::SpinLock, 2, 0x1000), Some(Some(0)));
    // A sweep's last word carries the round count, the others their
    // successor's position in the last round.
    assert_eq!(word(Scenario::DisjointSweeps, 2, 0x40fc), Some(Some(3 << 16)));
    assert_eq!(word(Scenario::DisjointSweeps, 2, 0x8000), Some(Some(2 << 16 | 1)));
    // Overlapping false-sharing lanes leave a word no single value.
    assert_eq!(word(Scenario::FalseSharing, 2, 0x4008), Some(Some(2 << 16 | 2)));
    assert_eq!(word(Scenario::FalseSharing, 4, 0x4008), None);
    assert_eq!(word(Scenario::FalseSharing, 4, 0x4000), Some(Some(2 << 16 | 1)));
}
