//! The chaos runner is thread-count invariant: a pipeline campaign gives
//! the same report, the same fault events and the same per-trial events
//! in the same order at 1 and 4 threads.
//!
//! This is the only test in its binary, so enabling the process-global
//! obs registry cannot pick up events from other tests.

use resilience::chaos::{Campaign, PipelineChaos};

#[test]
fn reports_and_trial_events_are_thread_count_invariant() {
    let driver = PipelineChaos {
        fault_rate: 0.3,
        ..PipelineChaos::default()
    };
    // The campaign's report plus the fault and per-trial events it
    // emitted, timestamps stripped.
    let run_at = |threads: usize| {
        obs::reset();
        obs::enable();
        let report = par::with_threads(threads, || {
            Campaign::new("invariance", 5, 6).run(|t, s, _| driver.trial(t, s))
        });
        obs::disable();
        let events: Vec<_> = obs::snapshot()
            .events
            .into_iter()
            .filter(|e| e.name == "chaos.trial" || e.name == "resilience.fault")
            .map(|e| (e.name, e.fields))
            .collect();
        (report, events)
    };
    let (serial, serial_events) = run_at(1);
    let (parallel, parallel_events) = run_at(4);
    assert_eq!(serial, parallel);
    assert_eq!(serial_events, parallel_events);
    let trial_events = serial_events
        .iter()
        .filter(|(name, _)| name == "chaos.trial")
        .count();
    assert_eq!(trial_events, 6);
    assert!(
        serial.faults_injected() > 0,
        "fault rate 0.3 injected nothing"
    );
}
