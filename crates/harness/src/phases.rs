//! Shared phased-run machinery: the phase clock, the phase-waiting helper,
//! the injected-panic hook and the stalled-reader actor.  The phased runners'
//! workers are the harness's one worker loop ([`crate::workload::drive`]).
//!
//! Both phased runners — the fault harness ([`crate::faults`]) and the
//! service scenario ([`crate::service`]) — drive their worker and actor
//! threads through a shared `AtomicU8` phase word while the main thread acts
//! as the clock and the memory-footprint sampler.  This module is the single
//! copy of that machinery, so the two runners cannot drift apart.

use scot::ConcurrentMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// One observation made by the phase clock ([`drive_phases`]).
pub(crate) enum PhaseEvent {
    /// A periodic footprint sample taken inside a phase.
    Sample {
        /// Phase word value when the sample was taken.
        phase: u8,
        /// The domain's unreclaimed count at that moment.
        unreclaimed: usize,
    },
    /// The edge that *ends* a phase: sampled once, right before the phase
    /// word advances.
    Edge {
        /// The phase that just ended.
        phase: u8,
        /// The domain's unreclaimed count at the edge.
        unreclaimed: usize,
        /// Wall-clock time since the clock started.
        elapsed: Duration,
    },
}

/// The phase clock: walks the phase word through `0..durations.len()` on the
/// given schedule, sampling `unreclaimed()` every `sample_interval` and once
/// more at each phase edge.  After the last phase the word is advanced to
/// `durations.len()` (the stop value every worker/actor polls for) and the
/// total elapsed seconds are returned.
///
/// Runs on the calling thread — the main thread of a phased run is the clock
/// and the footprint sampler, exactly as in the paper's harness.
pub(crate) fn drive_phases(
    phase: &AtomicU8,
    durations: &[Duration],
    sample_interval: Duration,
    unreclaimed: &dyn Fn() -> usize,
    mut on_event: impl FnMut(PhaseEvent),
) -> f64 {
    assert!(!durations.is_empty() && durations.len() < u8::MAX as usize);
    let start = Instant::now();
    // Cumulative deadlines: phase p ends at start + durations[..=p].sum().
    let mut edges = Vec::with_capacity(durations.len());
    let mut acc = Duration::ZERO;
    for d in durations {
        acc += *d;
        edges.push(start + acc);
    }
    loop {
        let cur = phase.load(Ordering::Acquire) as usize;
        debug_assert!(cur < durations.len(), "clock raced past the stop value");
        let next_edge = edges[cur];
        let now = Instant::now();
        if now >= next_edge {
            let n = unreclaimed();
            on_event(PhaseEvent::Edge {
                phase: cur as u8,
                unreclaimed: n,
                elapsed: start.elapsed(),
            });
            let next = cur + 1;
            phase.store(next as u8, Ordering::Release);
            if next == durations.len() {
                break;
            }
            continue;
        }
        let n = unreclaimed();
        on_event(PhaseEvent::Sample {
            phase: cur as u8,
            unreclaimed: n,
        });
        std::thread::sleep(sample_interval.min(next_edge - now));
    }
    start.elapsed().as_secs_f64()
}

/// Installs (once) a panic hook that swallows panics raised on fault-actor
/// threads: injected panics are the *point* of
/// [`crate::faults::FaultKind::PanicDuringOp`], and the default hook's
/// backtrace spam would drown the verdict table.  Panics on any other thread
/// still reach the previously installed hook.
pub(crate) fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("fault-actor"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Sleeps until the phase word reaches `at_least`.
pub(crate) fn wait_for_phase(phase: &AtomicU8, at_least: u8) {
    while phase.load(Ordering::Acquire) < at_least {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A stalled reader: pins a guard, performs one lookup, then holds the guard
/// for the whole `stall_at` phase — the canonical robustness killer for
/// epoch-style schemes.  The fault harness stalls through its fault phase,
/// the service scenario through its reader-stall phase.
pub(crate) fn stall_actor<C: ConcurrentMap<u64, ()>>(
    set: &C,
    phase: &AtomicU8,
    key_range: u64,
    idx: usize,
    stall_at: u8,
) {
    let mut handle = ConcurrentMap::handle(set);
    wait_for_phase(phase, stall_at);
    let mut guard = set.pin(&mut handle);
    let key = idx as u64 % key_range.max(1);
    let _ = set.get(&mut guard, &key);
    while phase.load(Ordering::Acquire) == stall_at {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Recovery: the guard drops here, releasing whatever the scheme was
    // holding back; the handle drop then releases the slot cleanly.
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn clock_walks_every_phase_and_lands_on_stop() {
        let phase = AtomicU8::new(0);
        let calls = AtomicUsize::new(0);
        let mut edges = Vec::new();
        let mut samples = 0usize;
        let durations = [
            Duration::from_millis(10),
            Duration::from_millis(10),
            Duration::from_millis(10),
        ];
        let elapsed = drive_phases(
            &phase,
            &durations,
            Duration::from_millis(2),
            &|| calls.fetch_add(1, Ordering::Relaxed),
            |ev| match ev {
                PhaseEvent::Edge { phase, elapsed, .. } => edges.push((phase, elapsed)),
                PhaseEvent::Sample { .. } => samples += 1,
            },
        );
        assert_eq!(phase.load(Ordering::Acquire), 3, "stop value is len()");
        assert_eq!(
            edges.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "one edge per phase, in order"
        );
        assert!(samples > 0, "phases must be sampled between edges");
        assert!(elapsed >= 0.03, "clock must span the full schedule");
        // Edge timestamps are non-decreasing.
        assert!(edges.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(calls.load(Ordering::Relaxed) > 0);
    }
}
