//! Open-loop arrival schedules and their lateness accounting.
//!
//! An open-loop client issues each operation at a fixed due time whether
//! or not earlier ones have finished; a single client that falls behind
//! runs the backlog in due-time order. Latency is therefore measured from
//! the **due time**, not from when the client got round to it, so queueing
//! behind a slow operation counts against the system. How late the client
//! started each operation is kept separately: it says whether the
//! generator, not the system, was the bottleneck.

use std::time::{Duration, Instant};

/// What an open-loop event does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Issue query number `n` of the workload's request stream.
    Query(usize),
    /// Issue update batch number `n` of the workload's update stream.
    Update(usize),
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Offset from the start of the window.
    pub due: Duration,
    pub kind: EventKind,
}

/// Queries every `1/query_rate` s from 0 and update batches every
/// `1/update_rate` s from half a period in, over `[0, window)`, merged in
/// due-time order (a query wins a tie). The schedule depends only on its
/// arguments, so the order in which queries and updates interleave — and
/// with it the graph state every query sees — is fixed.
pub fn build_schedule(window: Duration, query_rate: f64, update_rate: f64) -> Vec<Event> {
    let mut events = Vec::new();
    let mut push = |rate: f64, offset: f64, kind: fn(usize) -> EventKind| {
        if rate <= 0.0 {
            return;
        }
        for n in 0.. {
            let due = Duration::from_secs_f64((n as f64 + offset) / rate);
            if due >= window {
                break;
            }
            events.push(Event { due, kind: kind(n) });
        }
    };
    push(query_rate, 0.0, EventKind::Query);
    push(update_rate, 0.5, EventKind::Update);
    events.sort_by_key(|e| (e.due, matches!(e.kind, EventKind::Update(_))));
    events
}

/// Start and finish of one executed event, as offsets from the window
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executed {
    pub due: Duration,
    pub started: Duration,
    pub finished: Duration,
}

impl Executed {
    /// Latency as the user sees it: from the due time to completion.
    pub fn latency(&self) -> Duration {
        self.finished.saturating_sub(self.due)
    }

    /// How late the client started the event (0 if on time).
    pub fn lateness(&self) -> Duration {
        self.started.saturating_sub(self.due)
    }
}

/// The open-loop client's clock.
pub struct Pacer {
    start: Instant,
}

impl Pacer {
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since the window started.
    pub fn now(&self) -> Duration {
        self.start.elapsed()
    }

    /// Blocks until `due` (sleeping while far off, spinning for the last
    /// stretch so the start is not at the mercy of timer slack) and
    /// returns the offset at which the caller may start.
    pub fn wait_until(&self, due: Duration) -> Duration {
        const SPIN: Duration = Duration::from_micros(300);
        loop {
            let now = self.now();
            if now >= due {
                return now;
            }
            let left = due - now;
            if left > SPIN {
                std::thread::sleep(left - SPIN);
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Runs `op` at `due` and records when it started and finished.
    pub fn run_at<T>(&self, due: Duration, op: impl FnOnce() -> T) -> (T, Executed) {
        let started = self.wait_until(due);
        let out = op();
        let finished = self.now();
        (
            out,
            Executed {
                due,
                started,
                finished,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn schedule_is_sorted_and_rate_exact() {
        let ev = build_schedule(Duration::from_secs(2), 100.0, 10.0);
        assert!(ev.windows(2).all(|w| w[0].due <= w[1].due));
        let queries = ev
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Query(_)))
            .count();
        let updates = ev.len() - queries;
        assert_eq!(queries, 200);
        assert_eq!(updates, 20);
        // Updates are offset by half a period: 50 ms, 150 ms, ...
        let first_update = ev
            .iter()
            .find(|e| matches!(e.kind, EventKind::Update(_)))
            .unwrap();
        assert_eq!(first_update.due, ms(50));
        assert_eq!(first_update.kind, EventKind::Update(0));
        // Streams are numbered in order.
        let q: Vec<usize> = ev
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Query(n) => Some(n),
                EventKind::Update(_) => None,
            })
            .collect();
        assert_eq!(q, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn a_tie_runs_the_query_first() {
        // Query at 0, 50, 100 ms; update at 50 ms (half of a 100 ms period).
        let ev = build_schedule(ms(120), 20.0, 10.0);
        let kinds: Vec<EventKind> = ev.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Query(0),
                EventKind::Query(1),
                EventKind::Update(0),
                EventKind::Query(2),
            ]
        );
    }

    #[test]
    fn schedule_depends_only_on_its_arguments() {
        let a = build_schedule(Duration::from_secs(3), 170.0, 17.0);
        let b = build_schedule(Duration::from_secs(3), 170.0, 17.0);
        assert_eq!(a, b);
        assert!(build_schedule(Duration::from_secs(1), 0.0, 0.0).is_empty());
    }

    #[test]
    fn latency_counts_from_due_and_lateness_from_start() {
        // On time: started at its due time, ran 3 ms.
        let e = Executed {
            due: ms(10),
            started: ms(10),
            finished: ms(13),
        };
        assert_eq!(e.latency(), ms(3));
        assert_eq!(e.lateness(), ms(0));
        // Queued behind a slow update: started 8 ms late, ran 2 ms.
        let e = Executed {
            due: ms(20),
            started: ms(28),
            finished: ms(30),
        };
        assert_eq!(e.latency(), ms(10));
        assert_eq!(e.lateness(), ms(8));
    }

    #[test]
    fn pacer_never_starts_early() {
        let pacer = Pacer::start();
        let ((), done) = pacer.run_at(ms(5), || {});
        assert!(done.started >= ms(5));
        assert!(done.finished >= done.started);
        // A due time already past starts immediately and reports lateness.
        let ((), late) = pacer.run_at(ms(1), || {});
        assert!(late.lateness() >= ms(4));
    }
}
