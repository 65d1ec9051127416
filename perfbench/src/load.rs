//! The two load generators, each one thread.
//!
//! * [`closed_loop`] keeps a fixed window of requests outstanding: the next
//!   one goes out only when the oldest comes back, so a slower system gets
//!   less load. It measures what the system can sustain (`sat_rps`).
//! * [`open_loop`] sends on a fixed schedule whatever the system does, the
//!   way independent users arrive. Each request is timed **from the moment
//!   it was due**, so a stall in the generator or in admission shows up in
//!   the latency of every request scheduled behind it instead of silently
//!   thinning the load.
//!
//! Both drive a [`Target`], which the serving workloads implement over a
//! `delrec_serve::Client` and the offline workload over direct model calls.

use crate::stats::{quiet_quantile, windowed_quantile, windowed_rate};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// What the system under test reports for one answered request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Served {
    /// Submit-to-response time as the system measured it.
    pub latency: Duration,
    /// Part of `latency` spent queued before execution started.
    pub queue_wait: Duration,
}

/// The system under load.
pub trait Target {
    /// A request ready to send.
    type Request;
    /// An in-flight request.
    type Handle;
    /// Make request `i`. Runs off the clock: before the due time in an open
    /// loop, outside the timed `submit` in both.
    fn prepare(&mut self, i: u64) -> Self::Request;
    /// Send request `i`. `None`: refused at admission (a failure).
    fn submit(&mut self, i: u64, request: Self::Request) -> Option<Self::Handle>;
    /// Block for request `i`'s answer. `None`: shed, timed out or errored.
    fn wait(&mut self, i: u64, handle: Self::Handle) -> Option<Served>;
    /// Requests queued inside the system right now.
    fn backlog(&self) -> usize;
}

/// One answered request as the generator saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Request index.
    pub request: u64,
    /// When the generator entered `submit`.
    pub submit_start: Instant,
    /// How late that was against the schedule (zero in a closed loop).
    pub lag: Duration,
    /// Open loop: whether the generator was early and waited for the due
    /// time. If so, `lag` is the generator's own lateness; if not, an
    /// earlier `submit` overran and this request left late because of it.
    pub waited: bool,
    /// Time inside `submit`: admission, session append, WAL write, enqueue.
    pub submit: Duration,
    /// The system's own account of the request.
    pub served: Served,
}

impl Sample {
    /// Latency counted from the instant the request was due.
    pub fn due_latency(&self) -> Duration {
        self.lag + self.served.latency
    }
}

/// Outcome of one measured phase.
#[derive(Debug)]
pub struct Phase {
    /// Requests the generator tried to send.
    pub attempted: u64,
    /// Refused, shed, timed out or errored.
    pub failed: u64,
    /// First submit to last collected response.
    pub elapsed: Duration,
    /// One entry per answered request, in submit order.
    pub samples: Vec<Sample>,
    /// Open loop only: the system's queue depth when the last request had
    /// been sent (a closed loop's backlog is bounded by its window).
    pub backlog_at_end: usize,
}

impl Phase {
    /// Answered requests per second: the median over the phase's parts (see
    /// [`windowed_rate`]), for a system that completes requests in bursts of
    /// `quantum`.
    pub fn rps(&self, quantum: usize) -> f64 {
        let Some(first) = self.samples.first() else {
            return 0.0;
        };
        let origin = first.submit_start;
        let mut done: Vec<f64> = self
            .samples
            .iter()
            .map(|s| (s.submit_start + s.served.latency - origin).as_secs_f64())
            .collect();
        done.sort_by(f64::total_cmp);
        if done.len() < 2 {
            return done.len() as f64 / self.elapsed.as_secs_f64().max(1e-9);
        }
        windowed_rate(&done, quantum)
    }

    /// Median over the phase's parts of each part's `q`-quantile of the
    /// latency from the due time, in ms. A part holds at least 100 samples
    /// (ten beyond its p90) while the phase has that many to give.
    pub fn due_latency_ms(&self, q: f64) -> f64 {
        windowed_quantile(&self.due_latencies_ms(), q)
    }

    /// The `q`-quantile of the latency from the due time in the quietest
    /// part of the phase, in ms (see [`quiet_quantile`]): for direct calls
    /// with no server behind them.
    pub fn quiet_due_latency_ms(&self, q: f64) -> f64 {
        quiet_quantile(&self.due_latencies_ms(), q)
    }

    fn due_latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.due_latency().as_secs_f64() * 1e3)
            .collect()
    }
}

struct InFlight<H> {
    request: u64,
    submit_start: Instant,
    lag: Duration,
    waited: bool,
    submit: Duration,
    handle: H,
}

fn send<T: Target>(
    target: &mut T,
    request: u64,
    prepared: T::Request,
    due: Option<(Instant, bool)>,
    phase: &mut Phase,
) -> Option<InFlight<T::Handle>> {
    phase.attempted += 1;
    let submit_start = Instant::now();
    let handle = target.submit(request, prepared);
    let submit = submit_start.elapsed();
    match handle {
        Some(handle) => Some(InFlight {
            request,
            submit_start,
            lag: due.map_or(Duration::ZERO, |(d, _)| {
                submit_start.saturating_duration_since(d)
            }),
            waited: due.is_some_and(|(_, waited)| waited),
            submit,
            handle,
        }),
        None => {
            phase.failed += 1;
            None
        }
    }
}

fn collect<T: Target>(target: &mut T, f: InFlight<T::Handle>, phase: &mut Phase) {
    match target.wait(f.request, f.handle) {
        Some(served) => phase.samples.push(Sample {
            request: f.request,
            submit_start: f.submit_start,
            lag: f.lag,
            waited: f.waited,
            submit: f.submit,
            served,
        }),
        None => phase.failed += 1,
    }
}

/// Keep `window` requests outstanding for `duration`, numbering them from
/// `first`; then collect what is still in flight.
pub fn closed_loop<T: Target>(
    target: &mut T,
    window: usize,
    duration: Duration,
    first: u64,
) -> Phase {
    assert!(window >= 1, "closed loop needs a window");
    let mut phase = Phase {
        attempted: 0,
        failed: 0,
        elapsed: Duration::ZERO,
        samples: Vec::new(),
        backlog_at_end: 0,
    };
    let mut outstanding: VecDeque<InFlight<T::Handle>> = VecDeque::with_capacity(window);
    let mut next = first;
    let start = Instant::now();
    loop {
        while outstanding.len() < window && start.elapsed() < duration {
            let prepared = target.prepare(next);
            if let Some(f) = send(target, next, prepared, None, &mut phase) {
                outstanding.push_back(f);
            }
            next += 1;
        }
        // Responses come back in submit order (one FIFO queue), so the
        // oldest handle is the next to complete.
        match outstanding.pop_front() {
            Some(f) => collect(target, f, &mut phase),
            None => break,
        }
    }
    phase.elapsed = start.elapsed();
    phase
}

/// How close to a due time the generator stops sleeping and polls the
/// clock instead: `sleep` overshoots by 0.1–1 ms on a busy host, which at
/// these latencies would be the generator's lateness, not the system's. The
/// generator has a core to itself (the program's pool gets the others), and
/// `yield_now` hands it over where it has not.
const SPIN: Duration = Duration::from_millis(2);

/// Wait for `due`; `false` when it had already passed.
fn wait_until(due: Instant) -> bool {
    let mut waited = false;
    loop {
        let Some(left) = due.checked_duration_since(Instant::now()) else {
            return waited;
        };
        waited = true;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Most responses an open loop leaves uncollected. Every in-flight request
/// holds a response channel, so an unbounded backlog of handles would show
/// up in `peak_rss_mb` as if it were the system's memory. Past the cap the
/// generator blocks on the oldest handle first — by then long answered
/// unless the system has fallen far behind, in which case the wait makes
/// later requests late and the due-time latency says so. The cap is below
/// the servers' `max_queue` (4096): after a stall of the whole host the
/// generator catches up in one burst, and that burst must queue, not be
/// refused.
const MAX_UNCOLLECTED: usize = 2048;

/// Send `rate` requests per second on a fixed schedule for `duration`,
/// numbering them from `first`; then collect every response.
pub fn open_loop<T: Target>(target: &mut T, rate: f64, duration: Duration, first: u64) -> Phase {
    assert!(rate > 0.0, "open loop needs a rate");
    let n = (duration.as_secs_f64() * rate).floor().max(1.0) as u64;
    let mut phase = Phase {
        attempted: 0,
        failed: 0,
        elapsed: Duration::ZERO,
        samples: Vec::with_capacity(n as usize),
        backlog_at_end: 0,
    };
    let mut in_flight = VecDeque::with_capacity(MAX_UNCOLLECTED);
    let start = Instant::now();
    for k in 0..n {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        let prepared = target.prepare(first + k);
        if in_flight.len() >= MAX_UNCOLLECTED {
            let oldest = in_flight.pop_front().expect("non-empty");
            collect(target, oldest, &mut phase);
        }
        let waited = wait_until(due);
        if let Some(f) = send(target, first + k, prepared, Some((due, waited)), &mut phase) {
            in_flight.push_back(f);
        }
    }
    phase.backlog_at_end = target.backlog();
    for f in in_flight {
        collect(target, f, &mut phase);
    }
    phase.elapsed = start.elapsed();
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers every request with a fixed latency; can stall one submit and
    /// refuse one request.
    struct Fake {
        stall_at: Option<u64>,
        refuse_at: Option<u64>,
        outstanding: usize,
        max_outstanding: usize,
    }

    impl Fake {
        fn new() -> Self {
            Fake {
                stall_at: None,
                refuse_at: None,
                outstanding: 0,
                max_outstanding: 0,
            }
        }
    }

    const SERVICE: Duration = Duration::from_millis(1);

    impl Target for Fake {
        type Request = ();
        type Handle = ();
        fn prepare(&mut self, _i: u64) {}
        fn submit(&mut self, i: u64, _request: ()) -> Option<()> {
            if self.stall_at == Some(i) {
                std::thread::sleep(Duration::from_millis(40));
            }
            if self.refuse_at == Some(i) {
                return None;
            }
            self.outstanding += 1;
            self.max_outstanding = self.max_outstanding.max(self.outstanding);
            Some(())
        }
        fn wait(&mut self, _i: u64, _h: ()) -> Option<Served> {
            self.outstanding -= 1;
            Some(Served {
                latency: SERVICE,
                queue_wait: Duration::ZERO,
            })
        }
        fn backlog(&self) -> usize {
            self.outstanding
        }
    }

    #[test]
    fn open_loop_counts_latency_from_the_due_time() {
        let mut fake = Fake::new();
        fake.stall_at = Some(20);
        // 500/s for 0.2 s: request k is due at 2k ms; request 20's submit
        // stalls 40 ms, so requests 21.. leave late and the lateness counts.
        let phase = open_loop(&mut fake, 500.0, Duration::from_millis(200), 0);
        assert_eq!(phase.attempted, 100);
        assert_eq!(phase.failed, 0);
        assert_eq!(phase.samples.len(), 100);
        let before = phase.samples[10].due_latency();
        let behind = phase.samples[21].due_latency();
        assert!(
            before < Duration::from_millis(15),
            "an on-time request carries only the service time: {before:?}"
        );
        assert!(
            behind >= Duration::from_millis(30),
            "a request scheduled behind the stall waits for it: {behind:?}"
        );
        assert_eq!(phase.samples[21].served.latency, SERVICE);
        // The schedule is fixed: the generator catches up rather than
        // pushing every later due time back.
        let last = phase.samples[99].due_latency();
        assert!(last < Duration::from_millis(15), "caught up: {last:?}");
    }

    #[test]
    fn a_refused_request_is_a_failure_not_a_sample() {
        let mut fake = Fake::new();
        fake.refuse_at = Some(3);
        let phase = open_loop(&mut fake, 1000.0, Duration::from_millis(20), 0);
        assert_eq!(phase.attempted, 20);
        assert_eq!(phase.failed, 1);
        assert_eq!(phase.samples.len(), 19);
        assert!(phase.samples.iter().all(|s| s.request != 3));
    }

    #[test]
    fn closed_loop_never_exceeds_its_window() {
        let mut fake = Fake::new();
        let phase = closed_loop(&mut fake, 8, Duration::from_millis(30), 100);
        assert_eq!(fake.max_outstanding, 8);
        assert_eq!(fake.outstanding, 0, "everything in flight was collected");
        assert_eq!(phase.samples.len() as u64, phase.attempted);
        assert_eq!(phase.samples[0].request, 100);
        assert!(phase.samples.iter().all(|s| s.lag == Duration::ZERO));
        assert!(phase.rps(1) > 0.0);
    }
}
