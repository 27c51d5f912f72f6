//! The closed-loop load generator: one thread per client connection,
//! each sending its next request only after the previous reply arrived.

use std::collections::HashMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use pxml_cli::protocol::Status;
use pxml_cli::serve::{Client, Target};

use crate::daemon::Daemon;
use crate::pin;
use crate::workload::{is_mutate, Workload, CLIENTS};

/// One completed request, timed by its client.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Pool index of the request.
    pub entry: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Sample {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// What one timed pass observed.
pub struct Pass {
    /// Per client, in send order.
    pub samples: Vec<Vec<Sample>>,
    /// First answer seen per query pool index (read-only workloads).
    pub answers: HashMap<u32, String>,
    /// Requests whose reply was not ok, or not a probability, or not
    /// equal to an earlier answer to the same query on a read-only run.
    pub failed: u64,
    /// Client time at which the timed part starts; requests sent before
    /// it are the ramp-up, checked but not timed.
    pub timed_from_ns: u64,
    /// From `timed_from_ns` to the last reply.
    pub elapsed: Duration,
}

impl Pass {
    pub fn completed(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    pub fn all(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().flatten()
    }

    /// The requests sent after the ramp-up.
    pub fn timed(&self) -> impl Iterator<Item = &Sample> {
        self.all().filter(|s| s.start_ns >= self.timed_from_ns)
    }

    /// Latencies (µs) of the timed requests `keep` selects, split into
    /// consecutive windows of `window` by start time. A trailing partial
    /// window is dropped unless it is the only one.
    pub fn windows(&self, window: Duration, keep: impl Fn(&Sample) -> bool) -> Vec<Vec<f64>> {
        let t0 = self.timed_from_ns;
        let width = window.as_nanos() as u64;
        let full = ((self.elapsed.as_nanos() as u64 / width) as usize).max(1);
        let mut out = vec![Vec::new(); full];
        for s in self.timed().filter(|s| keep(s)) {
            let w = if full == 1 { 0 } else { ((s.start_ns - t0) / width) as usize };
            if let Some(bucket) = out.get_mut(w) {
                bucket.push(s.micros());
            }
        }
        out
    }
}

/// A probability rendered by the daemon (`{p:.6}` in `[0, 1]`).
pub fn is_probability(body: &str) -> bool {
    body.parse::<f64>().is_ok_and(|p| (0.0..=1.0).contains(&p))
}

/// A MUTATE reply of one applied op.
pub fn is_applied(body: &str) -> bool {
    body.starts_with("applied 1 ops")
}

/// Sends the warm-up requests on one connection; every reply must be ok.
pub fn warm(target: &Target, wl: &Workload) -> Result<(), String> {
    let mut client = Client::connect(target)?;
    for &i in &wl.warmup {
        let req = &wl.pool[i as usize];
        match client.roundtrip(req)? {
            (Status::Ok, _) => {}
            (s, body) => return Err(format!("warm-up {} answered {s:?}: {body}", req.render())),
        }
    }
    Ok(())
}

/// Runs every client's stream from its start for `ramp` untimed seconds
/// and then `seconds` timed ones, or until each client has sent `cap`
/// requests. Client `c` and the daemon thread serving it share a CPU
/// of their own where there are enough (see `pin`).
pub fn pass(
    daemon: &Daemon,
    wl: &Workload,
    ramp: f64,
    seconds: f64,
    cap: usize,
    read_only: bool,
) -> Result<Pass, String> {
    let cpus = pin::pass_cpus(CLIENTS);
    let cpu = |c: usize| cpus[c % cpus.len()];
    let clients = (0..CLIENTS).map(|c| pin::connect_pinned(daemon, cpu(c))).collect::<Result<Vec<_>, _>>()?;
    let barrier = Barrier::new(CLIENTS);
    let epoch = Instant::now();
    let per_client: Vec<ClientOutcome> =
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(c, client)| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let pinned = pin::pin(0, cpu(c));
                        barrier.wait();
                        pinned?;
                        client_loop(client, c, wl, epoch, ramp + seconds, cap, read_only)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
                .collect()
        });
    let mut out = Pass {
        samples: Vec::with_capacity(CLIENTS),
        answers: HashMap::new(),
        failed: 0,
        timed_from_ns: 0,
        elapsed: Duration::ZERO,
    };
    for r in per_client {
        let (samples, answers, failed) = r?;
        out.failed += failed;
        for (k, v) in answers {
            match out.answers.get(&k) {
                Some(prev) if *prev != v => out.failed += 1,
                Some(_) => {}
                None => {
                    out.answers.insert(k, v);
                }
            }
        }
        out.samples.push(samples);
    }
    let first = out.all().map(|s| s.start_ns).min().unwrap_or(0);
    out.timed_from_ns = first + (ramp * 1e9) as u64;
    let last = out.all().map(|s| s.end_ns).max().unwrap_or(0);
    out.elapsed = Duration::from_nanos(last.saturating_sub(out.timed_from_ns));
    Ok(out)
}

type ClientOutcome = Result<(Vec<Sample>, HashMap<u32, String>, u64), String>;

fn client_loop(
    mut client: Client,
    c: usize,
    wl: &Workload,
    epoch: Instant,
    seconds: f64,
    cap: usize,
    read_only: bool,
) -> ClientOutcome {
    let stream = &wl.streams[c];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut samples = Vec::with_capacity(1 << 16);
    let mut answers: HashMap<u32, String> = HashMap::new();
    let mut failed = 0u64;
    for pos in 0..cap {
        let start = Instant::now();
        if start >= deadline {
            break;
        }
        let entry = stream[pos % stream.len()];
        let req = &wl.pool[entry as usize];
        let (status, body) = client.roundtrip(req)?;
        let end = Instant::now();
        let mut ok = status == Status::Ok;
        if ok && is_mutate(req) {
            ok = is_applied(&body);
        } else if ok {
            ok = is_probability(&body);
            if ok && read_only {
                match answers.get(&entry) {
                    Some(prev) => ok = *prev == body,
                    None => {
                        answers.insert(entry, body);
                    }
                }
            }
        }
        if !ok {
            failed += 1;
        }
        samples.push(Sample {
            entry,
            start_ns: start.duration_since(epoch).as_nanos() as u64,
            end_ns: end.duration_since(epoch).as_nanos() as u64,
        });
    }
    Ok((samples, answers, failed))
}

