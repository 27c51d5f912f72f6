//! The release `pxml serve` daemon as a child process: boot, requests
//! over its unix socket, counter scrapes, graceful shutdown and
//! `kill -9`.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pxml_cli::protocol::{Request, Status};
use pxml_cli::serve::{Client, Target};

use crate::workload::INSTANCE;

const BOOT_DEADLINE: Duration = Duration::from_secs(60);

/// How to start one daemon.
#[derive(Clone)]
pub struct Config {
    pub binary: PathBuf,
    pub instance: PathBuf,
    pub socket: PathBuf,
    pub wal_dir: PathBuf,
    pub max_cache_bytes: Option<u64>,
    pub fsync: &'static str,
    pub trace_json: Option<PathBuf>,
    pub log: PathBuf,
}

pub struct Daemon {
    child: Option<Child>,
    pub target: Target,
}

impl Daemon {
    /// Spawns the daemon and waits until it answers `PING`; returns the
    /// daemon and the time from spawn to the first answer.
    pub fn boot(cfg: &Config) -> Result<(Daemon, Duration), String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&cfg.log)
            .map_err(|e| format!("{}: {e}", cfg.log.display()))?;
        let mut cmd = Command::new(&cfg.binary);
        cmd.arg("serve")
            .arg(&cfg.instance)
            .arg("--socket")
            .arg(&cfg.socket)
            .arg("--wal")
            .arg(&cfg.wal_dir)
            .arg("--fsync")
            .arg(cfg.fsync);
        if let Some(n) = cfg.max_cache_bytes {
            cmd.arg("--max-cache-bytes").arg(n.to_string());
        }
        if let Some(t) = &cfg.trace_json {
            cmd.arg("--trace-json").arg(t);
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(log);
        let started = Instant::now();
        let child = cmd.spawn().map_err(|e| format!("spawning {}: {e}", cfg.binary.display()))?;
        let mut daemon = Daemon { child: Some(child), target: Target::Unix(cfg.socket.clone()) };
        loop {
            if let Ok(mut c) = Client::connect(&daemon.target) {
                if let Ok((Status::Ok, _)) = c.roundtrip(&Request::Ping) {
                    return Ok((daemon, started.elapsed()));
                }
            }
            if let Some(child) = daemon.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    daemon.child = None;
                    return Err(format!("daemon exited during boot ({status}); see {}", cfg.log.display()));
                }
            }
            if started.elapsed() > BOOT_DEADLINE {
                return Err("daemon did not answer PING within 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    pub fn client(&self) -> Result<Client, String> {
        Client::connect(&self.target)
    }

    /// One request on a fresh connection; a non-ok status is an error.
    pub fn ok(&self, req: &Request) -> Result<String, String> {
        match self.client()?.roundtrip(req)? {
            (Status::Ok, body) => Ok(body),
            (status, body) => Err(format!("{} answered {status:?}: {body}", req.render())),
        }
    }

    /// Peak resident set (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("reading the daemon's /proc status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM line in /proc status")?;
        Ok(kb / 1024.0)
    }

    /// The `STATS` and `METRICS` counters.
    pub fn scrape(&self) -> Result<Counters, String> {
        let stats = self.ok(&Request::Stats { instance: INSTANCE.into() })?;
        let metrics = self.ok(&Request::Metrics)?;
        Counters::parse(&stats, &metrics)
    }

    /// `SHUTDOWN`, then waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = self.ok(&Request::Shutdown);
        let mut child = self.child.take().ok_or("daemon already gone")?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    sent?;
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("daemon exited with {status} after SHUTDOWN"))
                    };
                }
                Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
                _ => {
                    reap(child);
                    return Err("daemon did not exit within 20 s of SHUTDOWN".into());
                }
            }
        }
    }

    /// `kill -9`, then waits for the process to be gone.
    pub fn kill9(mut self) {
        if let Some(child) = self.child.take() {
            reap(child);
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            reap(child);
        }
    }
}

fn reap(mut child: Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// The daemon's always-on counters for the benchmark's instance.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub result: (u64, u64),
    pub layers: (u64, u64),
    pub eps: (u64, u64),
    pub link: (u64, u64),
    pub mutations: u64,
    pub invalidations: u64,
    pub evictions: u64,
    pub cache_bytes: u64,
    pub wal_appends: u64,
    pub wal_fsyncs: u64,
    pub wal_fsync_nanos: u64,
}

fn hits_misses(word: &str) -> Option<(u64, u64)> {
    let (h, m) = word.split_once('/')?;
    Some((h.parse().ok()?, m.parse().ok()?))
}

impl Counters {
    fn parse(stats: &str, metrics: &str) -> Result<Counters, String> {
        let mut c = Counters::default();
        let words: Vec<&str> = stats.split_whitespace().collect();
        let after = |key: &str, nth: usize| -> Option<&str> {
            words.iter().position(|w| *w == key).and_then(|i| words.get(i + nth)).copied()
        };
        let table = |key: &str| {
            after(key, 1).and_then(hits_misses).ok_or(format!("STATS has no {key} hits/misses"))
        };
        c.result = table("result")?;
        c.layers = table("layers")?;
        c.eps = table("eps")?;
        c.link = table("link")?;
        let number = |key: &str| -> Result<u64, String> {
            after(key, 1).and_then(|w| w.parse().ok()).ok_or(format!("STATS has no {key} count"))
        };
        c.mutations = number("applied")?;
        c.invalidations = number("invalidations")?;
        for line in metrics.lines().filter(|l| !l.starts_with('#')) {
            let Some((key, value)) = line.rsplit_once(' ') else { continue };
            let name = key.split('{').next().unwrap_or(key);
            let value = value.parse::<f64>().unwrap_or(0.0) as u64;
            match name {
                "pxml_serve_instance_cache_evictions_total" => c.evictions += value,
                "pxml_serve_instance_cache_bytes" => c.cache_bytes += value,
                "pxml_wal_appends_total" => c.wal_appends += value,
                "pxml_wal_fsyncs_total" => c.wal_fsyncs += value,
                "pxml_wal_fsync_nanos_total" => c.wal_fsync_nanos += value,
                _ => {}
            }
        }
        Ok(c)
    }

    /// Counter increase from `before` to `self` (the byte gauge is kept).
    pub fn since(&self, before: &Counters) -> Counters {
        let d = |a: (u64, u64), b: (u64, u64)| (a.0 - b.0, a.1 - b.1);
        Counters {
            result: d(self.result, before.result),
            layers: d(self.layers, before.layers),
            eps: d(self.eps, before.eps),
            link: d(self.link, before.link),
            mutations: self.mutations - before.mutations,
            invalidations: self.invalidations - before.invalidations,
            evictions: self.evictions - before.evictions,
            cache_bytes: self.cache_bytes,
            wal_appends: self.wal_appends - before.wal_appends,
            wal_fsyncs: self.wal_fsyncs - before.wal_fsyncs,
            wal_fsync_nanos: self.wal_fsync_nanos - before.wal_fsync_nanos,
        }
    }
}
