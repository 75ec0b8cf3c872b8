//! `serve-mixed`: one fresh `gsu-serve --workers 2`, driven by one client
//! connection from this process.
//!
//! Phases, counted in requests so the daemon reaches the same state on
//! every run: (a) start-up, spawn to the first `/healthz` 200 (repeated
//! with throwaway daemons); (b) an open loop on a seeded Poisson schedule
//! at a fixed rate, each request timed from when it was due; (c) a closed
//! loop of fixed rounds on the same, soaking daemon, with (d) planner
//! queries — a coarse best-φ search over `/eval` for a fresh parameter
//! assignment — between rounds. (b) and (c) alternate in [`CYCLES`]
//! cycles, so each metric samples the whole run. The traffic mix is stratified: every block of
//! [`BLOCK_SIZE`] requests holds exact class counts, and the seed only
//! permutes their order and draws the φ values.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use gsu_scenario::{load_dir, ScenarioAnalysis};
use gsu_serve::http::{http_get, HttpClient};
use mdcd_sim::SimRng;
use performability::{GsuAnalysis, GsuParams, PerfError};

use crate::catalog::traced_passes;
use crate::layers::Probe;
use crate::stats::{median, ms, proc_status_mb, quantile, slope, Tally};
use crate::trace::Tracer;
use crate::{pool_width, Args, Report};

/// Daemon workers.
const WORKERS: usize = 2;
/// Client connections: one, so that one request is in flight at a time and
/// the client thread and the daemon worker serving it never compete for
/// the machine's two vCPUs.
const CONNECTIONS: usize = 1;
/// Requests per class in every block of the mix: the shares of
/// `gsu-bench loadgen` (`crates/bench/src/loadgen.rs`, `build_targets`:
/// 50% plain, 30% scenario, 10% `/metrics`, 10% `/healthz`) made exact,
/// with the `mu_new=` class taking half of the plain share.
const MIX: [(Class, usize); 5] = [
    (Class::Plain, 5),
    (Class::Scenario, 6),
    (Class::Override, 5),
    (Class::Metrics, 2),
    (Class::Healthz, 2),
];
const BLOCK_SIZE: usize = 20;
/// φ range of plain and `mu_new=` `/eval`s, and of scenario `/eval`s as
/// shares of the scenario's θ, both as in `loadgen::build_targets`.
const PLAIN_PHI: (f64, f64) = (2000.0, 9000.0);
const SCENARIO_PHI: (f64, f64) = (0.3, 0.8);
/// Open-loop arrival rate (requests per second), well below capacity.
const OPEN_RATE: f64 = 50.0;
/// Open-loop blocks and closed-loop rounds (one block each) per second of
/// `--seconds`, split evenly over the cycles.
const OPEN_BLOCKS_PER_S: f64 = 1.5;
const CLOSED_ROUNDS_PER_S: f64 = 4.0;
const CYCLES: usize = 10;
/// Throwaway daemon start-ups after every cycle; `setup_s` is the median of
/// all start-ups.
const STARTUPS_PER_CYCLE: usize = 2;
/// Closed-loop rounds per planner query, and the query's coarse grid.
const OPTIMUM_EVERY: usize = 3;
const OPTIMUM_STEPS: usize = 10;
/// Every `SAMPLE_EVERY`-th request of the open and closed phases has its
/// `/eval` answer checked against the in-process `evaluate`.
const SAMPLE_EVERY: usize = 4;
/// Catalog scenarios cheap enough to serve in the mix.
const SCENARIOS: [&str; 6] = [
    "paper-baseline",
    "paper-high-fault-rate",
    "paper-low-coverage",
    "paper-short-window",
    "paper-slow-safeguards",
    "small-exact",
];
/// `mu_new=` override values cycled through by the mix: the first use of
/// each misses the daemon's analysis cache, later uses hit it.
const WORKING_SET: usize = 16;
/// Latency charged to a failed request: it misses every latency limit.
const FAILED_MS: f64 = 5000.0;

fn working_set_mu(k: usize) -> f64 {
    1e-4 * (0.5 + k as f64 / WORKING_SET as f64)
}

fn optimum_mu(q: usize) -> f64 {
    1e-4 * (1.5 + 0.1 * q as f64)
}

/// Builds the released `gsu-serve` binary (a no-op when it is up to date)
/// and returns its path.
pub fn build_daemon() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "gsu-serve",
            "--bin",
            "gsu-serve",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building gsu-serve failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("gsu-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after build", bin.display()))
    }
}

/// A running daemon; dropping it kills the process and waits for it.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral port and waits for `/healthz`;
    /// returns it with the spawn-to-ready time in seconds.
    fn start(bin: &Path) -> Result<(Daemon, f64), String> {
        let t = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()])
            .env_remove("GSU_LOG")
            .env_remove("GSU_THREADS")
            .env_remove("GSU_REQUEST_LOG_CAP")
            // One malloc arena: otherwise the daemon's peak RSS depends on
            // which worker thread happened to serve which request.
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout not captured".into());
        };
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            _stdout: BufReader::new(stdout),
        };
        let mut line = String::new();
        daemon
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading daemon banner: {e}"))?;
        daemon.addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or(format!("unexpected daemon banner `{}`", line.trim()))?;
        while !matches!(http_get(daemon.addr, "/healthz"), Ok((200, _))) {
            if t.elapsed() > Duration::from_secs(60) {
                return Err("daemon not healthy after 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok((daemon, t.elapsed().as_secs_f64()))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Plain,
    Scenario,
    Override,
    Metrics,
    Healthz,
}

impl Class {
    fn is_eval(self) -> bool {
        matches!(self, Class::Plain | Class::Scenario | Class::Override)
    }

    fn span(self) -> &'static str {
        match self {
            Class::Metrics => "serve.metrics",
            Class::Healthz => "serve.healthz",
            _ => "serve.eval",
        }
    }
}

/// One request of the mix. `subject` indexes the scenario or override
/// working set.
#[derive(Debug, Clone)]
struct Req {
    class: Class,
    subject: usize,
    phi: f64,
    path: String,
}

/// The in-process twins of everything the daemon evaluates.
struct Subjects {
    baseline: GsuAnalysis,
    scenarios: Vec<ScenarioAnalysis>,
    overrides: Vec<GsuAnalysis>,
}

impl Subjects {
    fn build() -> Result<Subjects, String> {
        let e = |e: PerfError| e.to_string();
        let base = GsuParams::paper_baseline();
        let catalog = load_dir(Path::new("scenarios")).map_err(|e| e.to_string())?;
        let scenarios = SCENARIOS
            .iter()
            .map(|name| {
                let spec = catalog
                    .iter()
                    .find(|s| s.name == *name)
                    .ok_or(format!("scenario {name} not in the catalog"))?;
                ScenarioAnalysis::new(spec.clone()).map_err(e)
            })
            .collect::<Result<_, _>>()?;
        let overrides = (0..WORKING_SET)
            .map(|k| GsuAnalysis::new(base.with_mu_new(working_set_mu(k)).map_err(e)?).map_err(e))
            .collect::<Result<_, _>>()?;
        Ok(Subjects {
            baseline: GsuAnalysis::new(base).map_err(e)?,
            scenarios,
            overrides,
        })
    }

    /// The in-process Y for a request.
    fn y(&self, req: &Req) -> Result<f64, String> {
        let point = match req.class {
            Class::Plain => self.baseline.evaluate(req.phi),
            Class::Scenario => self.scenarios[req.subject].evaluate(req.phi),
            Class::Override => self.overrides[req.subject].evaluate(req.phi),
            _ => return Err("not an /eval request".into()),
        };
        point.map(|p| p.y).map_err(|e| e.to_string())
    }
}

/// Generates the mix block by block; the class and subject counters carry
/// across blocks, so the run's totals are exact.
struct Mix {
    seed: u64,
    blocks: u64,
    next_scenario: usize,
    next_override: usize,
    scenario_theta: Vec<f64>,
}

impl Mix {
    fn new(seed: u64, subjects: &Subjects) -> Mix {
        Mix {
            seed,
            blocks: 0,
            next_scenario: 0,
            next_override: 0,
            scenario_theta: subjects
                .scenarios
                .iter()
                .map(|s| s.spec().params.theta)
                .collect(),
        }
    }

    fn block(&mut self) -> Vec<Req> {
        let mut rng = SimRng::stream(self.seed, self.blocks);
        self.blocks += 1;
        let mut classes: Vec<Class> = MIX
            .iter()
            .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
            .collect();
        for i in (1..classes.len()).rev() {
            let j = ((rng.uniform() * (i + 1) as f64) as usize).min(i);
            classes.swap(i, j);
        }
        let plain = |u: f64| PLAIN_PHI.0 + (PLAIN_PHI.1 - PLAIN_PHI.0) * u;
        classes
            .into_iter()
            .map(|class| {
                let u = rng.uniform();
                let (subject, phi) = match class {
                    Class::Scenario => {
                        let s = self.next_scenario % SCENARIOS.len();
                        self.next_scenario += 1;
                        let share = SCENARIO_PHI.0 + (SCENARIO_PHI.1 - SCENARIO_PHI.0) * u;
                        (s, self.scenario_theta[s] * share)
                    }
                    Class::Override => {
                        let k = self.next_override % WORKING_SET;
                        self.next_override += 1;
                        (k, plain(u))
                    }
                    _ => (0, plain(u)),
                };
                let path = match class {
                    Class::Plain => format!("/eval?phi={phi}"),
                    Class::Scenario => format!("/eval?scenario={}&phi={phi}", SCENARIOS[subject]),
                    Class::Override => {
                        format!("/eval?phi={phi}&mu_new={}", working_set_mu(subject))
                    }
                    Class::Metrics => "/metrics".to_string(),
                    Class::Healthz => "/healthz".to_string(),
                };
                Req {
                    class,
                    subject,
                    phi,
                    path,
                }
            })
            .collect()
    }
}

/// What one request returned.
#[derive(Debug, Clone)]
struct Outcome {
    /// Due (open loop) or send (closed loop) to response, in ms; a failed
    /// request is charged [`FAILED_MS`].
    latency_ms: f64,
    /// Send to response, in ms.
    rtt_ms: f64,
    /// Send time minus due time (open loop).
    late_ms: f64,
    /// Whether the `/eval` answer is checked against the in-process one.
    sampled: bool,
    /// The `y` of a sampled `/eval` answer.
    y: Option<f64>,
    /// The trace id of an `/eval` answer, to find its `/requests` event.
    trace_id: Option<String>,
    error: Option<String>,
}

/// The number after `"key":` in a flat JSON object.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let key = format!("\"{key}\":");
    let rest = &text[text.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// The string after `"key":` in a flat JSON object.
fn json_string<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let key = format!("\"{key}\":\"");
    let rest = &text[text.find(&key)? + key.len()..];
    Some(&rest[..rest.find('"')?])
}

/// The `y` of an `/eval` body.
fn body_y(body: &str) -> Option<f64> {
    json_number(body, "y")
}

fn send(client: &mut HttpClient, req: &Req, sampled: bool) -> Outcome {
    match client.get(&req.path) {
        Ok((status, body)) => Outcome {
            latency_ms: if status == 200 { 0.0 } else { FAILED_MS },
            rtt_ms: 0.0,
            late_ms: 0.0,
            sampled,
            y: if sampled { body_y(&body) } else { None },
            trace_id: req
                .class
                .is_eval()
                .then(|| json_string(&body, "trace_id").map(str::to_string))
                .flatten(),
            error: (status != 200).then(|| format!("{} -> {status}", req.path)),
        },
        Err(e) => Outcome {
            latency_ms: FAILED_MS,
            rtt_ms: 0.0,
            late_ms: 0.0,
            sampled,
            y: None,
            trace_id: None,
            error: Some(format!("{}: {e}", req.path)),
        },
    }
}

/// Sends `reqs` on `clients`, each connection taking the next request as
/// soon as it is free. With `due` (offsets from `start`), a request is not
/// sent before it is due and its latency runs from the due time.
fn drive(
    clients: &mut [HttpClient],
    tracers: &mut [Option<Tracer>],
    reqs: &[Req],
    first_index: usize,
    due: Option<(&[f64], Instant)>,
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Outcome>> = vec![None; reqs.len()];
    let results: Vec<Vec<(usize, Outcome)>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(client, tracer)| {
                let next = &next;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(i) else { break };
                        let due_at =
                            due.map(|(offsets, start)| start + Duration::from_secs_f64(offsets[i]));
                        if let Some(due_at) = due_at {
                            let now = Instant::now();
                            if due_at > now {
                                std::thread::sleep(due_at - now);
                            }
                        }
                        let sent = Instant::now();
                        let sample =
                            req.class.is_eval() && (first_index + i).is_multiple_of(SAMPLE_EVERY);
                        let mut out = match tracer.as_mut() {
                            Some(t) => t.time(req.class.span(), || send(client, req, sample)),
                            None => send(client, req, sample),
                        };
                        let done = Instant::now();
                        let from = due_at.unwrap_or(sent);
                        out.late_ms = due_at.map_or(0.0, |d| ms(sent.saturating_duration_since(d)));
                        out.rtt_ms = ms(done - sent);
                        out.latency_ms = out.latency_ms.max(ms(done - from));
                        mine.push((i, out));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for (i, out) in results.into_iter().flatten() {
        slots[i] = Some(out);
    }
    slots
        .into_iter()
        .map(|o| o.expect("every request is sent"))
        .collect()
}

/// One uptime checkpoint: requests served so far, `/metrics` latency, spans
/// the collector holds, daemon RSS.
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    served: usize,
    scrape_ms: f64,
    spans: f64,
    rss_mb: f64,
}

/// Sum of the `gsu_span_count` samples of an exposition.
fn spans_retained(exposition: &str) -> f64 {
    exposition
        .lines()
        .filter(|l| l.starts_with("gsu_span_count"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// A sample of an exposition (first line starting with `name` followed by
/// a space or a label set).
fn sample(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .find(|l| {
            l.strip_prefix(name)
                .is_some_and(|r| r.starts_with([' ', '{']))
        })
        .and_then(|l| l.rsplit(' ').next()?.parse().ok())
        .unwrap_or(0.0)
}

fn checkpoint(
    client: &mut HttpClient,
    daemon: &Daemon,
    served: usize,
) -> Result<Checkpoint, String> {
    let t = Instant::now();
    let (status, body) = client
        .get("/metrics")
        .map_err(|e| format!("/metrics: {e}"))?;
    let scrape_ms = ms(t.elapsed());
    if status != 200 {
        return Err(format!("/metrics -> {status}"));
    }
    Ok(Checkpoint {
        served,
        scrape_ms,
        spans: spans_retained(&body),
        rss_mb: proc_status_mb(Some(daemon.pid()), "VmRSS").unwrap_or(0.0),
    })
}

/// The daemon's side of the `/eval`s of one segment: its `/requests` wide
/// events (the newest `outs.len()` or fewer), matched to the answers by
/// trace id. Pushes each matched request's service time and its queueing
/// time, the client's send-to-response time minus the service time.
fn split_queue_service(
    client: &mut HttpClient,
    outs: &[Outcome],
    queue_ms: &mut Vec<f64>,
    service_ms: &mut Vec<f64>,
) -> Result<(), String> {
    let traced: Vec<(&str, f64)> = outs
        .iter()
        .filter(|o| o.error.is_none())
        .filter_map(|o| Some((o.trace_id.as_deref()?, o.rtt_ms)))
        .collect();
    if traced.is_empty() {
        return Ok(());
    }
    let (status, jsonl) = client
        .get(&format!("/requests?n={}", traced.len()))
        .map_err(|e| format!("/requests: {e}"))?;
    if status != 200 {
        return Err(format!("/requests -> {status}"));
    }
    let service: std::collections::HashMap<&str, f64> = jsonl
        .lines()
        .filter_map(|l| Some((json_string(l, "trace_id")?, json_number(l, "service_us")?)))
        .collect();
    for (id, rtt_ms) in traced {
        if let Some(us) = service.get(id) {
            service_ms.push(us / 1e3);
            queue_ms.push((rtt_ms - us / 1e3).max(0.0));
        }
    }
    Ok(())
}

/// Counts every request, checking status and the sampled answers. A
/// failed request is charged [`FAILED_MS`].
fn tally_requests(
    tally: &mut Tally,
    subjects: &Subjects,
    reqs: &[Req],
    outs: &mut [Outcome],
    evaluate_us: &mut Vec<f64>,
) {
    for (req, out) in reqs.iter().zip(outs) {
        let outcome = if let Some(e) = &out.error {
            Err(e.clone())
        } else if !out.sampled {
            Ok(())
        } else if let Some(y) = out.y {
            let t = Instant::now();
            let want = subjects.y(req);
            evaluate_us.push(ms(t.elapsed()) * 1e3);
            match want {
                Ok(want) if want.to_bits() == y.to_bits() => Ok(()),
                Ok(want) => Err(format!("{}: served y {y}, in-process {want}", req.path)),
                Err(e) => Err(format!("{}: in-process evaluate failed: {e}", req.path)),
            }
        } else {
            Err(format!("{}: sampled /eval has no numeric y", req.path))
        };
        if outcome.is_err() {
            out.latency_ms = FAILED_MS;
        }
        tally.record(outcome);
    }
}

/// The φ of the largest `y` (the first of equal maxima).
fn best_phi(points: impl Iterator<Item = (f64, f64)>) -> Option<f64> {
    points
        .fold(None, |best: Option<(f64, f64)>, (phi, y)| match best {
            Some((_, b)) if b >= y => best,
            _ => Some((phi, y)),
        })
        .map(|(phi, _)| phi)
}

/// One planner query: `/eval` over a coarse φ grid for a parameter
/// assignment the daemon has not seen (its first request builds), then the
/// best φ. Returns its wall time, or [`FAILED_MS`] when it failed; every
/// answer and the best φ are checked against the in-process pipeline.
fn planner_query(client: &mut HttpClient, q: usize, tally: &mut Tally) -> Result<f64, String> {
    let e = |e: PerfError| e.to_string();
    let base = GsuParams::paper_baseline();
    let mu = optimum_mu(q);
    let phis: Vec<f64> = (0..=OPTIMUM_STEPS)
        .map(|i| base.theta * i as f64 / OPTIMUM_STEPS as f64)
        .collect();
    let t = Instant::now();
    let answers: Vec<_> = phis
        .iter()
        .map(|phi| client.get(&format!("/eval?phi={phi}&mu_new={mu}")))
        .collect();
    let served_best = best_phi(
        answers
            .iter()
            .zip(&phis)
            .filter_map(|(a, &phi)| Some((phi, body_y(&a.as_ref().ok()?.1)?))),
    );
    let elapsed = ms(t.elapsed());
    let failed_before = tally.failed;
    let twin = GsuAnalysis::new(base.with_mu_new(mu).map_err(e)?).map_err(e)?;
    let mut want = Vec::new();
    for (answer, &phi) in answers.iter().zip(&phis) {
        let y = twin.evaluate(phi).map_err(e)?.y;
        want.push((phi, y));
        tally.record(match answer {
            Ok((200, body)) if body_y(body).map(f64::to_bits) == Some(y.to_bits()) => Ok(()),
            Ok((status, body)) => Err(format!("planner query φ={phi}: {status} {body}")),
            Err(err) => Err(format!("planner query φ={phi}: {err}")),
        });
    }
    let in_process = best_phi(want.into_iter());
    tally.record(if served_best == in_process {
        Ok(())
    } else {
        Err(format!(
            "planner query {q}: served best φ {served_best:?}, in-process {in_process:?}"
        ))
    });
    Ok(if tally.failed == failed_before {
        elapsed
    } else {
        FAILED_MS
    })
}

pub fn run(args: &Args, bin: &Path) -> Result<Report, String> {
    let mut r = Report::new();
    let subjects = Subjects::build()?;
    let trace = args.trace;
    let epoch = Instant::now();

    // (a) Start-up. More start-ups, timed and stopped at once, follow
    // after every cycle while the serving daemon idles.
    let (daemon, ready) = Daemon::start(bin)?;
    let mut setup = vec![ready];

    let mut clients: Vec<HttpClient> = (0..CONNECTIONS)
        .map(|_| HttpClient::new(daemon.addr, true))
        .collect();
    let mut tracers: Vec<Option<Tracer>> = (0..CONNECTIONS)
        .map(|c| trace.then(|| Tracer::new(epoch, c as u32 + 1)))
        .collect();
    let mut mix = Mix::new(args.seed, &subjects);
    let mut arrivals = SimRng::stream(args.seed, u64::MAX);
    let mut served = 0usize;
    let mut checkpoints = Vec::new();
    if trace {
        checkpoints.push(checkpoint(&mut clients[0], &daemon, served)?);
    }

    // (b) and (c) alternate in cycles, so that every metric samples the
    // whole run rather than one stretch of it.
    let open_blocks = (OPEN_BLOCKS_PER_S * args.seconds / CYCLES as f64).ceil() as usize;
    let rounds = (CLOSED_ROUNDS_PER_S * args.seconds / CYCLES as f64).ceil() as usize;
    let mut open = Vec::new();
    let mut open_out = Vec::new();
    let mut queue_ms = Vec::new();
    let mut service_ms = Vec::new();
    let mut round_ms = Vec::new();
    let mut optimum = Vec::new();
    let mut evaluate_us = Vec::new();
    for _ in 0..CYCLES {
        // (b) Open loop on a Poisson schedule.
        let reqs: Vec<Req> = (0..open_blocks).flat_map(|_| mix.block()).collect();
        let mut at = 0.0;
        let due: Vec<f64> = reqs
            .iter()
            .map(|_| {
                at += arrivals.exp(OPEN_RATE);
                at
            })
            .collect();
        let mut outs = drive(
            &mut clients,
            &mut tracers,
            &reqs,
            served,
            Some((&due, Instant::now())),
        );
        served += reqs.len();
        tally_requests(&mut r.tally, &subjects, &reqs, &mut outs, &mut evaluate_us);
        if trace {
            split_queue_service(&mut clients[0], &outs, &mut queue_ms, &mut service_ms)?;
        }
        open.extend(reqs);
        open_out.extend(outs);

        // (c) Closed loop, one mix block per round; (d) a planner query
        // before every few rounds. The kernel is timed before each round,
        // not right after it, when the daemon may still be finishing the
        // round's bookkeeping.
        for round in 0..rounds {
            r.calibration.sample();
            if round.is_multiple_of(OPTIMUM_EVERY) {
                optimum.push(planner_query(&mut clients[0], optimum.len(), &mut r.tally)?);
                served += OPTIMUM_STEPS + 1;
            }
            let block = mix.block();
            let t = Instant::now();
            let mut outs = drive(&mut clients, &mut tracers, &block, served, None);
            round_ms.push(ms(t.elapsed()));
            served += block.len();
            tally_requests(&mut r.tally, &subjects, &block, &mut outs, &mut evaluate_us);
            if trace {
                split_queue_service(&mut clients[0], &outs, &mut queue_ms, &mut service_ms)?;
            }
        }
        if trace {
            checkpoints.push(checkpoint(&mut clients[0], &daemon, served)?);
        }
        for _ in 0..STARTUPS_PER_CYCLE {
            setup.push(Daemon::start(bin)?.1);
        }
    }
    let (_, final_metrics) = clients[0]
        .get("/metrics")
        .map_err(|e| format!("/metrics: {e}"))?;
    let rss_mb = proc_status_mb(Some(daemon.pid()), "VmHWM").ok_or("daemon VmHWM unreadable")?;

    let open_of = |pred: &dyn Fn(Class) -> bool| -> Vec<f64> {
        open.iter()
            .zip(&open_out)
            .filter(|(q, _)| pred(q.class))
            .map(|(_, o)| o.latency_ms)
            .collect()
    };
    let evals = open_of(&|c| c.is_eval());
    eprintln!(
        "serve-mixed: {served} requests ({} open at {OPEN_RATE}/s, {} closed in {} rounds), \
         {} /eval samples, {} start-ups, {} planner queries, pool width {}",
        open.len(),
        round_ms.len() * BLOCK_SIZE,
        round_ms.len(),
        evals.len(),
        setup.len(),
        optimum.len(),
        pool_width()
    );

    if !trace {
        // At the reference speed, by the kernel's median over the run.
        let f = r.calibration.factor();
        r.set("setup_s", median(&setup) * f);
        // Pass k is round k of every cycle, so that every pass sees the
        // daemon at every uptime, from fresh to soaked, and the passes are
        // the same work. (Whole cycles grow with uptime, so their median
        // would rest on the middle one or two.)
        let passes: Vec<f64> = (0..rounds)
            .map(|k| round_ms.iter().skip(k).step_by(rounds).sum())
            .collect();
        r.set("pass_ms.p50", median(&passes) * f);
        r.set("pass_ms.p90", quantile(&passes, 0.9) * f);
        r.set("optimum_ms.p50", median(&optimum) * f);
        r.set("eval_ms.p50", median(&evals) * f);
        let closed_s = round_ms.iter().sum::<f64>() / 1e3;
        r.set(
            "closed_rps",
            (round_ms.len() * BLOCK_SIZE) as f64 / closed_s / f,
        );
        r.set("rss_mb", rss_mb);
        return Ok(r);
    }

    // Traced: HTTP layers from the client spans and the daemon's own
    // counters, numeric layers from an in-process reconstruction of the
    // served scenarios.
    drop(clients);
    drop(daemon);
    let mut tracer = Tracer::new(epoch, 0);
    for t in tracers.into_iter().flatten() {
        tracer.merge(t);
    }
    eprintln!(
        "serve-mixed: {} /eval answers matched to their /requests events",
        queue_ms.len()
    );
    let core_eval_us = median(&evaluate_us);
    let scrapes = open_of(&|c| c == Class::Metrics);
    r.set("core.evaluate_us.p50", core_eval_us);
    r.set(
        "serve.eval_overhead_ms.p50",
        median(&evals) - core_eval_us / 1e3,
    );
    r.set("serve.eval_ms.p90", quantile(&evals, 0.9));
    r.set("serve.eval_ms.p99", quantile(&evals, 0.99));
    r.set(
        "serve.healthz_ms.p50",
        median(&open_of(&|c| c == Class::Healthz)),
    );
    r.set("serve.scrape_ms.p50", median(&scrapes));
    r.set("serve.scrape_ms.p90", quantile(&scrapes, 0.9));
    r.set("serve.queue_ms.p99", quantile(&queue_ms, 0.99));
    r.set("serve.service_ms.p99", quantile(&service_ms, 0.99));
    let hits = sample(&final_metrics, "gsu_serve_analysis_cache_hits");
    let misses = sample(&final_metrics, "gsu_serve_analysis_cache_misses");
    r.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    r.set("telemetry.spans_retained", spans_retained(&final_metrics));
    r.set("telemetry.scrape_bytes", final_metrics.len() as f64);
    let kreq = |c: &Checkpoint| c.served as f64 / 1e3;
    let scrape_curve: Vec<(f64, f64)> =
        checkpoints.iter().map(|c| (kreq(c), c.scrape_ms)).collect();
    let rss_curve: Vec<(f64, f64)> = checkpoints.iter().map(|c| (kreq(c), c.rss_mb)).collect();
    r.set("telemetry.scrape_ms_per_kreq", slope(&scrape_curve));
    r.set("serve.rss_mb_per_kreq", slope(&rss_curve));
    let late: Vec<f64> = open_out.iter().map(|o| o.late_ms).collect();
    r.set("gen.late_ms.p99", quantile(&late, 0.99));
    let e = |e: PerfError| e.to_string();
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            GsuAnalysis::new(GsuParams::paper_baseline())
                .map(|a| drop(std::hint::black_box(a)))
                .map_err(e)?;
            Ok(ms(t.elapsed()))
        })
        .collect::<Result<_, String>>()?;
    r.set("core.build_ms", median(&builds));

    let mut extra =
        String::from("\n# uptime checkpoints\n# served  scrape_ms  spans_retained  rss_mb\n");
    for c in &checkpoints {
        extra.push_str(&format!(
            "{:>8} {:>10.3} {:>15} {:>7.1}\n",
            c.served, c.scrape_ms, c.spans, c.rss_mb
        ));
    }
    // The served scenarios on their own grids, layer by layer.
    let mut probe = Probe::new(tracer);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / 4.0);
    extra.push_str(&traced_passes(
        &mut r,
        &mut probe,
        &subjects.scenarios,
        deadline,
    )?);
    let table = probe
        .tracer
        .write(&crate::out_dir(), "serve-mixed", &extra)?;
    eprintln!(
        "{}{extra}wrote {}",
        probe.tracer.self_time_table(),
        table.display()
    );
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(sampled: bool, y: Option<f64>) -> Outcome {
        Outcome {
            latency_ms: 1.0,
            rtt_ms: 1.0,
            late_ms: 0.0,
            sampled,
            y,
            trace_id: None,
            error: None,
        }
    }

    #[test]
    fn null_y_is_not_a_number() {
        let body = r#"{"trace_id":"00ff00ff00ff00ff","phi":7000,"y":null}"#;
        assert_eq!(body_y(body), None);
        assert_eq!(json_number(body, "phi"), Some(7000.0));
        assert_eq!(json_string(body, "trace_id"), Some("00ff00ff00ff00ff"));
        assert_eq!(body_y(r#"{"y":0.25}"#), Some(0.25));
    }

    #[test]
    fn a_sampled_answer_without_y_fails_and_misses_every_limit() {
        let subjects = Subjects {
            baseline: GsuAnalysis::new(GsuParams::paper_baseline()).unwrap(),
            scenarios: Vec::new(),
            overrides: Vec::new(),
        };
        let req = Req {
            class: Class::Plain,
            subject: 0,
            phi: 7000.0,
            path: "/eval?phi=7000".into(),
        };
        let want = subjects.y(&req).unwrap();
        let reqs = vec![req; 4];
        let mut outs = vec![
            outcome(false, None),
            outcome(true, None),
            outcome(true, Some(want)),
            outcome(true, Some(want * 0.5)),
        ];
        let mut tally = Tally::default();
        tally_requests(&mut tally, &subjects, &reqs, &mut outs, &mut Vec::new());
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        let charged: Vec<f64> = outs.iter().map(|o| o.latency_ms).collect();
        assert_eq!(charged, [1.0, FAILED_MS, 1.0, FAILED_MS]);
    }

    #[test]
    fn the_mix_holds_exact_counts_and_loadgen_phi_ranges() {
        let subjects = Subjects {
            baseline: GsuAnalysis::new(GsuParams::paper_baseline()).unwrap(),
            scenarios: Vec::new(),
            overrides: Vec::new(),
        };
        let mut mix = Mix::new(7, &subjects);
        mix.scenario_theta = vec![5000.0; SCENARIOS.len()];
        let block = mix.block();
        assert_eq!(block.len(), BLOCK_SIZE);
        for (class, n) in MIX {
            assert_eq!(block.iter().filter(|r| r.class == class).count(), n);
        }
        for r in &block {
            match r.class {
                Class::Scenario => assert!((1500.0..=4000.0).contains(&r.phi)),
                Class::Plain | Class::Override => assert!((2000.0..=9000.0).contains(&r.phi)),
                _ => {}
            }
        }
    }
}
