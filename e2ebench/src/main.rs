//! End-to-end benchmark of the gcx task path.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload bag_inmem|paced_tcp|sweep_payload --seed N --seconds S --trace 0|1
//! ```
//!
//! Every task goes SDK `Executor` → `Link` (in-process or TCP) →
//! `gcx-cloud` service → `gcx-mq` broker → `gcx-endpoint` agent, exec core
//! and engine → worker → `gcx-pyfn` / `gcx-shell` → push-stream result, and
//! every result is checked against a value the benchmark computes itself
//! (see `workload.rs` for the workloads and why each exists).
//!
//! `--trace 0` measures the end-to-end metrics with the service tracer off
//! (`TraceConfig::sample_every = 0`). `--trace 1` is the separate traced
//! run: it repeats the workload untraced and then with the program's
//! default tracer on, reports the difference as tracing overhead, and adds
//! the per-layer figures: counters the layers publish through
//! `WebService::metrics()` / `Executor::metrics()`, µs timings the
//! benchmark takes around calls into each layer's public functions
//! (`layers.rs`), the tracer's lifecycle legs, and an idle probe.
//!
//! The last line of standard output is the result object; the line before
//! it stamps the run's provenance. A human-readable table goes to standard
//! error.

mod layers;
mod report;
mod stack;
mod workload;

use std::time::{Duration, Instant};

use report::{median, quantile, Report};
use workload::{RunStats, Workload};

/// Lifecycle legs the program's tracer stamps on every task.
pub const LEGS: [&str; 6] = ["submit", "queue", "dispatch", "execute", "worker", "result"];

/// Fresh stacks per set-up measurement; the median is reported.
const SETUP_REPS: usize = 7;
/// Idle window after the traced run, with the stack up and no tasks.
const IDLE_WINDOW: Duration = Duration::from_secs(2);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"profile\": \"{profile}\", \"git_rev\": {}, \"rustc\": {}, \"params\": {{{}}}}}}}",
        report::text(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace as u8,
        report::text(&git_rev()),
        report::text(env!("E2EBENCH_RUSTC")),
        args.workload.params()
    )
}

/// The end-to-end metrics of one run: medians over its bags or segments
/// (the paced window is one group).
fn end_to_end(st: &RunStats, setup_s: f64, out: &mut Report) {
    let over =
        |f: fn(&workload::Group) -> f64| median(&st.groups.iter().map(f).collect::<Vec<_>>());
    out.put("tasks_per_s", over(|g| g.tasks_per_s), "1/s");
    out.put("latency_p50_ms", over(|g| g.p50_ms), "ms");
    out.put("latency_p99_ms", over(|g| g.p99_ms), "ms");
    out.put("peak_rss_mb", over(|g| g.peak_rss_mb), "MB");
    out.put("setup_s", setup_s, "s");
}

/// Process CPU per task. It is a per-layer figure, not an end-to-end one:
/// the bag and paced workloads spend most of their CPU waking sleep-polling
/// loops, and on a shared 2-CPU host the price of a wake-up drifts by about
/// half over tens of seconds (0.13 to 0.23 ms per paced task inside one
/// 30 s run), far beyond any bound a regression gate could use.
fn cpu_ms_per_task(st: &RunStats) -> f64 {
    median(&st.cpu_ms_per_task)
}

/// Why a run is not a valid measurement, if it is not.
fn invalid(workload: Workload, st: &RunStats) -> Option<String> {
    if let Some(e) = &st.first_error {
        return Some(format!(
            "{} of {} tasks failed; first: {e}",
            st.failed, st.attempted
        ));
    }
    if st.measured == 0 {
        return Some("no task completed inside the measured window".into());
    }
    if workload == Workload::PacedTcp {
        return st.paced_valid().err();
    }
    None
}

fn setup(args: &Args, traced: bool) -> Result<f64, String> {
    stack::setup_seconds(
        args.workload.engine(),
        args.workload.transport(),
        traced,
        SETUP_REPS,
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", provenance(&args));
    let wl = args.workload;
    let mut out = Report::default();
    let mut problems = Vec::new();
    let (attempted, failed);

    if !args.trace {
        let setup_s = setup(&args, false);
        let (st, stack) = workload::run(wl, args.seed, args.seconds, false, false);
        stack.stop();
        end_to_end(&st, *setup_s.as_ref().unwrap_or(&0.0), &mut out);
        problems.extend(setup_s.err());
        problems.extend(invalid(wl, &st));
        summary(wl, &st);
        (attempted, failed) = (st.attempted, st.failed);
    } else {
        // Untraced pass first: its figures are the base of the overhead.
        let setup0 = setup(&args, false);
        let (st0, stack0) = workload::run(wl, args.seed, args.seconds, false, false);
        stack0.stop();
        let mut base = Report::default();
        end_to_end(&st0, *setup0.as_ref().unwrap_or(&0.0), &mut base);
        problems.extend(invalid(wl, &st0));

        let setup1 = setup(&args, true);
        let (st1, stack1) = workload::run(wl, args.seed, args.seconds, true, true);
        let (cpu0, t0) = (report::cpu_time(), Instant::now());
        std::thread::sleep(IDLE_WINDOW);
        let idle_cpu = report::cpu_ms_since(cpu0) / 1e3 / t0.elapsed().as_secs_f64();
        let threads = report::thread_count();
        stack1.stop();
        let mut traced = Report::default();
        end_to_end(&st1, *setup1.as_ref().unwrap_or(&0.0), &mut traced);
        problems.extend(invalid(wl, &st1));
        problems.extend(setup0.err());
        problems.extend(setup1.err());
        summary(wl, &st1);

        overhead(&base, &traced, &mut out);
        out.put("proc.cpu_ms_per_task", cpu_ms_per_task(&st0), "ms");
        out.put(
            "overhead.cpu_ms_per_task",
            cpu_ms_per_task(&st1) - cpu_ms_per_task(&st0),
            "ms",
        );
        out.put("proc.idle_cpu_pct", idle_cpu * 100.0, "%");
        out.put("proc.threads", threads as f64, "count");
        per_layer(&st1, &mut out);
        if let Err(e) = layers::probe(wl, args.seed, &mut out) {
            problems.push(format!("layer probe: {e}"));
        }
        attempted = st0.attempted + st1.attempted;
        failed = st0.failed + st1.failed;
        out.put(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        );
    }

    for p in &problems {
        eprintln!("e2ebench: INVALID: {p}");
    }
    out.print_table(&format!(
        "{} seed {} trace {}",
        wl.name(),
        args.seed,
        args.trace as u8
    ));
    println!(
        "{}",
        out.result_line(problems.is_empty(), attempted.max(1), failed)
    );
}

/// Sample counts and the open-loop honesty figures, for the reader.
fn summary(wl: Workload, st: &RunStats) {
    eprintln!(
        "{}: attempted {} failed {} measured {} (latency samples) in {:.3} s; groups {}; cpu per task {:.4} ms",
        wl.name(),
        st.attempted,
        st.failed,
        st.measured,
        st.wall.as_secs_f64(),
        st.groups.len(),
        cpu_ms_per_task(st)
    );
    let rates: Vec<String> = st
        .groups
        .iter()
        .map(|g| format!("{:.0}", g.tasks_per_s))
        .collect();
    eprintln!("  throughput per group: {}", rates.join(" "));
    eprintln!(
        "  rss now {:.1} MiB, threads now {}",
        report::rss_mib(),
        report::thread_count()
    );
    if wl == Workload::PacedTcp {
        eprintln!(
            "  generator lateness p99 {:.3} ms, max {:.3} ms; backlog at window end {}",
            quantile(&st.lateness_ms, 0.99),
            st.lateness_ms.iter().copied().fold(0.0, f64::max),
            st.backlog_end
        );
    }
    if wl == Workload::SweepPayload {
        eprintln!(
            "  scoring tasks {}, repeated payloads {} ({:.3})",
            st.scoring_tasks,
            st.repeated_payloads,
            st.repeated_payloads as f64 / st.scoring_tasks.max(1) as f64
        );
    }
}

/// Traced minus untraced, for every end-to-end metric.
fn overhead(base: &Report, traced: &Report, out: &mut Report) {
    for (name, unit, t) in traced.iter() {
        let b = base.get(name).expect("same metric set");
        out.put(&format!("overhead.{name}"), t - b, unit);
    }
}

/// Ratios and counts from the traced run's counter deltas, each ratio with
/// its base.
fn per_layer(st: &RunStats, out: &mut Report) {
    let c = |k: &str| st.counters.get(k).copied().unwrap_or(0) as f64;
    let tasks = st.measured.max(1) as f64;
    let per_task = |v: f64| v / tasks;
    out.put("base.tasks", st.measured as f64, "count");
    out.put("base.groups", st.groups.len() as f64, "count");
    out.put("base.api_requests", c("api.requests"), "count");

    out.put("sdk.submit_call_us", median(&st.submit_us), "us");
    out.put(
        "sdk.tasks_per_request",
        c("cloud.tasks_submitted") / c("api.requests").max(1.0),
        "count",
    );
    out.put("sdk.resubmits", c("sdk.tasks_resubmitted"), "count");

    out.put(
        "wire.frames_per_task",
        per_task(c("wire.frames_in") + c("wire.frames_out")),
        "count",
    );
    out.put("wire.bytes_per_task", per_task(c("net.lo_tx_bytes")), "B");

    out.put(
        "cloud.requests_per_task",
        per_task(c("api.requests")),
        "count",
    );
    out.put(
        "cloud.api_bytes_per_task",
        per_task(c("api.bytes_in") + c("api.bytes_out")),
        "B",
    );
    out.put("cloud.status_polls", c("cloud.status_polls"), "count");
    out.put(
        "cloud.duplicate_results",
        c("cloud.duplicate_results_dropped"),
        "count",
    );

    let lookups = c("blob.cas_hits") + c("blob.cas_misses");
    out.put("blob.cas_lookups", lookups, "count");
    out.put(
        "blob.cas_hit_ratio",
        c("blob.cas_hits") / lookups.max(1.0),
        "ratio",
    );
    out.put(
        "payload.repeat_share",
        st.repeated_payloads as f64 / st.scoring_tasks.max(1) as f64,
        "ratio",
    );

    out.put(
        "payload.bytes_moved_per_task",
        per_task(c("payload.bytes_moved")),
        "B",
    );
    out.put(
        "payload.encodes_per_task",
        per_task(c("payload.encodes")),
        "count",
    );
    out.put(
        "payload.decodes_per_task",
        per_task(c("payload.decodes")),
        "count",
    );

    out.put(
        "mq.msgs_per_task",
        per_task(c("mq.messages_published")),
        "count",
    );
    out.put("mq.redeliveries", c("mq.redeliveries"), "count");

    out.put("endpoint.redispatches", st.redispatches as f64, "count");

    out.put("gen.lateness_p99_ms", quantile(&st.lateness_ms, 0.99), "ms");
    out.put(
        "gen.lateness_max_ms",
        st.lateness_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    out.put("gen.backlog_end", st.backlog_end as f64, "count");

    // The program stamps spans in whole milliseconds.
    let spans: usize = st.legs.values().map(Vec::len).sum();
    out.put("trace.spans", spans as f64, "count");
    for leg in LEGS {
        let v: Vec<f64> = st
            .legs
            .get(leg)
            .map_or(Vec::new(), |v| v.iter().map(|&x| x as f64).collect());
        out.put(&format!("trace.{leg}_ms"), median(&v), "ms_int");
    }
}
