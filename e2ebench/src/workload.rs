//! The three workloads, their seeded inputs, and the correctness oracle.
//!
//! Every workload drives one `Executor` from one generator thread (at most
//! one TCP connection) and checks every result against a value computed
//! here, without the program's help:
//!
//! - `bag_inmem` — closed loop, whole bags of no-op tasks submitted up
//!   front (like `executor.map` over a parameter sweep), in-process link,
//!   `ThreadEngine`. Loads per-task overhead in `sdk`, `cloud`, `mq` and
//!   `endpoint`; bypasses `wire`, htex, `pyfn` compute and CAS hits (tiny
//!   unique args are stored once and stay inline). Figures are medians over
//!   many whole bags, each on a fresh stack, because a saturated closed loop
//!   is chaotic on this stack: with 512 futures outstanding, nine fresh
//!   processes on a 2-CPU box gave 5.1k-13.3k tasks/s while using about a
//!   quarter of the CPU, so fixed sleep-polling naps, not CPU, set the pace.
//!   Whole 5,000-task bags repeat far more closely, though slow and fast
//!   phases lasting several seconds remain, so this workload spreads most.
//! - `paced_tcp` — open loop at a fixed 400 tasks/s, well below capacity,
//!   over real localhost TCP to a `GlobusComputeEngine`. The interactive
//!   user: latency is the sum of fixed waits (batch window, polling naps)
//!   plus `wire` and htex hops, timed from each task's due time. Loads
//!   `wire`; bypasses the CAS hit path and worker compute.
//! - `sweep_payload` — closed loop with a fixed window of outstanding tasks,
//!   in-process to a `GlobusComputeEngine`: a multi-line pyfn scoring body
//!   over 16-63 KiB bytes args, about half of which repeat an earlier
//!   payload byte for byte (CAS hit, shipped by reference) while the rest
//!   are stored and shipped inline (CAS write), plus 10% `ShellFunction`
//!   tasks. Loads `payload`, `blob`, `pyfn`, `shell` and the worker;
//!   bypasses `wire`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, Sender};
use gcx_core::error::GcxResult;
use gcx_core::shellres::ShellResult;
use gcx_core::value::Value;
use gcx_sdk::{Executor, Function, PyFunction, ShellFunction};

use crate::report::{cpu_ms_since, ms, quantile, us, RssPeak};
use crate::stack::{EngineKind, Stack, Transport, NOOP_SRC};

/// Tasks per bag in `bag_inmem`.
pub const BAG_SIZE: usize = 5_000;
/// Offered rate of `paced_tcp`, tasks per second.
pub const PACED_RATE: f64 = 400.0;
/// `paced_tcp` reports CPU per task as the median over slices this long.
const CPU_SLICE: Duration = Duration::from_secs(1);
/// Warm-up before `paced_tcp` starts measuring.
pub const PACED_WARMUP: Duration = Duration::from_secs(1);
/// Outstanding tasks in `sweep_payload`'s closed loop.
pub const SWEEP_WINDOW: usize = 256;
/// Tasks in one `sweep_payload` segment. Each segment runs on a fresh
/// stack, because the service keeps every task record with its payload for
/// the life of the process: a run-long stack would hold gigabytes.
pub const SWEEP_SEGMENT_TASKS: usize = 2_048;
/// Smallest and largest bytes argument of a scoring task. The largest stays
/// below the service's 64 KiB inline threshold, so a first sighting is
/// stored and shipped inline and a repeat ships by reference.
pub const SWEEP_MIN_BYTES: usize = 16 * 1024;
pub const SWEEP_MAX_BYTES: usize = 63 * 1024;
/// Share of scoring tasks that repeat an earlier payload byte for byte.
pub const SWEEP_REPEAT_SHARE: f64 = 0.5;
/// Share of tasks that are `ShellFunction`s.
pub const SWEEP_SHELL_SHARE: f64 = 0.1;
/// Distinct payloads a repeat may draw from (the most recent ones).
const SWEEP_POOL: usize = 64;
/// Iterations of the scoring loop: 48-144, about 0.1-0.3 ms of interpreter
/// time per call.
const SCORE_MIN_N: i64 = 48;
const SCORE_SPAN_N: u64 = 97;
/// Longest a result may take before it counts as a timeout.
const RESULT_TIMEOUT: Duration = Duration::from_secs(30);

/// The scoring body. Its entry takes the payload, a seed and a loop count.
pub const SCORE_SRC: &str = "\
def score(data, seed, n):
    size = len(data)
    acc = seed % 1000003
    buckets = [0, 0, 0, 0, 0, 0, 0, 0]
    for i in range(n):
        acc = (acc * 31 + size + i) % 1000003
        k = acc % 8
        buckets[k] = buckets[k] + 1
    best = 0
    for k in range(8):
        if buckets[k] > buckets[best]:
            best = k
    return acc * 8 + best
";

/// The shell command template of the sweep's shell tasks.
pub const SHELL_CMD: &str = "echo {x} && seq 1 {n}";

/// Rust re-implementation of [`SCORE_SRC`], the oracle for scoring tasks.
pub fn score_oracle(size: usize, seed: i64, n: i64) -> i64 {
    let mut acc = seed % 1_000_003;
    let mut buckets = [0i64; 8];
    for i in 0..n {
        acc = (acc * 31 + size as i64 + i) % 1_000_003;
        buckets[(acc % 8) as usize] += 1;
    }
    let mut best = 0;
    for k in 0..8 {
        if buckets[k] > buckets[best] {
            best = k;
        }
    }
    acc * 8 + best as i64
}

/// Expected stdout of [`SHELL_CMD`] for `x` and `n`.
pub fn shell_oracle(x: i64, n: i64) -> String {
    let mut out = format!("{x}\n");
    for i in 1..=n {
        out.push_str(&format!("{i}\n"));
    }
    out
}

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    BagInmem,
    PacedTcp,
    SweepPayload,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::BagInmem => "bag_inmem",
            Workload::PacedTcp => "paced_tcp",
            Workload::SweepPayload => "sweep_payload",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        [
            Workload::BagInmem,
            Workload::PacedTcp,
            Workload::SweepPayload,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    pub fn engine(self) -> EngineKind {
        match self {
            Workload::BagInmem => EngineKind::Thread,
            Workload::PacedTcp | Workload::SweepPayload => EngineKind::Htex,
        }
    }

    pub fn transport(self) -> Transport {
        match self {
            Workload::PacedTcp => Transport::Tcp,
            Workload::BagInmem | Workload::SweepPayload => Transport::InProcess,
        }
    }

    /// The pyfn body the workload runs.
    pub fn body(self) -> &'static str {
        match self {
            Workload::SweepPayload => SCORE_SRC,
            Workload::BagInmem | Workload::PacedTcp => NOOP_SRC,
        }
    }

    /// The workload's parameters, as JSON object members.
    pub fn params(self) -> String {
        let engine = format!(
            "\"engine\": \"{}\", \"workers\": {}",
            match self.engine() {
                EngineKind::Thread => "ThreadEngine",
                EngineKind::Htex => "GlobusComputeEngine",
            },
            crate::stack::WORKERS
        );
        match self {
            Workload::BagInmem => format!(
                "\"loop\": \"closed\", \"bag_size\": {BAG_SIZE}, \"arg_bytes\": 8, \"transport\": \"in-process\", {engine}"
            ),
            Workload::PacedTcp => format!(
                "\"loop\": \"open\", \"rate_per_s\": {PACED_RATE}, \"warmup_s\": {}, \"arg_bytes\": 8, \"transport\": \"tcp\", {engine}",
                PACED_WARMUP.as_secs_f64()
            ),
            Workload::SweepPayload => format!(
                "\"loop\": \"closed\", \"window\": {SWEEP_WINDOW}, \"segment_tasks\": {SWEEP_SEGMENT_TASKS}, \"payload_bytes\": [{SWEEP_MIN_BYTES}, {SWEEP_MAX_BYTES}], \"repeat_share\": {SWEEP_REPEAT_SHARE}, \"shell_share\": {SWEEP_SHELL_SHARE}, \"score_n\": [{SCORE_MIN_N}, {}], \"transport\": \"in-process\", {engine}",
                SCORE_MIN_N + SCORE_SPAN_N as i64 - 1
            ),
        }
    }
}

/// splitmix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 > 1.0 - p
    }

    /// A no-op argument: any i64 is returned unchanged.
    pub fn arg(&mut self) -> i64 {
        self.next_u64() as i64
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// What a task must return.
#[derive(Clone, Debug)]
pub enum Expect {
    /// `Value::Int` equal to the argument (no-op tasks).
    Int(i64),
    /// A `ShellResult` with return code 0 and exactly this stdout.
    Shell(String),
}

/// Check one outcome against its expectation.
pub fn check(expect: &Expect, outcome: &GcxResult<Value>) -> Result<(), String> {
    match (expect, outcome) {
        (_, Err(e)) => Err(format!("task failed: {e}")),
        (Expect::Int(want), Ok(Value::Int(got))) if got == want => Ok(()),
        (Expect::Shell(want), Ok(v)) => match ShellResult::from_value(v) {
            Some(r) if r.returncode == 0 && &r.stdout == want => Ok(()),
            other => Err(format!(
                "shell task returned {other:?}, expected rc 0 and {want:?}"
            )),
        },
        (want, Ok(got)) => Err(format!("task returned {got:?}, expected {want:?}")),
    }
}

/// One task ready to submit.
pub struct TaskInput {
    pub shell: bool,
    pub args: Vec<Value>,
    pub kwargs: Value,
    pub expect: Expect,
    /// Scoring tasks only: whether the payload repeats an earlier one.
    pub repeat: bool,
}

/// Seeded task generator for one workload.
pub struct Inputs {
    rng: Rng,
    workload: Workload,
    pool: Vec<(Vec<u8>, i64, i64)>,
    pool_next: usize,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        Inputs {
            rng: Rng::new(seed),
            workload,
            pool: Vec::new(),
            pool_next: 0,
        }
    }

    pub fn next_task(&mut self) -> TaskInput {
        if self.workload != Workload::SweepPayload {
            let x = self.rng.arg();
            return TaskInput {
                shell: false,
                args: vec![Value::Int(x)],
                kwargs: Value::None,
                expect: Expect::Int(x),
                repeat: false,
            };
        }
        if self.rng.chance(SWEEP_SHELL_SHARE) {
            let x = self.rng.below(1_000_000) as i64;
            let n = 1 + self.rng.below(20) as i64;
            return TaskInput {
                shell: true,
                args: Vec::new(),
                kwargs: Value::map([("x", Value::Int(x)), ("n", Value::Int(n))]),
                expect: Expect::Shell(shell_oracle(x, n)),
                repeat: false,
            };
        }
        let repeat = !self.pool.is_empty() && self.rng.chance(SWEEP_REPEAT_SHARE);
        let (data, seed, n) = if repeat {
            self.pool[self.rng.below(self.pool.len() as u64) as usize].clone()
        } else {
            let span = (SWEEP_MAX_BYTES - SWEEP_MIN_BYTES + 1) as u64;
            let len = SWEEP_MIN_BYTES + self.rng.below(span) as usize;
            let fresh = (
                self.rng.bytes(len),
                self.rng.below(1_000_000_000) as i64,
                SCORE_MIN_N + self.rng.below(SCORE_SPAN_N) as i64,
            );
            if self.pool.len() < SWEEP_POOL {
                self.pool.push(fresh.clone());
            } else {
                self.pool[self.pool_next] = fresh.clone();
                self.pool_next = (self.pool_next + 1) % SWEEP_POOL;
            }
            fresh
        };
        let expect = Expect::Int(score_oracle(data.len(), seed, n));
        TaskInput {
            shell: false,
            args: vec![Value::Bytes(data), Value::Int(seed), Value::Int(n)],
            kwargs: Value::None,
            expect,
            repeat,
        }
    }
}

/// A task's completion, sent from the executor's result thread.
struct Done {
    idx: usize,
    at: Instant,
    outcome: GcxResult<Value>,
}

/// What one measured run produced.
#[derive(Default)]
pub struct RunStats {
    /// Tasks submitted (warm-up included) and tasks that failed: errors,
    /// wrong results, refusals and timeouts.
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Correct tasks inside the measured window (each is one latency
    /// sample) and the window's wall time.
    pub measured: u64,
    pub wall: Duration,
    /// CPU ms per task, one sample per group (per second for paced).
    pub cpu_ms_per_task: Vec<f64>,
    /// One entry per bag or segment; one for the paced window.
    pub groups: Vec<Group>,
    /// Timed `Executor::submit` calls, µs (only when asked for).
    pub submit_us: Vec<f64>,
    /// Counter deltas over the measured window (service registry plus the
    /// process-wide payload codec counters and loopback bytes).
    pub counters: BTreeMap<String, u64>,
    /// Lifecycle-leg durations (integer ms) from the service tracer.
    pub legs: BTreeMap<String, Vec<u64>>,
    /// Engine redispatches over the run.
    pub redispatches: u64,
    /// Sweep only: scoring tasks and how many repeated a payload.
    pub scoring_tasks: u64,
    pub repeated_payloads: u64,
    /// Paced only: generator lateness (ms) and the backlog at window end.
    pub lateness_ms: Vec<f64>,
    pub backlog_end: u64,
}

/// End-to-end figures of one independently measured unit of work.
pub struct Group {
    pub tasks_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Highest resident set size sampled while the group ran.
    pub peak_rss_mb: f64,
}

impl RunStats {
    fn close_group(&mut self, wall: Duration, latency_ms: &[f64], rss: RssPeak) {
        let tasks = latency_ms.len() as u64;
        self.measured += tasks;
        self.wall += wall;
        self.groups.push(Group {
            tasks_per_s: tasks as f64 / wall.as_secs_f64(),
            p50_ms: quantile(latency_ms, 0.50),
            p99_ms: quantile(latency_ms, 0.99),
            peak_rss_mb: rss.finish(),
        });
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(why);
        }
    }

    fn add_counters(&mut self, before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) {
        for (k, v) in after {
            let d = v.saturating_sub(before.get(k).copied().unwrap_or(0));
            *self.counters.entry(k.clone()).or_default() += d;
        }
    }

    fn add_legs(&mut self, stack: &Stack) {
        let service = stack.svc.tracer().clone();
        let client = stack.ex.metrics().tracer();
        for leg in crate::LEGS {
            // Over the wire the SDK stamps its submit leg (batch wait plus
            // the call) on its own collector; the service's submit span
            // covers only the service's share.
            let tracer = if leg == "submit" && stack.server.is_some() {
                &client
            } else {
                &service
            };
            self.legs
                .entry(leg.to_string())
                .or_default()
                .extend(tracer.leg_millis(leg));
        }
        self.redispatches += stack.agent.engine_status().redispatches_total;
    }

    /// Generator lateness p99 above one send period means the schedule was
    /// not kept; a backlog above a quarter second of offered load means the
    /// system did not keep up. Either makes the latency figures meaningless.
    pub fn paced_valid(&self) -> Result<(), String> {
        let period_ms = 1e3 / PACED_RATE;
        let p99 = quantile(&self.lateness_ms, 0.99);
        if p99 > period_ms {
            return Err(format!(
                "generator fell behind: lateness p99 {p99:.3} ms > {period_ms} ms"
            ));
        }
        let max_backlog = (PACED_RATE * 0.25) as u64;
        if self.backlog_end > max_backlog {
            return Err(format!(
                "backlog {} at window end > {max_backlog}",
                self.backlog_end
            ));
        }
        Ok(())
    }
}

/// Counters of the service registry plus process-wide ones.
fn snapshot(stack: &Stack) -> BTreeMap<String, u64> {
    let mut c = stack.svc.metrics().counter_snapshot();
    c.insert("payload.encodes".into(), gcx_core::payload::encode_count());
    c.insert("payload.decodes".into(), gcx_core::payload::decode_count());
    c.insert("net.lo_tx_bytes".into(), crate::report::loopback_bytes());
    for (k, v) in stack.ex.metrics().counter_snapshot() {
        // A wire executor keeps its own registry; in-process it is the
        // service's and already counted.
        c.entry(k).or_insert(v);
    }
    c
}

/// The workload's functions, registered on first submit.
struct Funcs {
    py: PyFunction,
    shell: ShellFunction,
}

impl Funcs {
    fn new(workload: Workload) -> Funcs {
        Funcs {
            py: PyFunction::new(workload.body()),
            shell: ShellFunction::new(SHELL_CMD),
        }
    }

    /// Submit one task and route its completion to `tx`, timing the
    /// `Executor::submit` call into `submit_us` when given.
    fn submit(
        &self,
        ex: &Executor,
        task: &TaskInput,
        idx: usize,
        tx: &Sender<Done>,
        submit_us: Option<&mut Vec<f64>>,
    ) -> GcxResult<()> {
        let func: &dyn Function = if task.shell { &self.shell } else { &self.py };
        let (args, kwargs) = (task.args.clone(), task.kwargs.clone());
        let t = Instant::now();
        let fut = ex.submit(func, args, kwargs)?;
        if let Some(v) = submit_us {
            v.push(us(t.elapsed()));
        }
        let tx = tx.clone();
        fut.on_done(move |r| {
            let _ = tx.send(Done {
                idx,
                at: Instant::now(),
                outcome: r.clone(),
            });
        });
        Ok(())
    }
}

/// Run `workload` for `seconds` of measurement. Returns the statistics and
/// the last stack, still running, for the idle probe.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    time_submits: bool,
) -> (RunStats, Stack) {
    let window = Duration::from_secs(seconds);
    match workload {
        Workload::BagInmem => run_bag(seed, window, traced, time_submits),
        Workload::PacedTcp => run_paced(seed, window, traced, time_submits),
        Workload::SweepPayload => run_sweep(seed, window, traced, time_submits),
    }
}

fn run_bag(seed: u64, window: Duration, traced: bool, time_submits: bool) -> (RunStats, Stack) {
    let wl = Workload::BagInmem;
    let f = Funcs::new(wl);
    let mut inputs = Inputs::new(wl, seed);
    let mut st = RunStats::default();
    let mut last_stack: Option<Stack> = None;
    // Bag 0 warms up the process and is not measured. Every bag runs on a
    // fresh stack, so bags are independent samples.
    let mut bag = 0usize;
    while st.failed == 0 && (bag < 4 || st.wall < window) {
        if let Some(prev) = last_stack.take() {
            prev.stop();
        }
        let stack = Stack::start(wl.engine(), wl.transport(), traced);
        let measuring = bag > 0;
        let (tx, rx) = unbounded::<Done>();
        let tasks: Vec<TaskInput> = (0..BAG_SIZE).map(|_| inputs.next_task()).collect();
        let mut sent_at = Vec::with_capacity(BAG_SIZE);
        let mut rss = RssPeak::new();
        let (c0, cpu0, t0) = (snapshot(&stack), crate::report::cpu_time(), Instant::now());
        let mut submitted = 0;
        for (i, task) in tasks.iter().enumerate() {
            rss.sample();
            sent_at.push(Instant::now());
            st.attempted += 1;
            let times = (measuring && time_submits).then_some(&mut st.submit_us);
            match f.submit(&stack.ex, task, i, &tx, times) {
                Ok(()) => submitted += 1,
                Err(e) => st.fail(format!("submit refused: {e}")),
            }
        }
        let mut lat = Vec::with_capacity(BAG_SIZE);
        let last = collect(&rx, submitted, &tasks, &mut st, |d| {
            rss.sample();
            lat.push(ms(d.at - sent_at[d.idx]))
        });
        if measuring {
            let wall = last.map_or(t0.elapsed(), |l| l - t0);
            st.cpu_ms_per_task
                .push(cpu_ms_since(cpu0) / lat.len().max(1) as f64);
            st.close_group(wall, &lat, rss);
            st.add_counters(&c0, &snapshot(&stack));
            st.add_legs(&stack);
        }
        last_stack = Some(stack);
        bag += 1;
    }
    (st, last_stack.expect("at least one bag"))
}

/// Receive `n` completions (or time out), checking each and passing each
/// correct one to `ok_done`. Returns when the last one arrived.
fn collect(
    rx: &Receiver<Done>,
    n: usize,
    tasks: &[TaskInput],
    st: &mut RunStats,
    mut ok_done: impl FnMut(&Done),
) -> Option<Instant> {
    let deadline = Instant::now() + RESULT_TIMEOUT;
    let mut last = None;
    for got in 0..n {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(d) => {
                last = Some(d.at);
                match check(&tasks[d.idx].expect, &d.outcome) {
                    Ok(()) => ok_done(&d),
                    Err(e) => st.fail(e),
                }
            }
            Err(_) => {
                for _ in got..n {
                    st.fail(format!("no result within {RESULT_TIMEOUT:?}"));
                }
                break;
            }
        }
    }
    last
}

fn run_paced(seed: u64, window: Duration, traced: bool, time_submits: bool) -> (RunStats, Stack) {
    let wl = Workload::PacedTcp;
    let stack = Stack::start(wl.engine(), wl.transport(), traced);
    let f = Funcs::new(wl);
    let mut inputs = Inputs::new(wl, seed);
    let mut st = RunStats::default();
    let (tx, rx) = unbounded::<Done>();
    let period = Duration::from_secs_f64(1.0 / PACED_RATE);
    let total = ((PACED_WARMUP + window).as_secs_f64() * PACED_RATE).round() as usize;
    let warm = (PACED_WARMUP.as_secs_f64() * PACED_RATE).round() as usize;
    let mut tasks: Vec<TaskInput> = Vec::with_capacity(total);
    let mut due: Vec<Instant> = Vec::with_capacity(total);
    let mut done_count = 0usize;
    let mut submitted = 0usize;
    let mut measured_done: Option<Instant> = None;
    let t0 = Instant::now();
    let window_start = t0 + period * warm as u32;
    let window_end = t0 + period * total as u32;
    let hard_deadline = window_end + RESULT_TIMEOUT;
    let mut start_snapshot = None;
    let mut slice: Option<(Instant, Duration)> = None;
    let mut backlog_taken = false;
    let mut lat = Vec::new();
    let mut rss = RssPeak::new();
    let mut handle = |d: Done, tasks: &[TaskInput], due: &[Instant], st: &mut RunStats| {
        rss.sample();
        match check(&tasks[d.idx].expect, &d.outcome) {
            Ok(()) if d.idx >= warm => lat.push(ms(d.at - due[d.idx])),
            Ok(()) => {}
            Err(e) => st.fail(e),
        }
        d.at
    };
    while tasks.len() < total || done_count < submitted {
        let now = Instant::now();
        if now >= hard_deadline {
            for _ in done_count..submitted {
                st.fail(format!(
                    "no result within {RESULT_TIMEOUT:?} of the window end"
                ));
            }
            break;
        }
        // CPU per task over each whole second of the window: the CPU spent
        // in the slice over the tasks due in it.
        if let Some((start, cpu0)) = slice {
            if now >= start + CPU_SLICE && start + CPU_SLICE <= window_end {
                let due_in_slice = CPU_SLICE.as_secs_f64() * PACED_RATE;
                st.cpu_ms_per_task.push(cpu_ms_since(cpu0) / due_in_slice);
                slice = Some((start + CPU_SLICE, crate::report::cpu_time()));
            }
        }
        if !backlog_taken && now >= window_end {
            st.backlog_end = (submitted - done_count) as u64;
            backlog_taken = true;
        }
        while tasks.len() < total && t0 + period * tasks.len() as u32 <= Instant::now() {
            let idx = tasks.len();
            if idx == warm {
                start_snapshot = Some(snapshot(&stack));
                slice = Some((window_start, crate::report::cpu_time()));
            }
            let task_due = t0 + period * idx as u32;
            tasks.push(inputs.next_task());
            due.push(task_due);
            st.attempted += 1;
            let measuring = idx >= warm;
            let times = (measuring && time_submits).then_some(&mut st.submit_us);
            let sent = Instant::now();
            match f.submit(&stack.ex, &tasks[idx], idx, &tx, times) {
                Ok(()) => submitted += 1,
                Err(e) => st.fail(format!("submit refused: {e}")),
            }
            if measuring {
                st.lateness_ms.push(ms(sent - task_due));
            }
        }
        let wake = if tasks.len() < total {
            t0 + period * tasks.len() as u32
        } else {
            hard_deadline
        };
        if let Ok(d) = rx.recv_timeout(
            wake.min(hard_deadline)
                .saturating_duration_since(Instant::now()),
        ) {
            done_count += 1;
            let at = handle(d, &tasks, &due, &mut st);
            measured_done = Some(measured_done.map_or(at, |m: Instant| m.max(at)));
            while let Ok(d) = rx.try_recv() {
                done_count += 1;
                let at = handle(d, &tasks, &due, &mut st);
                measured_done = Some(measured_done.map_or(at, |m: Instant| m.max(at)));
            }
        }
    }
    let c0 = start_snapshot.expect("the window has at least one task");
    let end = measured_done.unwrap_or(window_end).max(window_end);
    st.close_group(end - window_start, &lat, rss);
    st.add_counters(&c0, &snapshot(&stack));
    st.add_legs(&stack);
    (st, stack)
}

fn run_sweep(seed: u64, window: Duration, traced: bool, time_submits: bool) -> (RunStats, Stack) {
    let wl = Workload::SweepPayload;
    let f = Funcs::new(wl);
    let mut inputs = Inputs::new(wl, seed);
    let mut st = RunStats::default();
    let mut last_stack = None;
    // Whole segments until the measured time reaches the window.
    while st.wall < window && st.failed == 0 {
        if let Some(prev) = last_stack.take() {
            Stack::stop(prev);
        }
        let stack = Stack::start(wl.engine(), wl.transport(), traced);
        let (tx, rx) = unbounded::<Done>();
        let mut tasks: Vec<TaskInput> = Vec::new();
        let mut sent_at: Vec<Instant> = Vec::new();
        let c0 = snapshot(&stack);
        let cpu0 = crate::report::cpu_time();
        let t0 = Instant::now();
        let mut outstanding = 0usize;
        let mut lat = Vec::with_capacity(SWEEP_SEGMENT_TASKS);
        let mut rss = RssPeak::new();
        let mut last = t0;
        loop {
            while outstanding < SWEEP_WINDOW && tasks.len() < SWEEP_SEGMENT_TASKS {
                let idx = tasks.len();
                let task = inputs.next_task();
                if !task.shell {
                    st.scoring_tasks += 1;
                    st.repeated_payloads += task.repeat as u64;
                }
                tasks.push(task);
                sent_at.push(Instant::now());
                st.attempted += 1;
                let times = time_submits.then_some(&mut st.submit_us);
                match f.submit(&stack.ex, &tasks[idx], idx, &tx, times) {
                    Ok(()) => outstanding += 1,
                    Err(e) => st.fail(format!("submit refused: {e}")),
                }
            }
            if outstanding == 0 {
                break;
            }
            match rx.recv_timeout(RESULT_TIMEOUT) {
                Ok(d) => {
                    rss.sample();
                    outstanding -= 1;
                    last = d.at;
                    match check(&tasks[d.idx].expect, &d.outcome) {
                        Ok(()) => lat.push(ms(d.at - sent_at[d.idx])),
                        Err(e) => st.fail(e),
                    }
                }
                Err(_) => {
                    for _ in 0..outstanding {
                        st.fail(format!("no result within {RESULT_TIMEOUT:?}"));
                    }
                    break;
                }
            }
        }
        st.cpu_ms_per_task
            .push(cpu_ms_since(cpu0) / lat.len().max(1) as f64);
        st.close_group(last - t0, &lat, rss);
        st.add_counters(&c0, &snapshot(&stack));
        st.add_legs(&stack);
        last_stack = Some(stack);
    }
    (st, last_stack.expect("at least one segment"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_pyfn::Program;

    #[test]
    fn score_oracle_matches_the_interpreter() {
        let mut inputs = Inputs::new(Workload::SweepPayload, 7);
        let mut checked = 0;
        while checked < 20 {
            let t = inputs.next_task();
            if t.shell {
                continue;
            }
            let got = Program::eval(SCORE_SRC, t.args.clone()).expect("runs");
            assert!(check(&t.expect, &Ok(got)).is_ok());
            checked += 1;
        }
    }

    #[test]
    fn shell_oracle_matches_the_shell() {
        let vfs = gcx_shell::Vfs::new();
        vfs.mkdir_p("/w").expect("mkdir");
        let shell = gcx_shell::ShellExecutor::new(vfs, gcx_core::clock::SystemClock::shared());
        let kwargs = Value::map([("x", Value::Int(42)), ("n", Value::Int(3))]);
        let cmd = gcx_shell::format_command(SHELL_CMD, &kwargs).expect("formats");
        let out = shell.run(&cmd, &BTreeMap::new(), "/w", None).expect("runs");
        assert_eq!(out.returncode, 0);
        assert_eq!(out.stdout, shell_oracle(42, 3));
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut g = Inputs::new(Workload::SweepPayload, seed);
            (0..50)
                .map(|_| format!("{:?}", g.next_task().expect))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn a_wrong_result_fails_the_check() {
        assert!(check(&Expect::Int(1), &Ok(Value::Int(2))).is_err());
        assert!(check(
            &Expect::Int(1),
            &Err(gcx_core::GcxError::Cancelled(
                gcx_core::ids::TaskId::random()
            ))
        )
        .is_err());
        assert!(check(&Expect::Shell("1\n".into()), &Ok(Value::Int(1))).is_err());
    }
}
