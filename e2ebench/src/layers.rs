//! Per-layer probes for the traced run. Each probe times calls into one
//! layer's public functions from the outside, on inputs of the workload's
//! own shape, and checks what the call returned.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::unbounded;
use gcx_auth::AuthPolicy;
use gcx_cloud::{CasStore, Intern, WireServer};
use gcx_config::TransportSpec;
use gcx_core::clock::{SharedClock, SystemClock};
use gcx_core::function::{FunctionBody, FunctionRecord};
use gcx_core::ids::{FunctionId, IdentityId, TaskId};
use gcx_core::metrics::MetricsRegistry;
use gcx_core::payload::Payload;
use gcx_core::task::{TaskResult, TaskSpec};
use gcx_core::value::Value;
use gcx_endpoint::htex::HtexConfig;
use gcx_endpoint::thread_engine::ThreadEngineConfig;
use gcx_endpoint::worker::WorkerContext;
use gcx_endpoint::{
    Engine, EngineEvent, ExecutableTask, GlobusComputeEngine, LocalProvider, ThreadEngine,
};
use gcx_mq::{Broker, LinkProfile, Message};
use gcx_pyfn::{Limits, Program, SystemHost};
use gcx_sdk::{Link, WireClientConfig};
use gcx_shell::{format_command, ShellExecutor, Vfs};

use crate::report::{median, us, Report};
use crate::stack::{service, EngineKind, WORKERS};
use crate::workload::{check, Expect, Inputs, TaskInput, Workload, SHELL_CMD};

/// Inputs per probe.
const SAMPLES: usize = 64;
/// Batch size of the batched probes (the executor's default `max_batch`).
const BATCH: usize = 128;
/// Repetitions of each batched probe.
const BATCH_REPS: usize = 12;
/// Sequential engine round trips.
const ENGINE_REPS: usize = 200;
const TIMEOUT: Duration = Duration::from_secs(10);

/// Time `f` and return µs.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, us(t.elapsed()))
}

fn shell_kwargs(x: i64, n: i64) -> Value {
    Value::map([("x", Value::Int(x)), ("n", Value::Int(n))])
}

/// Sample tasks of the workload's pyfn shape (the sweep's scoring tasks, or
/// no-op tasks) and of the sweep's shell shape.
fn samples(workload: Workload, seed: u64) -> (Vec<TaskInput>, Vec<TaskInput>) {
    let mut gen = Inputs::new(workload, seed ^ 0xA5A5);
    let mut py = Vec::new();
    let mut sh = Vec::new();
    while py.len() < SAMPLES {
        let t = gen.next_task();
        if t.shell {
            if sh.len() < SAMPLES {
                sh.push(t);
            }
        } else {
            py.push(t);
        }
    }
    for i in sh.len()..SAMPLES {
        let (x, n) = (i as i64 * 7919, 1 + (i as i64 % 20));
        sh.push(TaskInput {
            shell: true,
            args: Vec::new(),
            kwargs: shell_kwargs(x, n),
            expect: Expect::Shell(crate::workload::shell_oracle(x, n)),
            repeat: false,
        });
    }
    (py, sh)
}

fn spec_for(fid: FunctionId, ep: gcx_core::ids::EndpointId, t: &TaskInput) -> TaskSpec {
    let mut s = TaskSpec::new(fid, ep);
    s.set_args(t.args.clone(), t.kwargs.clone());
    s
}

/// A batch of fresh-id copies of `proto` (payload bytes shared).
fn fresh(proto: &[TaskSpec], n: usize) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| {
            let mut s = proto[i % proto.len()].clone();
            s.task_id = TaskId::random();
            s
        })
        .collect()
}

/// Run every probe and add its metrics to `out`. Returns the first wrong
/// output, if any.
pub fn probe(workload: Workload, seed: u64, out: &mut Report) -> Result<(), String> {
    let (py, sh) = samples(workload, seed);
    let clock = SystemClock::shared();
    cloud_and_wire(workload, &py, out)?;
    cas_and_payload(&py, out)?;
    broker(&py, out);
    engine(workload, &py, clock.clone(), out)?;
    worker(workload, &py, &sh, clock, out)?;
    Ok(())
}

/// `cloud` and `wire`: timed `WebService::submit_batch`, session
/// `publish_result` → stream delivery, and `Link::submit_batch` over Wire
/// and over Local.
fn cloud_and_wire(workload: Workload, py: &[TaskInput], out: &mut Report) -> Result<(), String> {
    let svc = service(true);
    let (_, token) = svc.auth().login("probe@gcx.dev").expect("login");
    let fid = svc
        .register_function(&token, FunctionBody::pyfn(workload.body()))
        .expect("register function");
    let reg = svc
        .register_endpoint(&token, "probe-ep", false, AuthPolicy::open(), None)
        .expect("register endpoint");
    let session = svc
        .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
        .expect("connect endpoint");
    let stream = svc.open_result_stream(&token).expect("result stream");
    let proto: Vec<TaskSpec> = py
        .iter()
        .map(|t| spec_for(fid, reg.endpoint_id, t))
        .collect();
    let drain = |n: usize| -> Result<Vec<TaskId>, String> {
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            let (spec, tag) = session
                .next_task(TIMEOUT)
                .map_err(|e| format!("session: {e}"))?
                .ok_or("session: task never arrived")?;
            session.ack_task(tag).map_err(|e| format!("ack: {e}"))?;
            ids.push(spec.task_id);
        }
        Ok(ids)
    };

    let mut submit = Vec::new();
    let mut result = Vec::new();
    for _ in 0..BATCH_REPS {
        let batch = fresh(&proto, BATCH);
        let (r, t) = timed(|| svc.submit_batch(&token, batch));
        r.map_err(|e| format!("submit_batch: {e}"))?;
        submit.push(t / BATCH as f64);
        let ids = drain(BATCH)?;
        let t0 = Instant::now();
        for (i, id) in ids.iter().enumerate() {
            session
                .publish_result(*id, &TaskResult::ok(Value::Int(i as i64)))
                .map_err(|e| format!("publish_result: {e}"))?;
        }
        for _ in 0..BATCH {
            let d = stream
                .consumer
                .next(TIMEOUT)
                .map_err(|e| format!("stream: {e}"))?
                .ok_or("stream: result never arrived")?;
            let _ = stream.consumer.ack(d.tag);
        }
        result.push(us(t0.elapsed()) / BATCH as f64);
    }
    out.put("cloud.submit_batch_us_per_task", median(&submit), "us");
    out.put("cloud.result_us_per_task", median(&result), "us");

    let server =
        WireServer::listen(&svc, TransportSpec::default()).map_err(|e| format!("listen: {e}"))?;
    let wire = Link::connect(
        vec![server.addr().to_string()],
        &token.0,
        WireClientConfig::default(),
    )
    .map_err(|e| format!("wire connect: {e}"))?;
    let local = Link::Local(svc.clone());
    for n in [1usize, BATCH] {
        let reps = if n == 1 { 4 * BATCH_REPS } else { BATCH_REPS };
        let (mut w, mut l) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            for (link, samples) in [(&wire, &mut w), (&local, &mut l)] {
                let batch = fresh(&proto, n);
                let (r, t) = timed(|| link.submit_batch(&token, &batch));
                r.map_err(|e| format!("link submit_batch: {e}"))?;
                samples.push(t);
                drain(n)?;
            }
        }
        out.put(
            &format!("wire.call_us.batch{n}"),
            median(&w) - median(&l),
            "us",
        );
    }
    wire.close();
    server.shutdown();
    drop(stream);
    drop(session);
    svc.shutdown();
    Ok(())
}

/// `blob` and `payload`: timed `CasStore::intern` (store, then hit) and
/// `Payload::encode_args` / `decode_args` at the workload's sizes.
fn cas_and_payload(py: &[TaskInput], out: &mut Report) -> Result<(), String> {
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut payloads = Vec::new();
    for t in py {
        let (p, e) = timed(|| Payload::encode_args(&t.args, &t.kwargs));
        let (d, x) = timed(|| p.decode_args());
        match d {
            Ok((args, _)) if args == t.args => {}
            other => return Err(format!("payload round trip gave {other:?}")),
        }
        enc.push(e);
        dec.push(x);
        payloads.push(p);
    }
    out.put("payload.encode_us", median(&enc), "us");
    out.put("payload.decode_us", median(&dec), "us");

    // Repeats in the samples would hit on the first pass; intern distinct
    // payloads only, so the first pass is all stores.
    payloads.sort_by_key(|p| p.hash().0);
    payloads.dedup_by_key(|p| p.hash().0);
    let cas = CasStore::new(64 * 1024 * 1024, MetricsRegistry::new());
    let (mut store, mut hit) = (Vec::new(), Vec::new());
    for (want, samples) in [(Intern::Stored, &mut store), (Intern::Hit, &mut hit)] {
        for p in &payloads {
            let (got, t) = timed(|| cas.intern(p));
            if got != want {
                return Err(format!("CasStore::intern gave {got:?}, expected {want:?}"));
            }
            samples.push(t);
        }
    }
    out.put("blob.intern_store_us", median(&store), "us");
    out.put("blob.intern_hit_us", median(&hit), "us");
    Ok(())
}

/// `mq`: timed `Broker::publish_batch` and consume + ack of task messages of
/// the workload's body size.
fn broker(py: &[TaskInput], out: &mut Report) {
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        SystemClock::shared(),
        LinkProfile::instant(),
    );
    broker.declare_queue("probe", None).expect("declare");
    let consumer = broker.consume("probe", None, 0).expect("consume");
    let proto: Vec<TaskSpec> = py
        .iter()
        .map(|t| spec_for(FunctionId::random(), gcx_core::ids::EndpointId::random(), t))
        .collect();
    let (mut publish, mut consume) = (Vec::new(), Vec::new());
    for _ in 0..BATCH_REPS {
        let msgs: Vec<Message> = fresh(&proto, BATCH)
            .iter()
            .map(|s| Message::new(s.to_message(true)))
            .collect();
        let (r, t) = timed(|| broker.publish_batch("probe", msgs, None));
        r.expect("publish_batch");
        publish.push(t / BATCH as f64);
        let (_, t) = timed(|| {
            for _ in 0..BATCH {
                let d = consumer.next(TIMEOUT).expect("consume").expect("message");
                consumer.ack(d.tag).expect("ack");
            }
        });
        consume.push(t / BATCH as f64);
    }
    out.put("mq.publish_us_per_msg", median(&publish), "us");
    out.put("mq.consume_us_per_msg", median(&consume), "us");
}

/// `endpoint`: an `ExecutableTask` submitted straight to the workload's
/// engine, timed until its completion event, one at a time.
fn engine(
    workload: Workload,
    py: &[TaskInput],
    clock: SharedClock,
    out: &mut Report,
) -> Result<(), String> {
    let (tx, rx) = unbounded();
    let metrics = MetricsRegistry::new();
    let mut engine: Box<dyn Engine> = match workload.engine() {
        EngineKind::Thread => Box::new(ThreadEngine::start(
            ThreadEngineConfig {
                workers: WORKERS,
                max_retries: 1,
            },
            Vfs::new(),
            clock,
            metrics,
            tx,
            None,
        )),
        EngineKind::Htex => Box::new(GlobusComputeEngine::start(
            HtexConfig {
                workers_per_node: WORKERS,
                ..HtexConfig::default()
            },
            Arc::new(LocalProvider::new("localhost")),
            Vfs::new(),
            clock,
            metrics,
            tx,
            None,
        )),
    };
    let function = FunctionRecord {
        id: FunctionId::random(),
        owner: IdentityId::random(),
        body: FunctionBody::pyfn(workload.body()),
        registered_at: 0,
    };
    let mut samples = Vec::with_capacity(ENGINE_REPS);
    let mut outcome = Ok(());
    // The first tasks wait for the engine's block; they are warm-up.
    for i in 0..ENGINE_REPS + 10 {
        let t = &py[i % py.len()];
        let task = ExecutableTask {
            spec: spec_for(function.id, gcx_core::ids::EndpointId::random(), t),
            function: function.clone(),
            tag: i as u64,
        };
        let t0 = Instant::now();
        if let Err(e) = engine.submit(task) {
            outcome = Err(format!("engine submit: {e}"));
            break;
        }
        let result = loop {
            match rx.recv_timeout(TIMEOUT) {
                Ok(EngineEvent::Done { result, .. }) => break Ok(result),
                Ok(_) => continue,
                Err(_) => break Err("engine: no completion event".to_string()),
            }
        };
        let took = us(t0.elapsed());
        match result.and_then(|r| check(&t.expect, &r.into_result())) {
            Ok(()) if i >= 10 => samples.push(took),
            Ok(()) => {}
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
    }
    engine.shutdown();
    outcome?;
    out.put("endpoint.engine_roundtrip_us", median(&samples), "us");
    Ok(())
}

/// `endpoint` worker, `pyfn` and `shell`: `WorkerContext::execute`,
/// `Program::compile` / `call_entry` and `ShellExecutor::run` on the
/// workload's inputs.
fn worker(
    workload: Workload,
    py: &[TaskInput],
    sh: &[TaskInput],
    clock: SharedClock,
    out: &mut Report,
) -> Result<(), String> {
    let ctx = WorkerContext::new(Vfs::new(), clock.clone(), "probe");
    let fid = FunctionId::random();
    let ep = gcx_core::ids::EndpointId::random();
    let run = |tasks: &[TaskInput], body: &FunctionBody| -> Result<f64, String> {
        let mut v = Vec::new();
        for t in tasks {
            let spec = spec_for(fid, ep, t);
            let (r, took) = timed(|| ctx.execute(&spec, body));
            check(&t.expect, &r.into_result())?;
            v.push(took);
        }
        Ok(median(&v))
    };
    let pyfn_body = FunctionBody::pyfn(workload.body());
    let shell_body = FunctionBody::shell(SHELL_CMD);
    out.put("endpoint.execute_us.pyfn", run(py, &pyfn_body)?, "us");
    out.put("endpoint.execute_us.shell", run(sh, &shell_body)?, "us");

    let compile: Vec<f64> = (0..SAMPLES)
        .map(|_| timed(|| Program::compile(workload.body()).expect("body compiles")).1)
        .collect();
    out.put("pyfn.compile_us", median(&compile), "us");
    let program = Program::compile(workload.body()).expect("body compiles");
    let mut calls = Vec::new();
    for (i, t) in py.iter().enumerate() {
        let mut host = SystemHost::new(clock.clone(), i as u64, "probe");
        let (r, took) =
            timed(|| program.call_entry(t.args.clone(), &t.kwargs, &mut host, Limits::default()));
        check(
            &t.expect,
            &r.map_err(|e| gcx_core::GcxError::Execution(e.to_string())),
        )?;
        calls.push(took);
    }
    out.put("pyfn.call_us", median(&calls), "us");

    let vfs = Vfs::new();
    vfs.mkdir_p("/endpoint").expect("mkdir");
    let shell = ShellExecutor::new(vfs, clock);
    let env = std::collections::BTreeMap::new();
    let mut runs = Vec::new();
    for t in sh {
        let cmd = format_command(SHELL_CMD, &t.kwargs).map_err(|e| format!("format: {e}"))?;
        let (r, took) = timed(|| shell.run(&cmd, &env, "/endpoint", None));
        let r = r.map_err(|e| format!("shell: {e}"))?;
        match &t.expect {
            Expect::Shell(want) if r.returncode == 0 && &r.stdout == want => {}
            want => return Err(format!("shell run gave {r:?}, expected {want:?}")),
        }
        runs.push(took);
    }
    out.put("shell.run_us", median(&runs), "us");
    Ok(())
}
