//! Bring-up and tear-down of one whole gcx stack: the `gcx-cloud` service on
//! a `gcx-mq` broker, one endpoint agent with its engine, and an SDK
//! `Executor` reaching the service in-process or over localhost TCP.

use std::time::{Duration, Instant};

use gcx_auth::{AuthPolicy, AuthService};
use gcx_cloud::{CloudConfig, WebService, WireServer};
use gcx_config::TransportSpec;
use gcx_core::clock::SystemClock;
use gcx_core::metrics::MetricsRegistry;
use gcx_core::trace::TraceConfig;
use gcx_core::value::Value;
use gcx_endpoint::{AgentEnv, EndpointAgent, EndpointConfig};
use gcx_mq::{Broker, LinkProfile};
use gcx_sdk::{Executor, ExecutorConfig, PyFunction, WireClientConfig};

/// Which engine the endpoint runs; both with 2 workers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// `ThreadEngine`: in-process worker threads.
    Thread,
    /// `GlobusComputeEngine`: interchange plus a local-provider block.
    Htex,
}

/// How the executor reaches the service.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transport {
    /// `Link::Local`: direct calls on the service handle.
    InProcess,
    /// `WireServer::listen` on 127.0.0.1 plus `Executor::over_wire`.
    Tcp,
}

/// Workers per endpoint in every workload.
pub const WORKERS: u32 = 2;

/// The no-op function the bag and paced workloads run, and every stack's
/// first task.
pub const NOOP_SRC: &str = "def f(x):\n    return x\n";

/// A running stack.
pub struct Stack {
    pub svc: WebService,
    pub agent: EndpointAgent,
    pub server: Option<WireServer>,
    pub ex: Executor,
}

/// The endpoint configuration for `engine`.
pub fn endpoint_config(engine: EngineKind) -> EndpointConfig {
    let yaml = match engine {
        EngineKind::Thread => format!("engine:\n  type: ThreadEngine\n  workers: {WORKERS}\n"),
        EngineKind::Htex => {
            format!("engine:\n  type: GlobusComputeEngine\n  workers_per_node: {WORKERS}\n")
        }
    };
    EndpointConfig::from_yaml(&yaml).expect("static endpoint config parses")
}

/// A service on an instant-link broker. `traced` keeps the program's default
/// tracer (every task sampled); otherwise `sample_every = 0` turns it off.
pub fn service(traced: bool) -> WebService {
    let clock = SystemClock::shared();
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    let trace = if traced {
        TraceConfig::default()
    } else {
        TraceConfig {
            sample_every: 0,
            ..TraceConfig::default()
        }
    };
    let cfg = CloudConfig {
        trace,
        ..CloudConfig::default()
    };
    WebService::new(cfg, AuthService::new(clock.clone()), broker, clock)
}

impl Stack {
    /// Start every layer. Executor and cloud run on their defaults.
    pub fn start(engine: EngineKind, transport: Transport, traced: bool) -> Stack {
        let svc = service(traced);
        let (_, token) = svc.auth().login("bench@gcx.dev").expect("login");
        let reg = svc
            .register_endpoint(&token, "bench-ep", false, AuthPolicy::open(), None)
            .expect("register endpoint");
        // The agent shares the service's registry, so engine counters and
        // spans land next to the cloud's.
        let mut env = AgentEnv::local(SystemClock::shared());
        env.metrics = svc.metrics().clone();
        let agent = EndpointAgent::start(
            &svc,
            reg.endpoint_id,
            &reg.queue_credential,
            &endpoint_config(engine),
            env,
        )
        .expect("start agent");
        let (ex, server) = match transport {
            Transport::InProcess => (
                Executor::with_config(
                    svc.clone(),
                    token,
                    reg.endpoint_id,
                    ExecutorConfig::default(),
                )
                .expect("executor"),
                None,
            ),
            Transport::Tcp => {
                let server = WireServer::listen(&svc, TransportSpec::default()).expect("listen");
                let ex = Executor::over_wire(
                    vec![server.addr().to_string()],
                    &token.0,
                    reg.endpoint_id,
                    ExecutorConfig::default(),
                    WireClientConfig::default(),
                )
                .expect("wire executor");
                (ex, Some(server))
            }
        };
        Stack {
            svc,
            agent,
            server,
            ex,
        }
    }

    /// Stop every layer and join its threads, client side first.
    pub fn stop(self) {
        self.ex.close();
        if let Some(server) = self.server {
            server.shutdown();
        }
        self.agent.stop();
        self.svc.shutdown();
    }
}

/// Set-up time: from the start of a fresh stack to its first correct
/// result (one no-op task), as the median over `reps` stacks, each stopped
/// afterwards.
pub fn setup_seconds(
    engine: EngineKind,
    transport: Transport,
    traced: bool,
    reps: usize,
) -> Result<f64, String> {
    let f = PyFunction::new(NOOP_SRC);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let stack = Stack::start(engine, transport, traced);
        let out = stack
            .ex
            .submit(&f, vec![Value::Int(7)], Value::None)
            .and_then(|fut| fut.result_timeout(Duration::from_secs(30)));
        samples.push(t0.elapsed().as_secs_f64());
        stack.stop();
        if !matches!(out, Ok(Value::Int(7))) {
            return Err(format!(
                "set-up: first task returned {out:?}, expected Int(7)"
            ));
        }
    }
    Ok(crate::report::median(&samples))
}
