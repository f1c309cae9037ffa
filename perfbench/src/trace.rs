//! Traced-run bookkeeping: per-agent callback tallies, the raw layer sample
//! a traced repetition collects, and the per-layer metrics derived from it.
//!
//! Nothing here names a program API: the adapter fills a [`LayerSample`]
//! from the engines' public getters, and this module owns every per-layer
//! metric name, so a refactor of the program touches the adapter only.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The agent callbacks the wrapper times. Finer than the reported kinds so
/// each callback can be charged to the engine phase it runs inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cb {
    Start,
    Restart,
    Timer,
    Inquiry,
    Incoming,
    Connected,
    ConnectFailed,
    Message,
    /// `on_disconnected` with an out-of-range reason (link check, partition
    /// cut or radio outage).
    DiscRange,
    /// `on_disconnected` because the peer crashed (fault processing).
    DiscFailed,
    /// `on_disconnected` after a graceful close.
    DiscClosed,
}

const CB_COUNT: usize = 11;

/// Callback counts and wall time of one agent. Each agent owns its tally and
/// is its only writer (shard agents run on one worker thread at a time), so
/// plain relaxed load/store pairs suffice; the benchmark reads the tallies
/// only between runs.
#[derive(Default)]
pub struct Tally {
    calls: [AtomicU64; CB_COUNT],
    nanos: [AtomicU64; CB_COUNT],
    message_bytes: AtomicU64,
}

impl Tally {
    /// Times `f` as one `cb` callback.
    pub fn time<R>(&self, cb: Cb, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let result = f();
        let nanos = t0.elapsed().as_nanos() as u64;
        bump(&self.calls[cb as usize], 1);
        bump(&self.nanos[cb as usize], nanos);
        result
    }

    /// Adds the size of one delivered payload.
    pub fn add_message_bytes(&self, bytes: usize) {
        bump(&self.message_bytes, bytes as u64);
    }

    /// Forgets everything recorded so far (start of the measured horizon).
    pub fn reset(&self) {
        for cell in self.calls.iter().chain(self.nanos.iter()) {
            cell.store(0, Ordering::Relaxed);
        }
        self.message_bytes.store(0, Ordering::Relaxed);
    }
}

fn bump(cell: &AtomicU64, by: u64) {
    cell.store(cell.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// Callback totals summed over every agent of a world.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallTotals {
    calls: [u64; CB_COUNT],
    nanos: [u64; CB_COUNT],
    message_bytes: u64,
}

impl CallTotals {
    /// Sums the tallies of a whole fleet.
    pub fn sum<'a>(tallies: impl IntoIterator<Item = &'a Arc<Tally>>) -> Self {
        let mut total = CallTotals::default();
        for tally in tallies {
            for i in 0..CB_COUNT {
                total.calls[i] += tally.calls[i].load(Ordering::Relaxed);
                total.nanos[i] += tally.nanos[i].load(Ordering::Relaxed);
            }
            total.message_bytes += tally.message_bytes.load(Ordering::Relaxed);
        }
        total
    }

    fn calls(&self, cbs: &[Cb]) -> u64 {
        cbs.iter().map(|&cb| self.calls[cb as usize]).sum()
    }

    fn nanos(&self, cbs: &[Cb]) -> u64 {
        cbs.iter().map(|&cb| self.nanos[cb as usize]).sum()
    }

    fn all_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }
}

/// The sequential engine's profiler phases, in the order the profiler
/// reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqPhase {
    AgentStart,
    Timers,
    Discovery,
    GridRefresh,
    Connect,
    Delivery,
    LinkCheck,
    Disconnect,
    Faults,
}

impl SeqPhase {
    pub const ALL: [SeqPhase; 9] = [
        SeqPhase::AgentStart,
        SeqPhase::Timers,
        SeqPhase::Discovery,
        SeqPhase::GridRefresh,
        SeqPhase::Connect,
        SeqPhase::Delivery,
        SeqPhase::LinkCheck,
        SeqPhase::Disconnect,
        SeqPhase::Faults,
    ];

    fn name(self) -> &'static str {
        match self {
            SeqPhase::AgentStart => "agent_start",
            SeqPhase::Timers => "timers",
            SeqPhase::Discovery => "discovery",
            SeqPhase::GridRefresh => "grid_refresh",
            SeqPhase::Connect => "connect",
            SeqPhase::Delivery => "delivery",
            SeqPhase::LinkCheck => "link_check",
            SeqPhase::Disconnect => "disconnect",
            SeqPhase::Faults => "faults",
        }
    }

    /// The agent callbacks the engine dispatches inside this phase. An
    /// out-of-range disconnect is charged to the link check, although a
    /// partition cut or radio outage delivers it during fault processing;
    /// that share moves between the two phases' self times and never out
    /// of their sum.
    fn nested(self) -> &'static [Cb] {
        match self {
            SeqPhase::AgentStart => &[Cb::Start],
            SeqPhase::Timers => &[Cb::Timer],
            SeqPhase::Discovery => &[Cb::Inquiry],
            SeqPhase::GridRefresh => &[],
            SeqPhase::Connect => &[Cb::Incoming, Cb::Connected, Cb::ConnectFailed],
            SeqPhase::Delivery => &[Cb::Message],
            SeqPhase::LinkCheck => &[Cb::DiscRange],
            SeqPhase::Disconnect => &[Cb::DiscClosed],
            SeqPhase::Faults => &[Cb::Restart, Cb::DiscFailed],
        }
    }
}

/// Calls and wall nanoseconds of one profiler phase.
pub type PhaseSpan = (u64, u64);

/// The sharded engine's coordinator and shard-local profile.
#[derive(Debug, Clone, Default)]
pub struct ShardSample {
    pub shards: u64,
    pub windows_ns: u64,
    /// Sum of every shard-local event phase (thread time).
    pub busy_ns: u64,
    pub barrier_merge_ns: u64,
    pub snapshot_ns: u64,
    pub link_check: PhaseSpan,
}

/// Simulator counters over the measured horizon.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub msgs_sent: u64,
    pub msgs_delivered: u64,
    pub connect_attempts: u64,
    pub connect_failures: u64,
    pub inquiries: u64,
}

impl SimCounts {
    /// Counters accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &SimCounts) -> SimCounts {
        SimCounts {
            msgs_sent: self.msgs_sent - earlier.msgs_sent,
            msgs_delivered: self.msgs_delivered - earlier.msgs_delivered,
            connect_attempts: self.connect_attempts - earlier.connect_attempts,
            connect_failures: self.connect_failures - earlier.connect_failures,
            inquiries: self.inquiries - earlier.inquiries,
        }
    }
}

/// Whole-run totals of the middleware and scenario layers, summed over the
/// nodes alive at the end of the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackTotals {
    pub frames_authenticated: u64,
    pub frames_rejected: u64,
    pub breaker_trips: u64,
    pub breaker_blocked: u64,
    pub admitted: u64,
    pub inquiries_cached: u64,
    pub inquiries_encoded: u64,
    pub known_devices: u64,
    pub stacks: u64,
    pub sessions: u64,
    pub pings_sent: u64,
    pub pings_received: u64,
    pub handovers: u64,
    pub frames_injected: u64,
    pub cut_links_broken: u64,
}

/// Whose callbacks the wrapper timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentLayer {
    /// PeerHood stacks (with their scenario application) on the sequential
    /// engine.
    PeerHood,
    /// Lightweight scenario probes on the sharded engine.
    ShardProbe,
}

/// Everything one traced repetition measured.
#[derive(Debug, Clone)]
pub struct LayerSample {
    pub agents: AgentLayer,
    pub calls: CallTotals,
    /// Sequential engine profile (empty on the sharded engine).
    pub seq: Vec<(SeqPhase, PhaseSpan)>,
    pub shard: Option<ShardSample>,
    pub counts: SimCounts,
    pub links_active_end: u64,
    pub links_retired_end: u64,
    pub stack: StackTotals,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// The reported callback kinds and the callbacks each one sums.
const REPORTED: [(&str, &[Cb]); 5] = [
    ("on_message", &[Cb::Message]),
    ("on_timer", &[Cb::Timer]),
    ("on_inquiry", &[Cb::Inquiry]),
    (
        "on_link",
        &[
            Cb::Incoming,
            Cb::Connected,
            Cb::ConnectFailed,
            Cb::DiscRange,
            Cb::DiscFailed,
            Cb::DiscClosed,
        ],
    ),
    ("on_start", &[Cb::Start, Cb::Restart]),
];

/// Names and values of every per-layer metric of a traced repetition whose
/// measured horizon took `wall_ns`, except `trace_overhead`, which needs the
/// untraced repetitions. A layer the workload does not run reports zeros.
pub fn layer_metrics(s: &LayerSample, wall_ns: u64) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));
    put("trace.wall_ms", ms(wall_ns));

    // simnet, sequential engine: phase self time excludes the callbacks
    // dispatched inside it; grid refresh is a sub-span of discovery.
    let span = |phase: SeqPhase| -> PhaseSpan {
        s.seq
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, span)| *span)
            .unwrap_or_default()
    };
    let mut profiled_ns = 0u64;
    for phase in SeqPhase::ALL {
        let (calls, nanos) = span(phase);
        if phase != SeqPhase::GridRefresh {
            profiled_ns += nanos;
        }
        let mut self_ns = nanos as i64;
        if !s.seq.is_empty() {
            self_ns -= s.calls.nanos(phase.nested()) as i64;
        }
        if phase == SeqPhase::Discovery {
            self_ns -= span(SeqPhase::GridRefresh).1 as i64;
        }
        put(&format!("simnet.{}.calls", phase.name()), calls as f64);
        put(&format!("simnet.{}.self_ms", phase.name()), self_ns as f64 / 1e6);
    }
    let untraced_ns = if s.seq.is_empty() {
        0
    } else {
        wall_ns as i64 - profiled_ns as i64
    };
    put("simnet.untraced_ms", untraced_ns as f64 / 1e6);
    put("simnet.msgs_sent", s.counts.msgs_sent as f64);
    put("simnet.msgs_delivered", s.counts.msgs_delivered as f64);
    put("simnet.connect_attempts", s.counts.connect_attempts as f64);
    put("simnet.connect_failures", s.counts.connect_failures as f64);
    put("simnet.inquiries", s.counts.inquiries as f64);
    put("simnet.links_active_end", s.links_active_end as f64);
    put("simnet.links_retired_end", s.links_retired_end as f64);

    // simnet, sharded engine. Windows are wall time of the parallel scope;
    // busy is thread time inside event phases, so shards x windows - busy
    // is thread time the profile does not account for (waiting at the
    // barrier, scheduling, unprofiled shard work).
    let shard = s.shard.clone().unwrap_or_default();
    put("simnet.shard.windows_ms", ms(shard.windows_ns));
    put("simnet.shard.busy_ms", ms(shard.busy_ns));
    put(
        "simnet.shard.idle_ms",
        (shard.shards as f64 * shard.windows_ns as f64 - shard.busy_ns as f64) / 1e6,
    );
    put("simnet.shard.barrier_merge_ms", ms(shard.barrier_merge_ns));
    put("simnet.shard.snapshot_ms", ms(shard.snapshot_ns));
    put("simnet.shard.link_check.calls", shard.link_check.0 as f64);
    put("simnet.shard.link_check.ms", ms(shard.link_check.1));

    put("simnet.adversary.frames_injected", s.stack.frames_injected as f64);
    put("simnet.adversary.cut_links_broken", s.stack.cut_links_broken as f64);

    // peerhood: callbacks of the middleware stacks.
    let peerhood = s.agents == AgentLayer::PeerHood;
    let stack_calls = if peerhood {
        s.calls.clone()
    } else {
        CallTotals::default()
    };
    for (kind, cbs) in REPORTED {
        let calls = stack_calls.calls(cbs);
        let nanos = stack_calls.nanos(cbs);
        put(&format!("peerhood.{kind}.calls"), calls as f64);
        put(&format!("peerhood.{kind}.ms"), ms(nanos));
        put(&format!("peerhood.{kind}.ns_per_call"), ratio(nanos, calls));
    }
    put(
        "peerhood.bytes_per_msg",
        ratio(stack_calls.message_bytes, stack_calls.calls(&[Cb::Message])),
    );
    put("peerhood.share", ratio(stack_calls.all_nanos(), wall_ns));
    let st = &s.stack;
    put("peerhood.security.frames_authenticated", st.frames_authenticated as f64);
    put("peerhood.security.rejected", st.frames_rejected as f64);
    put(
        "peerhood.security.accept_ratio",
        1.0 - ratio(st.frames_rejected, st.frames_authenticated + st.frames_rejected),
    );
    put("peerhood.resilience.breaker_trips", st.breaker_trips as f64);
    put("peerhood.resilience.breaker_blocked", st.breaker_blocked as f64);
    put("peerhood.resilience.admitted", st.admitted as f64);
    put(
        "peerhood.resilience.advert_cache_hit_ratio",
        ratio(st.inquiries_cached, st.inquiries_cached + st.inquiries_encoded),
    );
    put(
        "peerhood.storage.known_devices_mean",
        ratio(st.known_devices, st.stacks),
    );

    // scenarios: the application layer on top.
    put("scenarios.sessions", st.sessions as f64);
    put("scenarios.ping_delivery_ratio", ratio(st.pings_received, st.pings_sent));
    put("scenarios.handovers", st.handovers as f64);
    let probe_ns = if peerhood { 0 } else { s.calls.all_nanos() };
    put("scenarios.shard_agent.ms", ms(probe_ns));
    out
}

/// The counts in a layer sample that must repeat exactly across runs of
/// one seed (everything but wall times).
pub fn exact_counts(s: &LayerSample) -> Vec<u64> {
    let mut v: Vec<u64> = s.calls.calls.to_vec();
    v.push(s.calls.message_bytes);
    v.extend(s.seq.iter().map(|(_, (calls, _))| *calls));
    if let Some(shard) = &s.shard {
        v.push(shard.link_check.0);
    }
    v
}
