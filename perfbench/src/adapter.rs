//! The only module that calls the program: it builds each city through the
//! crates' public APIs, wraps agents for the traced run, and reads results
//! back through public getters. Workload parameters, metric names and the
//! digest layout live elsewhere, so when the engine or scenario APIs are
//! refactored this file is the one to edit.

use std::any::Any;
use std::rc::Rc;
use std::sync::Arc;

use peerhood::config::{PeerHoodConfig, SecurityConfig};
use peerhood::hostile::ProtocolForge;
use peerhood::resilience::{ResilienceConfig, ResilienceStats};
use peerhood::security::SecurityStats;
use scenarios::experiments::full_stack::metro_configs;
use scenarios::experiments::sharded::{sharded_world_digest, ShardCityAgent};
use scenarios::experiments::{FullStackHost, FullStats, METRO_SERVICE};
use simnet::prelude::*;

use crate::digest::Fnv;
use crate::spec::{Kind, Spec};
use crate::trace::{AgentLayer, Cb, LayerSample, SeqPhase, ShardSample, SimCounts, StackTotals, Tally};

/// One simulated city, whatever engine runs it.
pub trait City {
    /// Advances simulated time.
    fn run_for_secs(&mut self, secs: u64);
    /// Global simulator counters so far.
    fn counts(&self) -> SimCounts;
    /// Turns on the engine profiler and clears the callback tallies: the
    /// traced span starts here.
    fn start_trace(&mut self);
    /// Application pings sent and received over the whole run.
    fn pings(&mut self) -> [u64; 2];
    /// Digest of everything the run produced.
    fn digest(&mut self) -> u64;
    /// The traced span's layer sample (`counts` covers the same span).
    fn layer_sample(&mut self, counts: SimCounts) -> LayerSample;
}

/// Builds the workload's city for `seed`, with every agent wrapped in a
/// timing [`Traced`] shell when `traced`.
pub fn build(spec: &Spec, seed: u64, traced: bool) -> Box<dyn City> {
    match spec.kind {
        Kind::Metro | Kind::Hostile => Box::new(SeqCity::new(spec, seed, traced)),
        Kind::Sharded => Box::new(ShardCity::new(spec, seed, traced)),
    }
}

/// A wrapper agent timing every callback of the agent inside it. It
/// forwards `as_any`, so engine downcasts reach the wrapped agent.
struct Traced<A> {
    inner: A,
    tally: Arc<Tally>,
}

macro_rules! traced_agent {
    ($agent:ident, $ctx:ident, $payload:ident) => {
        impl $agent for Traced<Box<dyn $agent>> {
            fn as_any(&self) -> &dyn Any {
                self.inner.as_any()
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self.inner.as_any_mut()
            }
            fn on_start(&mut self, ctx: &mut $ctx<'_>) {
                let inner = &mut self.inner;
                self.tally.time(Cb::Start, || inner.on_start(ctx))
            }
            fn on_restart(&mut self, ctx: &mut $ctx<'_>) {
                let inner = &mut self.inner;
                self.tally.time(Cb::Restart, || inner.on_restart(ctx))
            }
            fn on_timer(&mut self, ctx: &mut $ctx<'_>, token: TimerToken) {
                let inner = &mut self.inner;
                self.tally.time(Cb::Timer, || inner.on_timer(ctx, token))
            }
            fn on_inquiry_complete(&mut self, ctx: &mut $ctx<'_>, tech: RadioTech, hits: Vec<InquiryHit>) {
                let inner = &mut self.inner;
                self.tally
                    .time(Cb::Inquiry, || inner.on_inquiry_complete(ctx, tech, hits))
            }
            fn on_incoming_connection(&mut self, ctx: &mut $ctx<'_>, incoming: IncomingConnection) -> bool {
                let inner = &mut self.inner;
                self.tally
                    .time(Cb::Incoming, || inner.on_incoming_connection(ctx, incoming))
            }
            fn on_connected(
                &mut self,
                ctx: &mut $ctx<'_>,
                attempt: AttemptId,
                link: LinkId,
                peer: NodeId,
                tech: RadioTech,
            ) {
                let inner = &mut self.inner;
                self.tally.time(Cb::Connected, || {
                    inner.on_connected(ctx, attempt, link, peer, tech)
                })
            }
            fn on_connect_failed(
                &mut self,
                ctx: &mut $ctx<'_>,
                attempt: AttemptId,
                peer: NodeId,
                tech: RadioTech,
                error: ConnectError,
            ) {
                let inner = &mut self.inner;
                self.tally.time(Cb::ConnectFailed, || {
                    inner.on_connect_failed(ctx, attempt, peer, tech, error)
                })
            }
            fn on_message(&mut self, ctx: &mut $ctx<'_>, link: LinkId, from: NodeId, payload: $payload) {
                self.tally.add_message_bytes(payload.len());
                let inner = &mut self.inner;
                self.tally
                    .time(Cb::Message, || inner.on_message(ctx, link, from, payload))
            }
            fn on_disconnected(&mut self, ctx: &mut $ctx<'_>, link: LinkId, peer: NodeId, reason: DisconnectReason) {
                let cb = match reason {
                    DisconnectReason::OutOfRange => Cb::DiscRange,
                    DisconnectReason::PeerFailed => Cb::DiscFailed,
                    DisconnectReason::PeerClosed | DisconnectReason::LocalClosed => Cb::DiscClosed,
                };
                let inner = &mut self.inner;
                self.tally
                    .time(cb, || inner.on_disconnected(ctx, link, peer, reason))
            }
        }
    };
}

traced_agent!(NodeAgent, NodeCtx, Payload);
traced_agent!(ShardAgent, ShardCtx, SharedPayload);

/// Wraps `agent` in a timing shell whose tally joins `tallies`.
fn wrap<A: ?Sized>(agent: Box<A>, tallies: &mut Vec<Arc<Tally>>) -> Box<Traced<Box<A>>> {
    let tally = Arc::new(Tally::default());
    tallies.push(Arc::clone(&tally));
    Box::new(Traced { inner: agent, tally })
}

/// Start positions of the city, the placement the E15/E17 runners use.
fn place(rng: &mut SimRng, spec: &Spec) -> Vec<Point> {
    let side = spec.side_m();
    (0..spec.nodes)
        .map(|_| Point::new(rng.uniform_f64(0.0, side), rng.uniform_f64(0.0, side)))
        .collect()
}

fn mobility(spec: &Spec, i: usize, start: Point) -> MobilityModel {
    if spec.is_mobile(i) {
        MobilityModel::RandomWaypoint {
            area: Rect::new(0.0, 0.0, spec.side_m(), spec.side_m()),
            start,
            min_speed_mps: 0.7,
            max_speed_mps: 2.0,
            pause: SimDuration::from_secs(20),
        }
    } else {
        MobilityModel::stationary(start)
    }
}

/// Every tenth node churns over the whole run.
fn churn_plans(spec: &Spec, planner: SimRng) -> Vec<(usize, FaultPlan)> {
    if spec.churn_per_hour <= 0.0 {
        return Vec::new();
    }
    let mtbf = SimDuration::from_secs_f64(3_600.0 / spec.churn_per_hour);
    let downtime = SimDuration::from_secs_f64(spec.mean_downtime_s);
    let horizon = SimTime::from_secs(spec.total_s());
    (0..spec.nodes)
        .step_by(10)
        .map(|i| {
            (
                i,
                FaultPlan::churn(horizon, mtbf, downtime, &mut planner.derive(i as u64)),
            )
        })
        .collect()
}

fn counters_of(c: &Counters) -> SimCounts {
    SimCounts {
        msgs_sent: c.messages_sent,
        msgs_delivered: c.messages_delivered,
        connect_attempts: c.connect_attempts,
        connect_failures: c.connect_failures,
        inquiries: c.inquiries_started,
    }
}

fn fold_counters(h: &mut Fnv, c: &Counters) {
    for v in [
        c.inquiries_started,
        c.inquiry_hits,
        c.connect_attempts,
        c.connect_failures,
        c.connects_established,
        c.messages_sent,
        c.bytes_sent,
        c.messages_delivered,
        c.messages_lost,
        c.links_broken,
        c.quality_samples,
    ] {
        h.fold(v);
    }
}

/// The E15 city on the sequential engine: full PeerHood stacks, optionally
/// hardened and under attack.
struct SeqCity {
    world: World,
    tallies: Option<Vec<Arc<Tally>>>,
}

impl SeqCity {
    fn new(spec: &Spec, seed: u64, traced: bool) -> Self {
        let nodes = spec.nodes as u64;
        let mut config = WorldConfig::with_seed(seed ^ nodes);
        config.grid_cell_m = config.radio.wlan.range_m;
        let mut world = World::new(config);
        let (mut static_cfg, mut mobile_cfg) = metro_configs(SimDuration::from_secs_f64(spec.inquiry_interval_s));
        let hostile = spec.kind == Kind::Hostile;
        if hostile {
            for cfg in [&mut static_cfg, &mut mobile_cfg] {
                let mut hardened: PeerHoodConfig = (**cfg).clone();
                hardened.security = SecurityConfig::auth();
                hardened.resilience = ResilienceConfig::all_on();
                *cfg = Rc::new(hardened);
            }
        }
        let starts = place(&mut SimRng::new(seed ^ 0x3E7A0 ^ nodes), spec);
        let mut tallies = traced.then(Vec::new);
        for (i, &start) in starts.iter().enumerate() {
            let cfg = if spec.is_mobile(i) { &mobile_cfg } else { &static_cfg };
            let host: Box<dyn NodeAgent> = Box::new(FullStackHost::new(Rc::clone(cfg)));
            let agent: Box<dyn NodeAgent> = match tallies.as_mut() {
                Some(list) => wrap(host, list),
                None => host,
            };
            world.add_node(format!("m{i}"), mobility(spec, i, start), &[RadioTech::Wlan], agent);
        }
        let ids: Vec<NodeId> = world.node_ids().collect();
        for (i, plan) in churn_plans(spec, SimRng::new(seed ^ 0xFA17_3E70)) {
            world.install_fault_plan(ids[i], plan);
        }
        if hostile {
            world.install_adversary_plan(adversary_plan(spec, &ids, &starts));
            world.set_frame_forge(Box::new(ProtocolForge::new(METRO_SERVICE)));
        }
        SeqCity { world, tallies }
    }

    /// Per-stack results of every node alive at the end of the run.
    fn stacks(&mut self) -> Vec<StackSample> {
        let ids: Vec<NodeId> = self.world.node_ids().collect();
        ids.into_iter()
            .filter_map(|id| {
                self.world.with_agent::<FullStackHost, _>(id, |host, _| StackSample {
                    full: host.stats(),
                    security: host.node().security_stats(),
                    resilience: host.node().resilience_stats(),
                    known_devices: host.node().storage_stats().known_devices as u64,
                })
            })
            .collect()
    }
}

/// Compromised insiders and periodic partition windows over the whole run.
fn adversary_plan(spec: &Spec, ids: &[NodeId], starts: &[Point]) -> AdversaryPlan {
    let end = SimTime::from_secs(spec.total_s());
    let mut plan = AdversaryPlan::new();
    let every = spec.compromised_every.max(1);
    for i in (every / 2..spec.nodes).step_by(every) {
        plan = plan.compromise(
            ids[i],
            SimTime::from_secs(spec.warmup_s / 2),
            end,
            SimDuration::from_millis(spec.inject_interval_ms),
        );
    }
    let strip_x = spec.partition_strip * spec.side_m();
    let island: Vec<NodeId> = (0..spec.nodes)
        .filter(|&i| starts[i].x < strip_x)
        .map(|i| ids[i])
        .collect();
    let mut until = spec.partition_period_s;
    while spec.partition_period_s > 0 && until <= spec.total_s() {
        let from = until - spec.partition_len_s;
        plan = plan.partition(
            SimTime::from_secs(from),
            SimTime::from_secs(until),
            island.iter().copied(),
        );
        until += spec.partition_period_s;
    }
    plan
}

struct StackSample {
    full: FullStats,
    security: SecurityStats,
    resilience: ResilienceStats,
    known_devices: u64,
}

impl StackSample {
    fn fold_into(&self, h: &mut Fnv) {
        let (f, sec, res) = (&self.full, &self.security, &self.resilience);
        for v in [
            f.sessions_established,
            f.broken_by_crash,
            f.broken_by_range,
            f.handover_completions,
            f.route_changes,
            f.reconnects,
            f.reconnect_secs_total.to_bits(),
            f.pings_sent,
            f.payloads_received,
            f.attached as u64,
            sec.frames_authenticated,
            sec.auth_bytes,
            sec.auth_rejected,
            sec.replay_rejected,
            sec.foreign_conn_rejected,
            sec.bad_reply_context,
            sec.duplicate_accepts,
            sec.conn_mismatch_dropped,
            sec.reports_skipped,
            sec.penalties_recorded,
            res.breaker_trips,
            res.breaker_blocked,
            res.breaker_probes,
            res.breakers_open as u64,
            res.breakers_half_open as u64,
            res.inbound_shed,
            res.outbound_shed,
            res.queue_shed,
            res.rate_adaptations,
            res.admitted,
            res.rejected_sessions,
            res.rejected_rate,
            res.inquiries_cached,
            res.inquiries_encoded,
            self.known_devices,
        ] {
            h.fold(v);
        }
    }
}

impl City for SeqCity {
    fn run_for_secs(&mut self, secs: u64) {
        self.world.run_for(SimDuration::from_secs(secs));
    }

    fn counts(&self) -> SimCounts {
        counters_of(self.world.metrics().global())
    }

    fn start_trace(&mut self) {
        self.world.enable_profiling();
        for tally in self.tallies.iter().flatten() {
            tally.reset();
        }
    }

    fn pings(&mut self) -> [u64; 2] {
        let stacks = self.stacks();
        [
            stacks.iter().map(|s| s.full.pings_sent).sum(),
            stacks.iter().map(|s| s.full.payloads_received).sum(),
        ]
    }

    fn digest(&mut self) -> u64 {
        let mut h = Fnv::new();
        let metrics = self.world.metrics();
        fold_counters(&mut h, metrics.global());
        for (id, counters) in metrics.iter_nodes() {
            h.fold(id.as_raw());
            fold_counters(&mut h, counters);
        }
        for tech in RadioTech::ALL {
            h.fold(metrics.messages_for_tech(tech));
            h.fold(metrics.bytes_for_tech(tech));
        }
        let faults = self.world.fault_stats();
        for v in [
            faults.crashes,
            faults.restarts,
            faults.radio_outages,
            faults.radio_restores,
        ] {
            h.fold(v);
        }
        for event in self.world.lifecycle_events() {
            h.fold(event.at.as_micros());
            h.fold(event.node.as_raw());
            h.fold(match event.kind {
                LifecycleKind::NodeDown => 1,
                LifecycleKind::NodeUp => 2,
                LifecycleKind::RadioDown(t) => 0x10 + t as u64,
                LifecycleKind::RadioUp(t) => 0x20 + t as u64,
            });
        }
        let adv = self.world.adversary_stats();
        for v in [
            adv.partitions_started,
            adv.partitions_healed,
            adv.partition_drops,
            adv.cut_links_broken,
            adv.frames_tampered,
            adv.frames_injected,
        ] {
            h.fold(v);
        }
        // Every stack alive at the end, in node order.
        for stack in self.stacks() {
            stack.fold_into(&mut h);
        }
        h.finish()
    }

    fn layer_sample(&mut self, counts: SimCounts) -> LayerSample {
        let profiler = self.world.profiler();
        let seq = SeqPhase::ALL
            .iter()
            .map(|&p| {
                let phase = match p {
                    SeqPhase::AgentStart => Phase::AgentStart,
                    SeqPhase::Timers => Phase::Timers,
                    SeqPhase::Discovery => Phase::Discovery,
                    SeqPhase::GridRefresh => Phase::GridRefresh,
                    SeqPhase::Connect => Phase::Connect,
                    SeqPhase::Delivery => Phase::Delivery,
                    SeqPhase::LinkCheck => Phase::LinkCheck,
                    SeqPhase::Disconnect => Phase::Disconnect,
                    SeqPhase::Faults => Phase::Faults,
                };
                (p, (profiler.calls(phase), profiler.nanos(phase)))
            })
            .collect();
        let mut stack = StackTotals::default();
        for s in self.stacks() {
            stack.sessions += s.full.sessions_established;
            stack.handovers += s.full.handover_completions;
            stack.pings_sent += s.full.pings_sent;
            stack.pings_received += s.full.payloads_received;
            stack.frames_authenticated += s.security.frames_authenticated;
            stack.frames_rejected += s.security.frames_rejected();
            stack.breaker_trips += s.resilience.breaker_trips;
            stack.breaker_blocked += s.resilience.breaker_blocked;
            stack.admitted += s.resilience.admitted;
            stack.inquiries_cached += s.resilience.inquiries_cached;
            stack.inquiries_encoded += s.resilience.inquiries_encoded;
            stack.known_devices += s.known_devices;
            stack.stacks += 1;
        }
        let adv = self.world.adversary_stats();
        stack.frames_injected = adv.frames_injected;
        stack.cut_links_broken = adv.cut_links_broken;
        LayerSample {
            agents: AgentLayer::PeerHood,
            calls: crate::trace::CallTotals::sum(self.tallies.iter().flatten()),
            seq,
            shard: None,
            counts,
            links_active_end: self.world.active_link_count() as u64,
            links_retired_end: self.world.retired_link_count() as u64,
            stack,
        }
    }
}

/// The E17 city shape on the sharded engine: lightweight scenario probes.
struct ShardCity {
    world: ShardedWorld,
    tallies: Option<Vec<Arc<Tally>>>,
}

impl ShardCity {
    fn new(spec: &Spec, seed: u64, traced: bool) -> Self {
        let nodes = spec.nodes as u64;
        let side = spec.side_m();
        let mut config = ShardedConfig::new(seed ^ nodes, Rect::new(0.0, 0.0, side, side));
        config.shards = spec.shards;
        config.grid_cell_m = config.radio.wlan.range_m;
        config.link_check_interval = SimDuration::from_secs(1);
        config.window = Some(SimDuration::from_secs(1));
        config.max_speed_mps = 2.0;
        config.mobility_horizon = SimTime::from_secs(spec.total_s() + 600);
        let mut world = ShardedWorld::new(config);
        let starts = place(&mut SimRng::new(seed ^ 0x5AD0 ^ nodes), spec);
        let inquiry = SimDuration::from_secs_f64(spec.inquiry_interval_s);
        let ping = SimDuration::from_secs_f64(spec.ping_interval_s);
        let mut tallies = traced.then(Vec::new);
        for (i, &start) in starts.iter().enumerate() {
            let probe: Box<dyn ShardAgent> = Box::new(ShardCityAgent::new(inquiry, ping));
            let agent: Box<dyn ShardAgent> = match tallies.as_mut() {
                Some(list) => wrap(probe, list),
                None => probe,
            };
            world.add_node(format!("s{i}"), mobility(spec, i, start), &[RadioTech::Wlan], agent);
        }
        let ids: Vec<NodeId> = world.node_ids().collect();
        for (i, plan) in churn_plans(spec, SimRng::new(seed ^ 0xFA17_5A4D)) {
            world.install_fault_plan(ids[i], &plan);
        }
        ShardCity { world, tallies }
    }

    /// (handovers, drops, pings received) summed over every probe.
    fn probe_totals(&mut self) -> [u64; 3] {
        let ids: Vec<NodeId> = self.world.node_ids().collect();
        let mut total = [0u64; 3];
        for id in ids {
            if let Some(v) = self
                .world
                .with_agent::<ShardCityAgent, _>(id, |a| [a.handovers, a.drops, a.pings_received])
            {
                for (sum, x) in total.iter_mut().zip(v) {
                    *sum += x;
                }
            }
        }
        total
    }
}

impl City for ShardCity {
    fn run_for_secs(&mut self, secs: u64) {
        self.world.run_for(SimDuration::from_secs(secs));
    }

    fn counts(&self) -> SimCounts {
        counters_of(self.world.metrics().global())
    }

    fn start_trace(&mut self) {
        self.world.enable_profiling();
        for tally in self.tallies.iter().flatten() {
            tally.reset();
        }
    }

    fn pings(&mut self) -> [u64; 2] {
        // Pings are the only data the probes send.
        [self.world.metrics().global().messages_sent, self.probe_totals()[2]]
    }

    fn digest(&mut self) -> u64 {
        let mut h = Fnv::new();
        h.fold(sharded_world_digest(&self.world));
        for v in self.probe_totals() {
            h.fold(v);
        }
        h.finish()
    }

    fn layer_sample(&mut self, counts: SimCounts) -> LayerSample {
        let profile = self.world.profile();
        let shard_local = [
            Phase::AgentStart,
            Phase::Timers,
            Phase::Discovery,
            Phase::Connect,
            Phase::Delivery,
            Phase::LinkCheck,
            Phase::Disconnect,
            Phase::Faults,
        ];
        let shard = ShardSample {
            shards: self.world.shard_count() as u64,
            windows_ns: profile.nanos(Phase::ShardWindows),
            busy_ns: shard_local.iter().map(|&p| profile.nanos(p)).sum(),
            barrier_merge_ns: profile.nanos(Phase::BarrierMerge),
            snapshot_ns: profile.nanos(Phase::Snapshot),
            link_check: (profile.calls(Phase::LinkCheck), profile.nanos(Phase::LinkCheck)),
        };
        let [pings_sent, pings_received] = self.pings();
        let stack = StackTotals {
            sessions: self.world.metrics().global().connects_established,
            handovers: self.probe_totals()[0],
            pings_sent,
            pings_received,
            ..StackTotals::default()
        };
        LayerSample {
            agents: AgentLayer::ShardProbe,
            calls: crate::trace::CallTotals::sum(self.tallies.iter().flatten()),
            seq: Vec::new(),
            shard: Some(shard),
            counts,
            links_active_end: 0,
            links_retired_end: 0,
            stack,
        }
    }
}
