//! The fleet driver: shard, step, arbitrate, roll up.
//!
//! Arrays are stepped by **persistent workers** ([`parallel::lockstep`]):
//! each worker owns a contiguous block of array simulations for the whole
//! run and serves one segment command per fleet epoch, so the lockstep
//! barrier costs two mailbox hops per worker per epoch — no thread
//! spawn/join, no simulation teardown, no trace re-materialization. The
//! only fleet state that crosses threads rides the mailboxes: each reply
//! carries its block's per-array draws and completion total, which the
//! controller copies out in array order. The steady path of an epoch
//! allocates nothing: command, grant and draw buffers ping-pong between
//! controller and workers, and every controller-side vector is
//! preallocated from the epoch count.

use crate::budget::{proportional_caps, BudgetSchedule};
use crate::placement::{plan_placement, PlacementPlan};
use array::{ArrayConfig, PowerPolicy, RunOptions, RunReport, Simulation, TenantShards};
use parallel::Pool;
use simkit::{LatencyHistogram, SimDuration, SimTime};
use telemetry::audit::{audit_fleet_bytes, AuditError, RunAudit};
use telemetry::{Event, RunStream};
use workload::{tenants, Trace};

/// Decorrelates per-array seeds without touching array 0's (so a fleet of
/// one simulates the exact single-array run).
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Everything that defines a fleet run besides the trace and policies.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of arrays under management.
    pub arrays: usize,
    /// Tenant universe: the shared volume is viewed as `tenants` shards of
    /// [`FleetSpec::tenant_sectors`] sectors each (plus a folded tail).
    pub tenants: u32,
    /// Volume sectors per tenant shard.
    pub tenant_sectors: u64,
    /// Per-array configuration; array `i` runs it with a decorrelated
    /// seed (array 0's seed is untouched).
    pub config: ArrayConfig,
    /// Per-array run options; the driver derives each array's label
    /// (`"{base}/a{i}"` when `arrays > 1`) and tenant sharding from it.
    pub opts: RunOptions,
    /// The datacenter power budget the arbiter enforces.
    pub budget: BudgetSchedule,
    /// Arbiter/placement cadence: caps are re-granted and tenants may
    /// move at every multiple of this.
    pub fleet_epoch: SimDuration,
    /// Whether the placement map rebalances hot tenants at epoch
    /// boundaries.
    pub rebalance: bool,
    /// Maximum tenant moves per epoch boundary.
    pub max_moves_per_epoch: usize,
}

impl FleetSpec {
    /// A spec with the common defaults: 10-minute fleet epochs,
    /// rebalancing on (up to 4 moves per boundary), tenants sized so the
    /// volume splits into `tenants` equal shards.
    pub fn new(
        arrays: usize,
        tenants: u32,
        config: ArrayConfig,
        opts: RunOptions,
        budget: BudgetSchedule,
    ) -> FleetSpec {
        assert!(arrays > 0, "need at least one array");
        assert!(tenants > 0, "need at least one tenant");
        let tenant_sectors = (config.volume_sectors() / u64::from(tenants)).max(1);
        FleetSpec {
            arrays,
            tenants,
            tenant_sectors,
            config,
            opts,
            budget,
            fleet_epoch: SimDuration::from_mins(10.0),
            rebalance: true,
            max_moves_per_epoch: 4,
        }
    }

    /// The tenant sharding every array books its responses under.
    pub fn tenant_shards(&self) -> TenantShards {
        TenantShards {
            sectors: self.tenant_sectors,
            count: self.tenants,
        }
    }
}

/// One fleet-epoch boundary's arbiter decision, for reporting. Caps are
/// held flat in the report ([`FleetReport::epoch_caps`]), so records stay
/// `Copy` and recording an epoch allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct EpochRecord {
    /// Zero-based fleet epoch.
    pub epoch: u32,
    /// Boundary instant, seconds.
    pub start_s: f64,
    /// Budget in force (`None` = unlimited).
    pub budget_w: Option<f64>,
    /// Sum of observed per-array power at the boundary, watts.
    pub demand_w: f64,
    /// Tenant moves taking effect this epoch.
    pub moves: u32,
    /// True when observed fleet power still exceeded the budget at the
    /// *end* of this epoch's segment (this is what accrues
    /// [`FleetReport::cap_violation_s`]).
    pub violated: bool,
    /// Volume requests the fleet completed during this epoch's segment
    /// (the change in the fleet's completion total across it; epoch sums
    /// add up to [`FleetReport::completed`] exactly).
    pub completed: u64,
    /// Whether caps were granted at this boundary.
    granted: bool,
    /// Start of this epoch's grant slice in the report's flat cap store.
    caps_start: usize,
}

/// The fleet-level rollup of one run.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-array run reports, in array order (each carries its own
    /// telemetry stream when capture was enabled).
    pub arrays: Vec<RunReport>,
    /// Total energy across every array, joules.
    pub fleet_energy_j: f64,
    /// Integrated budget over the horizon, joules (`None` = unlimited).
    pub budget_j: Option<f64>,
    /// Seconds of simulated time spent with observed fleet power above
    /// the budget (measured at segment ends).
    pub cap_violation_s: f64,
    /// Completed volume requests, fleet-wide.
    pub completed: u64,
    /// Requests still in flight at the horizon, fleet-wide.
    pub incomplete: u64,
    /// Requests in the shared input trace.
    pub total_requests: u64,
    /// Requests the placement map routed to arrays (conservation: must
    /// equal [`FleetReport::total_requests`]).
    pub routed_requests: u64,
    /// Tenant moves performed.
    pub tenant_moves: u64,
    /// Per-tenant response histograms merged across arrays, indexed by
    /// tenant id up to the highest id any array served; a tenant no array
    /// served has an empty histogram.
    pub tenant_latency: Vec<LatencyHistogram>,
    /// The arbiter's decision log, one record per fleet epoch.
    pub epochs: Vec<EpochRecord>,
    /// The placement rows used (`rows[epoch][tenant]` = array).
    pub placement: PlacementPlan,
    /// The serialized fleet event stream (tags `fleet_epoch`, `cap_grant`,
    /// `tenant_move`, `fleet_end`) — separate from the per-array streams.
    pub fleet_stream: RunStream,
    /// Every granted cap, flat in (epoch, array) order; sliced per epoch
    /// by [`FleetReport::epoch_caps`].
    granted_caps: Vec<f64>,
}

impl FleetReport {
    /// Replays the fleet stream through the fleet auditor.
    pub fn audit(&self) -> Result<RunAudit, AuditError> {
        audit_fleet_bytes(&self.fleet_stream.bytes)
    }

    /// A response-time quantile for one tenant, seconds (`None` if the
    /// tenant completed nothing).
    pub fn tenant_quantile(&self, tenant: usize, q: f64) -> Option<f64> {
        self.tenant_latency.get(tenant)?.quantile(q)
    }

    /// The caps granted at epoch `epoch`'s boundary, one per array in
    /// array order — empty when the budget was unlimited there.
    pub fn epoch_caps(&self, epoch: usize) -> &[f64] {
        let e = &self.epochs[epoch];
        if e.granted {
            &self.granted_caps[e.caps_start..e.caps_start + self.arrays.len()]
        } else {
            &[]
        }
    }
}

/// What a segment command tells the workers to do about power caps.
#[derive(Clone, Copy)]
enum CapMode {
    /// Leave every policy's cap as it is (unlimited budget, nothing
    /// granted before — the solo-bit-identity path never touches caps).
    Keep,
    /// Clear a previously granted cap on every array.
    Lift,
    /// Apply the per-array caps carried by the command.
    Grant,
}

/// One lockstep command: step every owned array to `limit`, after
/// applying `mode` (with `caps` holding this worker's grant slice when
/// granting). Both buffers ride back in the response, so they ping-pong
/// between controller and worker without reallocation.
struct SegCmd {
    limit: SimTime,
    mode: CapMode,
    caps: Vec<f64>,
    draws: Vec<f64>,
}

/// A worker's reply: the recycled cap buffer, each owned array's trailing
/// power observation in block order, and the block's total completions.
struct SegRsp {
    caps: Vec<f64>,
    draws: Vec<f64>,
    completed: u64,
}

/// Runs a fleet: shards the shared trace by the planned placement, steps
/// every array in lockstep fleet epochs on a persistent worker team
/// (`pool` only supplies the worker count), lets the arbiter observe and
/// re-grant power caps between segments, and rolls the per-array reports
/// up into a [`FleetReport`].
///
/// Workers reply with their blocks' draws and completion totals; the
/// controller reads them back in array order and sums integers only, so
/// results are bit-identical at any worker count.
///
/// `make_policy(i)` builds array `i`'s policy; policies are constructed
/// serially in array order.
pub fn run_fleet<P, F>(spec: &FleetSpec, trace: &Trace, pool: &Pool, make_policy: F) -> FleetReport
where
    P: PowerPolicy + Send,
    F: Fn(usize) -> P,
{
    assert!(spec.arrays > 0, "need at least one array");
    assert!(spec.tenants > 0, "need at least one tenant");
    assert!(spec.tenant_sectors > 0, "tenant shards must be non-empty");
    let horizon_s = spec.opts.horizon.as_secs();
    let epoch_s = spec.fleet_epoch.as_secs();
    assert!(epoch_s > 0.0, "fleet epoch must be positive");
    let num_epochs = ((horizon_s / epoch_s).ceil() as usize).max(1);

    // Plan placement ahead of simulation from the trace's heat alone.
    let heat = tenants::tenant_heat(
        trace,
        spec.tenants,
        spec.tenant_sectors,
        epoch_s,
        num_epochs,
    );
    let placement = plan_placement(&heat, spec.arrays, spec.rebalance, spec.max_moves_per_epoch);
    // Route the shared trace once; each array then streams only its own
    // requests from it in place — nothing is cloned per array.
    let index = tenants::ShardIndex::build(
        trace,
        &placement.rows,
        spec.tenant_sectors,
        epoch_s,
        spec.arrays,
    );
    let routed_requests = index.len() as u64;

    // One simulation per array. Array 0 keeps the spec's seed and label
    // verbatim, so a fleet of one is the exact single-array run.
    let sims: Vec<Simulation<'_, P>> = (0..spec.arrays)
        .map(|i| {
            let mut config = spec.config.clone();
            config.seed = config
                .seed
                .wrapping_add((i as u64).wrapping_mul(SEED_STRIDE));
            let mut opts = spec.opts.clone();
            opts.tenants = Some(spec.tenant_shards());
            if spec.arrays > 1 {
                if let Some(t) = opts.telemetry.as_mut() {
                    t.label = format!("{}/a{i}", t.label);
                }
            }
            Simulation::from_source(config, make_policy(i), index.stream(trace, i), opts)
        })
        .collect();

    // Partition arrays into contiguous per-worker blocks.
    let workers = pool.workers().min(spec.arrays);
    let mut blocks: Vec<Vec<Simulation<'_, P>>> = Vec::with_capacity(workers);
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(workers);
    {
        let base = spec.arrays / workers;
        let rem = spec.arrays % workers;
        let mut sims = sims.into_iter();
        let mut first = 0usize;
        for w in 0..workers {
            let len = base + usize::from(w < rem);
            blocks.push(sims.by_ref().take(len).collect());
            ranges.push((first, len));
            first += len;
        }
    }

    let fleet_label = match &spec.opts.telemetry {
        Some(t) => format!("{}/fleet", t.label),
        None => "fleet".to_string(),
    };
    // Preallocate the stream generously enough that steady-state epochs
    // never grow it (~160 bytes covers the widest event line).
    let grant_lines = if spec.budget.is_unlimited() {
        0
    } else {
        num_epochs * spec.arrays
    };
    let mut fleet_bytes: Vec<u8> =
        Vec::with_capacity(160 * (2 * num_epochs + grant_lines + placement.moves.len() + 2));

    // Controller-side per-run scratch, all preallocated: nothing in the
    // epoch loop allocates (locked by `tests/fleet_alloc.rs`).
    let mut budget_j: Option<f64> = Some(0.0);
    let mut cap_violation_s = 0.0;
    let mut caps_active = false;
    let mut epochs: Vec<EpochRecord> = Vec::with_capacity(num_epochs);
    let mut move_ix = 0usize;
    // Each array's trailing power observation, in array order: zero
    // before the first segment, then copied from the workers' replies.
    let mut observed: Vec<f64> = vec![0.0; spec.arrays];
    let mut fleet_completed = 0u64;
    let mut grant_buf: Vec<f64> = Vec::with_capacity(spec.arrays);
    let mut granted_caps: Vec<f64> = Vec::with_capacity(grant_lines);
    let mut lanes: Vec<(Vec<f64>, Vec<f64>)> = ranges
        .iter()
        .map(|&(_, len)| (Vec::with_capacity(len), Vec::with_capacity(len)))
        .collect();

    // Per-epoch worker body: apply the cap action, step to the limit,
    // then reply with each array's draw and the block's completions.
    let serve = |_w: usize, sims: &mut Vec<Simulation<'_, P>>, cmd: SegCmd| {
        let SegCmd {
            limit,
            mode,
            caps,
            mut draws,
        } = cmd;
        draws.clear();
        let mut completed = 0u64;
        for (i, sim) in sims.iter_mut().enumerate() {
            match mode {
                CapMode::Grant => sim.set_power_cap(Some(caps[i])),
                CapMode::Lift => sim.set_power_cap(None),
                CapMode::Keep => {}
            }
            sim.step_until(limit);
            draws.push(sim.observed_power_w());
            completed += sim.completed();
        }
        SegRsp {
            caps,
            draws,
            completed,
        }
    };
    // Hang-up finalizer: finish every owned sim on the worker's thread,
    // so report construction parallelizes like the stepping did.
    let finish = |_w: usize, sims: Vec<Simulation<'_, P>>| -> Vec<(RunReport, P)> {
        sims.into_iter().map(Simulation::finish).collect()
    };

    let ((), finished) = parallel::lockstep(blocks, serve, finish, |team| {
        for k in 0..num_epochs {
            let start_s = k as f64 * epoch_s;
            let end_s = ((k + 1) as f64 * epoch_s).min(horizon_s);
            let seg_len = end_s - start_s;
            let budget_w = spec.budget.budget_at(start_s);
            match budget_w {
                Some(b) => {
                    if let Some(acc) = budget_j.as_mut() {
                        *acc += b * seg_len;
                    }
                }
                None => budget_j = None,
            }

            // Sum the trailing observations in ascending array order, so
            // the demand sum is bit-identical at any worker count.
            let demand_w: f64 = observed.iter().sum();
            Event::FleetEpoch {
                time_s: start_s,
                epoch: k as u32,
                arrays: spec.arrays as u32,
                budget_w,
                demand_w,
            }
            .write_jsonl(&mut fleet_bytes);

            // Grant caps proportional to observed demand (1 W smoothing
            // keeps a sleeping array from being granted exactly zero; the
            // running clamp keeps the grant sum inside the budget).
            let granted = budget_w.is_some();
            let caps_start = granted_caps.len();
            let mode = match budget_w {
                Some(b) => {
                    proportional_caps(b, &observed, &mut grant_buf);
                    for (i, &cap) in grant_buf.iter().enumerate() {
                        Event::CapGrant {
                            time_s: start_s,
                            array: i as u32,
                            cap_w: cap,
                            observed_w: observed[i],
                        }
                        .write_jsonl(&mut fleet_bytes);
                    }
                    granted_caps.extend_from_slice(&grant_buf);
                    caps_active = true;
                    CapMode::Grant
                }
                None => {
                    // Lift stale caps — but never touch a fleet that was
                    // never capped (bit-identity with the solo run).
                    if caps_active {
                        caps_active = false;
                        CapMode::Lift
                    } else {
                        CapMode::Keep
                    }
                }
            };

            // Tenant moves taking effect this epoch.
            let mut moves = 0u32;
            while move_ix < placement.moves.len() && placement.moves[move_ix].epoch == k {
                let m = placement.moves[move_ix];
                Event::TenantMove {
                    time_s: start_s,
                    tenant: m.tenant,
                    from_array: m.from,
                    to_array: m.to,
                }
                .write_jsonl(&mut fleet_bytes);
                moves += 1;
                move_ix += 1;
            }

            // Dispatch the segment to every worker, then collect. The
            // buffers ping-pong: caps are sliced out of `grant_buf` here,
            // draws are filled by the worker, and both come back in its
            // response.
            let limit = SimTime::from_secs(end_s);
            for (w, &(start, len)) in ranges.iter().enumerate() {
                let (mut caps, draws) = std::mem::take(&mut lanes[w]);
                if matches!(mode, CapMode::Grant) {
                    caps.clear();
                    caps.extend_from_slice(&grant_buf[start..start + len]);
                }
                team.send(
                    w,
                    SegCmd {
                        limit,
                        mode,
                        caps,
                        draws,
                    },
                );
            }
            let mut total = 0u64;
            for (w, &(start, len)) in ranges.iter().enumerate() {
                let rsp = team.recv(w);
                observed[start..start + len].copy_from_slice(&rsp.draws);
                total += rsp.completed;
                lanes[w] = (rsp.caps, rsp.draws);
            }
            let completed = total - fleet_completed;
            fleet_completed = total;

            // Retrospective violation accounting: the trailing observation
            // at the segment's end reflects power *during* it.
            let post_demand: f64 = observed.iter().sum();
            let violated = budget_w.is_some_and(|b| post_demand > b * (1.0 + 1e-9));
            if violated {
                cap_violation_s += seg_len;
            }
            epochs.push(EpochRecord {
                epoch: k as u32,
                start_s,
                budget_w,
                demand_w,
                moves,
                violated,
                completed,
                granted,
                caps_start,
            });
        }
    });
    let reports: Vec<RunReport> = finished
        .into_iter()
        .flatten()
        .map(|(report, _)| report)
        .collect();

    let fleet_energy_j: f64 = reports.iter().map(|r| r.energy.total_joules()).sum();
    let completed: u64 = reports.iter().map(|r| r.completed).sum();
    let incomplete: u64 = reports.iter().map(|r| r.incomplete).sum();
    // Dense over tenant ids up to the highest one any array served.
    let tenants = reports
        .iter()
        .filter_map(|r| r.tenant_latency.last())
        .map(|&(t, _)| t as usize + 1)
        .max()
        .unwrap_or(0);
    let mut tenant_latency = vec![LatencyHistogram::new_latency(); tenants];
    for r in &reports {
        for (t, h) in &r.tenant_latency {
            tenant_latency[*t as usize].merge(h);
        }
    }

    let tenant_moves = placement.moves.len() as u64;
    Event::FleetSummary {
        time_s: horizon_s,
        total_j: fleet_energy_j,
        budget_j,
        cap_violation_s,
        completed,
        incomplete,
        total_requests: trace.len() as u64,
        routed_requests,
        tenant_moves,
    }
    .write_jsonl(&mut fleet_bytes);

    FleetReport {
        arrays: reports,
        fleet_energy_j,
        budget_j,
        cap_violation_s,
        completed,
        incomplete,
        total_requests: trace.len() as u64,
        routed_requests,
        tenant_moves,
        tenant_latency,
        epochs,
        placement,
        fleet_stream: RunStream {
            label: fleet_label,
            bytes: fleet_bytes,
        },
        granted_caps,
    }
}
