//! The batch scheduler: Condor-style matchmaking over virtual nodes.
//!
//! Jobs run for real (the worker closure executes actual Rust code against
//! actually-fetched files) while node timing is **simulated**: measured
//! compute time is scaled by the node's clock relative to the benchmark
//! host, stage-in cost comes from the archive's network model, and jobs are
//! placed on node slots by greedy earliest-available list scheduling — the
//! behavior of a matchmaking batch system over an embarrassingly parallel
//! workload.
//!
//! Execution and scheduling are deliberately decoupled into two phases
//! (measure, then simulate placement) so the virtual makespan is
//! deterministic and independent of host core count or oversubscription —
//! the reproduction's TAM numbers must not depend on how many cores this
//! machine happens to have.

use crate::das::{DasError, DataArchiveServer};
use crate::faults::{backoff_delay, FaultPlan};
use crate::node::NodeSpec;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One job to schedule.
pub struct JobSpec<J> {
    /// Job name (for reports).
    pub name: String,
    /// Declared working-set size; nodes with less RAM cannot run the job.
    pub ram_mb: u64,
    /// Workload payload handed to the worker.
    pub payload: J,
}

/// One routed job: a subquery pinned to the node that homes its shard.
///
/// Unlike [`JobSpec`] batch jobs — which the matchmaker may place on any
/// node because they stage their own data in — a routed job's data already
/// lives on a specific node (a zone-range shard of the catalog), so the
/// scheduler sends the job *to the data*, the paper's central argument.
/// Only when the home node fails does the job move: each failed attempt
/// advances one step around the node ring (a replica / re-opened shard),
/// skipping blacklisted nodes.
pub struct RoutedJob<J> {
    /// Job name (also the fault-plan key, so chaos schedules can target
    /// one shard's subquery deterministically).
    pub name: String,
    /// Declared working-set size; nodes with less RAM cannot run the job.
    pub ram_mb: u64,
    /// Index into the cluster's node list of the shard-holding node.
    pub home: usize,
    /// Workload payload handed to the worker.
    pub payload: J,
}

/// Stage-in handle passed to workers: fetches go through the archive and
/// are accounted to the current job. When the cluster carries a
/// [`FaultPlan`], fetches are checksum-verified with bounded retry, and
/// the wasted time of dropped/corrupted attempts is billed to the job.
pub struct StageIn<'a> {
    das: &'a DataArchiveServer,
    accum: Mutex<(Duration, u64)>,
    faults: Option<&'a FaultPlan>,
    transfer_attempts: u32,
}

impl StageIn<'_> {
    /// Fetch a file from the archive, accumulating modeled transfer time.
    pub fn fetch(&self, name: &str) -> Result<Vec<u8>, DasError> {
        let (bytes, t, _attempts) =
            self.das.fetch_verified(name, self.faults, self.transfer_attempts)?;
        let mut acc = self.accum.lock();
        acc.0 += t;
        acc.1 += bytes.len() as u64;
        Ok(bytes)
    }
}

/// Result of one job.
#[derive(Debug, Clone)]
pub struct JobRun<T> {
    /// Job name.
    pub name: String,
    /// Worker output, or the failure message.
    pub output: Result<T, String>,
    /// Measured compute time on the host, summed over attempts (straggler
    /// faults inflate it by their slowdown factor).
    pub compute_real: Duration,
    /// Modeled stage-in time.
    pub stage_in: Duration,
    /// Bytes staged in.
    pub bytes_in: u64,
    /// Node the simulator placed the job on (`None` if unschedulable).
    pub node: Option<String>,
    /// Virtual completion time of the job within the batch.
    pub virtual_end: Duration,
    /// Attempts the job consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Virtual requeue delay accumulated by exponential backoff.
    pub backoff: Duration,
    /// Whether the final attempt was killed by the per-job timeout.
    pub timed_out: bool,
}

/// Virtual-time accounting for one node across a batch: how much of the
/// makespan this node spent computing vs. waiting on stage-in. The paper's
/// Figure 6 discussion ("about 25% more CPU time than the DB approach")
/// is checkable from these totals.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeUsage {
    /// Node name (matches [`NodeSpec::name`]).
    pub node: String,
    /// Virtual compute charged to this node's slots.
    pub virtual_cpu: Duration,
    /// Modeled stage-in (I/O wait) charged to this node's slots.
    pub io_wait: Duration,
    /// Jobs placed on this node.
    pub jobs: u32,
}

/// Whole-batch accounting.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Virtual wall time for the cluster to drain the batch.
    pub virtual_makespan: Duration,
    /// Sum of virtual compute across jobs.
    pub virtual_compute_total: Duration,
    /// Sum of modeled stage-in across jobs.
    pub stage_in_total: Duration,
    /// Real wall time of the measurement phase on the host.
    pub real_elapsed: Duration,
    /// Jobs no node could satisfy (RAM constraint).
    pub unschedulable: u32,
    /// Jobs that returned an error.
    pub failed: u32,
    /// Jobs that needed more than one attempt.
    pub retried: u32,
    /// Total attempts across all jobs.
    pub attempts_total: u32,
    /// Jobs whose final attempt exceeded the per-job timeout.
    pub timed_out: u32,
    /// Total virtual backoff delay across jobs.
    pub backoff_total: Duration,
    /// Nodes blacklisted during placement for accumulating failures.
    pub blacklisted: Vec<String>,
    /// Per-node virtual CPU and I/O-wait totals, one entry per cluster
    /// node in declaration order (including nodes that received no jobs).
    pub per_node: Vec<NodeUsage>,
}

impl BatchReport {
    /// Mirror this report into the global `obs` registry: batch totals
    /// under `gridsim.scheduler.*`, per-node virtual time under
    /// `gridsim.node.{name}.*`. Called by [`GridCluster::run_batch`]; the
    /// makespan is a max (not additive) so it lands in a gauge.
    pub fn record_to_obs(&self) {
        obs::counter("gridsim.scheduler.batches").incr();
        obs::counter("gridsim.scheduler.jobs_failed").add(self.failed as u64);
        obs::counter("gridsim.scheduler.jobs_retried").add(self.retried as u64);
        obs::counter("gridsim.scheduler.jobs_timed_out").add(self.timed_out as u64);
        obs::counter("gridsim.scheduler.jobs_unschedulable").add(self.unschedulable as u64);
        obs::counter("gridsim.scheduler.attempts").add(self.attempts_total as u64);
        obs::counter("gridsim.scheduler.nodes_blacklisted").add(self.blacklisted.len() as u64);
        obs::counter("gridsim.scheduler.backoff_ns").add(self.backoff_total.as_nanos() as u64);
        obs::counter("gridsim.scheduler.virtual_compute_ns")
            .add(self.virtual_compute_total.as_nanos() as u64);
        obs::counter("gridsim.scheduler.stage_in_ns").add(self.stage_in_total.as_nanos() as u64);
        obs::gauge("gridsim.scheduler.virtual_makespan_ns")
            .set(self.virtual_makespan.as_nanos() as i64);
        for nu in &self.per_node {
            let base = format!("gridsim.node.{}", nu.node);
            obs::counter(&format!("{base}.virtual_cpu_ns")).add(nu.virtual_cpu.as_nanos() as u64);
            obs::counter(&format!("{base}.io_wait_ns")).add(nu.io_wait.as_nanos() as u64);
            obs::counter(&format!("{base}.jobs")).add(nu.jobs as u64);
        }
    }
}

/// Requeue-on-failure policy: exponential backoff with a cap, jittered
/// deterministically from the cluster's fault-plan seed so virtual-time
/// accounting is reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// First requeue delay.
    pub backoff_base: Duration,
    /// Upper bound on any single requeue delay.
    pub backoff_cap: Duration,
    /// Checksum-verified transfer attempts per stage-in fetch.
    pub transfer_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            backoff_base: Duration::from_millis(200),
            backoff_cap: Duration::from_secs(30),
            transfer_attempts: 3,
        }
    }
}

/// A virtual cluster: nodes plus the host clock they are scaled against.
#[derive(Debug, Clone)]
pub struct GridCluster {
    /// Member nodes.
    pub nodes: Vec<NodeSpec>,
    /// Benchmark-host clock in GHz; measured compute is multiplied by
    /// `host_ghz / node.cpu_ghz` to produce node-virtual time.
    pub host_ghz: f64,
    /// Re-run a failing job up to this many extra attempts (Condor
    /// requeue-on-failure).
    pub retries: u32,
    /// Backoff shape for those re-runs.
    pub retry: RetryPolicy,
    /// Kill a job attempt whose (straggler-inflated) host compute exceeds
    /// this bound; the attempt fails and is requeued like any other
    /// failure. `None` disables the timeout.
    pub job_timeout: Option<Duration>,
    /// Blacklist a node once this many failed jobs have been placed on it
    /// (0 disables blacklisting). The last healthy node is never
    /// blacklisted — the grid must stay able to drain the queue.
    pub blacklist_after: u32,
    /// Fault schedule injected into job attempts and stage-in transfers.
    pub faults: Option<FaultPlan>,
}

impl GridCluster {
    /// A cluster with the default host clock estimate (3 GHz).
    pub fn new(nodes: Vec<NodeSpec>) -> Self {
        GridCluster {
            nodes,
            host_ghz: 3.0,
            retries: 1,
            retry: RetryPolicy::default(),
            job_timeout: None,
            blacklist_after: 0,
            faults: None,
        }
    }

    /// Attach a fault schedule (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Total job slots.
    pub fn slots(&self) -> usize {
        self.nodes.iter().map(|n| n.cpus).sum()
    }

    /// Run a batch: execute every job (in parallel on the host), then place
    /// the measured jobs onto node slots in virtual time.
    pub fn run_batch<J, T>(
        &self,
        das: &DataArchiveServer,
        jobs: Vec<JobSpec<J>>,
        worker: impl Fn(&J, &StageIn) -> Result<T, String> + Sync,
    ) -> (Vec<JobRun<T>>, BatchReport)
    where
        J: Send + Sync,
        T: Send,
    {
        // ---- phase 1: measure -----------------------------------------
        let _span = obs::span("run_batch");
        let start = Instant::now();
        let n = jobs.len();
        let results: Vec<Mutex<Option<JobRun<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let threads = std::thread::available_parallelism().map_or(4, |p| p.get()).min(n.max(1));
        let max_attempts = self.retries.saturating_add(1);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let job = &jobs[idx];
                    let stage = StageIn {
                        das,
                        accum: Mutex::new((Duration::ZERO, 0)),
                        faults: self.faults.as_ref(),
                        transfer_attempts: self.retry.transfer_attempts,
                    };
                    let mut attempt = 0u32;
                    let mut compute_real = Duration::ZERO;
                    let mut backoff = Duration::ZERO;
                    let (output, timed_out) = loop {
                        let t0 = Instant::now();
                        let mut out = match &self.faults {
                            Some(plan) if plan.node_crashes(&job.name, attempt) => Err(format!(
                                "injected fault: {} crashed on attempt {}",
                                job.name,
                                attempt + 1
                            )),
                            _ => worker(&job.payload, &stage),
                        };
                        // Stragglers: the attempt's measured compute is
                        // stretched by the injected slowdown factor.
                        let mult = self
                            .faults
                            .as_ref()
                            .map_or(1.0, |p| p.straggler_multiplier(&job.name, attempt));
                        let eff =
                            Duration::from_secs_f64(t0.elapsed().as_secs_f64() * mult);
                        compute_real += eff;
                        let mut timed = false;
                        if out.is_ok() {
                            if let Some(limit) = self.job_timeout {
                                if eff > limit {
                                    timed = true;
                                    out = Err(format!(
                                        "job {} killed by timeout: ran {:.3}s against a {:.3}s bound",
                                        job.name,
                                        eff.as_secs_f64(),
                                        limit.as_secs_f64()
                                    ));
                                }
                            }
                        }
                        attempt += 1;
                        if out.is_ok() || attempt >= max_attempts {
                            break (out, timed);
                        }
                        let jitter = self
                            .faults
                            .as_ref()
                            .map_or(0.0, |p| p.jitter01(&job.name, attempt));
                        backoff += backoff_delay(
                            self.retry.backoff_base,
                            self.retry.backoff_cap,
                            attempt,
                            jitter,
                        );
                    };
                    let (stage_in, bytes_in) = *stage.accum.lock();
                    *results[idx].lock() = Some(JobRun {
                        name: job.name.clone(),
                        output,
                        compute_real,
                        stage_in,
                        bytes_in,
                        node: None,
                        virtual_end: Duration::ZERO,
                        attempts: attempt,
                        backoff,
                        timed_out,
                    });
                });
            }
        });
        let real_elapsed = start.elapsed();
        let mut runs: Vec<JobRun<T>> = results
            .into_iter()
            .map(|m| m.into_inner().expect("every job measured"))
            .collect();

        // ---- phase 2: simulate placement -------------------------------
        struct Slot {
            node_idx: usize,
            available: Duration,
        }
        let mut slots: Vec<Slot> = self
            .nodes
            .iter()
            .enumerate()
            .flat_map(|(i, node)| {
                (0..node.cpus).map(move |_| Slot { node_idx: i, available: Duration::ZERO })
            })
            .collect();
        let mut report = BatchReport { real_elapsed, ..BatchReport::default() };
        report.per_node = self
            .nodes
            .iter()
            .map(|n| NodeUsage { node: n.name.clone(), ..NodeUsage::default() })
            .collect();
        let mut strikes: Vec<u32> = vec![0; self.nodes.len()];
        let mut blacklisted: Vec<bool> = vec![false; self.nodes.len()];
        for (run, job) in runs.iter_mut().zip(&jobs) {
            if run.output.is_err() {
                report.failed += 1;
            }
            if run.attempts > 1 {
                report.retried += 1;
            }
            report.attempts_total += run.attempts;
            if run.timed_out {
                report.timed_out += 1;
            }
            report.backoff_total += run.backoff;
            // Prefer healthy nodes; fall back to blacklisted ones rather
            // than stranding a schedulable job.
            let healthy_fits = slots
                .iter()
                .any(|s| !blacklisted[s.node_idx] && self.nodes[s.node_idx].ram_mb >= job.ram_mb);
            let slot = slots
                .iter_mut()
                .filter(|s| {
                    self.nodes[s.node_idx].ram_mb >= job.ram_mb
                        && (!healthy_fits || !blacklisted[s.node_idx])
                })
                .min_by_key(|s| s.available);
            let Some(slot) = slot else {
                report.unschedulable += 1;
                continue;
            };
            let node_idx = slot.node_idx;
            let node = &self.nodes[node_idx];
            let virtual_compute =
                Duration::from_secs_f64(run.compute_real.as_secs_f64() * self.host_ghz / node.cpu_ghz);
            // Requeue backoff holds the slot: Condor charges the queue,
            // not the job's own cpu.
            let end = slot.available + run.stage_in + run.backoff + virtual_compute;
            slot.available = end;
            run.node = Some(node.name.clone());
            run.virtual_end = end;
            report.virtual_compute_total += virtual_compute;
            report.stage_in_total += run.stage_in;
            report.virtual_makespan = report.virtual_makespan.max(end);
            report.per_node[node_idx].virtual_cpu += virtual_compute;
            report.per_node[node_idx].io_wait += run.stage_in;
            report.per_node[node_idx].jobs += 1;
            // Flaky-node accounting: a failed job strikes the node it ran
            // on; enough strikes blacklist the node for later placements,
            // unless it is the last healthy one.
            if run.output.is_err() && self.blacklist_after > 0 {
                strikes[node_idx] += 1;
                let healthy = blacklisted.iter().filter(|b| !**b).count();
                if strikes[node_idx] >= self.blacklist_after && healthy > 1 {
                    blacklisted[node_idx] = true;
                    report.blacklisted.push(node.name.clone());
                }
            }
        }
        report.record_to_obs();
        (runs, report)
    }

    /// Run a scatter of routed jobs: each job executes on its home node
    /// (the node holding its shard), re-routing one ring step per failed
    /// attempt. Measurement is sequential and placement is interleaved
    /// with it, because routing decisions depend on the evolving
    /// strike/blacklist state — the whole pass is deterministic for a
    /// given fault plan, which the distributed-identity tests rely on.
    ///
    /// There is no stage-in: the data is already resident on the node.
    /// The worker receives the payload and the node actually executing
    /// the attempt, and must produce a node-independent result (shard
    /// stores are re-opened elsewhere on failover, not recomputed), so
    /// retries cannot perturb query answers.
    pub fn run_routed<J, T>(
        &self,
        jobs: Vec<RoutedJob<J>>,
        worker: impl Fn(&J, &NodeSpec) -> Result<T, String>,
    ) -> (Vec<JobRun<T>>, BatchReport) {
        let _span = obs::span("run_routed");
        let start = Instant::now();
        let n_nodes = self.nodes.len();
        assert!(n_nodes > 0, "routed scatter needs at least one node");
        let max_attempts = self.retries.saturating_add(1);

        struct Slot {
            node_idx: usize,
            available: Duration,
        }
        let mut slots: Vec<Slot> = self
            .nodes
            .iter()
            .enumerate()
            .flat_map(|(i, node)| {
                (0..node.cpus).map(move |_| Slot { node_idx: i, available: Duration::ZERO })
            })
            .collect();
        let mut report = BatchReport {
            per_node: self
                .nodes
                .iter()
                .map(|n| NodeUsage { node: n.name.clone(), ..NodeUsage::default() })
                .collect(),
            ..BatchReport::default()
        };
        let mut strikes: Vec<u32> = vec![0; n_nodes];
        let mut blacklisted: Vec<bool> = vec![false; n_nodes];
        let mut runs: Vec<JobRun<T>> = Vec::with_capacity(jobs.len());

        for job in &jobs {
            // Ring routing: failed attempt k+1 runs on the next fitting,
            // non-blacklisted node after the one attempt k used; if every
            // fitting node is blacklisted, fall back to blacklisted ones
            // rather than stranding the subquery.
            let route = |step: u32, blacklisted: &[bool]| -> Option<usize> {
                let start = (job.home + step as usize) % n_nodes;
                let ring = (0..n_nodes).map(|d| (start + d) % n_nodes);
                let fits = |i: &usize| self.nodes[*i].ram_mb >= job.ram_mb;
                ring.clone()
                    .filter(fits)
                    .find(|&i| !blacklisted[i])
                    .or_else(|| ring.clone().find(fits))
            };
            if route(0, &blacklisted).is_none() {
                report.unschedulable += 1;
                runs.push(JobRun {
                    name: job.name.clone(),
                    output: Err(format!("no node can satisfy {} MB", job.ram_mb)),
                    compute_real: Duration::ZERO,
                    stage_in: Duration::ZERO,
                    bytes_in: 0,
                    node: None,
                    virtual_end: Duration::ZERO,
                    attempts: 0,
                    backoff: Duration::ZERO,
                    timed_out: false,
                });
                continue;
            }
            let mut attempt = 0u32;
            let mut compute_real = Duration::ZERO;
            let mut backoff = Duration::ZERO;
            let (output, timed_out, node_idx) = loop {
                let node_idx = route(attempt, &blacklisted).expect("checked above");
                let node = &self.nodes[node_idx];
                let t0 = Instant::now();
                let mut out = match &self.faults {
                    Some(plan) if plan.node_crashes(&job.name, attempt) => Err(format!(
                        "injected fault: node {} crashed running {} on attempt {}",
                        node.name,
                        job.name,
                        attempt + 1
                    )),
                    _ => worker(&job.payload, node),
                };
                let mult = self
                    .faults
                    .as_ref()
                    .map_or(1.0, |p| p.straggler_multiplier(&job.name, attempt));
                let eff = Duration::from_secs_f64(t0.elapsed().as_secs_f64() * mult);
                compute_real += eff;
                let mut timed = false;
                if out.is_ok() {
                    if let Some(limit) = self.job_timeout {
                        if eff > limit {
                            timed = true;
                            out = Err(format!(
                                "job {} killed by timeout: ran {:.3}s against a {:.3}s bound",
                                job.name,
                                eff.as_secs_f64(),
                                limit.as_secs_f64()
                            ));
                        }
                    }
                }
                // A failed attempt strikes the node it actually ran on —
                // the same flaky-node accounting as batch placement, but
                // applied eagerly so the *next* attempt routes around it.
                if out.is_err() && self.blacklist_after > 0 {
                    strikes[node_idx] += 1;
                    let healthy = blacklisted.iter().filter(|b| !**b).count();
                    if strikes[node_idx] >= self.blacklist_after && healthy > 1 {
                        blacklisted[node_idx] = true;
                        report.blacklisted.push(node.name.clone());
                    }
                }
                attempt += 1;
                if out.is_ok() || attempt >= max_attempts {
                    break (out, timed, node_idx);
                }
                let jitter =
                    self.faults.as_ref().map_or(0.0, |p| p.jitter01(&job.name, attempt));
                backoff += backoff_delay(
                    self.retry.backoff_base,
                    self.retry.backoff_cap,
                    attempt,
                    jitter,
                );
            };
            if output.is_err() {
                report.failed += 1;
            }
            if attempt > 1 {
                report.retried += 1;
            }
            report.attempts_total += attempt;
            if timed_out {
                report.timed_out += 1;
            }
            report.backoff_total += backoff;
            let node = &self.nodes[node_idx];
            let virtual_compute =
                Duration::from_secs_f64(compute_real.as_secs_f64() * self.host_ghz / node.cpu_ghz);
            let slot = slots
                .iter_mut()
                .filter(|s| s.node_idx == node_idx)
                .min_by_key(|s| s.available)
                .expect("every node has at least one slot");
            let end = slot.available + backoff + virtual_compute;
            slot.available = end;
            report.virtual_compute_total += virtual_compute;
            report.virtual_makespan = report.virtual_makespan.max(end);
            report.per_node[node_idx].virtual_cpu += virtual_compute;
            report.per_node[node_idx].jobs += 1;
            runs.push(JobRun {
                name: job.name.clone(),
                output,
                compute_real,
                stage_in: Duration::ZERO,
                bytes_in: 0,
                node: Some(node.name.clone()),
                virtual_end: end,
                attempts: attempt,
                backoff,
                timed_out,
            });
        }
        report.real_elapsed = start.elapsed();
        report.record_to_obs();
        (runs, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::das::NetworkModel;
    use crate::node::{tam_cluster, NodeSpec};

    fn das_with(files: &[(&str, usize)]) -> DataArchiveServer {
        let das = DataArchiveServer::new(NetworkModel::campus_2004());
        for (name, size) in files {
            das.publish(*name, vec![7u8; *size]);
        }
        das
    }

    fn jobs(n: usize, ram: u64) -> Vec<JobSpec<usize>> {
        (0..n).map(|i| JobSpec { name: format!("job{i}"), ram_mb: ram, payload: i }).collect()
    }

    #[test]
    fn all_jobs_run_and_schedule() {
        let das = das_with(&[("f", 1000)]);
        let cluster = GridCluster::new(tam_cluster());
        let (runs, report) = cluster.run_batch(&das, jobs(25, 512), |&i, stage| {
            let bytes = stage.fetch("f").map_err(|e| e.to_string())?;
            Ok(i + bytes.len())
        });
        assert_eq!(runs.len(), 25);
        assert!(runs.iter().all(|r| r.output == Ok(r.name[3..].parse::<usize>().unwrap() + 1000)));
        assert!(runs.iter().all(|r| r.node.is_some()));
        assert_eq!(report.unschedulable, 0);
        assert_eq!(report.failed, 0);
        assert!(report.virtual_makespan > Duration::ZERO);
    }

    #[test]
    fn makespan_reflects_parallelism() {
        // 20 equal jobs: placement, not measured time, decides the makespan
        // — 2 per slot on 10 slots, 10 per slot on 2. What makes the jobs
        // equal is a modeled one-minute stage-in each; their measured
        // compute (a fetch of one byte) is noise beneath it on any host.
        const STAGE_IN: Duration = Duration::from_secs(60);
        let das = DataArchiveServer::new(NetworkModel {
            bandwidth_mb_s: f64::INFINITY,
            latency_ms: STAGE_IN.as_secs_f64() * 1e3,
        });
        das.publish("f", vec![7u8]);
        let fetch = |_: &usize, stage: &StageIn| -> Result<(), String> {
            stage.fetch("f").map(drop).map_err(|e| e.to_string())
        };
        // How many jobs of its slot had run when this one finished.
        let depth = |r: &JobRun<()>| {
            (r.virtual_end.as_secs_f64() / STAGE_IN.as_secs_f64()).round() as usize
        };
        let mut busiest = Vec::new();
        for (nodes, slots) in [(tam_cluster(), 10), (vec![NodeSpec::tam(1)], 2)] {
            let (runs, report) = GridCluster::new(nodes).run_batch(&das, jobs(20, 1), fetch);
            assert_eq!(report.failed + report.unschedulable, 0);
            assert!(runs.iter().all(|r| r.stage_in == STAGE_IN));
            // Every slot runs the same number of jobs, one after another.
            for k in 1..=20 / slots {
                let at_depth_k = runs.iter().filter(|r| depth(r) == k).count();
                assert_eq!(at_depth_k, slots, "{slots} slots: jobs finishing {k}th in their slot");
            }
            let last_end = runs.iter().map(|r| r.virtual_end).max().unwrap();
            assert_eq!(report.virtual_makespan, last_end);
            busiest.push(runs.iter().map(depth).max().unwrap());
        }
        assert_eq!(busiest, vec![2, 10], "a fifth of the slots, five times the queue");
    }

    #[test]
    fn slower_nodes_yield_longer_virtual_time() {
        let das = das_with(&[]);
        let nap = |_: &usize, _: &StageIn| -> Result<(), String> {
            std::thread::sleep(Duration::from_millis(5));
            Ok(())
        };
        let tam = GridCluster::new(vec![NodeSpec::tam(1)]); // 0.6 GHz
        let sql = GridCluster::new(vec![NodeSpec::sql_server(1)]); // 2.6 GHz
        let (_, t_tam) = tam.run_batch(&das, jobs(4, 1), nap);
        let (_, t_sql) = sql.run_batch(&das, jobs(4, 1), nap);
        let ratio = t_tam.virtual_compute_total.as_secs_f64()
            / t_sql.virtual_compute_total.as_secs_f64();
        assert!(
            (ratio - 2.6 / 0.6).abs() < 1.5,
            "virtual time should scale by clock ratio, got {ratio:.2}"
        );
    }

    #[test]
    fn ram_constraint_blocks_scheduling() {
        let das = das_with(&[]);
        let cluster = GridCluster::new(tam_cluster()); // 1 GB nodes
        let (runs, report) =
            cluster.run_batch(&das, jobs(3, 4096), |_, _| -> Result<(), String> { Ok(()) });
        assert_eq!(report.unschedulable, 3);
        assert!(runs.iter().all(|r| r.node.is_none()));
    }

    #[test]
    fn failures_are_reported_and_retried() {
        let das = das_with(&[]);
        let mut cluster = GridCluster::new(tam_cluster());
        cluster.retries = 0;
        let (runs, report) = cluster.run_batch(&das, jobs(4, 1), |&i, _| {
            if i % 2 == 0 {
                Err(format!("job {i} exploded"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(report.failed, 2);
        assert!(runs[0].output.is_err() && runs[1].output.is_ok());
        // Retries rescue flaky jobs: a counter-based worker that fails on
        // first attempt succeeds with retries = 1.
        cluster.retries = 1;
        let attempts = AtomicUsize::new(0);
        let (runs, report) = cluster.run_batch(&das, jobs(1, 1), |_, _| {
            if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                Err("flaky".into())
            } else {
                Ok(0usize)
            }
        });
        assert_eq!(report.failed, 0);
        assert!(runs[0].output.is_ok());
    }

    #[test]
    fn stage_in_accounted_per_job() {
        let das = das_with(&[("big", 5_000_000)]); // 0.5 s at 10 MB/s
        let cluster = GridCluster::new(tam_cluster());
        let (runs, report) = cluster.run_batch(&das, jobs(2, 1), |_, stage| {
            stage.fetch("big").map_err(|e| e.to_string()).map(|b| b.len())
        });
        assert!(runs.iter().all(|r| r.bytes_in == 5_000_000));
        assert!(runs.iter().all(|r| r.stage_in > Duration::from_millis(400)));
        assert!(report.stage_in_total > Duration::from_millis(800));
    }

    #[test]
    fn injected_crashes_are_recovered_by_retries_with_backoff() {
        use crate::faults::{FaultConfig, FaultPlan};
        let das = das_with(&[]);
        // Every job crashes on exactly its first attempt; one retry rescues it.
        let mut cluster = GridCluster::new(tam_cluster())
            .with_faults(FaultPlan::new(FaultConfig::always(11, 1)));
        cluster.retries = 2;
        let (runs, report) =
            cluster.run_batch(&das, jobs(6, 1), |&i, _| -> Result<usize, String> { Ok(i) });
        assert_eq!(report.failed, 0, "bounded faults + retries must converge");
        assert_eq!(report.retried, 6);
        assert_eq!(report.attempts_total, 12, "each job: 1 crash + 1 success");
        assert!(report.backoff_total > Duration::ZERO);
        assert!(runs.iter().all(|r| r.output.is_ok() && r.attempts == 2 && r.backoff > Duration::ZERO));
        let injected = cluster.faults.as_ref().unwrap().report();
        assert_eq!(injected.node_crashes, 6);
    }

    #[test]
    fn fault_schedule_is_reproducible_across_runs() {
        use crate::faults::{FaultConfig, FaultPlan};
        let das = das_with(&[]);
        let batch = |seed: u64| {
            let mut cluster = GridCluster::new(tam_cluster())
                .with_faults(FaultPlan::new(FaultConfig::severe(seed)));
            cluster.retries = 4;
            let (runs, report) =
                cluster.run_batch(&das, jobs(8, 1), |_, _| -> Result<(), String> { Ok(()) });
            let shape: Vec<(u32, Duration)> =
                runs.iter().map(|r| (r.attempts, r.backoff)).collect();
            (shape, report.backoff_total)
        };
        let (a, a_total) = batch(77);
        let (b, b_total) = batch(77);
        assert_eq!(a, b, "same seed must yield identical attempts and backoff");
        assert_eq!(a_total, b_total);
        let (c, _) = batch(78);
        assert_ne!(a, c, "a different seed should perturb the schedule");
    }

    #[test]
    fn flaky_nodes_are_blacklisted_but_last_healthy_survives() {
        let das = das_with(&[]);
        let mut cluster = GridCluster::new(vec![NodeSpec::tam(1), NodeSpec::tam(2)]);
        cluster.retries = 0;
        cluster.blacklist_after = 1;
        let (runs, report) =
            cluster.run_batch(&das, jobs(6, 1), |_, _| -> Result<(), String> {
                Err("hardware fault".into())
            });
        // The first failure strikes tam1 out; tam2 must keep taking work
        // (never blacklist the last healthy node).
        assert_eq!(report.blacklisted, vec!["tam1".to_string()]);
        assert!(runs.iter().all(|r| r.node.is_some()), "jobs must not strand");
        assert!(runs.iter().skip(1).all(|r| r.node.as_deref() == Some("tam2")));
    }

    #[test]
    fn per_node_usage_sums_to_batch_totals() {
        let das = das_with(&[("f", 2_000_000)]);
        let cluster = GridCluster::new(tam_cluster());
        let (_, report) = cluster.run_batch(&das, jobs(12, 1), |&i, stage| {
            let bytes = stage.fetch("f").map_err(|e| e.to_string())?;
            Ok(i + bytes.len())
        });
        assert_eq!(report.per_node.len(), tam_cluster().len());
        let cpu: Duration = report.per_node.iter().map(|n| n.virtual_cpu).sum();
        let io: Duration = report.per_node.iter().map(|n| n.io_wait).sum();
        let placed: u32 = report.per_node.iter().map(|n| n.jobs).sum();
        assert_eq!(cpu, report.virtual_compute_total);
        assert_eq!(io, report.stage_in_total);
        assert_eq!(placed, 12);
        assert!(io > Duration::ZERO, "stage-in must show up as node I/O wait");
    }

    fn routed(n: usize, ram: u64) -> Vec<RoutedJob<usize>> {
        (0..n)
            .map(|i| RoutedJob { name: format!("q0.s{i}"), ram_mb: ram, home: i, payload: i })
            .collect()
    }

    #[test]
    fn routed_jobs_land_on_their_home_nodes() {
        let cluster = GridCluster::new(crate::node::db_cluster(4));
        let (runs, report) = cluster.run_routed(routed(4, 512), |&i, node| {
            assert_eq!(node.name, format!("db{i}"), "fault-free scatter must stay home");
            Ok(i * 10)
        });
        assert_eq!(runs.len(), 4);
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.output, Ok(i * 10));
            assert_eq!(r.node.as_deref(), Some(format!("db{i}").as_str()));
            assert_eq!(r.attempts, 1);
        }
        assert_eq!(report.failed, 0);
        assert_eq!(report.unschedulable, 0);
        // One job per node: every node shows exactly one placement.
        assert!(report.per_node.iter().all(|n| n.jobs == 1));
    }

    #[test]
    fn routed_scatter_spreads_makespan_across_nodes() {
        // 8 jobs homed round-robin: placement, not measured time, decides
        // the spread — 2 jobs on each of 4 nodes, all 8 on a lone node.
        for n in [1usize, 4] {
            let cluster = GridCluster::new(crate::node::db_cluster(n));
            let jobs = (0..8)
                .map(|i| RoutedJob { name: format!("j{i}"), ram_mb: 1, home: i % n, payload: i })
                .collect();
            let (runs, report) = cluster.run_routed(jobs, |_, _| Ok(()));
            for (i, r) in runs.iter().enumerate() {
                assert_eq!(r.node.as_deref(), Some(format!("db{}", i % n).as_str()));
            }
            assert_eq!(report.per_node.len(), n);
            assert!(report.per_node.iter().all(|u| u.jobs as usize == 8 / n));
            let last_end = runs.iter().map(|r| r.virtual_end).max().unwrap();
            assert_eq!(report.virtual_makespan, last_end);
        }
    }

    #[test]
    fn routed_crash_reroutes_to_next_ring_node() {
        use crate::faults::{FaultConfig, FaultPlan};
        // Every subquery's first attempt crashes its home node; the retry
        // must land one ring step over and succeed with the same answer.
        let mut cluster = GridCluster::new(crate::node::db_cluster(4))
            .with_faults(FaultPlan::new(FaultConfig::always(3, 1)));
        cluster.retries = 2;
        let (runs, report) = cluster.run_routed(routed(4, 1), |&i, _| Ok(i));
        assert_eq!(report.failed, 0, "one retry must rescue a single injected crash");
        assert_eq!(report.retried, 4);
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.output, Ok(i), "failover must not change the answer");
            assert_eq!(r.attempts, 2);
            assert!(r.backoff > Duration::ZERO);
            assert_eq!(
                r.node.as_deref(),
                Some(format!("db{}", (i + 1) % 4).as_str()),
                "retry must advance one ring step off the crashed home node"
            );
        }
    }

    #[test]
    fn routed_reroute_skips_blacklisted_nodes() {
        use crate::faults::{FaultConfig, FaultPlan};
        // Two nodes, both subqueries homed on db0, which always crashes
        // first attempts: after db0 is struck out, the second subquery's
        // first attempt must route straight to db1 (no blind retry on a
        // known-dead node).
        let mut cluster = GridCluster::new(crate::node::db_cluster(2))
            .with_faults(FaultPlan::new(FaultConfig::always(9, 1)));
        cluster.retries = 2;
        cluster.blacklist_after = 1;
        let jobs = vec![
            RoutedJob { name: "q0.s0".into(), ram_mb: 1, home: 0, payload: 0usize },
            RoutedJob { name: "q1.s0".into(), ram_mb: 1, home: 0, payload: 1usize },
        ];
        let (runs, report) = cluster.run_routed(jobs, |&i, _| Ok(i));
        assert_eq!(report.failed, 0);
        assert_eq!(report.blacklisted, vec!["db0".to_string()]);
        assert_eq!(runs[0].attempts, 2, "first subquery pays the crash");
        assert_eq!(runs[0].node.as_deref(), Some("db1"));
        // db0 blacklisted by the time the second subquery routes: it goes
        // to db1 directly. (Its fault-plan key still schedules one crash,
        // burned on db1's first attempt, so it may legitimately retry —
        // but never on db0.)
        assert_eq!(runs[1].node.as_deref(), Some("db1"));
    }

    #[test]
    fn routed_ram_constraint_reports_unschedulable() {
        let cluster = GridCluster::new(crate::node::db_cluster(2)); // 2 GB nodes
        let (runs, report) = cluster.run_routed(routed(2, 4096), |&i, _| Ok(i));
        assert_eq!(report.unschedulable, 2);
        assert!(runs.iter().all(|r| r.node.is_none() && r.output.is_err()));
    }

    #[test]
    fn routed_scatter_is_deterministic_for_a_seed() {
        use crate::faults::{FaultConfig, FaultPlan};
        let shape = |seed: u64| {
            let mut cluster = GridCluster::new(crate::node::db_cluster(4))
                .with_faults(FaultPlan::new(FaultConfig::severe(seed)));
            cluster.retries = 4;
            cluster.blacklist_after = 2;
            let (runs, report) = cluster.run_routed(routed(6, 1), |&i, _| Ok(i));
            // Attempts, routing, backoff, and blacklist order must all
            // reproduce; virtual times are excluded — they scale *measured*
            // host time, which carries scheduler jitter.
            let per_job: Vec<(u32, Option<String>, Duration)> =
                runs.iter().map(|r| (r.attempts, r.node.clone(), r.backoff)).collect();
            (per_job, report.blacklisted)
        };
        assert_eq!(shape(41), shape(41), "same seed must reproduce the whole scatter");
    }

    #[test]
    fn timeout_kills_overlong_jobs() {
        let das = das_with(&[]);
        let mut cluster = GridCluster::new(tam_cluster());
        cluster.retries = 0;
        cluster.job_timeout = Some(Duration::from_millis(1));
        let (runs, report) = cluster.run_batch(&das, jobs(1, 1), |_, _| -> Result<(), String> {
            std::thread::sleep(Duration::from_millis(25));
            Ok(())
        });
        assert_eq!(report.timed_out, 1);
        assert_eq!(report.failed, 1);
        assert!(runs[0].timed_out);
        assert!(runs[0].output.as_ref().unwrap_err().contains("timeout"));
    }
}
