//! FDRT: feedback-directed retire-time cluster assignment (§4 of the
//! paper).
//!
//! The strategy has two halves, both run by the fill unit as a trace is
//! constructed:
//!
//! 1. **Chain maintenance** (Table 4): instructions that forward data to
//!    inter-trace consumers become chain *leaders*, pinned to the cluster
//!    they executed on; consumers whose critical input came from a chain
//!    member in another trace become *followers*, inheriting the chain
//!    cluster. Chain state lives in the trace cache's per-instruction
//!    profile fields and is updated in place through a [`ChainStore`].
//! 2. **Slot assignment** (Table 5): instructions are walked oldest to
//!    youngest and placed near their producers — chain cluster first, then
//!    intra-trace producer's cluster, then neighbours, with producerless
//!    instructions that feed intra-trace consumers funnelled to the middle
//!    clusters. Instructions that cannot be placed are assigned afterwards
//!    by Friendly's method over the remaining slots.

use super::{friendly, Lists, PlaceScratch};
use crate::geometry::GeometryTables;
use crate::ClusterGeometry;
use ctcp_tracecache::{ChainRole, ProfileFields, RawTrace, TcLocation};
use std::collections::HashMap;

/// Read/update access to chain profile fields stored in the trace cache.
/// Implemented for [`ctcp_tracecache::TraceCache`]; tests can use
/// [`MapChainStore`].
pub trait ChainStore {
    /// Current profile of a resident slot, if still resident and still
    /// holding the instruction at `pc` (line ids survive trace rebuilds,
    /// so slot contents are verified by PC).
    fn profile(&self, loc: TcLocation, pc: u64) -> Option<ProfileFields>;
    /// Overwrites the profile of a resident slot (no-op if evicted or if
    /// the slot no longer holds the instruction at `pc`).
    fn set_profile(&mut self, loc: TcLocation, pc: u64, profile: ProfileFields);
}

impl ChainStore for ctcp_tracecache::TraceCache {
    fn profile(&self, loc: TcLocation, pc: u64) -> Option<ProfileFields> {
        let line = self.line(loc.line_id)?;
        let slot = line.slots.get(loc.slot as usize)?.as_ref()?;
        (slot.pc == pc).then_some(slot.profile)
    }

    fn set_profile(&mut self, loc: TcLocation, pc: u64, profile: ProfileFields) {
        if self.profile(loc, pc).is_none() {
            return;
        }
        if let Some(p) = self.profile_mut(loc) {
            *p = profile;
        }
    }
}

/// A simple in-memory [`ChainStore`] for unit tests.
#[derive(Debug, Default)]
pub struct MapChainStore {
    map: HashMap<TcLocation, ProfileFields>,
}

impl MapChainStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-populates a location.
    pub fn insert(&mut self, loc: TcLocation, profile: ProfileFields) {
        self.map.insert(loc, profile);
    }

    /// Reads back a location.
    pub fn get(&self, loc: TcLocation) -> Option<ProfileFields> {
        self.map.get(&loc).copied()
    }
}

impl ChainStore for MapChainStore {
    fn profile(&self, loc: TcLocation, _pc: u64) -> Option<ProfileFields> {
        self.map.get(&loc).copied()
    }

    fn set_profile(&mut self, loc: TcLocation, _pc: u64, profile: ProfileFields) {
        self.map.insert(loc, profile);
    }
}

/// FDRT configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdrtConfig {
    /// Pin chain leaders permanently to one cluster (§5.5). Disabling
    /// reproduces the paper's "No Pinning" ablation (Tables 9/10).
    pub pinning: bool,
    /// Use inter-trace cluster chaining. Disabling isolates the
    /// intra-trace heuristics (the paper's §5.3 ablation, which alone
    /// yields 5.7%).
    pub chaining: bool,
}

impl Default for FdrtConfig {
    fn default() -> Self {
        FdrtConfig {
            pinning: true,
            chaining: true,
        }
    }
}

/// Counters for Figure 7 (assignment option distribution) and Table 9
/// (cluster migration).
#[derive(Debug, Default, Clone, Copy)]
pub struct FdrtStats {
    /// Instructions assigned by each Table 5 option: A, B, C, D, E.
    pub options: [u64; 5],
    /// Instructions initially skipped by options A–D (no nearby slot).
    pub skipped: u64,
    /// Dynamic instructions whose assigned cluster differed from their
    /// previous dynamic invocation.
    pub migrations: u64,
    /// Dynamic instructions with a previous invocation to compare against.
    pub migration_samples: u64,
    /// Migrations among chain members.
    pub chain_migrations: u64,
    /// Chain-member samples.
    pub chain_samples: u64,
    /// Leaders created.
    pub leaders_created: u64,
    /// Followers created.
    pub followers_created: u64,
}

impl FdrtStats {
    /// Migration rate over all instructions (Table 9 "All Instr.").
    pub fn migration_rate(&self) -> f64 {
        if self.migration_samples == 0 {
            0.0
        } else {
            self.migrations as f64 / self.migration_samples as f64
        }
    }

    /// Migration rate among chain members (Table 9 "Chain Instr.").
    pub fn chain_migration_rate(&self) -> f64 {
        if self.chain_samples == 0 {
            0.0
        } else {
            self.chain_migrations as f64 / self.chain_samples as f64
        }
    }

    /// Fraction of instructions assigned by each option (A–E, skipped),
    /// over all instructions seen.
    pub fn option_distribution(&self) -> [f64; 6] {
        let total: u64 = self.options.iter().sum::<u64>() + self.skipped;
        if total == 0 {
            return [0.0; 6];
        }
        let mut out = [0.0; 6];
        for (i, &c) in self.options.iter().enumerate() {
            out[i] = c as f64 / total as f64;
        }
        out[5] = self.skipped as f64 / total as f64;
        out
    }
}

/// The FDRT assigner: owns the configuration, migration history, and
/// statistics; stateless with respect to chains (chain state lives in the
/// [`ChainStore`], i.e. the trace cache).
#[derive(Debug)]
pub struct FdrtAssigner {
    config: FdrtConfig,
    stats: FdrtStats,
    /// Previous assigned cluster per static instruction index (for
    /// migration stats), grown on demand.
    last_cluster: Vec<Option<u8>>,
}

impl FdrtAssigner {
    /// Creates an assigner.
    pub fn new(config: FdrtConfig) -> Self {
        FdrtAssigner {
            config,
            stats: FdrtStats::default(),
            last_cluster: Vec::new(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &FdrtStats {
        &self.stats
    }

    /// Runs chain maintenance and slot assignment for one trace,
    /// returning the physical placement (`placement[logical] = slot`).
    pub fn assign(
        &mut self,
        trace: &mut RawTrace,
        geom: &ClusterGeometry,
        store: &mut dyn ChainStore,
    ) -> Vec<u8> {
        let mut placement = Vec::new();
        self.assign_into(
            trace,
            geom,
            store,
            &mut PlaceScratch::default(),
            &mut placement,
        );
        placement
    }

    /// [`assign`](Self::assign) into `placement`, reusing `scratch`.
    pub(super) fn assign_into(
        &mut self,
        trace: &mut RawTrace,
        geom: &ClusterGeometry,
        store: &mut dyn ChainStore,
        scratch: &mut PlaceScratch,
        placement: &mut Vec<u8>,
    ) {
        if self.config.chaining {
            self.update_chains(trace, store);
        }
        let (tables, lists) = scratch.split(geom);
        self.place(trace, tables, lists, placement);
    }

    /// Chain maintenance per Table 4, against the live trace cache state.
    fn update_chains(&mut self, trace: &mut RawTrace, store: &mut dyn ChainStore) {
        for i in 0..trace.len() {
            let fb = trace.insts[i].feedback;
            let Some(p) = fb.critical_producer().copied() else {
                continue;
            };
            if p.same_trace {
                // Only inter-trace dependencies participate in chaining.
                continue;
            }

            // Leader promotion: the producer forwarded data to an
            // inter-trace consumer (this instruction). Read the producer's
            // *current* profile from the trace cache so a pinned leader is
            // never re-pinned.
            if let Some(loc) = p.tc_location {
                if let Some(current) = store.profile(loc, p.pc) {
                    let promote = if self.config.pinning {
                        current.role == ChainRole::None
                    } else {
                        // Without pinning, re-designate freely: the chain
                        // cluster chases the producer's latest execution
                        // cluster.
                        current.role != ChainRole::Follower
                            || current.chain_cluster != Some(p.cluster)
                    };
                    if promote && current.role == ChainRole::None {
                        store.set_profile(
                            loc,
                            p.pc,
                            ProfileFields {
                                role: ChainRole::Leader,
                                chain_cluster: Some(p.cluster),
                            },
                        );
                        self.stats.leaders_created += 1;
                    } else if !self.config.pinning && promote {
                        // Unpinned: update the chain cluster in place.
                        store.set_profile(
                            loc,
                            p.pc,
                            ProfileFields {
                                role: current.role,
                                chain_cluster: Some(p.cluster),
                            },
                        );
                    }
                }
            }

            // Follower assignment: the consumer's critical input came from
            // a chain member in another trace.
            if p.role.is_chain_member() && p.chain_cluster.is_some() {
                let c = &mut trace.insts[i];
                let eligible = if self.config.pinning {
                    c.profile.role == ChainRole::None
                } else {
                    true
                };
                if eligible {
                    if c.profile.role == ChainRole::None {
                        self.stats.followers_created += 1;
                    }
                    c.profile = ProfileFields {
                        role: ChainRole::Follower,
                        chain_cluster: p.chain_cluster,
                    };
                    if let Some(loc) = c.tc_loc {
                        let (pc, profile) = (c.pc, c.profile);
                        store.set_profile(loc, pc, profile);
                    }
                }
            }
        }
    }

    /// Slot assignment per Table 5.
    fn place(
        &mut self,
        trace: &RawTrace,
        tables: &GeometryTables,
        lists: &mut Lists,
        placement: &mut Vec<u8>,
    ) {
        let geom = tables.geometry();
        let n = trace.len();
        let spc = geom.slots_per_cluster;
        lists.counts.clear();
        lists.counts.resize(geom.clusters as usize, 0);
        lists.cluster_of.clear();
        lists.cluster_of.resize(n, None);
        lists.skipped.clear();

        for i in 0..n {
            let inst = &trace.insts[i];
            // Inputs to the Table 5 decision.
            let crit_intra: Option<u8> = {
                let cs = inst.feedback.critical_src;
                match cs {
                    Some(s) => trace.intra_producers[i][s as usize],
                    None => None,
                }
            };
            let chain = if self.config.chaining && inst.profile.is_chain_member() {
                inst.profile.chain_cluster
            } else {
                None
            };
            let has_consumer = trace.has_intra_consumer[i];

            let producer_cluster = crit_intra.and_then(|p| lists.cluster_of[p as usize]);

            let Lists {
                counts,
                prio,
                by_load,
                ..
            } = &mut *lists;

            // Build the priority list of candidate clusters.
            prio.clear();
            let option_idx: usize;
            match (producer_cluster, chain) {
                (Some(pc), None) => {
                    // Option A: intra-trace producer, then its neighbours.
                    option_idx = 0;
                    prio.push(pc);
                    prio.extend_from_slice(least_loaded_first(
                        by_load,
                        tables.neighbors(pc),
                        counts,
                        tables,
                    ));
                }
                (None, Some(cc)) => {
                    // Option B: chain cluster, then its neighbours.
                    option_idx = 1;
                    prio.push(cc);
                    prio.extend_from_slice(least_loaded_first(
                        by_load,
                        tables.neighbors(cc),
                        counts,
                        tables,
                    ));
                }
                (Some(pc), Some(cc)) => {
                    // Option C: chain first, then the producer, then the
                    // chain's neighbours.
                    option_idx = 2;
                    prio.push(cc);
                    if !prio.contains(&pc) {
                        prio.push(pc);
                    }
                    for &nb in least_loaded_first(by_load, tables.neighbors(cc), counts, tables) {
                        if !prio.contains(&nb) {
                            prio.push(nb);
                        }
                    }
                }
                (None, None) if has_consumer => {
                    // Option D: middle cluster(s), least-loaded first.
                    option_idx = 3;
                    prio.extend_from_slice(least_loaded_first(
                        by_load,
                        tables.central_tier(),
                        counts,
                        tables,
                    ));
                }
                (None, None) => {
                    // Option E: nothing to go on; defer to the fallback.
                    option_idx = 4;
                }
            }

            let placed = prio.iter().copied().find(|&c| counts[c as usize] < spc);
            match placed {
                Some(c) => {
                    counts[c as usize] += 1;
                    lists.cluster_of[i] = Some(c);
                    self.stats.options[option_idx] += 1;
                }
                None => {
                    if option_idx == 4 {
                        self.stats.options[4] += 1;
                    } else {
                        self.stats.skipped += 1;
                    }
                    lists.skipped.push(i);
                }
            }
        }

        // Fallback: Friendly's method over the remaining instructions and
        // slots.
        friendly::place_partial(trace, geom, lists, placement);

        // Migration statistics against the final placement.
        for (i, &slot) in placement.iter().enumerate() {
            let cluster = geom.cluster_of_slot(slot);
            let index = trace.insts[i].index as usize;
            let is_chain = trace.insts[i].profile.is_chain_member();
            if index >= self.last_cluster.len() {
                self.last_cluster.resize(index + 1, None);
            }
            if let Some(prev) = self.last_cluster[index] {
                self.stats.migration_samples += 1;
                if is_chain {
                    self.stats.chain_samples += 1;
                }
                if prev != cluster {
                    self.stats.migrations += 1;
                    if is_chain {
                        self.stats.chain_migrations += 1;
                    }
                }
            }
            self.last_cluster[index] = Some(cluster);
        }
    }
}

/// `clusters` copied into `out`, least-loaded first (then most central,
/// then by index). Neighbour lists and the middle tier are tried in this
/// order so systematic choices (e.g. producerless loads all taking
/// option D) spread over the eligible clusters instead of serialising on
/// one cluster's functional units.
fn least_loaded_first<'a>(
    out: &'a mut Vec<u8>,
    clusters: &[u8],
    counts: &[u8],
    tables: &GeometryTables,
) -> &'a [u8] {
    out.clear();
    out.extend_from_slice(clusters);
    out.sort_unstable_by_key(|&c| (counts[c as usize], tables.centrality(c), c));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctcp_isa::{Instruction, Opcode, Reg};
    use ctcp_tracecache::{ExecFeedback, PendingInst, ProducerInfo};

    fn pi(seq: u64, inst: Instruction) -> PendingInst {
        PendingInst {
            seq,
            index: seq as u32,
            pc: 0x1000 + 4 * seq,
            inst,
            profile: ProfileFields::default(),
            tc_loc: None,
            feedback: ExecFeedback::default(),
            taken: None,
        }
    }

    fn add(d: Reg, a: Reg, b: Reg) -> Instruction {
        Instruction::new(Opcode::Add, Some(d), Some(a), Some(b), 0)
    }

    fn geom() -> ClusterGeometry {
        ClusterGeometry::default()
    }

    fn producer(cluster: u8, same_trace: bool, loc: Option<TcLocation>) -> ProducerInfo {
        ProducerInfo {
            pc: 0x500,
            cluster,
            same_trace,
            role: ChainRole::None,
            chain_cluster: None,
            tc_location: loc,
        }
    }

    #[test]
    fn leader_promotion_on_inter_trace_forward() {
        let mut a = FdrtAssigner::new(FdrtConfig::default());
        let mut store = MapChainStore::new();
        let loc = TcLocation {
            line_id: 7,
            slot: 3,
        };
        store.insert(loc, ProfileFields::default());

        let mut insts = vec![pi(0, add(Reg::R1, Reg::R2, Reg::R3))];
        insts[0].feedback = ExecFeedback {
            executed_cluster: 0,
            src_producers: [Some(producer(2, false, Some(loc))), None],
            critical_src: Some(0),
            critical_forwarded: true,
        };
        let mut t = RawTrace::analyze(insts);
        a.assign(&mut t, &geom(), &mut store);

        let p = store.get(loc).unwrap();
        assert_eq!(p.role, ChainRole::Leader);
        assert_eq!(p.chain_cluster, Some(2));
        assert_eq!(a.stats().leaders_created, 1);
    }

    #[test]
    fn pinned_leader_is_never_repinned() {
        let mut a = FdrtAssigner::new(FdrtConfig::default());
        let mut store = MapChainStore::new();
        let loc = TcLocation {
            line_id: 7,
            slot: 3,
        };
        store.insert(
            loc,
            ProfileFields {
                role: ChainRole::Leader,
                chain_cluster: Some(1),
            },
        );

        let mut insts = vec![pi(0, add(Reg::R1, Reg::R2, Reg::R3))];
        insts[0].feedback = ExecFeedback {
            executed_cluster: 0,
            // Producer executed on cluster 3 this time.
            src_producers: [Some(producer(3, false, Some(loc))), None],
            critical_src: Some(0),
            critical_forwarded: true,
        };
        let mut t = RawTrace::analyze(insts);
        a.assign(&mut t, &geom(), &mut store);

        assert_eq!(store.get(loc).unwrap().chain_cluster, Some(1));
    }

    #[test]
    fn unpinned_leader_chases_execution_cluster() {
        let mut a = FdrtAssigner::new(FdrtConfig {
            pinning: false,
            chaining: true,
        });
        let mut store = MapChainStore::new();
        let loc = TcLocation {
            line_id: 7,
            slot: 3,
        };
        store.insert(
            loc,
            ProfileFields {
                role: ChainRole::Leader,
                chain_cluster: Some(1),
            },
        );
        let mut insts = vec![pi(0, add(Reg::R1, Reg::R2, Reg::R3))];
        insts[0].feedback = ExecFeedback {
            executed_cluster: 0,
            src_producers: [Some(producer(3, false, Some(loc))), None],
            critical_src: Some(0),
            critical_forwarded: true,
        };
        let mut t = RawTrace::analyze(insts);
        a.assign(&mut t, &geom(), &mut store);
        assert_eq!(store.get(loc).unwrap().chain_cluster, Some(3));
    }

    #[test]
    fn follower_inherits_chain_cluster_and_lands_there() {
        let mut a = FdrtAssigner::new(FdrtConfig::default());
        let mut store = MapChainStore::new();
        let mut insts = vec![pi(0, add(Reg::R1, Reg::R2, Reg::R3))];
        insts[0].feedback = ExecFeedback {
            executed_cluster: 0,
            src_producers: [
                Some(ProducerInfo {
                    pc: 0x500,
                    cluster: 3,
                    same_trace: false,
                    role: ChainRole::Leader,
                    chain_cluster: Some(3),
                    tc_location: None,
                }),
                None,
            ],
            critical_src: Some(0),
            critical_forwarded: true,
        };
        let mut t = RawTrace::analyze(insts);
        let placement = a.assign(&mut t, &geom(), &mut store);
        assert_eq!(t.insts[0].profile.role, ChainRole::Follower);
        assert_eq!(t.insts[0].profile.chain_cluster, Some(3));
        // Option B puts it on cluster 3.
        assert_eq!(geom().cluster_of_slot(placement[0]), 3);
        assert_eq!(a.stats().options[1], 1);
        assert_eq!(a.stats().followers_created, 1);
    }

    #[test]
    fn option_a_places_near_intra_producer() {
        let mut a = FdrtAssigner::new(FdrtConfig::default());
        let mut store = MapChainStore::new();
        // i0 no inputs but has consumer -> option D (middle cluster).
        // i1 critical intra producer i0 -> option A (same cluster).
        let mut insts = vec![
            pi(0, add(Reg::R1, Reg::R20, Reg::R21)),
            pi(1, add(Reg::R2, Reg::R1, Reg::R21)),
        ];
        insts[1].feedback.critical_src = Some(0);
        insts[1].feedback.critical_forwarded = true;
        let mut t = RawTrace::analyze(insts);
        let placement = a.assign(&mut t, &geom(), &mut store);
        let g = geom();
        let c0 = g.cluster_of_slot(placement[0]);
        let c1 = g.cluster_of_slot(placement[1]);
        assert!(c0 == 1 || c0 == 2, "producer should sit mid: {c0}");
        assert_eq!(c0, c1, "consumer should join its producer");
        assert_eq!(a.stats().options[3], 1); // D
        assert_eq!(a.stats().options[0], 1); // A
    }

    #[test]
    fn option_c_prefers_chain_over_producer() {
        let mut a = FdrtAssigner::new(FdrtConfig::default());
        let mut store = MapChainStore::new();
        let mut insts = vec![
            pi(0, add(Reg::R1, Reg::R20, Reg::R21)),
            pi(1, add(Reg::R2, Reg::R1, Reg::R21)),
        ];
        // i1: intra producer i0 AND an established chain on cluster 3.
        insts[1].profile = ProfileFields {
            role: ChainRole::Follower,
            chain_cluster: Some(3),
        };
        insts[1].feedback.critical_src = Some(0);
        insts[1].feedback.critical_forwarded = true;
        let mut t = RawTrace::analyze(insts);
        let placement = a.assign(&mut t, &geom(), &mut store);
        assert_eq!(geom().cluster_of_slot(placement[1]), 3);
        assert_eq!(a.stats().options[2], 1); // C
    }

    #[test]
    fn cluster_capacity_spills_to_neighbor() {
        let mut a = FdrtAssigner::new(FdrtConfig::default());
        let mut store = MapChainStore::new();
        // Five instructions all chained to cluster 0: four fit, the fifth
        // goes to the neighbour (cluster 1).
        let mut insts: Vec<_> = (0..5)
            .map(|i| {
                let mut p = pi(i, add(Reg::int(i as u8), Reg::R20, Reg::R21));
                p.profile = ProfileFields {
                    role: ChainRole::Follower,
                    chain_cluster: Some(0),
                };
                p
            })
            .collect();
        for p in insts.iter_mut() {
            p.feedback.critical_src = None;
        }
        let mut t = RawTrace::analyze(insts);
        let placement = a.assign(&mut t, &geom(), &mut store);
        let g = geom();
        let clusters: Vec<u8> = placement.iter().map(|&s| g.cluster_of_slot(s)).collect();
        assert_eq!(clusters.iter().filter(|&&c| c == 0).count(), 4);
        assert_eq!(clusters.iter().filter(|&&c| c == 1).count(), 1);
    }

    #[test]
    fn migration_stats_track_cluster_changes() {
        let mut a = FdrtAssigner::new(FdrtConfig::default());
        let mut store = MapChainStore::new();
        // Same static instruction assigned twice to the same cluster: no
        // migration.
        for _ in 0..2 {
            let mut insts = vec![pi(0, add(Reg::R1, Reg::R20, Reg::R21))];
            insts[0].profile = ProfileFields {
                role: ChainRole::Follower,
                chain_cluster: Some(2),
            };
            let mut t = RawTrace::analyze(insts);
            a.assign(&mut t, &geom(), &mut store);
        }
        assert_eq!(a.stats().migration_samples, 1);
        assert_eq!(a.stats().migrations, 0);
        // Now force it elsewhere.
        let mut insts = vec![pi(0, add(Reg::R1, Reg::R20, Reg::R21))];
        insts[0].profile = ProfileFields {
            role: ChainRole::Follower,
            chain_cluster: Some(0),
        };
        let mut t = RawTrace::analyze(insts);
        a.assign(&mut t, &geom(), &mut store);
        assert_eq!(a.stats().migrations, 1);
        assert_eq!(a.stats().chain_migrations, 1);
    }

    #[test]
    fn placement_is_always_a_permutation() {
        let mut a = FdrtAssigner::new(FdrtConfig::default());
        let mut store = MapChainStore::new();
        let insts: Vec<_> = (0..16)
            .map(|i| {
                pi(
                    i,
                    add(
                        Reg::int((i % 8) as u8),
                        Reg::int(((i + 1) % 8) as u8),
                        Reg::int(((i + 2) % 8) as u8),
                    ),
                )
            })
            .collect();
        let mut t = RawTrace::analyze(insts);
        let placement = a.assign(&mut t, &geom(), &mut store);
        let mut seen = [false; 16];
        for &s in &placement {
            assert!(!seen[s as usize]);
            seen[s as usize] = true;
        }
    }

    #[test]
    fn option_e_counts_unattached_instructions() {
        let mut a = FdrtAssigner::new(FdrtConfig::default());
        let mut store = MapChainStore::new();
        // One instruction, no producers, no consumers.
        let mut t = RawTrace::analyze(vec![pi(0, add(Reg::R1, Reg::R20, Reg::R21))]);
        a.assign(&mut t, &geom(), &mut store);
        assert_eq!(a.stats().options[4], 1);
        let dist = a.stats().option_distribution();
        assert_eq!(dist[4], 1.0);
    }
}
