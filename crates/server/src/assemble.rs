//! Client-side reassembly of streamed shard results into the final
//! global clustering.
//!
//! The server emits each shard's [`Frame::Assignment`] /
//! [`Frame::Consensus`] pair in ascending shard-key order, with the raw
//! label block the pipeline gave the shard — the same layout
//! [`spechd_cluster::ShardLabelMerger`] builds inside the pipeline. The
//! assembler therefore only has to do what the merger does next:
//! renumber raw labels densely by first appearance in **stream order**,
//! through the same [`ClusterAssignment::from_raw_labels`]. The result is
//! bit-identical to a local [`spechd_core::SpecHd::run`] over the same
//! spectra (the core crate's `observed_events_reconstruct_the_outcome`
//! test pins this contract).

use crate::protocol::{Frame, JobStatsFrame};
use spechd_cluster::ClusterAssignment;
use std::collections::{BTreeMap, BTreeSet};

/// The reassembled result of a served clustering job, in the shapes
/// [`spechd_core::SpecHdOutcome`] uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceOutcome {
    /// Stream indices of spectra that survived preprocessing,
    /// ascending — the served counterpart of
    /// [`spechd_core::SpecHdOutcome::kept`].
    pub kept: Vec<u64>,
    /// Dense global cluster label per kept spectrum, parallel to
    /// `kept` — the counterpart of `assignment().labels()`.
    pub labels: Vec<usize>,
    /// Stream index of the consensus (medoid) spectrum per dense
    /// cluster — the counterpart of `consensus()` mapped through
    /// `kept`.
    pub consensus: Vec<u64>,
    /// The job's final statistics frame.
    pub stats: JobStatsFrame,
}

/// Accumulates a job's server→client frames and reassembles the final
/// clustering once the `done` frame arrives.
///
/// Feed it **every** frame read off the connection ([`absorb`]
/// ignores the irrelevant ones); when [`is_done`] turns true, call
/// [`finish`].
///
/// Absorption is **idempotent per shard**: a re-delivered
/// `Assignment` frame (the server replays its result archive when a
/// participant reconnects mid-job) is recognized by its `raw_base` —
/// unique per shard, since every shard allocates at least one raw
/// label — and ignored, so a resume never double-counts members.
/// `Consensus` and `JobStats` absorption are naturally idempotent.
///
/// [`absorb`]: AssignmentAssembler::absorb
/// [`is_done`]: AssignmentAssembler::is_done
/// [`finish`]: AssignmentAssembler::finish
#[derive(Debug, Default)]
pub(crate) struct AssignmentAssembler {
    /// `(stream index, raw global label)` per member, across shards.
    pairs: Vec<(u64, usize)>,
    /// `raw_base` of every `Assignment` frame already absorbed.
    absorbed_assignments: BTreeSet<u64>,
    /// Raw global label → medoid stream index.
    medoid_by_raw: BTreeMap<usize, u64>,
    stats: Option<JobStatsFrame>,
}

impl AssignmentAssembler {
    /// Creates an empty assembler.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Feeds one received frame. `Assignment`, `Consensus`, and final
    /// `JobStats` frames accumulate; everything else is ignored.
    pub(crate) fn absorb(&mut self, frame: &Frame) {
        match frame {
            Frame::Assignment {
                raw_base,
                members,
                labels,
                ..
            } => {
                if !self.absorbed_assignments.insert(*raw_base) {
                    return;
                }
                for (&member, &label) in members.iter().zip(labels) {
                    self.pairs
                        .push((member, *raw_base as usize + label as usize));
                }
            }
            Frame::Consensus {
                raw_base, medoids, ..
            } => {
                for (offset, &medoid) in medoids.iter().enumerate() {
                    self.medoid_by_raw
                        .insert(*raw_base as usize + offset, medoid);
                }
            }
            Frame::JobStats(stats) if stats.done != 0 => {
                self.stats = Some(*stats);
            }
            _ => {}
        }
    }

    /// Whether the job's final `JobStats` frame has been absorbed. The
    /// server sends it after every result frame, so once this is true
    /// the assembly is complete.
    pub(crate) fn is_done(&self) -> bool {
        self.stats.is_some()
    }

    /// Reassembles the global clustering: sorts members into stream
    /// order, renumbers raw labels densely by first appearance, and
    /// maps each dense cluster to its consensus medoid.
    ///
    /// # Panics
    ///
    /// Panics if called before [`AssignmentAssembler::is_done`], or if
    /// the frame set is internally inconsistent (a raw label without a
    /// medoid), which a correct server never produces.
    pub(crate) fn finish(mut self) -> ServiceOutcome {
        // Every caller waits for `is_done`, which is this frame's arrival.
        let stats = self
            .stats
            .expect("finish() before the final JobStats frame");
        self.pairs.sort_unstable();
        let (kept, raw): (Vec<u64>, Vec<usize>) = self.pairs.into_iter().unzip();
        let assignment = ClusterAssignment::from_raw_labels(&raw);
        let mut consensus = vec![0; assignment.num_clusters()];
        for (&dense, raw) in assignment.labels().iter().zip(&raw) {
            // A correct server sends a consensus medoid for every label.
            consensus[dense] = *self
                .medoid_by_raw
                .get(raw)
                .expect("raw label without a consensus medoid");
        }
        ServiceOutcome {
            kept,
            labels: assignment.labels().to_vec(),
            consensus,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two shards, emitted in key order with raw blocks [0,2) and
    /// [2,4), members interleaved in stream order across shards.
    #[test]
    fn reassembles_dense_labels_by_first_appearance() {
        let mut asm = AssignmentAssembler::new();
        // Shard key 5: members 1, 4 in clusters {1}, {4} → raw 0, 1.
        asm.absorb(&Frame::Assignment {
            job_id: 9,
            key: 5,
            raw_base: 0,
            members: vec![1, 4],
            labels: vec![0, 1],
        });
        asm.absorb(&Frame::Consensus {
            job_id: 9,
            raw_base: 0,
            medoids: vec![1, 4],
        });
        // Shard key 7: members 0, 2, 3; 0 and 3 share raw 2, 2 is raw 3.
        asm.absorb(&Frame::Assignment {
            job_id: 9,
            key: 7,
            raw_base: 2,
            members: vec![0, 2, 3],
            labels: vec![0, 1, 0],
        });
        asm.absorb(&Frame::Consensus {
            job_id: 9,
            raw_base: 2,
            medoids: vec![3, 2],
        });
        assert!(!asm.is_done());
        asm.absorb(&Frame::JobStats(JobStatsFrame {
            job_id: 9,
            kept: 5,
            clusters: 4,
            done: 1,
            ..JobStatsFrame::default()
        }));
        assert!(asm.is_done());

        let outcome = asm.finish();
        assert_eq!(outcome.kept, vec![0, 1, 2, 3, 4]);
        // First appearances in stream order: raw 2 → 0, raw 0 → 1,
        // raw 3 → 2, (raw 2 again → 0), raw 1 → 3.
        assert_eq!(outcome.labels, vec![0, 1, 2, 0, 3]);
        assert_eq!(outcome.consensus, vec![3, 1, 2, 4]);
        assert_eq!(outcome.stats.clusters, 4);
    }

    #[test]
    #[should_panic(expected = "finish() before the final JobStats frame")]
    fn finish_before_done_panics() {
        AssignmentAssembler::new().finish();
    }

    /// A replayed (duplicate) shard frame — what a reconnecting client
    /// sees when the server re-delivers its result archive — must not
    /// change the assembled outcome.
    #[test]
    fn replayed_frames_are_absorbed_idempotently() {
        let assignment = Frame::Assignment {
            job_id: 3,
            key: 1,
            raw_base: 0,
            members: vec![0, 1],
            labels: vec![0, 0],
        };
        let consensus = Frame::Consensus {
            job_id: 3,
            raw_base: 0,
            medoids: vec![1],
        };
        let done = Frame::JobStats(JobStatsFrame {
            job_id: 3,
            done: 1,
            ..JobStatsFrame::default()
        });
        let mut once = AssignmentAssembler::new();
        for f in [&assignment, &consensus, &done] {
            once.absorb(f);
        }
        let mut twice = AssignmentAssembler::new();
        for f in [
            &assignment,
            &consensus,
            &assignment,
            &consensus,
            &done,
            &done,
        ] {
            twice.absorb(f);
        }
        assert_eq!(once.finish(), twice.finish());
    }
}
