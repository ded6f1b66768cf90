//! The one outcome projection: every path's result, clustering or search,
//! as a list of named fields, compared one field at a time.

use spechd_cluster::HacStats;
use spechd_core::{IncrementalOutcome, SpecHdOutcome, StreamStats};
use spechd_search::{HdPsm, HvLibrary};
use spechd_server::{IncrementalAckFrame, QueryHits, ServiceOutcome};
use std::any::Any;
use std::fmt::Debug;

/// A projected field's value, compared with the other side's value of the
/// same field; both sides project a field to the same type.
pub trait Value: Debug {
    /// Whether `other` holds this type and an equal value.
    fn same(&self, other: &dyn Value) -> bool;
    /// The value, for a downcast.
    fn as_any(&self) -> &dyn Any;
}

impl<T: PartialEq + Debug + 'static> Value for T {
    fn same(&self, other: &dyn Value) -> bool {
        other.as_any().downcast_ref::<T>() == Some(self)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// One path's outcome: the fields it exposes, by name, in the order they
/// are compared.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(field, value)` for every field the path exposes.
    pub fields: Vec<(&'static str, Box<dyn Value>)>,
    /// A streaming path's own statistics (not compared).
    pub stream: Option<StreamStats>,
}

impl Outcome {
    /// Adds field `name`.
    pub fn with(mut self, name: &'static str, value: impl Value + 'static) -> Self {
        self.fields.push((name, Box::new(value)));
        self
    }

    /// Field `name`, if the path exposes it as a `T`.
    pub fn get<T: 'static>(&self, name: &str) -> Option<&T> {
        let mut found = self.fields.iter().filter(|(n, _)| *n == name);
        found
            .next()
            .and_then(|(_, value)| value.as_any().downcast_ref())
    }

    fn clustering(kept: Vec<usize>, labels: Vec<usize>, clusters: u64, kept_count: u64) -> Self {
        Self::default()
            .with("kept", kept)
            .with("labels", labels)
            .with("clusters", clusters)
            .with("kept count", kept_count)
    }

    fn hac(self, hac: HacStats) -> Self {
        self.with("HAC comparisons", hac.comparisons)
            .with("HAC updates", hac.updates)
            .with("HAC merges", hac.merges)
    }
}

/// Asserts one field equal and prints `(path, dataset, field)`.
pub fn assert_field<T: PartialEq + Debug + ?Sized>(
    path: &str,
    data: &str,
    field: &str,
    got: &T,
    want: &T,
) {
    assert!(
        got == want,
        "({path}, {data}, {field}) diverged:\n{got:?}\n{want:?}"
    );
    println!("({path}, {data}, {field})");
}

/// Compares `got` (from `path`) with `want` on every field both expose,
/// one at a time, printing `(path, dataset, field)` for each.
pub fn assert_same(path: &str, data: &str, got: &Outcome, want: &Outcome) {
    let mut compared = 0;
    for (field, value) in &got.fields {
        let mut expect = want.fields.iter().filter(|(n, _)| n == field);
        if let Some((_, expect)) = expect.next() {
            let (got, want) = (value.as_ref(), expect.as_ref());
            assert!(
                got.same(want),
                "({path}, {data}, {field}) diverged:\n{got:?}\n{want:?}"
            );
            println!("({path}, {data}, {field})");
            compared += 1;
        }
    }
    assert!(compared > 0, "({path}, {data}): no field in common");
}

impl From<&SpecHdOutcome> for Outcome {
    fn from(o: &SpecHdOutcome) -> Self {
        let (kept, stats) = (o.kept(), o.stats());
        let clusters = o.assignment().num_clusters() as u64;
        let labels = o.assignment().labels().to_vec();
        Self::clustering(kept.to_vec(), labels, clusters, kept.len() as u64)
            .with("consensus", o.consensus().to_vec())
            .hac(stats.hac)
            .with("hypervectors", o.hypervectors().clone())
            .with("bucket stats", stats.buckets)
            .with("preprocess stats", stats.preprocess)
    }
}

impl From<&ServiceOutcome> for Outcome {
    fn from(o: &ServiceOutcome) -> Self {
        let (kept, stats) = (o.kept.iter().map(|&i| i as usize), o.stats);
        let kept: Vec<usize> = kept.collect();
        let consensus: Vec<usize> = o.consensus.iter().map(|&i| i as usize).collect();
        Self::clustering(kept, o.labels.clone(), stats.clusters, stats.kept)
            .with("consensus", consensus)
            .hac(HacStats {
                comparisons: stats.hac_comparisons,
                updates: stats.hac_updates,
                merges: stats.hac_merges,
            })
    }
}

/// An installment: its own kept spectra and labels, the store's totals
/// after it, and its bookkeeping. Medoids map back to input indices only
/// for a first installment, which holds every cluster.
impl From<&IncrementalOutcome> for Outcome {
    fn from(o: &IncrementalOutcome) -> Self {
        let (kept, stats) = (o.kept(), o.stats());
        let clusters = o.assignment().num_clusters() as u64;
        let total = o.base_id() + kept.len() as u64;
        let labels = o.installment_labels().to_vec();
        let installment = Self::clustering(kept.to_vec(), labels, clusters, total)
            .with("base id", o.base_id())
            .with("absorbed", stats.absorbed as u64)
            .with("residual", stats.residual as u64)
            .with("new clusters", stats.new_clusters as u64);
        match o.base_id() {
            0 => {
                let medoids: Vec<usize> = o.consensus().iter().map(|&g| kept[g as usize]).collect();
                installment.with("consensus", medoids)
            }
            _ => installment,
        }
    }
}

/// A served installment's ack, projected as the library's outcome is.
impl From<&IncrementalAckFrame> for Outcome {
    fn from(ack: &IncrementalAckFrame) -> Self {
        let kept: Vec<usize> = ack.kept.iter().map(|&i| i as usize).collect();
        let labels: Vec<usize> = ack.labels.iter().map(|&l| l as usize).collect();
        Self::clustering(kept, labels, ack.total_clusters, ack.total_spectra)
            .with("base id", ack.base_id)
            .with("absorbed", ack.absorbed)
            .with("residual", ack.residual)
            .with("new clusters", ack.new_clusters)
    }
}

fn per_hit<H, T>(hits: &[Vec<H>], field: impl Fn(&H) -> T) -> Vec<Vec<T>> {
    hits.iter()
        .map(|q| q.iter().map(&field).collect())
        .collect()
}

/// A local search path's hits, per query and per hit, `mass_delta` to
/// the bit; with `ids`, each entry's id looked up in that library too.
pub fn hits(hits: &[Vec<HdPsm>], ids: Option<&HvLibrary>) -> Outcome {
    let local = Outcome::default()
        .with("query index", per_hit(hits, |h| h.query_index))
        .with("library index", per_hit(hits, |h| h.library_index))
        .with("distance", per_hit(hits, |h| h.distance))
        .with("mass delta", per_hit(hits, |h| h.mass_delta.to_bits()))
        .with("is decoy", per_hit(hits, |h| h.is_decoy));
    match ids {
        Some(lib) => local.with("id", per_hit(hits, |h| lib.id(h.library_index).to_string())),
        None => local,
    }
}

/// The hits a `SearchClient` received (their query indices are
/// job-global, so they are not projected).
pub fn served_hits(served: &[QueryHits]) -> Outcome {
    let hits: Vec<_> = served.iter().map(|q| q.hits.clone()).collect();
    Outcome::default()
        .with(
            "library index",
            per_hit(&hits, |h| h.library_index as usize),
        )
        .with("distance", per_hit(&hits, |h| h.distance))
        .with("mass delta", per_hit(&hits, |h| h.mass_delta.to_bits()))
        .with("is decoy", per_hit(&hits, |h| h.is_decoy))
        .with("id", per_hit(&hits, |h| h.id.clone()))
}
