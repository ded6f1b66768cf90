//! Regenerates Fig. 6a: linkage comparison at ~1% incorrect clustering.
fn main() {
    spechd_bench::print_fig6a();
}
