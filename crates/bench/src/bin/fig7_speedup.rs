//! Regenerates Fig. 7: end-to-end runtime speedup over the baselines.
fn main() {
    spechd_bench::print_fig7();
}
