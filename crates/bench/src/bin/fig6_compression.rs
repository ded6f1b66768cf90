//! Regenerates Fig. 6b: hypervector compression factors (24x-108x).
fn main() {
    spechd_bench::print_fig6b();
}
