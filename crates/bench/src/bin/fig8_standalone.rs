//! Regenerates Fig. 8: standalone clustering speedup on PXD000561.
fn main() {
    spechd_bench::print_fig8();
}
