//! Regenerates Fig. 9: energy efficiency vs HyperSpec flavours.
fn main() {
    spechd_bench::print_fig9();
}
