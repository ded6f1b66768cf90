//! Regenerates Fig. 2: naive HAC vs NN-chain HAC work and runtime.
fn main() {
    spechd_bench::print_fig2();
}
