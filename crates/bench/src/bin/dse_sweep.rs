//! Design-space exploration sweep (the paper's DSE claim, SS I).
fn main() {
    spechd_bench::print_dse();
}
