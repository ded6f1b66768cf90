//! Regenerates Table I: preprocessing performance metrics.
fn main() {
    spechd_bench::print_table1();
}
