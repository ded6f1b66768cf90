//! Regenerates EVERY table and figure of the paper in one run, in paper
//! order (harness = false: this is a reporting target, not a statistics
//! run).
use spechd_bench::*;

fn main() {
    print_table1();
    print_fig2();
    print_fig6a();
    print_fig6b();
    print_fig7();
    print_fig8();
    print_fig9();
    print_fig10();
    print_fig11();
    print_dse();
}
