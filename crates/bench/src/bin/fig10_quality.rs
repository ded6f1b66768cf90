//! Regenerates Fig. 10: clustered spectra ratio vs incorrect clustering
//! ratio for SpecHD and the comparator tools.
fn main() {
    spechd_bench::print_fig10();
}
