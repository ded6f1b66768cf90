//! Regenerates Fig. 11: peptide-identification overlap of consensus
//! spectra (SpecHD vs GLEAMS vs HyperSpec), split by precursor charge.
fn main() {
    spechd_bench::print_fig11();
}
