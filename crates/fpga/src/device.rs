//! FPGA device description and resource budgeting.

/// Resource budget of an FPGA device (or the usage of a kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceBudget {
    /// Look-up tables.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// 36 Kb block RAMs.
    pub brams: u64,
    /// UltraRAM blocks (288 Kb each).
    pub urams: u64,
    /// DSP48 slices.
    pub dsps: u64,
}

impl ResourceBudget {
    /// Component-wise sum.
    pub fn plus(self, other: ResourceBudget) -> ResourceBudget {
        ResourceBudget {
            luts: self.luts + other.luts,
            ffs: self.ffs + other.ffs,
            brams: self.brams + other.brams,
            urams: self.urams + other.urams,
            dsps: self.dsps + other.dsps,
        }
    }

    /// Scales every resource by an integer replication factor.
    pub fn times(self, factor: u64) -> ResourceBudget {
        ResourceBudget {
            luts: self.luts * factor,
            ffs: self.ffs * factor,
            brams: self.brams * factor,
            urams: self.urams * factor,
            dsps: self.dsps * factor,
        }
    }

    /// Whether `self` fits within `capacity`.
    fn fits_in(self, capacity: ResourceBudget) -> bool {
        self.luts <= capacity.luts
            && self.ffs <= capacity.ffs
            && self.brams <= capacity.brams
            && self.urams <= capacity.urams
            && self.dsps <= capacity.dsps
    }
}

/// The Xilinx Alveo U280 Data Center Accelerator Card (the paper's
/// platform): UltraScale+ XCU280 with 8 GB HBM2 at 460 GB/s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlveoU280;

impl AlveoU280 {
    /// Total programmable-logic resources (XCU280 datasheet).
    pub fn capacity() -> ResourceBudget {
        ResourceBudget {
            luts: 1_304_000,
            ffs: 2_607_000,
            brams: 2_016,
            urams: 960,
            dsps: 9_024,
        }
    }

    /// Estimated resources of one ID-Level encoder kernel at
    /// dimensionality `dim`: the XOR array and majority counters dominate
    /// (counter array of `dim` 8-bit counters, `dim`-bit wide XOR, plus
    /// the partitioned ID/Level BRAMs).
    fn encoder_kernel(dim: usize, mz_bins: usize, levels: usize) -> ResourceBudget {
        let dim = dim as u64;
        let item_bits = ((mz_bins + levels) as u64) * dim;
        ResourceBudget {
            luts: 12 * dim, // XOR + counter increment logic
            ffs: 16 * dim,  // counter registers + pipeline
            brams: item_bits.div_ceil(36 * 1024).max(4),
            urams: 0,
            dsps: 8,
        }
    }

    /// Estimated resources of one NN-chain clustering kernel at
    /// dimensionality `dim` and maximum bucket size `max_bucket`:
    /// the full-width XOR/popcount tree plus the partitioned distance-row
    /// BRAM and cluster bookkeeping.
    fn clustering_kernel(dim: usize, max_bucket: usize) -> ResourceBudget {
        let dim = dim as u64;
        // popcount adder tree for dim bits ≈ dim LUT6 + dim/2 carry.
        let row_bits = (max_bucket as u64) * 16; // one u16 matrix row
        ResourceBudget {
            luts: 9 * dim + 6_000,
            ffs: 11 * dim + 8_000,
            brams: (row_bits * 4).div_ceil(36 * 1024).max(8), // chain + rows + clusters
            urams: 4,
            dsps: 16,
        }
    }

    /// Whether a configuration of `encoders` encoder kernels and
    /// `cluster_kernels` clustering kernels fits on the device, leaving
    /// 20% headroom for the static shell (XDMA/HBM controllers).
    pub fn fits(
        encoders: usize,
        cluster_kernels: usize,
        dim: usize,
        mz_bins: usize,
        levels: usize,
        max_bucket: usize,
    ) -> bool {
        let total = Self::encoder_kernel(dim, mz_bins, levels)
            .times(encoders as u64)
            .plus(Self::clustering_kernel(dim, max_bucket).times(cluster_kernels as u64));
        let capacity = Self::capacity();
        let shell_headroom = ResourceBudget {
            luts: capacity.luts * 8 / 10,
            ffs: capacity.ffs * 8 / 10,
            brams: capacity.brams * 8 / 10,
            urams: capacity.urams * 8 / 10,
            dsps: capacity.dsps * 8 / 10,
        };
        total.fits_in(shell_headroom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_fits() {
        // 1 encoder + 5 clustering kernels at D=2048 (the Fig. 3 layout).
        assert!(AlveoU280::fits(1, 5, 2048, 2048, 64, 8192));
    }

    #[test]
    fn absurd_configuration_does_not_fit() {
        assert!(!AlveoU280::fits(16, 64, 8192, 8192, 256, 65_536));
    }

    #[test]
    fn budget_arithmetic() {
        let a = ResourceBudget {
            luts: 10,
            ffs: 20,
            brams: 1,
            urams: 0,
            dsps: 2,
        };
        let b = a.times(3);
        assert_eq!(b.luts, 30);
        let c = a.plus(b);
        assert_eq!(c.ffs, 80);
    }

    #[test]
    fn fits_in_and_utilization() {
        let cap = ResourceBudget {
            luts: 100,
            ffs: 100,
            brams: 10,
            urams: 10,
            dsps: 10,
        };
        let use_half = ResourceBudget {
            luts: 50,
            ffs: 20,
            brams: 5,
            urams: 0,
            dsps: 1,
        };
        assert!(use_half.fits_in(cap));
        let too_big = ResourceBudget {
            luts: 200,
            ..use_half
        };
        assert!(!too_big.fits_in(cap));
    }

    #[test]
    fn encoder_scales_with_dim() {
        let small = AlveoU280::encoder_kernel(1024, 1024, 32);
        let large = AlveoU280::encoder_kernel(4096, 1024, 32);
        assert!(large.luts > small.luts);
        assert!(large.brams >= small.brams);
    }

    #[test]
    fn clustering_kernel_brams_scale_with_bucket() {
        let small = AlveoU280::clustering_kernel(2048, 1024);
        let large = AlveoU280::clustering_kernel(2048, 32_768);
        assert!(large.brams > small.brams);
    }
}
