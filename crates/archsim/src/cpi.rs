//! Trace-driven CPI estimation: turns an instrumented workload's
//! instruction mix and memory reference stream into the `CPI_base` of
//! Eq 4.1.

use crate::cache::{Cache, CacheConfig};

/// A thread's instruction stream summary for one barrier interval.
#[derive(Debug, Clone, Copy)]
pub struct InstrStream<'a> {
    /// Simple-ALU operation count.
    pub alu_ops: u64,
    /// Multiplier operation count.
    pub mul_ops: u64,
    /// Memory references `(byte address, is_store)`, in program order.
    pub mem_refs: &'a [(u64, bool)],
    /// Dynamic branch count.
    pub branches: u64,
}

impl InstrStream<'_> {
    /// Total dynamic instructions.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.alu_ops + self.mul_ops + self.mem_refs.len() as u64 + self.branches
    }
}

/// The stall model of an in-order core: one cycle per instruction, plus
/// the L1 miss penalty, a 2-cycle multiply tail and a 2-cycle redirect on
/// the 40% of branches taken ([`CpiModel::paper_default`]).
#[derive(Debug, Clone, Copy)]
pub struct CpiModel {
    /// L1 data-cache geometry and miss penalty.
    pub cache: CacheConfig,
    /// Extra cycles per multiply.
    pub mul_extra: u64,
    /// Fraction of branches that redirect the front end.
    pub taken_rate: f64,
    /// Redirect penalty in cycles.
    pub redirect_penalty: u64,
}

impl CpiModel {
    /// The default model: default L1, 2-cycle multiplier tail, 40% taken
    /// branches, 2-cycle redirect.
    #[must_use]
    pub fn paper_default() -> CpiModel {
        CpiModel {
            cache: CacheConfig::l1_default(),
            mul_extra: 2,
            taken_rate: 0.4,
            redirect_penalty: 2,
        }
    }

    /// Estimates `CPI_base` for a stream: base 1.0 plus cache, multiplier
    /// and branch stalls. The cache is simulated reference by reference.
    ///
    /// Returns 1.0 for an empty stream (no instructions, no stalls).
    #[must_use]
    pub fn cpi(&self, stream: &InstrStream<'_>) -> f64 {
        let instr = stream.instructions();
        if instr == 0 {
            return 1.0;
        }
        let mut cache = Cache::new(self.cache);
        let mut miss_cycles = 0u64;
        for &(addr, is_store) in stream.mem_refs {
            if !cache.access(addr, is_store) {
                miss_cycles += self.cache.miss_penalty;
            }
        }
        let mul_cycles = stream.mul_ops * self.mul_extra;
        let branch_cycles =
            (stream.branches as f64 * self.taken_rate * self.redirect_penalty as f64).round()
                as u64;
        (instr + miss_cycles + mul_cycles + branch_cycles) as f64 / instr as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_alu_stream_has_cpi_one() {
        let model = CpiModel::paper_default();
        let s = InstrStream {
            alu_ops: 1000,
            mul_ops: 0,
            mem_refs: &[],
            branches: 0,
        };
        assert!((model.cpi(&s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cache_misses_raise_cpi() {
        let model = CpiModel::paper_default();
        // Strided far apart: every reference misses.
        let far: Vec<(u64, bool)> = (0..200).map(|i| (i * 8192, false)).collect();
        // Sequential within lines: mostly hits.
        let near: Vec<(u64, bool)> = (0..200).map(|i| (i * 8, false)).collect();
        let cpi_far = model.cpi(&InstrStream {
            alu_ops: 200,
            mul_ops: 0,
            mem_refs: &far,
            branches: 0,
        });
        let cpi_near = model.cpi(&InstrStream {
            alu_ops: 200,
            mul_ops: 0,
            mem_refs: &near,
            branches: 0,
        });
        assert!(cpi_far > cpi_near + 1.0, "{cpi_far} vs {cpi_near}");
    }

    #[test]
    fn multiplies_and_branches_raise_cpi() {
        let model = CpiModel::paper_default();
        let base = model.cpi(&InstrStream {
            alu_ops: 100,
            mul_ops: 0,
            mem_refs: &[],
            branches: 0,
        });
        let muls = model.cpi(&InstrStream {
            alu_ops: 0,
            mul_ops: 100,
            mem_refs: &[],
            branches: 0,
        });
        let branches = model.cpi(&InstrStream {
            alu_ops: 50,
            mul_ops: 0,
            mem_refs: &[],
            branches: 50,
        });
        assert!(muls > base);
        assert!(branches > base);
    }

    #[test]
    fn empty_stream_is_defined() {
        let model = CpiModel::paper_default();
        let s = InstrStream {
            alu_ops: 0,
            mul_ops: 0,
            mem_refs: &[],
            branches: 0,
        };
        assert_eq!(model.cpi(&s), 1.0);
    }
}
