//! Execution statistics collected per launch.

use sass::{Op, OpCategory};
use std::collections::BTreeMap;

/// Memory-system counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Warp-level global loads executed.
    pub global_loads: u64,
    /// Warp-level global stores executed.
    pub global_stores: u64,
    /// Sum over global accesses of the distinct cache lines touched.
    pub global_lines: u64,
    /// Warp-level shared accesses.
    pub shared_accesses: u64,
    /// Warp-level local accesses.
    pub local_accesses: u64,
    /// Atomic/reduction operations (thread-level).
    pub atomics: u64,
}

/// Statistics of one kernel launch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Warp-level instructions executed (one per issued instruction).
    pub warp_instructions: u64,
    /// Thread-level instructions (sum of active lanes per issue).
    pub thread_instructions: u64,
    /// Simulated cycles under the cost model.
    pub cycles: u64,
    /// Executed warp-level instruction counts per opcode mnemonic.
    pub per_op: BTreeMap<String, u64>,
    /// Executed warp-level instruction counts per category.
    pub per_category: BTreeMap<OpCategory, u64>,
    /// Memory counters.
    pub mem: MemStats,
    /// Decode-cache hits/misses in the fetch path.
    pub decode_hits: u64,
    /// Decode-cache misses.
    pub decode_misses: u64,
}

/// One past the largest opcode index: the length of a dense per-op table.
const OP_SLOTS: usize = {
    let mut max = 0;
    let mut i = 0;
    while i < Op::ALL.len() {
        if Op::ALL[i] as usize > max {
            max = Op::ALL[i] as usize;
        }
        i += 1;
    }
    max + 1
};

/// Per-CTA instruction counters in dense form: one slot per opcode,
/// indexed by [`Op::index`]. The executor bumps them on every warp step,
/// with no allocation and no map probe, and folds them into the keyed
/// [`ExecStats`] maps once, when the CTA retires.
pub(crate) struct OpCounts {
    per_op: [u64; OP_SLOTS],
    lanes: u64,
}

impl Default for OpCounts {
    fn default() -> OpCounts {
        OpCounts { per_op: [0; OP_SLOTS], lanes: 0 }
    }
}

impl OpCounts {
    /// Records one issued instruction with `active` executing lanes.
    #[inline]
    pub fn record(&mut self, op: Op, active: u32) {
        self.per_op[op.index() as usize] += 1;
        self.lanes += u64::from(active.count_ones());
    }

    /// Adds the counts to `stats`: instruction totals and the per-opcode
    /// and per-category maps. Opcodes that never issued get no entry.
    pub fn fold_into(&self, stats: &mut ExecStats) {
        stats.thread_instructions += self.lanes;
        for &op in Op::ALL {
            let n = self.per_op[op.index() as usize];
            if n > 0 {
                stats.warp_instructions += n;
                *stats.per_op.entry(op.mnemonic().to_string()).or_insert(0) += n;
                *stats.per_category.entry(op.category()).or_insert(0) += n;
            }
        }
    }
}

impl ExecStats {
    /// Merges another launch's statistics into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.warp_instructions += other.warp_instructions;
        self.thread_instructions += other.thread_instructions;
        self.cycles += other.cycles;
        for (k, v) in &other.per_op {
            *self.per_op.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.per_category {
            *self.per_category.entry(*k).or_insert(0) += v;
        }
        self.mem.global_loads += other.mem.global_loads;
        self.mem.global_stores += other.mem.global_stores;
        self.mem.global_lines += other.mem.global_lines;
        self.mem.shared_accesses += other.mem.shared_accesses;
        self.mem.local_accesses += other.mem.local_accesses;
        self.mem.atomics += other.mem.atomics;
        self.decode_hits += other.decode_hits;
        self.decode_misses += other.decode_misses;
    }

    /// The top `n` opcodes by executed count, descending.
    pub fn top_ops(&self, n: usize) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self.per_op.iter().map(|(k, c)| (k.clone(), *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_of(issued: &[(Op, u32)]) -> ExecStats {
        let mut counts = OpCounts::default();
        for &(op, active) in issued {
            counts.record(op, active);
        }
        let mut s = ExecStats::default();
        counts.fold_into(&mut s);
        s
    }

    #[test]
    fn record_counts_ops_and_lanes() {
        let s = stats_of(&[(Op::Iadd, 0xffff_ffff), (Op::Iadd, 0x1), (Op::Ldg, 0xf)]);
        assert_eq!(s.warp_instructions, 3);
        assert_eq!(s.thread_instructions, 37);
        assert_eq!(s.per_op["IADD"], 2);
        assert_eq!(s.per_category[&OpCategory::MemGlobal], 1);
        assert_eq!(s.per_op.len(), 2, "opcodes that never issued get no entry");
    }

    #[test]
    fn dense_table_covers_every_opcode() {
        let issued: Vec<(Op, u32)> = Op::ALL.iter().map(|&op| (op, 1)).collect();
        let s = stats_of(&issued);
        assert_eq!(s.per_op.len(), Op::ALL.len());
        assert_eq!(s.per_op.values().sum::<u64>(), s.warp_instructions);
        assert_eq!(s.per_category.values().sum::<u64>(), s.warp_instructions);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = stats_of(&[(Op::Fmul, u32::MAX)]);
        let mut b = stats_of(&[(Op::Fmul, u32::MAX)]);
        b.cycles = 10;
        a.merge(&b);
        assert_eq!(a.per_op["FMUL"], 2);
        assert_eq!(a.cycles, 10);
        assert_eq!(a.thread_instructions, 64);
    }

    #[test]
    fn top_ops_sorts_descending_with_stable_ties() {
        let mut issued = vec![(Op::Ffma, 1); 5];
        issued.extend([(Op::Ldg, 1); 3]);
        issued.extend([(Op::Iadd, 1); 3]);
        let top = stats_of(&issued).top_ops(2);
        assert_eq!(top[0].0, "FFMA");
        assert_eq!(top[1], ("IADD".to_string(), 3)); // tie broken alphabetically
    }
}
