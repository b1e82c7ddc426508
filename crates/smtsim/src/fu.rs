//! Functional-unit pools: integer units, floating-point units, load/store
//! ports.
//!
//! Most operations are fully pipelined (a unit accepts a new instruction
//! every cycle); long operations like floating-point divide occupy their unit
//! for several cycles (`occupancy > 1`), as on the 21264. A cycle on which a
//! ready instruction finds every unit of its pool busy is a conflict on that
//! pool — one of the events the paper's predictors read from the hardware
//! counters.

use crate::trace::InstrClass;

/// Which functional-unit pool an instruction class issues to. The
/// discriminant indexes per-pool arrays.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FuKind {
    /// Integer ALUs / multiplier.
    Int,
    /// Floating-point units.
    Fp,
    /// Load/store ports.
    Ls,
}

impl FuKind {
    /// Pool required by an instruction class.
    #[inline]
    pub fn for_class(class: InstrClass) -> FuKind {
        match class {
            InstrClass::IntAlu | InstrClass::IntMul | InstrClass::Branch => FuKind::Int,
            InstrClass::FpAdd | InstrClass::FpMul | InstrClass::FpDiv => FuKind::Fp,
            InstrClass::Load | InstrClass::Store => FuKind::Ls,
        }
    }
}

/// Issue-slot bookkeeping for the three pools.
///
/// Each unit tracks the cycle until which it is occupied; fully-pipelined
/// operations occupy a unit for one cycle, long operations for several.
#[derive(Clone, Debug)]
pub struct FuPools {
    /// Busy-until cycle of every unit, one pool per [`FuKind`].
    busy: [Vec<u64>; 3],
}

impl FuPools {
    /// Builds the pools with the given widths, all units idle.
    pub fn new(int_units: usize, fp_units: usize, ls_ports: usize) -> Self {
        FuPools {
            busy: [vec![0; int_units], vec![0; fp_units], vec![0; ls_ports]],
        }
    }

    /// Attempts to claim a unit of pool `kind` at cycle `now`, occupying it
    /// through `now + occupancy`. Returns `false` (a conflict) if every unit
    /// of the pool is busy.
    #[inline]
    pub fn try_issue(&mut self, kind: FuKind, now: u64, occupancy: u64) -> bool {
        for busy_until in &mut self.busy[kind as usize] {
            if *busy_until <= now {
                *busy_until = now + occupancy.max(1);
                return true;
            }
        }
        false
    }

    /// Units of `kind` free at cycle `now`.
    pub fn free(&self, kind: FuKind, now: u64) -> usize {
        self.busy[kind as usize]
            .iter()
            .filter(|&&b| b <= now)
            .count()
    }

    /// Marks every unit idle (timeslice-boundary reset).
    pub fn reset(&mut self) {
        for pool in &mut self.busy {
            pool.fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_to_pool_mapping() {
        assert_eq!(FuKind::for_class(InstrClass::IntAlu), FuKind::Int);
        assert_eq!(FuKind::for_class(InstrClass::IntMul), FuKind::Int);
        assert_eq!(FuKind::for_class(InstrClass::Branch), FuKind::Int);
        assert_eq!(FuKind::for_class(InstrClass::FpDiv), FuKind::Fp);
        assert_eq!(FuKind::for_class(InstrClass::Load), FuKind::Ls);
        assert_eq!(FuKind::for_class(InstrClass::Store), FuKind::Ls);
    }

    #[test]
    fn pipelined_units_free_next_cycle() {
        let mut fu = FuPools::new(2, 1, 1);
        assert!(fu.try_issue(FuKind::Int, 10, 1));
        assert!(fu.try_issue(FuKind::Int, 10, 1));
        assert!(
            !fu.try_issue(FuKind::Int, 10, 1),
            "third int op must conflict"
        );
        assert!(
            fu.try_issue(FuKind::Int, 11, 1),
            "pipelined unit accepts next cycle"
        );
    }

    #[test]
    fn long_occupancy_blocks_for_its_duration() {
        let mut fu = FuPools::new(1, 1, 1);
        assert!(fu.try_issue(FuKind::Fp, 0, 12));
        for c in 1..12 {
            assert!(!fu.try_issue(FuKind::Fp, c, 1), "fp unit busy at cycle {c}");
        }
        assert!(fu.try_issue(FuKind::Fp, 12, 1));
    }

    #[test]
    fn free_counts_and_reset() {
        let mut fu = FuPools::new(4, 2, 2);
        fu.try_issue(FuKind::Ls, 0, 1);
        assert_eq!(fu.free(FuKind::Ls, 0), 1);
        fu.try_issue(FuKind::Fp, 0, 20);
        fu.reset();
        assert_eq!(fu.free(FuKind::Fp, 0), 2);
        assert_eq!(fu.free(FuKind::Int, 0), 4);
    }
}
