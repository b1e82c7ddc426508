//! Allocation guard for the detailed cycle loop.
//!
//! The speed of `Processor::run_timeslice` rests on a steady-state simulated
//! cycle performing no heap allocation: the completion wheel, the issue
//! queues and every per-cycle scratch buffer are owned by the engine and
//! reused. This test counts allocations with a wrapping global allocator (in
//! this integration-test crate, so the library keeps `forbid(unsafe_code)`)
//! and fails if a warmed timeslice allocates anything that grows with its
//! length — only the per-context pipeline state built at timeslice entry and
//! the returned `TimesliceStats` may allocate. That holds with occupancy
//! sampling on too: the sample buffer is reused across timeslices.

use rand::{rngs::SmallRng, RngCore, SeedableRng};
use smtsim::trace::{Fetch, Instr, InstrClass, InstructionSource};
use smtsim::{MachineConfig, Processor, StreamId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread while `COUNTING` is set.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

fn note_allocation() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only thread-local
// `Cell`s with const initialisers, which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` and `layout` describe a live block of this allocator,
        // and the caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A mixed stream (ALU, multiply, FP, loads, stores, branches, short and long
/// dependencies, a data footprint beyond the L1) that never allocates.
struct MixedStream {
    id: StreamId,
    rng: SmallRng,
    pc: u64,
}

impl InstructionSource for MixedStream {
    fn next_instr(&mut self) -> Fetch {
        let r = self.rng.next_u64();
        self.pc = (self.pc + 4) % (32 << 10);
        let pc = self.id.tag_addr(self.pc);
        let dep = (r >> 8) as u8 % 12;
        let addr = self.id.tag_addr(((r >> 20) % (4 << 20)) & !7);
        Fetch::Instr(match r % 16 {
            0..=4 => Instr::int_alu(pc, dep),
            5 => Instr::int_mul(pc, dep),
            6 | 7 => Instr::fp(InstrClass::FpAdd, pc, dep),
            8 => Instr::fp(InstrClass::FpMul, pc, dep),
            9 => Instr::fp(InstrClass::FpDiv, pc, dep),
            10..=12 => Instr::load(pc, addr, dep),
            13 => Instr::store(pc, addr, dep),
            _ => Instr::branch(pc, r >> 40 & 3 != 0),
        })
    }

    fn id(&self) -> StreamId {
        self.id
    }
}

/// Allocations made inside one `run_timeslice` of `cycles` cycles.
fn allocations_in_timeslice(cpu: &mut Processor, streams: &mut [MixedStream], cycles: u64) -> u64 {
    let mut threads: Vec<&mut dyn InstructionSource> = streams
        .iter_mut()
        .map(|s| s as &mut dyn InstructionSource)
        .collect();
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let stats = cpu.run_timeslice(&mut threads, cycles);
    COUNTING.with(|c| c.set(false));
    assert!(stats.total_committed() > cycles / 4, "the pipeline ran");
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn warmed_timeslice_allocations_do_not_grow_with_cycles() {
    const CONTEXTS: usize = 4;
    let mut cpu = Processor::new(MachineConfig::alpha21264_like(CONTEXTS));
    let mut streams: Vec<MixedStream> = (0..CONTEXTS as u64)
        .map(|i| MixedStream {
            id: StreamId(i),
            rng: SmallRng::seed_from_u64(i),
            pc: 0,
        })
        .collect();
    for sample in [false, true] {
        cpu.sample_occupancy(sample);
        // The first timeslice grows the wheel slots, the scratch and the
        // sample buffer to their steady-state capacity. It is shorter than
        // the long slices below, so a reused buffer whose size follows the
        // slice length shows up as extra allocations there.
        allocations_in_timeslice(&mut cpu, &mut streams, 20_000);
        let short: Vec<u64> = (0..3)
            .map(|_| allocations_in_timeslice(&mut cpu, &mut streams, 1_000))
            .collect();
        let long: Vec<u64> = (0..3)
            .map(|_| allocations_in_timeslice(&mut cpu, &mut streams, 30_000))
            .collect();
        // 30x the cycles, not one allocation more: nothing is proportional
        // to cycles. What remains is per-context state and the returned
        // statistics.
        assert_eq!(
            short, long,
            "allocations per timeslice depend on its length (sampling {sample})"
        );
        let bound = 4 * CONTEXTS as u64 + 4;
        assert!(
            long.iter().all(|&n| n <= bound),
            "{long:?} allocations per timeslice, expected O(contexts) <= {bound}"
        );
        assert_eq!(cpu.occupancy().len(), if sample { 469 } else { 0 });
    }
}
