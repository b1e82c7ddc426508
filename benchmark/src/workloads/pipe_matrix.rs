//! `pipe_matrix`: the detailed pipeline driven directly.
//!
//! Eight cells, {1,2,4,8 contexts} x {compute mix, memory mix}, each its own
//! `Processor` with its own streams. `smtsim` and `workloads` do all of the
//! work and nothing else is on the path. The two mixes use the pipeline
//! differently (issue-bound against all-contexts-stalled), so a change to
//! the cycle loop has to win on one without losing on the other.
//!
//! One operation is a *sweep*: one 5k-cycle `run_timeslice` on each of the
//! eight cells in turn.

use super::{mix, repeat_setup, timed, Params};
use crate::outcome::Run;
use crate::stats;
use crate::trace::Tracer;
use smtsim::trace::InstructionSource;
use smtsim::{MachineConfig, Processor, StreamId};
use std::time::Instant;
use workloads::{Benchmark, SyntheticStream};

/// Cycles per `run_timeslice` call (the scheduler clock of every other
/// workload at this scale).
const SLICE_CYCLES: u64 = 5_000;
/// Cycles each cell runs before the timed section, to fill its caches.
const WARMUP_CYCLES: u64 = 100_000;
/// Sweeps per second of requested run length (reference box: ~23 ms each).
const SWEEPS_PER_SECOND: u64 = 42;
/// Cycles each benchmark runs solo when the builder checks the mix split.
const CLASSIFY_CYCLES: u64 = 30_000;
/// Instructions drawn per mix by the stream-generation probe.
const STREAM_PROBE_INSTRS: u64 = 2_000_000;

const CONTEXTS: [usize; 4] = [1, 2, 4, 8];
const COMPUTE: [Benchmark; 4] = [Benchmark::Fp, Benchmark::Gcc, Benchmark::Go, Benchmark::Ep];
const MEMORY: [Benchmark; 4] = [Benchmark::Is, Benchmark::Swim, Benchmark::Mg, Benchmark::Cg];
const MIX_NAMES: [&str; 2] = ["compute", "memory"];

struct Cell {
    label: String,
    cpu: Processor,
    streams: Vec<SyntheticStream>,
    committed: u64,
    cycles: u64,
    busy_s: f64,
}

impl Cell {
    fn new(contexts: usize, mix_name: &str, members: &[Benchmark; 4], seed: u64) -> Self {
        let streams = (0..contexts)
            .map(|i| *members[i % 4].stream(StreamId(i as u64), mix(seed, i as u64)))
            .collect();
        Cell {
            label: format!("c{contexts}.{mix_name}"),
            cpu: Processor::new(MachineConfig::alpha21264_like(contexts)),
            streams,
            committed: 0,
            cycles: 0,
            busy_s: 0.0,
        }
    }

    /// One timeslice on this cell; returns (committed, cycles).
    fn slice(&mut self) -> (u64, u64) {
        let mut threads: Vec<&mut dyn InstructionSource> = self
            .streams
            .iter_mut()
            .map(|s| s as &mut dyn InstructionSource)
            .collect();
        let stats = self.cpu.run_timeslice(&mut threads, SLICE_CYCLES);
        (stats.total_committed(), stats.cycles)
    }
}

/// Solo data-cache misses per thousand committed instructions.
fn solo_dl1_mpki(bench: Benchmark, seed: u64) -> f64 {
    let mut cpu = Processor::new(MachineConfig::alpha21264_like(1));
    let mut s = bench.stream(StreamId(0), seed);
    let _ = cpu.run_timeslice(&mut [&mut *s], CLASSIFY_CYCLES);
    let stats = cpu.run_timeslice(&mut [&mut *s], CLASSIFY_CYCLES);
    1e3 * stats.cache.dl1_misses as f64 / stats.total_committed().max(1) as f64
}

/// Splits the eight benchmarks into the compute and the memory mix by their
/// measured solo miss rate: the four that miss most are the memory mix. The
/// nominal split is kept in order, so a profile that sits on the wrong side
/// trades places with the one that belongs there.
fn split_mixes(seed: u64) -> [[Benchmark; 4]; 2] {
    let mut ranked: Vec<(f64, Benchmark)> = COMPUTE
        .iter()
        .chain(&MEMORY)
        .map(|&b| (solo_dl1_mpki(b, mix(seed, 0xc1a5)), b))
        .collect();
    ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("miss rates are not NaN"));
    let is_memory = |b: Benchmark| ranked[4..].iter().any(|&(_, m)| m == b);
    let mut compute: Vec<Benchmark> = COMPUTE.iter().copied().filter(|&b| !is_memory(b)).collect();
    let mut memory: Vec<Benchmark> = MEMORY.iter().copied().filter(|&b| is_memory(b)).collect();
    compute.extend(MEMORY.iter().copied().filter(|&b| !is_memory(b)));
    memory.extend(COMPUTE.iter().copied().filter(|&b| is_memory(b)));
    [
        compute.try_into().expect("four compute members"),
        memory.try_into().expect("four memory members"),
    ]
}

/// Builds the eight cells and warms their caches; also returns the two mixes.
fn build_cells(seed: u64) -> (Vec<Cell>, [[Benchmark; 4]; 2]) {
    let mixes = split_mixes(seed);
    let mut cells = Vec::with_capacity(8);
    for &contexts in &CONTEXTS {
        for (m, members) in mixes.iter().enumerate() {
            let cell_seed = mix(seed, (contexts * 2 + m) as u64);
            let mut cell = Cell::new(contexts, MIX_NAMES[m], members, cell_seed);
            for _ in 0..WARMUP_CYCLES / SLICE_CYCLES {
                cell.slice();
            }
            cells.push(cell);
        }
    }
    (cells, mixes)
}

/// `SyntheticStream::next_instr` alone, in million instructions per second.
fn stream_probe(members: &[Benchmark; 4], seed: u64) -> f64 {
    let mut streams: Vec<SyntheticStream> = members
        .iter()
        .enumerate()
        .map(|(i, b)| *b.stream(StreamId(i as u64), mix(seed, i as u64)))
        .collect();
    let (_, s) = timed(|| {
        for stream in &mut streams {
            for _ in 0..STREAM_PROBE_INSTRS / 4 {
                std::hint::black_box(stream.next_instr());
            }
        }
    });
    STREAM_PROBE_INSTRS as f64 / s / 1e6
}

pub fn run(p: &Params, tracer: &mut Tracer) -> Run {
    let mut run = Run::default();
    let ((mut cells, mixes), reps) = repeat_setup(|| build_cells(p.seed));
    run.setup_reps_s = reps;

    let sweeps = SWEEPS_PER_SECOND * p.seconds;
    let mut slice_ms = Vec::with_capacity((sweeps * 8) as usize);
    let mut bad_slices = 0;
    let start = Instant::now();
    for _ in 0..sweeps {
        let sweep_start = Instant::now();
        tracer.begin("pipe_matrix.sweep");
        for cell in &mut cells {
            let t = Instant::now();
            tracer.begin("smtsim.run_timeslice");
            let (committed, cycles) = cell.slice();
            tracer.end();
            let s = t.elapsed().as_secs_f64();
            cell.busy_s += s;
            cell.committed += committed;
            cell.cycles += cycles;
            slice_ms.push(s * 1e3);
            bad_slices += u64::from(cycles != SLICE_CYCLES || committed == 0);
        }
        tracer.end();
        run.ops_ms.push(sweep_start.elapsed().as_secs_f64() * 1e3);
    }
    run.wall_s = start.elapsed().as_secs_f64();
    run.checks.ops(sweeps * 8, bad_slices, || {
        "timeslices that ran the wrong number of cycles or committed nothing".into()
    });

    for cell in &cells {
        run.instructions += cell.committed;
        run.sim
            .int(format!("{}.committed", cell.label), cell.committed);
        run.sim.int(format!("{}.cycles", cell.label), cell.cycles);
    }

    if tracer.is_on() {
        for cell in &cells {
            let l = &cell.label;
            run.layer(
                format!("smtsim.mips.{l}"),
                cell.committed as f64 / cell.busy_s / 1e6,
            );
            run.layer(
                format!("smtsim.mcps.{l}"),
                cell.cycles as f64 / cell.busy_s / 1e6,
            );
            run.layer(
                format!("smtsim.ipc.{l}"),
                cell.committed as f64 / cell.cycles as f64,
            );
        }
        let sorted = stats::sorted(&slice_ms);
        run.layer(
            "smtsim.slice_ms_p50",
            stats::percentile_sorted(&sorted, 50.0),
        );
        run.layer(
            "smtsim.slice_ms_p95",
            stats::percentile_sorted(&sorted, 95.0),
        );
        for (m, members) in mixes.iter().enumerate() {
            tracer.begin("workloads.next_instr");
            let rate = stream_probe(members, mix(p.seed, 0x57e4));
            tracer.end();
            run.layer(
                format!("workloads.stream_minstr_per_s.{}", MIX_NAMES[m]),
                rate,
            );
        }
    }
    run.peak_rss_mb = super::peak_rss_mb(None);
    run
}
