//! Host speed probe.
//!
//! On the shared 2-vCPU host this benchmark was tuned on, the same code
//! ran 1.5-2x faster or slower in phases of seconds to minutes, and the
//! slow phases reach whole runs: no statistic taken inside one run can
//! remove them. So the benchmark measures how fast the host is while
//! it serves, with a fixed reference kernel that lives here and not in
//! the program. One slice of it does, in about equal shares of time,
//! the three kinds of work the serving path does: pooled sums of random
//! 32-float rows of a 2 MiB table (embedding lookups), a sort of random
//! keys (branchy integer bookkeeping) and a chain of 32x32
//! matrix-vector products (the dense model). Slices run between
//! completed batches (see `HostLog`); their time over the reference
//! time is the host's slowdown, and host-clock metrics are divided by
//! it (rates multiplied), so they read as seconds of a host running at
//! the reference speed.
//!
//! A change to the program moves the normalized metrics as much as the
//! raw ones, because the kernel does not depend on the program; what
//! the normalization removes is the speed of the host, which moves the
//! program and the kernel together.

use std::cell::RefCell;
use std::time::Instant;

/// Rows of 32 floats in the gather table (2 MiB).
const ROWS: usize = 16 << 10;
/// Row lookups, sorted keys and matrix-vector products per slice.
const LOOKUPS: usize = 2 << 10;
const KEYS: usize = 2 << 10;
const PRODUCTS: usize = 96;
/// Seconds one slice took between ca-closed's batches, typical over
/// runs, on the 2-vCPU Xeon host (KVM, 300 MiB shared L3) the benchmark
/// was tuned on.
const REFERENCE_SLICE_S: f64 = 150e-6;
/// Untimed slices that warm a new probe.
const WARMUP_SLICES: usize = 500;

struct Probe {
    table: Vec<f32>,
    keys: Vec<u32>,
    matrix: Vec<f32>,
    state: u64,
}

impl Probe {
    fn new() -> Self {
        Probe {
            table: (0..ROWS * 32).map(|i| (i % 7) as f32).collect(),
            keys: vec![0; KEYS],
            matrix: (0..32 * 32).map(|i| (i % 5) as f32 * 0.01).collect(),
            state: 1,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state >> 33
    }

    /// Seconds of one slice of the reference kernel.
    fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut pooled = [0f32; 32];
        for _ in 0..LOOKUPS {
            let r = self.next() as usize % ROWS;
            for (p, x) in pooled.iter_mut().zip(&self.table[r * 32..r * 32 + 32]) {
                *p += x;
            }
        }
        for k in 0..KEYS {
            self.keys[k] = self.next() as u32;
        }
        self.keys.sort_unstable();
        let mut v = [1f32; 32];
        for _ in 0..PRODUCTS {
            let mut out = [0f32; 32];
            for (o, row) in out.iter_mut().zip(self.matrix.chunks_exact(32)) {
                let dot: f32 = row.iter().zip(&v).map(|(a, b)| a * b).sum();
                *o = dot.clamp(0.0, 1.0);
            }
            v = out;
        }
        std::hint::black_box((pooled, &self.keys, v));
        t.elapsed().as_secs_f64()
    }
}

thread_local! {
    static PROBE: RefCell<Option<Probe>> = const { RefCell::new(None) };
}

/// Allocates and warms the probe, once per thread.
pub fn prepare() {
    PROBE.with(|p| {
        p.borrow_mut().get_or_insert_with(|| {
            let mut probe = Probe::new();
            for _ in 0..WARMUP_SLICES {
                probe.run();
            }
            probe
        });
    });
}

/// Runs one slice of the reference kernel and returns its seconds.
pub fn slice() -> f64 {
    PROBE.with(|p| {
        p.borrow_mut()
            .as_mut()
            .expect("probe prepared before its first slice")
            .run()
    })
}

/// Host slowdown implied by `slices` probe slices that took `secs` in
/// total: above 1 on a host slower than the reference.
pub fn slowdown_of(secs: f64, slices: usize) -> f64 {
    secs / (slices as f64 * REFERENCE_SLICE_S)
}
