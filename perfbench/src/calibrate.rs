//! Timing at a reference machine speed.
//!
//! On a shared virtual machine the same work takes a different time from
//! one second to the next: the kernel below ran in about 0.44 ms for a
//! while and then in about 0.72 ms, and the program slowed at the same
//! moments. Nothing in the program causes
//! that, and a run-level median does not remove it, so the benchmark scales its
//! timings to a reference speed: work is timed in short pieces, a fixed
//! kernel of the benchmark's own is timed between pieces, and a piece's
//! time is multiplied by [`REFERENCE_NS`] over the kernel time around it.
//!
//! The kernel is blind to the program. It uses no code of the
//! repository and allocates nothing while it runs: its two buffers are
//! allocated once, with the clock, and together with everything else it
//! touches (about 130 KiB) they fit the core's private L2. An untimed run
//! right before each timed one brings them back into those caches, so
//! whatever the program left in the caches or the allocator does not reach
//! the timed run. It is compute only — floating point, sorting, hashing,
//! ordered search and formatting. Kernels that added dependent loads over
//! a table in L2 or in L3 tracked the program no better: timed side by
//! side with this one, they left as much unexplained unit-to-unit
//! variation in all three workloads.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

/// The kernel's time at the reference speed, nanoseconds: about its time
/// at the faster of the two speeds a 2.1 GHz Xeon KVM guest (2 vCPUs)
/// switched between (0.43–0.45 ms, against 0.71–0.73 ms at the slower).
pub const REFERENCE_NS: f64 = 0.44e6;

/// A window of pieces is closed, and the kernel timed, once the pieces in
/// it add up to this much wall time. The machine's speed holds for
/// hundreds of milliseconds at a time, so a window this short sees one
/// speed.
const WINDOW_NS: u64 = 10_000_000;

/// Keys the kernel hashes and searches.
const KEYS: usize = 1_600;
/// Values the kernel sorts.
const SORTED: usize = 8_000;

/// One timed piece of work.
#[derive(Debug, Clone, Copy)]
pub struct Piece {
    /// What the piece was, as the caller tagged it.
    pub tag: usize,
    /// Wall time, nanoseconds.
    pub wall_ns: u64,
    /// Reference nanoseconds per wall nanosecond around the piece.
    pub factor: f64,
}

impl Piece {
    /// The piece's time at the reference speed, nanoseconds.
    pub fn ref_ns(&self) -> f64 {
        self.wall_ns as f64 * self.factor
    }
}

/// A stopwatch that times work in pieces and scales each to the
/// reference speed. [`RefClock::raw`] never runs the kernel and reports
/// wall time (factor 1); the traced run uses it, so its spans and walls
/// are plain wall time.
pub struct RefClock {
    kernel: Option<Kernel>,
    started: Instant,
    /// Kernel time at the start of the open window.
    before_ns: f64,
    /// Pieces of the open window.
    window: Vec<Piece>,
    window_ns: u64,
    /// Pieces of closed windows, in order.
    closed: Vec<Piece>,
    /// Every kernel time measured, nanoseconds.
    kernel_ns: Vec<f64>,
}

impl RefClock {
    /// A clock that scales to the reference speed.
    pub fn new() -> RefClock {
        let mut clock = RefClock {
            kernel: Some(Kernel::new()),
            ..RefClock::raw()
        };
        // Warm the kernel up; the last run opens the first window.
        for _ in 0..3 {
            clock.before_ns = clock.kernel_time_ns();
        }
        clock.kernel_ns.clear();
        clock.start();
        clock
    }

    /// A clock that reports plain wall time.
    pub fn raw() -> RefClock {
        RefClock {
            kernel: None,
            started: Instant::now(),
            before_ns: REFERENCE_NS,
            window: Vec::new(),
            window_ns: 0,
            closed: Vec::new(),
            kernel_ns: Vec::new(),
        }
    }

    /// Starts the next piece now; time since the last lap is not counted.
    pub fn start(&mut self) {
        self.started = Instant::now();
    }

    /// Ends the current piece, tagged `tag`, and starts the next one.
    /// When the open window is full, the kernel runs (between the two
    /// pieces, outside both).
    pub fn lap(&mut self, tag: usize) {
        let wall_ns = self.started.elapsed().as_nanos() as u64;
        self.window.push(Piece {
            tag,
            wall_ns,
            factor: 1.0,
        });
        self.window_ns += wall_ns;
        if self.window_ns >= WINDOW_NS {
            self.close_window();
        }
        self.start();
    }

    /// Closes the open window and returns every piece since the last
    /// call, in order.
    pub fn take(&mut self) -> Vec<Piece> {
        self.close_window();
        self.start();
        std::mem::take(&mut self.closed)
    }

    /// Kernel times measured so far, nanoseconds.
    pub fn kernel_ns(&self) -> &[f64] {
        &self.kernel_ns
    }

    fn close_window(&mut self) {
        if self.window.is_empty() {
            return;
        }
        let after_ns = if self.kernel.is_some() {
            self.kernel_time_ns()
        } else {
            REFERENCE_NS
        };
        let factor = 2.0 * REFERENCE_NS / (self.before_ns + after_ns);
        for mut piece in self.window.drain(..) {
            piece.factor = factor;
            self.closed.push(piece);
        }
        self.window_ns = 0;
        self.before_ns = after_ns;
    }

    /// Times one kernel run, after an untimed one that warms the caches.
    fn kernel_time_ns(&mut self) -> f64 {
        let kernel = self.kernel.as_mut().expect("a calibrating clock");
        black_box(kernel.run());
        let started = Instant::now();
        black_box(kernel.run());
        let ns = started.elapsed().as_nanos() as f64;
        self.kernel_ns.push(ns);
        ns
    }
}

/// The fixed kernel and every buffer it uses, allocated once.
struct Kernel {
    hashed: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>>,
    sorted: Vec<u64>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut hashed = HashMap::default();
        hashed.reserve(2 * KEYS);
        Kernel {
            hashed,
            sorted: Vec::with_capacity(SORTED),
        }
    }

    /// About half a millisecond of mixed work; allocates nothing.
    fn run(&mut self) -> u64 {
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut acc = 0u64;

        // Floating point: great-circle distances.
        let mut metres = 0.0f64;
        for _ in 0..4_000 {
            let a = (next() % 1_000_000) as f64 * 1e-6;
            let b = (next() % 1_000_000) as f64 * 1e-6;
            let h = (a.sin() * b.cos()).powi(2) + a.cos() * b.sin().abs();
            metres += 6_371_000.0 * 2.0 * h.sqrt().min(1.0).asin();
        }
        acc ^= metres as u64;

        // Sorting.
        self.sorted.clear();
        self.sorted.extend((0..SORTED).map(|_| next()));
        self.sorted.sort_unstable();
        acc ^= self.sorted[SORTED / 2];

        // Hashing, ordered search and formatting into a stack buffer.
        self.hashed.clear();
        let mut text = [0u8; 32];
        for i in 0..KEYS as u64 {
            let key = next() % 1_024;
            *self.hashed.entry(key).or_insert(0) += 1;
            let probe = next();
            acc ^= self.sorted.partition_point(|&v| v < probe) as u64;
            let mut out = &mut text[..];
            let _ = write!(out, "p{:04}/d{:02}", key, i % 14);
            acc = acc.wrapping_add(out.len() as u64);
        }
        acc ^= self.hashed.len() as u64;
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_clock_reports_wall_time_in_tagged_pieces() {
        let mut clock = RefClock::raw();
        for tag in 0..3 {
            std::thread::sleep(std::time::Duration::from_millis(1));
            clock.lap(tag);
        }
        let pieces = clock.take();
        assert_eq!(pieces.iter().map(|p| p.tag).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(pieces
            .iter()
            .all(|p| p.factor == 1.0 && p.wall_ns >= 1_000_000));
        assert!(clock.kernel_ns().is_empty());
    }

    #[test]
    fn calibrated_clock_times_the_kernel_between_windows() {
        let mut clock = RefClock::new();
        std::thread::sleep(std::time::Duration::from_millis(11));
        clock.lap(7);
        clock.lap(8);
        let pieces = clock.take();
        assert_eq!(pieces.len(), 2);
        assert!(pieces[0].factor > 0.0 && pieces[0].factor.is_finite());
        assert_eq!(clock.kernel_ns().len(), 2, "one per closed window");
    }
}
