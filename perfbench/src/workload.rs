//! What every workload provides, and the pieces they share.

use crate::cluster::Daemons;
use crate::layers::LayerCase;
use crate::record::Recorder;
use parafile_net::Session;
use std::path::PathBuf;

/// Where a run finds the daemon binary and keeps its data.
pub struct Env {
    /// The `pf` binary.
    pub pf: PathBuf,
    /// Directory for daemon data; emptied before every set-up.
    pub data: PathBuf,
    /// CPU the daemons are pinned to.
    pub cpu: usize,
}

/// A set-up that is ready to serve: the daemons and the client's session.
pub struct Live {
    /// Declared before `daemons` so the session closes first.
    pub session: Session,
    /// The daemons the session talks to.
    pub daemons: Daemons,
}

/// One benchmark workload.
pub trait Workload {
    /// Starts the daemons, connects, creates the files and sets the first
    /// views. This is the timed set-up; inputs are made before it.
    fn setup(&mut self, env: &Env) -> Result<Live, String>;

    /// One round: the same operations every round, one outstanding at a
    /// time, each checked against the oracle.
    fn round(&mut self, live: &mut Live, rec: &mut Recorder);

    /// Untimed checks after the timed phase, ending with the final flush.
    fn verify(&mut self, live: &mut Live, env: &Env, rec: &mut Recorder) -> Result<(), String>;

    /// Wire ids of every file copy the daemons host.
    fn wire_files(&self) -> Vec<u64>;

    /// The workload's writes as the per-layer measurements take them.
    fn layer_cases(&self) -> Vec<LayerCase>;

    /// Disagreements with the oracle seen by the per-operation checks.
    fn mismatches(&self) -> u64;

    /// Bytes the data directories held at the end of the timed phase
    /// (0 for the memory backend).
    fn disk_before_flush(&self) -> u64 {
        0
    }
}

/// SplitMix64: the benchmark's only source of input randomness.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and input `stream` (so that workloads draw
    /// independent streams from one seed).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fills `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let x = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&x[..chunk.len()]);
        }
    }
}

/// Counts an oracle disagreement and reports the first few.
pub fn note_mismatch(count: &mut u64, what: std::fmt::Arguments<'_>) {
    *count += 1;
    if *count <= 5 {
        eprintln!("perfbench: oracle mismatch: {what}");
    }
}
