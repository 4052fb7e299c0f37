//! `view_churn`: a seeded stream of distinct views, each set over the
//! network.
//!
//! A pool of matrix files is created at set-up, each with its own side
//! (drawn from the continuous range 256–2048), element size (the widest of
//! 1, 2, 4 and 8 bytes that keeps the matrix within 4 MiB), displacement
//! and physical layout over the two daemons (memory backend). Each round
//! draws a view of one pool file — a processor grid, a row distribution
//! (BLOCK, CYCLIC or CYCLIC(b)), an element and a displacement — sets it,
//! writes a small sample through it and reads the sample back. The views
//! far outnumber the 128-entry plan cache, so compiles miss it.
//!
//! The pool is stratified — file i always takes its side from band i and
//! the same layout kind — and views visit files and grids in turn, so the
//! per-view cost mix does not depend on the seed.

use crate::cluster::Daemons;
use crate::layers::LayerCase;
use crate::oracle::{self, Dist, Layout};
use crate::record::{Op, Recorder};
use crate::workload::{note_mismatch, Env, Live, Rng, Workload};
use arraydist::dist::{ArrayDistribution, DimDist};
use arraydist::grid::ProcGrid;
use parafile::Partition;
use parafile_net::Session;

/// Files in the pool.
const POOL: usize = 8;
const NODES: u64 = 2;
/// Sample bytes written and read per view.
const SAMPLE: u64 = 1024;
/// Samples start within this many bytes of the view element's start.
const SAMPLE_WINDOW: u64 = 16 * 1024;
/// Largest view displacement past the file's own.
const MAX_SHIFT: u64 = 4096;
/// Largest tile (matrix) of a pool file, bytes.
const MAX_TILE: u64 = 4 << 20;
const FIRST_FILE: u64 = 100;

struct PoolFile {
    side: u64,
    elem: u64,
    disp: u64,
    len: u64,
    phys: Partition,
    phys_oracle: Layout,
}

/// One view the stream set, enough to rebuild it and its sample.
#[derive(Clone, Copy)]
struct Drawn {
    file: usize,
    grid: (u64, u64),
    rows: Dist,
    element: usize,
    shift: u64,
    lo: u64,
    data_seed: u64,
}

pub struct ViewChurn {
    pool: Vec<PoolFile>,
    rng: Rng,
    log: Vec<Drawn>,
    buf: Vec<u8>,
    mismatches: u64,
}

fn to_dimdist(d: Dist) -> DimDist {
    match d {
        Dist::Whole => DimDist::Collapsed,
        Dist::Block => DimDist::Block,
        Dist::Cyclic => DimDist::Cyclic,
        Dist::BlockCyclic(b) => DimDist::BlockCyclic(b),
    }
}

/// The program's partition and the oracle's layout of the same
/// distribution.
fn both(side: u64, elem: u64, dists: [Dist; 2], grid: [u64; 2], disp: u64) -> (Partition, Layout) {
    let part = ArrayDistribution::new(
        vec![side, side],
        elem,
        dists.iter().map(|&d| to_dimdist(d)).collect(),
        ProcGrid::new(grid.to_vec()),
    )
    .partition(disp);
    (
        part,
        Layout { shape: vec![side, side], elem, dists: dists.to_vec(), grid: grid.to_vec(), disp },
    )
}

fn row_dist(rng: &mut Rng) -> Dist {
    match rng.below(3) {
        0 => Dist::Block,
        1 => Dist::Cyclic,
        _ => Dist::BlockCyclic(2 + rng.below(63)),
    }
}

impl ViewChurn {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 3);
        let band = (2048 - 256) / POOL as u64;
        let pool = (0..POOL)
            .map(|i| {
                // File i takes a side from the middle half of band i of the
                // 256–2048 range.
                let side = 256 + i as u64 * band + band / 4 + rng.below(band / 2);
                // The widest element that keeps the matrix within MAX_TILE,
                // so the pool holds about the same bytes whatever the seed.
                let elem =
                    [8, 4, 2, 1].into_iter().find(|e| side * side * e <= MAX_TILE).unwrap_or(1);
                let disp = rng.below(4096);
                // Half the files are column-blocked as in the paper, half
                // row-distributed by BLOCK, CYCLIC or CYCLIC(b) in turn.
                let rows = match i / 2 % 3 {
                    0 => Dist::Block,
                    1 => Dist::Cyclic,
                    _ => Dist::BlockCyclic(2 + rng.below(63)),
                };
                let (dists, grid) = if i % 2 == 0 {
                    ([rows, Dist::Whole], [NODES, 1])
                } else {
                    ([Dist::Whole, Dist::Block], [1, NODES])
                };
                let (phys, phys_oracle) = both(side, elem, dists, grid, disp);
                let len = disp + side * side * elem + MAX_SHIFT;
                PoolFile { side, elem, disp, len, phys, phys_oracle }
            })
            .collect();
        ViewChurn { pool, rng, log: Vec::new(), buf: vec![0; SAMPLE as usize], mismatches: 0 }
    }

    fn view(&self, d: &Drawn) -> (Partition, Layout) {
        let f = &self.pool[d.file];
        let cols = if d.grid.1 > 1 { Dist::Block } else { Dist::Whole };
        let rows = if d.grid.0 > 1 { d.rows } else { Dist::Whole };
        both(f.side, f.elem, [rows, cols], [d.grid.0, d.grid.1], f.disp + d.shift)
    }

    /// The next view: files and grids are taken in turn, so every run sets
    /// the same mix of them; everything else is drawn.
    fn draw(&mut self) -> Drawn {
        let n = self.log.len();
        let file = n % POOL;
        let grid = [(2, 2), (4, 1), (1, 4)][n / POOL % 3];
        let rows = row_dist(&mut self.rng);
        let element = self.rng.below(4) as usize;
        let shift = self.rng.below(MAX_SHIFT);
        let data_seed = self.rng.next_u64();
        let mut d = Drawn { file, grid, rows, element, shift, lo: 0, data_seed };
        let window = self.view(&d).1.element_bytes(element).min(SAMPLE_WINDOW);
        d.lo = self.rng.below(window - SAMPLE + 1);
        d
    }

    fn sample(d: &Drawn, buf: &mut [u8]) {
        Rng::new(d.data_seed, 4).fill(buf);
    }
}

impl Workload for ViewChurn {
    fn setup(&mut self, env: &Env) -> Result<Live, String> {
        let daemons = Daemons::start(&env.pf, &[None, None], env.cpu)
            .map_err(|e| format!("start daemons: {e}"))?;
        let mut session = Session::connect(&daemons.addrs);
        for (i, f) in self.pool.iter().enumerate() {
            session
                .create_file(FIRST_FILE + i as u64, f.phys.clone(), f.len)
                .map_err(|e| e.to_string())?;
        }
        self.log.clear();
        Ok(Live { session, daemons })
    }

    fn round(&mut self, live: &mut Live, rec: &mut Recorder) {
        let d = self.draw();
        let (part, _) = self.view(&d);
        let file = FIRST_FILE + d.file as u64;
        let session = &mut live.session;
        Self::sample(&d, &mut self.buf);
        let hi = d.lo + SAMPLE - 1;
        rec.op(Op::SetView, 0, || session.set_view(0, file, &part, d.element));
        if let Some(n) = rec.op(Op::Write, SAMPLE, || session.write(0, file, d.lo, hi, &self.buf)) {
            if n != SAMPLE {
                note_mismatch(
                    &mut self.mismatches,
                    format_args!("sample stored {n} of {SAMPLE} bytes"),
                );
            }
        }
        if let Some(got) = rec.op(Op::Read, SAMPLE, || session.read(0, file, d.lo, hi)) {
            if let Err(m) = oracle::compare(&got, &self.buf) {
                note_mismatch(&mut self.mismatches, format_args!("sample read back: {m}"));
            }
        }
        self.log.push(d);
    }

    /// Replays the logged samples, in order, through the closed-form view
    /// layouts into a shadow of each pool file, and checks both fetched
    /// subfiles of every file against it.
    fn verify(&mut self, live: &mut Live, _env: &Env, rec: &mut Recorder) -> Result<(), String> {
        let mut buf = vec![0u8; SAMPLE as usize];
        for (i, f) in self.pool.iter().enumerate() {
            let mut shadow = vec![0u8; f.len as usize];
            for d in self.log.iter().filter(|d| d.file == i) {
                Self::sample(d, &mut buf);
                oracle::apply_view_write(&self.view(d).1, d.element, d.lo, &buf, &mut shadow);
            }
            let file = FIRST_FILE + i as u64;
            for s in 0..NODES as usize {
                let got =
                    live.session.subfile(file, s).map_err(|e| format!("fetch {file}/{s}: {e}"))?;
                oracle::check_subfile(&f.phys_oracle, s, &got, &shadow)
                    .map_err(|m| format!("file {file} subfile {s}: {m}"))?;
            }
        }
        rec.op(Op::Flush, 0, || live.session.flush(FIRST_FILE));
        Ok(())
    }

    fn wire_files(&self) -> Vec<u64> {
        (0..POOL as u64).map(|i| FIRST_FILE + i).collect()
    }

    fn layer_cases(&self) -> Vec<LayerCase> {
        let mut buf = vec![0u8; SAMPLE as usize];
        self.log
            .iter()
            .rev()
            .take(64)
            .map(|d| {
                Self::sample(d, &mut buf);
                let f = &self.pool[d.file];
                LayerCase {
                    view: self.view(d).0,
                    element: d.element,
                    phys: f.phys.clone(),
                    file_len: f.len,
                    lo: d.lo,
                    data: buf.clone(),
                }
            })
            .collect()
    }

    fn mismatches(&self) -> u64 {
        self.mismatches
    }
}
