//! `matrix_redist`: the paper's §8 case study over real daemons.
//!
//! An N×N byte matrix is column-blocked over the two daemons (memory
//! backend). Each round sets the four compute views of one layout — rows,
//! squares, columns in turn — reads the whole matrix back through them and
//! writes a new generation of it. Every read therefore sees bytes written
//! through the previous layout's views: each is a redistribution, checked
//! byte for byte against the closed-form layouts.

use crate::cluster::Daemons;
use crate::layers::LayerCase;
use crate::oracle::{self, Layout, Matrix};
use crate::record::{Op, Recorder};
use crate::workload::{note_mismatch, Env, Live, Workload};
use arraydist::matrix::MatrixLayout;
use parafile::Partition;
use parafile_net::Session;

/// Matrix side. 4 MiB in all; one view element is 1 MiB.
const N: u64 = 2048;
/// Compute views per layout.
const PROCS: u64 = 4;
/// Daemons, one subfile each.
const NODES: u64 = 2;
const FILE: u64 = 1;

/// The layouts one round after another.
const CYCLE: [(MatrixLayout, Matrix); 3] = [
    (MatrixLayout::RowBlocks, Matrix::Rows),
    (MatrixLayout::SquareBlocks, Matrix::Squares),
    (MatrixLayout::ColumnBlocks, Matrix::Columns),
];

pub struct MatrixRedist {
    phys: Partition,
    phys_oracle: Layout,
    views: Vec<(Partition, Layout)>,
    /// Generation of the bytes the file holds (0 = zeros).
    generation: u64,
    buf: Vec<u8>,
    expect: Vec<u8>,
    mismatches: u64,
}

impl MatrixRedist {
    pub fn new() -> Self {
        MatrixRedist {
            phys: MatrixLayout::ColumnBlocks.partition(N, N, 1, NODES),
            phys_oracle: Layout::matrix(Matrix::Columns, N, 1, NODES, 0),
            views: CYCLE
                .iter()
                .map(|&(l, m)| (l.partition(N, N, 1, PROCS), Layout::matrix(m, N, 1, PROCS, 0)))
                .collect(),
            generation: 0,
            buf: vec![0; (N * N / PROCS) as usize],
            expect: vec![0; (N * N / PROCS) as usize],
            mismatches: 0,
        }
    }

    /// Sets the views of `layout`, reads the matrix back through them
    /// (bytes the previous step wrote, or zeros) and writes the next
    /// generation.
    fn step(&mut self, live: &mut Live, rec: &mut Recorder, layout: usize) {
        let previous = self.generation;
        let gen = previous + 1;
        let session = &mut live.session;
        for e in 0..PROCS as usize {
            rec.op(Op::SetView, 0, || session.set_view(e as u32, FILE, &self.views[layout].0, e));
        }
        let view = &self.views[layout].1;
        for e in 0..PROCS as usize {
            oracle::fill_view(view, e, 0, previous, &mut self.expect);
            let len = self.expect.len() as u64;
            if let Some(got) = rec.op(Op::Read, len, || session.read(e as u32, FILE, 0, len - 1)) {
                if let Err(m) = oracle::compare(&got, &self.expect) {
                    note_mismatch(&mut self.mismatches, format_args!("read of view {e}: {m}"));
                }
            }
        }
        for e in 0..PROCS as usize {
            oracle::fill_view(view, e, 0, gen, &mut self.buf);
            let len = self.buf.len() as u64;
            if let Some(n) =
                rec.op(Op::Write, len, || session.write(e as u32, FILE, 0, len - 1, &self.buf))
            {
                if n != len {
                    note_mismatch(
                        &mut self.mismatches,
                        format_args!("write of view {e} stored {n} of {len}"),
                    );
                }
            }
        }
        self.generation = gen;
    }
}

impl Workload for MatrixRedist {
    fn setup(&mut self, env: &Env) -> Result<Live, String> {
        let daemons = Daemons::start(&env.pf, &[None, None], env.cpu)
            .map_err(|e| format!("start daemons: {e}"))?;
        let mut session = Session::connect(&daemons.addrs);
        session.create_file(FILE, self.phys.clone(), N * N).map_err(|e| e.to_string())?;
        for e in 0..PROCS as usize {
            session.set_view(e as u32, FILE, &self.views[0].0, e).map_err(|e| e.to_string())?;
        }
        self.generation = 0;
        Ok(Live { session, daemons })
    }

    /// One cycle through the three layouts.
    fn round(&mut self, live: &mut Live, rec: &mut Recorder) {
        for layout in 0..CYCLE.len() {
            self.step(live, rec, layout);
        }
    }

    fn verify(&mut self, live: &mut Live, _env: &Env, rec: &mut Recorder) -> Result<(), String> {
        let file: Vec<u8> = (0..N * N).map(|f| oracle::byte_at(self.generation, f)).collect();
        for s in 0..NODES as usize {
            let got =
                live.session.subfile(FILE, s).map_err(|e| format!("fetch subfile {s}: {e}"))?;
            oracle::check_subfile(&self.phys_oracle, s, &got, &file)
                .map_err(|m| format!("subfile {s}: {m}"))?;
        }
        rec.op(Op::Flush, 0, || live.session.flush(FILE));
        Ok(())
    }

    fn wire_files(&self) -> Vec<u64> {
        vec![FILE]
    }

    fn layer_cases(&self) -> Vec<LayerCase> {
        let mut cases = Vec::new();
        for (part, layout) in &self.views {
            for e in 0..PROCS as usize {
                let mut data = vec![0; (N * N / PROCS) as usize];
                oracle::fill_view(layout, e, 0, 1, &mut data);
                cases.push(LayerCase {
                    view: part.clone(),
                    element: e,
                    phys: self.phys.clone(),
                    file_len: N * N,
                    lo: 0,
                    data,
                });
            }
        }
        cases
    }

    fn mismatches(&self) -> u64 {
        self.mismatches
    }
}
