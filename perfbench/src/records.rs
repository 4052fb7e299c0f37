//! `replicated_records` and `durable_records`: small fixed-size records on
//! replicated daemons.
//!
//! The file is striped record by record over the two daemons, and every
//! subfile has a copy on both (R = 2, write quorum 2), so every write pays
//! the quorum, the CRC32C pages and a round trip per copy. Each round
//! re-sets the record view, writes records at seeded random offsets and
//! reads seeded random records back. A serial-order shadow of the file is
//! the oracle: the file must equal what the writes produce applied one
//! after another.
//!
//! `replicated_records` keeps the subfiles in memory. `durable_records`
//! keeps them in directories, so every write also pays the journal's
//! `sync_data`; its run ends with a SIGKILL of both daemons and a restart.

use crate::cluster::{disk_bytes, Daemons};
use crate::layers::LayerCase;
use crate::oracle::{self, Dist, Layout};
use crate::record::{Op, Recorder};
use crate::workload::{note_mismatch, Env, Live, Rng, Workload};
use arraydist::dist::{ArrayDistribution, DimDist};
use arraydist::grid::ProcGrid;
use parafile::Partition;
use parafile_net::Session;
use std::path::PathBuf;

/// Bytes per record, and per stripe unit.
const RECORD: u64 = 4096;
/// Records in the file (8 MiB).
const RECORDS: u64 = 2048;
const LEN: u64 = RECORD * RECORDS;
const NODES: u64 = 2;
const REPLICAS: usize = 2;
/// Writes, then reads, per round.
const PER_ROUND: usize = 16;
const FILE: u64 = 2;

pub struct Records {
    /// Directory backend (journal, sidecars) instead of memory.
    durable: bool,
    phys: Partition,
    phys_oracle: Layout,
    view: Partition,
    rng: Rng,
    shadow: Vec<u8>,
    buf: Vec<u8>,
    samples: Vec<(u64, Vec<u8>)>,
    mismatches: u64,
    disk_before_flush: u64,
}

fn dirs(env: &Env, durable: bool) -> Vec<Option<PathBuf>> {
    (0..NODES).map(|i| durable.then(|| env.data.join(format!("node{i}")))).collect()
}

fn open(env: &Env, durable: bool, phys: &Partition, view: &Partition) -> Result<Live, String> {
    let daemons = Daemons::start(&env.pf, &dirs(env, durable), env.cpu)
        .map_err(|e| format!("start daemons: {e}"))?;
    let mut session =
        Session::connect_replicated(&daemons.addrs, REPLICAS).map_err(|e| e.to_string())?;
    session.create_file(FILE, phys.clone(), LEN).map_err(|e| e.to_string())?;
    session.set_view(0, FILE, view, 0).map_err(|e| e.to_string())?;
    Ok(Live { session, daemons })
}

impl Records {
    pub fn new(seed: u64, durable: bool) -> Self {
        let stripes = ArrayDistribution::new(
            vec![LEN],
            1,
            vec![DimDist::BlockCyclic(RECORD)],
            ProcGrid::new(vec![NODES]),
        );
        let whole =
            ArrayDistribution::new(vec![LEN], 1, vec![DimDist::Block], ProcGrid::new(vec![1]));
        Records {
            durable,
            phys: stripes.partition(0),
            phys_oracle: Layout {
                shape: vec![LEN],
                elem: 1,
                dists: vec![Dist::BlockCyclic(RECORD)],
                grid: vec![NODES],
                disp: 0,
            },
            view: whole.partition(0),
            rng: Rng::new(seed, 2),
            shadow: vec![0; LEN as usize],
            buf: vec![0; RECORD as usize],
            samples: Vec::new(),
            mismatches: 0,
            disk_before_flush: 0,
        }
    }

    fn check_file(&self, session: &mut Session) -> Result<(), String> {
        let whole = session.file_contents(FILE).map_err(|e| format!("file contents: {e}"))?;
        oracle::compare(&whole, &self.shadow).map_err(|m| format!("file: {m}"))?;
        for s in 0..NODES as usize {
            for rank in 0..REPLICAS {
                let copy = session
                    .subfile_copy(FILE, s, rank)
                    .map_err(|e| format!("copy ({s}, {rank}): {e}"))?;
                oracle::check_subfile(&self.phys_oracle, s, &copy, &self.shadow)
                    .map_err(|m| format!("copy ({s}, {rank}): {m}"))?;
            }
        }
        Ok(())
    }
}

impl Workload for Records {
    fn setup(&mut self, env: &Env) -> Result<Live, String> {
        self.shadow.fill(0);
        open(env, self.durable, &self.phys, &self.view)
    }

    fn round(&mut self, live: &mut Live, rec: &mut Recorder) {
        let session = &mut live.session;
        rec.op(Op::SetView, 0, || session.set_view(0, FILE, &self.view, 0));
        for _ in 0..PER_ROUND {
            let lo = self.rng.below(RECORDS) * RECORD;
            self.rng.fill(&mut self.buf);
            if let Some(n) =
                rec.op(Op::Write, RECORD, || session.write(0, FILE, lo, lo + RECORD - 1, &self.buf))
            {
                if n == RECORD {
                    self.shadow[lo as usize..(lo + RECORD) as usize].copy_from_slice(&self.buf);
                } else {
                    note_mismatch(
                        &mut self.mismatches,
                        format_args!("record at {lo} stored {n} bytes"),
                    );
                }
            }
            if self.samples.len() < 32 {
                self.samples.push((lo, self.buf.clone()));
            }
        }
        for _ in 0..PER_ROUND {
            let lo = self.rng.below(RECORDS) * RECORD;
            if let Some(got) =
                rec.op(Op::Read, RECORD, || session.read(0, FILE, lo, lo + RECORD - 1))
            {
                let want = &self.shadow[lo as usize..(lo + RECORD) as usize];
                if let Err(m) = oracle::compare(&got, want) {
                    note_mismatch(&mut self.mismatches, format_args!("record at {lo}: {m}"));
                }
            }
        }
    }

    /// Checks the file and both copies of each subfile. A durable run then
    /// SIGKILLs both daemons without a flush, restarts them on the same
    /// directories and checks everything again. The flush comes last.
    fn verify(&mut self, live: &mut Live, env: &Env, rec: &mut Recorder) -> Result<(), String> {
        self.disk_before_flush = disk_bytes(&env.data);
        self.check_file(&mut live.session)?;
        if self.durable {
            live.daemons.kill();
            *live = open(env, true, &self.phys, &self.view).map_err(|e| format!("restart: {e}"))?;
            self.check_file(&mut live.session)
                .map_err(|e| format!("after SIGKILL and restart: {e}"))?;
        }
        rec.op(Op::Flush, 0, || live.session.flush(FILE));
        Ok(())
    }

    fn wire_files(&self) -> Vec<u64> {
        (0..REPLICAS).map(|r| parafile_replica::copy_file_id(FILE, r)).collect()
    }

    fn layer_cases(&self) -> Vec<LayerCase> {
        self.samples
            .iter()
            .map(|(lo, data)| LayerCase {
                view: self.view.clone(),
                element: 0,
                phys: self.phys.clone(),
                file_len: LEN,
                lo: *lo,
                data: data.clone(),
            })
            .collect()
    }

    fn mismatches(&self) -> u64 {
        self.mismatches
    }

    fn disk_before_flush(&self) -> u64 {
        self.disk_before_flush
    }
}
