//! Per-layer measurements of a traced run: the benchmark calls each layer's
//! public function on the workload's own inputs and times the call as a
//! span. These numbers are read against the end-to-end ones; they are
//! never measured with tracing off.

use crate::record::{percentile, Recorder};
use clusterfile::SubfileStore;
use clusterfile::{coalesce_runs, ChecksumMap, IntentRecord, IoBatch, Journal, StorageBackend};
use parafile::engine::SegmentReplay;
use parafile::redist::intersect_elements;
use parafile::{sg, Mapper, Partition, PlanEngine};
use parafile_audit::{audit_partition, AuditConfig};
use parafile_net::{Request, PROTOCOL_VERSION};
use std::path::Path;

/// One write of the workload, as the layers see it: a view element, the
/// physical partition it is set against, the view interval and its bytes.
pub struct LayerCase {
    /// The logical partition.
    pub view: Partition,
    /// The view's element.
    pub element: usize,
    /// The file's physical partition.
    pub phys: Partition,
    /// The file's length.
    pub file_len: u64,
    /// First view offset written.
    pub lo: u64,
    /// The bytes written from `lo` on.
    pub data: Vec<u8>,
}

/// Times each case this many times per layer.
const REPS: usize = 3;

const MIB: f64 = 1024.0 * 1024.0;

/// A named per-layer value with its unit.
pub type Metric = (&'static str, f64, &'static str);

#[derive(Default)]
struct Acc {
    intersect: Vec<f64>,
    cold: Vec<f64>,
    warm: Vec<f64>,
    audit: Vec<f64>,
    map: Vec<f64>,
    encode: Vec<f64>,
    decode: Vec<f64>,
    submit: Vec<f64>,
    append: Vec<f64>,
    gather: (f64, f64),
    scatter: (f64, f64),
    verify: (f64, f64),
    fragments: f64,
    view_bytes: f64,
}

/// Subfile-linear extremities of `[lo, hi]`, as the session maps them.
fn extremities(view: &Mapper<'_>, sub: &Mapper<'_>, lo: u64, hi: u64) -> Option<(u64, u64)> {
    Some((sub.map_next(view.unmap(lo)), sub.map_prev(view.unmap(hi))?))
}

/// Runs every layer function on every case and derives the layer metrics.
pub fn measure(
    cases: &[LayerCase],
    dir: &Path,
    rec: &mut Recorder,
) -> std::io::Result<Vec<Metric>> {
    std::fs::create_dir_all(dir)?;
    let backend = StorageBackend::Directory(dir.to_path_buf());
    let mut acc = Acc::default();
    let src_len = cases.iter().map(|c| c.lo as usize + c.data.len()).max().unwrap_or(0);
    let mut src = vec![0u8; src_len];
    let cfg = AuditConfig::default();
    for (id, c) in cases.iter().enumerate() {
        let id = id as u64;
        let hi = c.lo + c.data.len() as u64 - 1;
        let nodes = c.phys.element_count();
        src[c.lo as usize..=hi as usize].copy_from_slice(&c.data);
        for _ in 0..REPS {
            let (_, us) = rec.layer("falls.intersect", id, || {
                (0..nodes)
                    .filter(|&s| intersect_elements(&c.view, c.element, &c.phys, s).is_ok())
                    .count()
            });
            acc.intersect.push(us);
            let engine = PlanEngine::new();
            let (_, us) = rec.layer("engine.compile_cold", id, || {
                engine.compile_view(&c.view, c.element, &c.phys)
            });
            acc.cold.push(us);
            let (_, us) = rec.layer("engine.compile_warm", id, || {
                engine.compile_view(&c.view, c.element, &c.phys)
            });
            acc.warm.push(us);
            let (_, us) =
                rec.layer("audit.check", id, || audit_partition(&c.view, &cfg).has_errors());
            acc.audit.push(us);
        }
        let plan = PlanEngine::new()
            .compile_view(&c.view, c.element, &c.phys)
            .map_err(|e| std::io::Error::other(format!("compile: {e}")))?;
        let vmap = Mapper::new(&c.view, c.element);
        for s in 0..nodes {
            let replay = plan.replay(s);
            if replay.bytes_between(c.lo, hi) == 0 {
                continue;
            }
            let smap = Mapper::new(&c.phys, s);
            let sub_replay = SegmentReplay::new(&plan.access(s).proj_sub);
            let sub_len = c.phys.element_len(s, c.file_len).unwrap_or(0);
            let fid = 1000 + id as usize;
            let mut store = SubfileStore::create(&backend, fid, s, sub_len)?;
            let mut journal = Journal::open(&backend, fid, s)?;
            let mut sub = vec![0u8; sub_len as usize];
            acc.fragments += replay.fragments_between(c.lo, hi) as f64;
            for rep in 0..REPS {
                let (ext, us) =
                    rec.layer("mapping.map", id, || extremities(&vmap, &smap, c.lo, hi));
                acc.map.push(us);
                let Some((l_s, r_s)) = ext else { continue };
                let mut payload = Vec::with_capacity(c.data.len());
                let (n, us) = rec.layer("sg.gather", id, || {
                    sg::gather_replay(&mut payload, &src, c.lo, hi, replay)
                });
                acc.gather.0 += n as f64;
                acc.gather.1 += us;
                let (n, us) = rec.layer("sg.scatter", id, || {
                    sg::scatter_replay(&mut sub, &payload, l_s, r_s, &sub_replay)
                });
                acc.scatter.0 += n as f64;
                acc.scatter.1 += us;
                let request = Request::Write {
                    file: 1,
                    compute: 0,
                    l_s,
                    r_s,
                    session: 1,
                    seq: rep as u64 + 1,
                    payload: payload.clone(),
                };
                let mut frame = Vec::new();
                let ((), us) = rec.layer("wire.encode", id, || {
                    request.encode_payload_at_into(PROTOCOL_VERSION, &mut frame);
                });
                acc.encode.push(us);
                let (decoded, us) = rec.layer("wire.decode", id, || {
                    Request::decode_at(PROTOCOL_VERSION, request.opcode(), &frame)
                });
                acc.decode.push(us);
                if decoded.as_ref().ok() != Some(&request) {
                    return Err(std::io::Error::other("wire round trip changed a Write request"));
                }
                let mut runs = Vec::new();
                sub_replay.for_each_between(l_s, r_s, |seg| runs.push((seg.l(), seg.len())));
                let mut out = Vec::new();
                let (done, us) = rec.layer("storage.submit_batch", id, || {
                    let ops = coalesce_runs(runs.iter().copied(), true);
                    store.submit_batch(&ops, &payload, &mut out)
                });
                done?;
                acc.submit.push(us);
                let intent =
                    IntentRecord { session: 1, seq: rep as u64 + 1, segments: runs, payload };
                let (done, us) = rec.layer("journal.append", id, || journal.append(&intent));
                done?;
                acc.append.push(us);
                let sums = ChecksumMap::for_store(&backend, fid, s, &mut store, false)?;
                let (bad, us) = rec.layer("checksum.verify", id, || {
                    sums.verify_range(&mut store, l_s, r_s - l_s + 1)
                });
                if bad? != 0 {
                    return Err(std::io::Error::other("checksum map disagrees with its own store"));
                }
                acc.verify.0 += (r_s - l_s + 1) as f64;
                acc.verify.1 += us;
            }
        }
        acc.view_bytes += c.data.len() as f64;
        src[c.lo as usize..=hi as usize].fill(0);
    }
    let _ = std::fs::remove_dir_all(dir);
    let rate = |(bytes, us): (f64, f64)| if us > 0.0 { bytes / MIB / (us / 1e6) } else { 0.0 };
    Ok(vec![
        ("falls.intersect_us", percentile(&acc.intersect, 0.5), "us"),
        ("engine.compile_cold_us", percentile(&acc.cold, 0.5), "us"),
        ("engine.compile_warm_us", percentile(&acc.warm, 0.5), "us"),
        ("audit.check_us", percentile(&acc.audit, 0.5), "us"),
        ("mapping.map_us", percentile(&acc.map, 0.5), "us"),
        ("sg.gather_mib_s", rate(acc.gather), "MiB/s"),
        ("sg.scatter_mib_s", rate(acc.scatter), "MiB/s"),
        ("sg.fragments_per_mib", acc.fragments / (acc.view_bytes / MIB), "1/MiB"),
        ("wire.encode_us", percentile(&acc.encode, 0.5), "us"),
        ("wire.decode_us", percentile(&acc.decode, 0.5), "us"),
        ("storage.submit_batch_us", percentile(&acc.submit, 0.5), "us"),
        ("journal.append_us", percentile(&acc.append, 0.5), "us"),
        ("checksum.verify_mib_s", rate(acc.verify), "MiB/s"),
    ])
}
