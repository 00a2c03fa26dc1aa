//! Durable checkpoints: versioned, checksummed on-disk frames that a
//! killed run resumes from bit for bit — and that reject corruption
//! with an error, never a panic or a silently wrong resume.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;

use hbn_dynamic::OnlineRequest;
use hbn_scenario::{
    ExecutionConfig, FaultPlan, RestoreError, ScenarioReport, ScenarioSpec, Session, Strategy,
    StrategyKind, TopologyFamily,
};
use hbn_testutil::TestDir;
use hbn_workload::phases::full_tour;
use hbn_workload::{ObjectId, PhaseSchedule};

/// An empty directory of the calling test's own under the target's temp
/// dir, removed when the guard drops.
fn tmp(name: &str) -> TestDir {
    TestDir::new(env!("CARGO_TARGET_TMPDIR"), &format!("durable-{name}"))
}

fn base_spec(seed: u64) -> ScenarioSpec {
    let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
    ScenarioSpec {
        epoch_requests: 40,
        ..ScenarioSpec::new("durable", topology, full_tour(8, 120), 2, seed)
    }
}

/// Drive `spec` for `k` epochs, save a durable checkpoint, finish the
/// run; then restore from disk and finish that run too. Returns both
/// reports for bit-for-bit comparison.
fn save_restore_roundtrip(
    spec: &ScenarioSpec,
    k: usize,
    path: &Path,
    factory: Option<&dyn Fn(&mut Session)>,
) -> (hbn_scenario::ScenarioReport, hbn_scenario::ScenarioReport) {
    let mut unbroken = Session::new(spec);
    if let Some(install) = factory {
        install(&mut unbroken);
    }
    for _ in 0..k {
        unbroken.step_epoch().unwrap().unwrap();
    }
    unbroken.checkpoint().save(path).unwrap();
    while unbroken.step_epoch().unwrap().is_some() {}
    let expected = unbroken.into_report();

    let mut resumed = Session::restore_from_file(spec, path).unwrap();
    assert_eq!(resumed.epoch_index(), k);
    while resumed.step_epoch().unwrap().is_some() {}
    (expected, resumed.into_report())
}

/// Disk roundtrip is exact for every built-in strategy kind, including
/// under an active fault plan (the checkpoint lands mid-outage). The
/// threshold switch is forced at epoch 3, so the checkpoint at 5 is
/// taken after its switch.
#[test]
fn disk_checkpoint_resumes_bit_for_bit_for_every_builtin() {
    for (i, strategy) in [
        StrategyKind::Dynamic,
        StrategyKind::PeriodicStatic { replace_every_epochs: 2 },
        StrategyKind::Hybrid { reseed_every_epochs: 2 },
        StrategyKind::FrozenStatic,
        StrategyKind::ThresholdSwitch { write_bound: 0.0, min_epochs: 3 },
    ]
    .into_iter()
    .enumerate()
    {
        let spec = ScenarioSpec { strategy, ..base_spec(23) };
        let dir = tmp(&format!("roundtrip_{i}"));
        let (expected, resumed) = save_restore_roundtrip(&spec, 5, &dir.join("cp.hbnc"), None);
        assert_eq!(resumed, expected, "strategy {strategy}");
    }

    // Mid-outage checkpoint: the fault overlay and healed state resume.
    let net = TopologyFamily::Balanced { branching: 3, height: 2 }.build();
    let bus = *net.children(net.root()).iter().find(|&&v| net.is_bus(v)).unwrap();
    let spec = ScenarioSpec { faults: FaultPlan::single_outage(bus, 4, 7), ..base_spec(29) };
    let dir = tmp("roundtrip_outage");
    let (expected, resumed) = save_restore_roundtrip(&spec, 5, &dir.join("cp.hbnc"), None);
    assert_eq!(resumed, expected);
    assert!(expected.traffic.repair_traffic == expected.traffic.repairs * 2);
}

/// The frozen-static and threshold-switch policies restore after a
/// mid-run swap into them too.
#[test]
fn disk_checkpoint_restores_after_a_mid_run_swap() {
    let spec = base_spec(31);
    let swap_frozen = |s: &mut Session| {
        let frozen = StrategyKind::FrozenStatic.build(s.network(), s.execution(), s.max_objects());
        s.swap_strategy(frozen);
    };
    let dir = tmp("roundtrip_swap");
    let path = dir.join("frozen.hbnc");
    let (expected, resumed) = save_restore_roundtrip(&spec, 3, &path, Some(&swap_frozen));
    assert_eq!(resumed, expected);

    let swap_switch = |s: &mut Session| {
        let kind = StrategyKind::ThresholdSwitch { write_bound: 0.3, min_epochs: 2 };
        s.swap_strategy(kind.build(s.network(), s.execution(), s.max_objects()));
    };
    let path = dir.join("switch.hbnc");
    let (expected, resumed) = save_restore_roundtrip(&spec, 4, &path, Some(&swap_switch));
    assert_eq!(resumed, expected);
}

/// Restoring under a different spec is refused up front with
/// `SpecMismatch` — before any state is built.
#[test]
fn restore_under_wrong_spec_is_refused() {
    let spec = base_spec(23);
    let dir = tmp("mismatch");
    let path = dir.join("cp.hbnc");
    let mut session = Session::new(&spec);
    session.step_epoch().unwrap().unwrap();
    session.checkpoint().save(&path).unwrap();

    let other = base_spec(24);
    match Session::restore_from_file(&other, &path).map(|_| ()) {
        Err(RestoreError::SpecMismatch { expected, found }) => assert_ne!(expected, found),
        other => panic!("expected SpecMismatch, got {other:?}"),
    }
}

/// External strategies without a durable form fail the save with
/// `UnsupportedStrategy`, not a corrupt file.
#[test]
fn unsupported_strategy_fails_the_save() {
    #[derive(Clone)]
    struct Opaque {
        home: Vec<hbn_topology::NodeId>,
        loads: hbn_load::LoadMap,
        stats: hbn_dynamic::DynamicStats,
    }
    impl Strategy for Opaque {
        fn label(&self) -> String {
            "opaque".into()
        }
        fn begin_epoch(
            &mut self,
            _: &hbn_topology::Network,
            _: usize,
            _: &hbn_workload::AccessMatrix,
            _: &hbn_scenario::FaultView,
        ) {
        }
        fn serve_batch(
            &mut self,
            _: &hbn_topology::Network,
            trace: &[hbn_dynamic::OnlineRequest],
            _: &hbn_workload::AccessMatrix,
        ) {
            for r in trace {
                if r.is_write {
                    self.stats.writes += 1;
                } else {
                    self.stats.reads += 1;
                }
            }
        }
        fn copy_set(&self, _: hbn_workload::ObjectId) -> &[hbn_topology::NodeId] {
            &self.home
        }
        fn add_loads_to(&self, out: &mut hbn_load::LoadMap) {
            out.add_assign(&self.loads);
        }
        fn stats(&self) -> hbn_dynamic::DynamicStats {
            self.stats
        }
    }

    let spec = base_spec(23);
    let mut session = Session::with_strategy(&spec, |net, _, _| {
        Box::new(Opaque {
            home: vec![net.processors()[0]],
            loads: hbn_load::LoadMap::zero(net),
            stats: hbn_dynamic::DynamicStats::default(),
        })
    });
    session.step_epoch().unwrap().unwrap();
    let dir = tmp("opaque");
    match session.checkpoint().save(&dir.join("cp.hbnc")) {
        Err(RestoreError::UnsupportedStrategy(label)) => assert_eq!(label, "opaque"),
        other => panic!("expected UnsupportedStrategy, got {other:?}"),
    }
}

/// Garbage files are rejected by kind: wrong magic, unknown or previous
/// version, corrupt payload, missing file.
#[test]
fn foreign_files_are_rejected_by_kind() {
    let spec = base_spec(23);
    let dir = tmp("foreign");

    let path = dir.join("not_a_checkpoint.hbnc");
    std::fs::write(&path, b"definitely not a checkpoint frame").unwrap();
    assert!(matches!(Session::restore_from_file(&spec, &path), Err(RestoreError::BadMagic)));

    // A real frame with its version field bumped is refused as an
    // unknown version (checked before the checksum, so future formats
    // get a precise error instead of "corrupt").
    let good = dir.join("version_base.hbnc");
    let mut session = Session::new(&spec);
    session.step_epoch().unwrap().unwrap();
    session.checkpoint().save(&good).unwrap();
    let bytes = std::fs::read(&good).unwrap();
    assert_eq!(&bytes[..4], b"HBNC");
    let mut flipped = bytes.clone();
    flipped[4] ^= 0xff;
    let vpath = dir.join("version_flip.hbnc");
    std::fs::write(&vpath, &flipped).unwrap();
    assert!(matches!(Session::restore_from_file(&spec, &vpath), Err(RestoreError::BadVersion(_))));
    // A real frame rewritten to an earlier format version is refused by
    // version — not as a spec mismatch, not as a corrupt file: v6 stored
    // the session's epoch and phase cursors and whole phase summaries, v5
    // carried a switched policy's retired tree and hashed the serve-era
    // kernel label, v4 kept the whole epoch history inline and checksummed
    // byte by byte, and v3's spec fingerprint still hashed a serve-shard
    // count.
    for old in [3u32, 4, 5, 6] {
        let mut rewritten = bytes.clone();
        rewritten[4..8].copy_from_slice(&old.to_le_bytes());
        let opath = dir.join(format!("version_{old}.hbnc"));
        std::fs::write(&opath, &rewritten).unwrap();
        let restored = Session::restore_from_file(&spec, &opath).map(|_| ());
        assert!(
            matches!(restored, Err(RestoreError::BadVersion(v)) if v == old),
            "v{old}: {restored:?}"
        );
    }
    // Corrupting the payload instead trips the checksum.
    let mut payload_flip = bytes.clone();
    let mid = 16 + (bytes.len() - 24) / 2;
    payload_flip[mid] ^= 0x01;
    let cpath = dir.join("payload_flip.hbnc");
    std::fs::write(&cpath, &payload_flip).unwrap();
    assert!(matches!(Session::restore_from_file(&spec, &cpath), Err(RestoreError::BadChecksum)));

    let missing = dir.join("missing_checkpoint.hbnc");
    assert!(matches!(Session::restore_from_file(&spec, &missing), Err(RestoreError::Io(_))));
}

/// The bytes of a saved three-epoch checkpoint.
fn checkpoint_bytes() -> Vec<u8> {
    let spec = base_spec(23);
    let dir = tmp("saved");
    let path = dir.join("cp.hbnc");
    let mut session = Session::new(&spec);
    for _ in 0..3 {
        session.step_epoch().unwrap().unwrap();
    }
    session.checkpoint().save(&path).unwrap();
    std::fs::read(&path).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any single byte of a checkpoint file always yields an
    /// `Err` on restore — never a panic, never a silently wrong resume.
    #[test]
    fn any_single_byte_corruption_is_an_error(pos in 0usize..4096, flip in 1u8..=255) {
        let spec = base_spec(23);
        let mut bytes = checkpoint_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        let dir = tmp("prop_flip");
        let path = dir.join("cp.hbnc");
        std::fs::write(&path, &bytes).unwrap();
        let restored = Session::restore_from_file(&spec, &path);
        prop_assert!(restored.is_err(), "byte {pos} xor {flip:#x} must not restore");
    }

    /// Every truncation of a checkpoint file is an error.
    #[test]
    fn any_truncation_is_an_error(cut in 0usize..4096) {
        let spec = base_spec(23);
        let bytes = checkpoint_bytes();
        let cut = cut % bytes.len();
        let dir = tmp("prop_cut");
        let path = dir.join("cp.hbnc");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        prop_assert!(Session::restore_from_file(&spec, &path).is_err());
    }
}

// --- the frozen epoch history: chunk files next to the frame ---------

/// Epochs per frozen history chunk. The length is private to the crate;
/// `checkpoints_resume_across_chunk_boundaries` pins it by observing when
/// the first chunk file appears.
const CHUNK: usize = 256;
/// Objects of the pushed-traffic spec.
const PUSHED_OBJECTS: u32 = 6;

/// The history chunk files in `dir`, sorted by name.
fn chunk_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "hbnh"))
        .collect();
    files.sort();
    files
}

/// A service-style spec: no schedule, every epoch pushed.
fn pushed_spec() -> ScenarioSpec {
    let topology = TopologyFamily::Balanced { branching: 2, height: 2 };
    ScenarioSpec::new("pushed", topology, PhaseSchedule::new(PUSHED_OBJECTS as usize, vec![]), 2, 5)
}

/// Pushed epoch `i` of traffic stream `traffic`: three requests, about a
/// third of them writes.
fn small_batch(session: &Session, traffic: u64, i: usize) -> Vec<OnlineRequest> {
    let procs = session.network().processors();
    (0..3u64)
        .map(|j| {
            let h = (traffic * 1_000_003 + i as u64 * 31 + j).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            OnlineRequest {
                processor: procs[(h >> 40) as usize % procs.len()],
                object: ObjectId((h >> 20) as u32 % PUSHED_OBJECTS),
                is_write: (h >> 8).is_multiple_of(3),
            }
        })
        .collect()
}

/// Push epochs `from..to` of `traffic` into `session`.
fn push_range(session: &mut Session, traffic: u64, from: usize, to: usize) {
    for i in from..to {
        let batch = small_batch(session, traffic, i);
        session.push_epoch(&batch).unwrap();
    }
}

/// Checkpoints whose history ends on a chunk boundary, one epoch past
/// it, and one epoch short of the next, each restored from disk and run
/// on, reproduce the unbroken run bit for bit.
#[test]
fn checkpoints_resume_across_chunk_boundaries() {
    let spec = pushed_spec();
    let dir = tmp("chunk_boundaries");
    let total = 4 * CHUNK + 20;
    let saves = [CHUNK - 1, CHUNK, 3 * CHUNK, 3 * CHUNK + 1, 4 * CHUNK - 1];
    let mut unbroken = Session::new(&spec);
    let mut done = 0;
    for &at in &saves {
        push_range(&mut unbroken, 1, done, at);
        done = at;
        unbroken.checkpoint().save(&dir.join(format!("e{at}.hbnc"))).unwrap();
        assert_eq!(chunk_files(&dir).len(), at / CHUNK, "chunk files after {at} epochs");
    }
    push_range(&mut unbroken, 1, done, total);
    let expected = unbroken.into_report();
    assert_eq!(expected.epochs.len(), total);

    for &at in &saves {
        let mut resumed = Session::restore_from_file(&spec, &dir.join(format!("e{at}.hbnc")))
            .unwrap_or_else(|e| panic!("restore at {at}: {e}"));
        assert_eq!(resumed.epoch_index(), at);
        assert_eq!(resumed.epoch(at - 1), expected.epochs.get(at - 1));
        assert!(resumed.epoch(at).is_none());
        push_range(&mut resumed, 1, at, total);
        assert_eq!(resumed.into_report(), expected, "resumed from {at} epochs");
    }
}

/// A chunk file that is missing fails the restore with `Io`; one handed
/// to `restore_from_file` as a checkpoint fails with `BadMagic`.
#[test]
fn missing_or_misused_chunk_files_fail_by_kind() {
    let spec = pushed_spec();
    let dir = tmp("chunk_missing");
    let mut session = Session::new(&spec);
    push_range(&mut session, 1, 0, 2 * CHUNK + 3);
    let frame = dir.join("frame.hbnc");
    session.checkpoint().save(&frame).unwrap();
    let chunks = chunk_files(&dir);
    assert_eq!(chunks.len(), 2);
    assert!(Session::restore_from_file(&spec, &frame).is_ok());

    let restored = Session::restore_from_file(&spec, &chunks[0]).map(|_| ());
    assert!(matches!(restored, Err(RestoreError::BadMagic)), "{restored:?}");

    std::fs::remove_file(&chunks[1]).unwrap();
    let restored = Session::restore_from_file(&spec, &frame).map(|_| ());
    assert!(matches!(restored, Err(RestoreError::Io(_))), "{restored:?}");
}

/// Two runs of one spec with different traffic save into one directory:
/// their chunk files differ by digest, and each frame restores its own
/// run's history, never the other's. A valid chunk file of the other
/// run put in place of a frame's own fails the digest check.
#[test]
fn two_runs_of_one_spec_never_read_each_others_chunks() {
    let spec = pushed_spec();
    let dir = tmp("chunk_two_runs");
    let epochs = CHUNK + 7;
    let mut reports = Vec::new();
    for traffic in [1, 2] {
        let mut session = Session::new(&spec);
        push_range(&mut session, traffic, 0, epochs);
        session.checkpoint().save(&dir.join(format!("run{traffic}.hbnc"))).unwrap();
        reports.push(session.into_report());
    }
    assert_ne!(reports[0].epochs[..CHUNK], reports[1].epochs[..CHUNK]);
    let chunks = chunk_files(&dir);
    assert_eq!(chunks.len(), 2, "one chunk file per run");
    for (traffic, expected) in [1, 2].into_iter().zip(&reports) {
        let restored =
            Session::restore_from_file(&spec, &dir.join(format!("run{traffic}.hbnc"))).unwrap();
        assert_eq!(&restored.into_report(), expected, "run {traffic}");
    }

    // Swap the two runs' chunk files: each name now holds a valid frame
    // of the other run.
    let swap = dir.join("swap.tmp");
    std::fs::rename(&chunks[0], &swap).unwrap();
    std::fs::rename(&chunks[1], &chunks[0]).unwrap();
    std::fs::rename(&swap, &chunks[1]).unwrap();
    for traffic in [1, 2] {
        let restored = Session::restore_from_file(&spec, &dir.join(format!("run{traffic}.hbnc")));
        let restored = restored.map(|_| ());
        assert!(matches!(restored, Err(RestoreError::BadChecksum)), "run {traffic}: {restored:?}");
    }
}

/// With the aggregate and the strategy state saturated (the same
/// read-only batch every epoch), frames at 1x, 4x and 16x a chunk of
/// epochs with the same tail differ by exactly one 8-byte digest per
/// added chunk, and a second save into the same directory writes only
/// the chunks frozen since the first.
#[test]
fn frames_grow_by_one_digest_per_chunk_and_saves_write_only_new_chunks() {
    let spec = pushed_spec();
    let dir = tmp("chunk_growth");
    let mut session = Session::new(&spec);
    let procs = session.network().processors().to_vec();
    let batch: Vec<OnlineRequest> = procs
        .iter()
        .flat_map(|&processor| {
            (0..PUSHED_OBJECTS).map(move |x| OnlineRequest {
                processor,
                object: ObjectId(x),
                is_write: false,
            })
        })
        .collect();
    let tail = 9;
    let mut sizes = Vec::new();
    let mut inodes_after_4x = Vec::new();
    for chunks in [1, 4, 16] {
        while session.epoch_index() < chunks * CHUNK + tail {
            session.push_epoch(&batch).unwrap();
        }
        let frame = dir.join(format!("x{chunks}.hbnc"));
        session.checkpoint().save(&frame).unwrap();
        sizes.push(std::fs::metadata(&frame).unwrap().len());
        assert_eq!(chunk_files(&dir).len(), chunks);
        if chunks == 4 {
            inodes_after_4x =
                chunk_files(&dir).iter().map(|p| (chunk_index(p), inode(p))).collect();
        }
    }
    assert_eq!(sizes[1] - sizes[0], 3 * 8, "frame sizes {sizes:?}");
    assert_eq!(sizes[2] - sizes[0], 15 * 8, "frame sizes {sizes:?}");

    // Chunks 0..4 were written by the 4x save and left alone by the 16x
    // one: each still is the file the first save renamed into place.
    let after_16x = chunk_files(&dir);
    for &(k, old) in &inodes_after_4x {
        let path = after_16x.iter().find(|p| chunk_index(p) == k).unwrap();
        assert_eq!(inode(path), old, "chunk {k} was rewritten");
    }
    let restored = Session::restore_from_file(&spec, &dir.join("x16.hbnc")).unwrap();
    assert_eq!(restored.into_report(), session.into_report());
}

/// The chunk index in a chunk file's name (`{fingerprint}-{k}-{digest}`).
fn chunk_index(path: &Path) -> usize {
    let name = path.file_stem().unwrap().to_str().unwrap();
    name.split('-').nth(1).unwrap().parse().unwrap()
}

/// The file's identity: a rewrite stages a new file and renames it over
/// the old name, so the identity changes.
#[cfg(unix)]
fn inode(path: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    std::fs::metadata(path).unwrap().ino()
}

/// Elsewhere the length stands in, which only shows the file survived.
#[cfg(not(unix))]
fn inode(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

/// A saved checkpoint of one frozen chunk and a short tail: the frame's
/// bytes, and the chunk file's name and bytes. Built once per process.
fn chunked_checkpoint() -> &'static (Vec<u8>, String, Vec<u8>) {
    static SAVED: OnceLock<(Vec<u8>, String, Vec<u8>)> = OnceLock::new();
    SAVED.get_or_init(|| {
        let dir = tmp("chunk_prop_base");
        let mut session = Session::new(&pushed_spec());
        push_range(&mut session, 3, 0, CHUNK + 4);
        let frame = dir.join("frame.hbnc");
        session.checkpoint().save(&frame).unwrap();
        let chunk = chunk_files(&dir).pop().unwrap();
        let name = chunk.file_name().unwrap().to_str().unwrap().to_owned();
        (std::fs::read(&frame).unwrap(), name, std::fs::read(&chunk).unwrap())
    })
}

/// Restore the saved frame next to `chunk` written in place of its chunk
/// file, in a directory of its own.
fn restore_with_chunk(case: &str, chunk: &[u8]) -> Result<ScenarioReport, RestoreError> {
    let (frame, name, _) = chunked_checkpoint();
    let dir = tmp(case);
    std::fs::write(dir.join("frame.hbnc"), frame).unwrap();
    std::fs::write(dir.join(name), chunk).unwrap();
    Session::restore_from_file(&pushed_spec(), &dir.join("frame.hbnc")).map(Session::into_report)
}

#[test]
fn intact_chunk_restores() {
    let (_, _, chunk) = chunked_checkpoint();
    assert_eq!(restore_with_chunk("chunk_intact", chunk).unwrap().epochs.len(), CHUNK + 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any single byte of a history chunk file is an `Err` on
    /// restore — never a panic, never a silently wrong history.
    #[test]
    fn any_single_byte_corruption_of_a_chunk_is_an_error(pos in 0usize..1 << 16, flip in 1u8..=255) {
        let mut chunk = chunked_checkpoint().2.clone();
        let pos = pos % chunk.len();
        chunk[pos] ^= flip;
        let restored = restore_with_chunk(&format!("chunk_flip_{pos}_{flip}"), &chunk);
        prop_assert!(restored.is_err(), "byte {pos} xor {flip:#x} must not restore");
    }

    /// Every truncation of a history chunk file is an error.
    #[test]
    fn any_truncation_of_a_chunk_is_an_error(cut in 0usize..1 << 16) {
        let chunk = &chunked_checkpoint().2;
        let cut = cut % chunk.len();
        let restored = restore_with_chunk(&format!("chunk_cut_{cut}"), &chunk[..cut]);
        prop_assert!(restored.is_err(), "truncation at {} must not restore", cut);
    }
}

// --- the v7 layout, pinned --------------------------------------------

/// FNV-1a (64-bit) of `bytes`, continuing from `h`: the digest the golden
/// values below were recorded with.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One of the five built-in policies, by its golden-table name. The
/// period-8 policies fire at epoch 200, inside the golden fault plan's
/// second outage; the threshold switch turns static at epoch 150, between
/// its two outages.
fn golden_policy(
    policy: &str,
    net: &hbn_topology::Network,
    exec: &ExecutionConfig,
    n: usize,
) -> Box<dyn Strategy> {
    match policy {
        "dynamic" => StrategyKind::Dynamic.build(net, exec, n),
        "periodic-static" => {
            StrategyKind::PeriodicStatic { replace_every_epochs: 8 }.build(net, exec, n)
        }
        "hybrid" => StrategyKind::Hybrid { reseed_every_epochs: 8 }.build(net, exec, n),
        "frozen-static" => StrategyKind::FrozenStatic.build(net, exec, n),
        "threshold-switch" => {
            StrategyKind::ThresholdSwitch { write_bound: 0.0, min_epochs: 150 }.build(net, exec, n)
        }
        other => panic!("no golden policy {other}"),
    }
}

/// Format v7, pinned byte for byte. For each built-in policy, pristine and
/// under a seeded fault plan (bus outages at epoch 132 and at epochs
/// 200-201), a 360-epoch run is digested twice: its final
/// `Strategy::durable()` bytes, and the files of a checkpoint saved at
/// the end (the frame and its one frozen history chunk, names and
/// contents, so the spec fingerprint is pinned too). A change to either
/// layout fails here unless it bumps `VERSION` and records the table anew.
#[test]
fn v7_layout_matches_golden_digests() {
    const GOLDEN: [(&str, bool, u64, u64); 10] = [
        ("dynamic", false, 0xffd9_62e1_187f_c917, 0xc68b_98d8_cc00_54ca),
        ("dynamic", true, 0x60ec_25a3_7892_ea7e, 0x4c41_6dd3_80e0_aa71),
        ("periodic-static", false, 0x56b3_f504_7b1c_d8e0, 0xd34e_0b70_4064_b6d3),
        ("periodic-static", true, 0x1544_1a9a_b550_2716, 0x35ad_167a_6fb7_373a),
        ("hybrid", false, 0x7482_5ed7_6455_07ca, 0x994a_0461_273d_1ce2),
        ("hybrid", true, 0x7085_a262_d626_c13d, 0x5be6_dd45_da70_3379),
        ("frozen-static", false, 0x1f62_f2ed_0ed2_c78b, 0xfaec_f11f_5925_689e),
        ("frozen-static", true, 0x53b7_bdad_f2ea_c81c, 0x00bb_6541_b7f8_9362),
        ("threshold-switch", false, 0x00a2_f822_5e22_2763, 0x4be4_6f65_8109_c007),
        ("threshold-switch", true, 0xc6a0_362c_0266_2c59, 0xc88d_75c5_6b99_0db6),
    ];
    for (policy, faulted, durable_digest, files_digest) in GOLDEN {
        let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
        let mut spec = ScenarioSpec::new("golden", topology, full_tour(8, 120), 2, 41);
        spec.epoch_requests = 2; // 6 phases of 60 epochs
        if faulted {
            spec.faults = FaultPlan::seeded(&spec.build_network(), 16, 360);
        }
        let mut session =
            Session::with_strategy(&spec, |net, exec, n| golden_policy(policy, net, exec, n));
        while session.step_epoch().unwrap().is_some() {}
        assert_eq!(session.epoch_index(), 360);
        let durable = session.strategy().durable().unwrap();
        assert_eq!(fnv1a(FNV_OFFSET, &durable), durable_digest, "{policy}, faulted {faulted}");

        let dir = tmp(&format!("golden_{policy}_{faulted}"));
        session.checkpoint().save(&dir.join("run.hbnc")).unwrap();
        let mut files: Vec<PathBuf> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        files.sort();
        assert_eq!(files.len(), 2, "{policy}: one frame and one chunk file");
        let saved = files.iter().fold(FNV_OFFSET, |h, path| {
            let name = path.file_name().unwrap().to_str().unwrap();
            fnv1a(fnv1a(h, name.as_bytes()), &std::fs::read(path).unwrap())
        });
        assert_eq!(saved, files_digest, "{policy}, faulted {faulted}: saved checkpoint files");
    }
}
