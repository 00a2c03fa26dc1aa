//! Durable checkpoints: versioned, checksummed on-disk frames that a
//! killed run resumes from bit for bit — and that reject corruption
//! with an error, never a panic or a silently wrong resume.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use hbn_scenario::{
    FaultPlan, FrozenStatic, RestoreError, ScenarioSpec, ScenarioSpecBuilder, ServeKernel, Session,
    Strategy, StrategyKind, ThresholdSwitch, TopologyFamily,
};
use hbn_workload::phases::full_tour;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn base_builder(seed: u64) -> ScenarioSpecBuilder {
    ScenarioSpec::builder(
        "durable",
        TopologyFamily::Balanced { branching: 3, height: 2 },
        full_tour(8, 120),
    )
    .threshold(2)
    .seed(seed)
    .epoch_requests(40)
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

/// Disk roundtrip is exact for every built-in strategy kind on both
/// serve kernels (the reference kernel exports its counters physically
/// rather than by stamp), including under an active fault plan (the
/// checkpoint lands mid-outage).
#[test]
fn disk_checkpoint_resumes_bit_for_bit_for_every_builtin() {
    for serve in [ServeKernel::Workspace, ServeKernel::Reference] {
        for (i, strategy) in [
            StrategyKind::Dynamic,
            StrategyKind::PeriodicStatic { replace_every_epochs: 2 },
            StrategyKind::Hybrid { reseed_every_epochs: 2 },
        ]
        .into_iter()
        .enumerate()
        {
            let spec = base_builder(23).strategy(strategy).serve_kernel(serve).build();
            let path = tmp(&format!("roundtrip_{i}_{serve}.hbnc"));
            let (expected, resumed) = save_restore_roundtrip(&spec, 5, &path, None);
            assert_eq!(resumed, expected, "strategy {strategy}, serve kernel {serve}");
        }
    }

    // Mid-outage checkpoint: the fault overlay and healed state resume.
    let net = TopologyFamily::Balanced { branching: 3, height: 2 }.build();
    let bus = *net.children(net.root()).iter().find(|&&v| net.is_bus(v)).unwrap();
    let spec = base_builder(29).faults(FaultPlan::single_outage(bus, 4, 7)).build();
    let path = tmp("roundtrip_outage.hbnc");
    let (expected, resumed) = save_restore_roundtrip(&spec, 5, &path, None);
    assert_eq!(resumed, expected);
    assert!(expected.traffic.repair_traffic == expected.traffic.repairs * 2);
}

/// The trait-only strategies serialize through their durable tags too.
#[test]
fn disk_checkpoint_covers_trait_only_strategies() {
    let spec = base_builder(31).build();
    let swap_frozen = |s: &mut Session| {
        let frozen = FrozenStatic::new(s.network(), s.execution(), s.max_objects());
        s.swap_strategy(Box::new(frozen));
    };
    let path = tmp("roundtrip_frozen.hbnc");
    let (expected, resumed) = save_restore_roundtrip(&spec, 3, &path, Some(&swap_frozen));
    assert_eq!(resumed, expected);

    let swap_switch = |s: &mut Session| {
        let switch = ThresholdSwitch::new(s.network(), s.execution(), s.max_objects(), 0.3, 2);
        s.swap_strategy(Box::new(switch));
    };
    let path = tmp("roundtrip_switch.hbnc");
    let (expected, resumed) = save_restore_roundtrip(&spec, 4, &path, Some(&swap_switch));
    assert_eq!(resumed, expected);
}

/// Restoring under a different spec is refused up front with
/// `SpecMismatch` — before any state is built.
#[test]
fn restore_under_wrong_spec_is_refused() {
    let spec = base_builder(23).build();
    let path = tmp("mismatch.hbnc");
    let mut session = Session::new(&spec);
    session.step_epoch().unwrap().unwrap();
    session.checkpoint().save(&path).unwrap();

    let other = base_builder(24).build();
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
        fn snapshot(&self) -> Box<dyn Strategy> {
            Box::new(self.clone())
        }
    }

    let spec = base_builder(23).build();
    let mut session = Session::with_strategy(&spec, |net, _, _| {
        Box::new(Opaque {
            home: vec![net.processors()[0]],
            loads: hbn_load::LoadMap::zero(net),
            stats: hbn_dynamic::DynamicStats::default(),
        })
    });
    session.step_epoch().unwrap().unwrap();
    let path = tmp("opaque.hbnc");
    match session.checkpoint().save(&path) {
        Err(RestoreError::UnsupportedStrategy(label)) => assert_eq!(label, "opaque"),
        other => panic!("expected UnsupportedStrategy, got {other:?}"),
    }
}

/// Garbage files are rejected by kind: wrong magic, unknown or previous
/// version, corrupt payload, missing file.
#[test]
fn foreign_files_are_rejected_by_kind() {
    let spec = base_builder(23).build();

    let path = tmp("not_a_checkpoint.hbnc");
    std::fs::write(&path, b"definitely not a checkpoint frame").unwrap();
    assert!(matches!(Session::restore_from_file(&spec, &path), Err(RestoreError::BadMagic)));

    // A real frame with its version field bumped is refused as an
    // unknown version (checked before the checksum, so future formats
    // get a precise error instead of "corrupt").
    let good = tmp("version_base.hbnc");
    let mut session = Session::new(&spec);
    session.step_epoch().unwrap().unwrap();
    session.checkpoint().save(&good).unwrap();
    let bytes = std::fs::read(&good).unwrap();
    assert_eq!(&bytes[..4], b"HBNC");
    let mut flipped = bytes.clone();
    flipped[4] ^= 0xff;
    let vpath = tmp("version_flip.hbnc");
    std::fs::write(&vpath, &flipped).unwrap();
    assert!(matches!(Session::restore_from_file(&spec, &vpath), Err(RestoreError::BadVersion(_))));
    // A real frame rewritten to the previous format version (v3, whose
    // spec fingerprint still hashed a serve-shard count) is refused by
    // version — not as a spec mismatch, not as a corrupt file.
    let mut v3 = bytes.clone();
    v3[4..8].copy_from_slice(&3u32.to_le_bytes());
    let v3path = tmp("version_3.hbnc");
    std::fs::write(&v3path, &v3).unwrap();
    assert!(matches!(Session::restore_from_file(&spec, &v3path), Err(RestoreError::BadVersion(3))));
    // Corrupting the payload instead trips the checksum.
    let mut payload_flip = bytes.clone();
    let mid = 16 + (bytes.len() - 24) / 2;
    payload_flip[mid] ^= 0x01;
    let cpath = tmp("payload_flip.hbnc");
    std::fs::write(&cpath, &payload_flip).unwrap();
    assert!(matches!(Session::restore_from_file(&spec, &cpath), Err(RestoreError::BadChecksum)));

    let missing = tmp("missing_checkpoint.hbnc");
    let _ = std::fs::remove_file(&missing);
    assert!(matches!(Session::restore_from_file(&spec, &missing), Err(RestoreError::Io(_))));
}

/// The bytes of a saved three-epoch checkpoint. Each caller passes its
/// own `name`: tests run side by side and must not share a path.
fn checkpoint_bytes(name: &str) -> Vec<u8> {
    let spec = base_builder(23).build();
    let path = tmp(name);
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
        let spec = base_builder(23).build();
        let mut bytes = checkpoint_bytes("prop_flip_base.hbnc");
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        let path = tmp(&format!("prop_flip_{pos}_{flip}.hbnc"));
        std::fs::write(&path, &bytes).unwrap();
        let restored = Session::restore_from_file(&spec, &path);
        prop_assert!(restored.is_err(), "byte {pos} xor {flip:#x} must not restore");
        std::fs::remove_file(&path).ok();
    }

    /// Every truncation of a checkpoint file is an error.
    #[test]
    fn any_truncation_is_an_error(cut in 0usize..4096) {
        let spec = base_builder(23).build();
        let bytes = checkpoint_bytes("prop_cut_base.hbnc");
        let cut = cut % bytes.len();
        let path = tmp(&format!("prop_cut_{cut}.hbnc"));
        std::fs::write(&path, &bytes[..cut]).unwrap();
        prop_assert!(Session::restore_from_file(&spec, &path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
