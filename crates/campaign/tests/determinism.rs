//! The campaign engine's determinism contract: the same master seed
//! yields a byte-identical (timing-stripped) report, regardless of
//! thread count, and different seeds yield different fleets.

use ropuf_campaign::{AttackKind, Campaign, FleetSpec};
use ropuf_constructions::group::GroupBasedConfig;
use ropuf_constructions::pairing::lisa::LisaConfig;
use ropuf_sim::ArrayDims;

fn lisa_campaign(master_seed: u64, threads: usize, devices: usize) -> Campaign {
    Campaign {
        attack: AttackKind::Lisa(LisaConfig::default()),
        fleet: FleetSpec {
            dims: ArrayDims::new(16, 8),
            devices,
            master_seed,
        },
        threads,
        early_exit: false,
        detector: None,
    }
}

#[test]
fn same_seed_same_json_bit_for_bit() {
    let a = lisa_campaign(42, 1, 8).run().to_json(false);
    let b = lisa_campaign(42, 4, 8).run().to_json(false);
    assert_eq!(a, b, "JSON must be identical across runs and thread counts");

    let c = lisa_campaign(42, 3, 8).run().to_csv(false);
    let d = lisa_campaign(42, 2, 8).run().to_csv(false);
    assert_eq!(c, d, "CSV must be identical across runs and thread counts");
}

#[test]
fn different_seed_different_fleet() {
    let a = lisa_campaign(1, 2, 4).run();
    let b = lisa_campaign(2, 2, 4).run();
    let seeds_a: Vec<u64> = a.runs.iter().map(|r| r.attack_seed).collect();
    let seeds_b: Vec<u64> = b.runs.iter().map(|r| r.attack_seed).collect();
    assert_ne!(
        seeds_a, seeds_b,
        "master seed must decorrelate attack seeds"
    );

    // The manufactured hardware itself must differ: same fleet slot,
    // different master seed, different helper blob.
    let scheme = ropuf_constructions::pairing::lisa::LisaScheme::new(LisaConfig::default());
    let d1 = FleetSpec {
        dims: ArrayDims::new(16, 8),
        devices: 1,
        master_seed: 1,
    }
    .provision_device(0, &scheme)
    .unwrap();
    let d2 = FleetSpec {
        dims: ArrayDims::new(16, 8),
        devices: 1,
        master_seed: 2,
    }
    .provision_device(0, &scheme)
    .unwrap();
    assert_ne!(d1.helper(), d2.helper());
    assert_ne!(d1.enrolled_key(), d2.enrolled_key());
}

#[test]
fn early_exit_preserves_success_and_saves_queries() {
    let exhaustive = lisa_campaign(7, 2, 6).run();
    let mut early = lisa_campaign(7, 2, 6);
    early.early_exit = true;
    let early = early.run();
    assert_eq!(exhaustive.succeeded(), 6);
    assert_eq!(early.succeeded(), 6, "early exit must not cost correctness");
    assert!(
        early.total_queries() < exhaustive.total_queries(),
        "early exit must reduce query volume: {} vs {}",
        early.total_queries(),
        exhaustive.total_queries()
    );
}

#[test]
fn group_based_campaign_is_deterministic_too() {
    let mk = |threads| Campaign {
        attack: AttackKind::GroupBased(GroupBasedConfig::default()),
        fleet: FleetSpec {
            dims: ArrayDims::new(10, 4),
            devices: 3,
            master_seed: 9,
        },
        threads,
        early_exit: false,
        detector: None,
    };
    let a = mk(1).run().to_json(false);
    let b = mk(3).run().to_json(false);
    assert_eq!(a, b);
}

/// FNV-1a over the timing-stripped JSON report.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Pins the attack trajectories across versions, not just across runs
/// of one build: a change to the simulator, the ECC, the constructions
/// or the attacks that alters any query count, recovered key or flag
/// shows here. The expected digests were taken from the code before
/// the BCH decoder became table-driven.
#[test]
fn attack_trajectories_match_pinned_digests() {
    use ropuf_constructions::cooperative::CooperativeConfig;
    use ropuf_constructions::pairing::distilled::{DistilledConfig, PairSource};
    use ropuf_verifier::DetectorConfig;

    let kinds = [
        (
            AttackKind::Lisa(LisaConfig::default()),
            ArrayDims::new(16, 8),
            0x3aad_8066_4e30_8edf_u64,
        ),
        (
            AttackKind::Cooperative(CooperativeConfig::default()),
            ArrayDims::new(16, 8),
            0x9e3d_9a93_4d06_7e5a,
        ),
        (
            AttackKind::GroupBased(GroupBasedConfig::default()),
            ArrayDims::new(10, 4),
            0x0145_60fd_9238_797b,
        ),
        (
            AttackKind::DistillerPairing(DistilledConfig {
                source: PairSource::OneOutOfK { k: 5 },
                ..DistilledConfig::default()
            }),
            ArrayDims::new(10, 4),
            0xe515_f19f_62b2_f95c,
        ),
    ];
    let mut got = Vec::new();
    for (attack, dims, _) in kinds {
        let report = Campaign {
            attack,
            fleet: FleetSpec {
                dims,
                devices: 8,
                master_seed: 2024,
            },
            threads: 2,
            early_exit: false,
            detector: Some(DetectorConfig::default()),
        }
        .run();
        // The pinned fleets are not degenerate: keys (or relations) are
        // recovered and the detector flags.
        assert!(report.succeeded() > 0, "{}", report.attack);
        assert!(report.flagged() > 0, "{}", report.attack);
        got.push(fnv1a(&report.to_json(false)));
    }
    let want: Vec<u64> = kinds.iter().map(|k| k.2).collect();
    assert_eq!(
        got.iter().map(|d| format!("{d:#018x}")).collect::<Vec<_>>(),
        want.iter()
            .map(|d| format!("{d:#018x}"))
            .collect::<Vec<_>>(),
        "timing-stripped report digests of lisa, cooperative, group-based, distiller-pairing"
    );
}
