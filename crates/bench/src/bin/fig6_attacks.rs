//! Regenerates the paper's **Fig. 6** (a, b, c): the three entropy
//! distiller attacks — group-based repartitioning, 1-out-of-k masking
//! and overlapping neighbor chain — each run as a device-fleet campaign
//! on the paper's 4×10 array, reporting recovered-vs-actual keys and
//! query counts.
//!
//! ```text
//! fig6_attacks [--devices N] [--seed S] [--threads K] [--json-dir DIR]
//! ```
//!
//! With `--json-dir`, one timing-stripped campaign report per variant is
//! written to `DIR/fig6-<variant>.json` (plus a `.csv` sibling).

use ropuf_bench::{parse_flags, write_artifact};
use ropuf_campaign::{AttackKind, Campaign, CampaignReport, FleetSpec};
use ropuf_constructions::group::GroupBasedConfig;
use ropuf_constructions::pairing::distilled::{DistilledConfig, PairSource};
use ropuf_sim::ArrayDims;

fn print_variant(tag: &str, label: &str, report: &CampaignReport) {
    let bits_total: u64 = report.runs.iter().map(|r| u64::from(r.key_bits)).sum();
    let bits_recovered: u64 = report
        .runs
        .iter()
        .map(|r| u64::from(r.key_bits - r.hamming_distance.unwrap_or(r.key_bits)))
        .sum();
    let max_hyp = report
        .runs
        .iter()
        .filter_map(|r| r.max_hypotheses)
        .max()
        .map_or(String::new(), |h| format!(", max hypotheses {h}"));
    println!(
        "({tag}) {label:<15}: {}/{} devices exact, {bits_recovered}/{bits_total} key bits recovered, {:.0} mean queries{max_hyp}, {:.1} ms",
        report.succeeded(),
        report.runs.len(),
        report.mean_queries(),
        report.total_wall_ms,
    );
}

fn main() {
    let flags = parse_flags();
    flags.expect_known(&["devices", "seed", "threads", "json-dir"]);
    let devices = flags.get_usize("devices").unwrap_or(5);
    let master_seed = flags.get_u64("seed").unwrap_or(6);
    let threads = flags.get_usize("threads").unwrap_or(0);
    // Resolve artifact flags up front so a value-less --json-dir fails
    // before any campaign work is spent.
    let json_dir = flags.get_required_value("json-dir");

    ropuf_bench::header(
        "FIG 6 — entropy-distiller attacks on a 4×10 array (campaign engine)",
        "(a) group-based repartition, (b) 1-out-of-k masking (k=5), (c) overlapping neighbor chain (multi-bit hypotheses)",
    );
    let dims = ArrayDims::new(10, 4);

    let variants: [(&str, &str, AttackKind); 3] = [
        (
            "a",
            "group-based",
            AttackKind::GroupBased(GroupBasedConfig::default()),
        ),
        (
            "b",
            "1-out-of-5",
            AttackKind::DistillerPairing(DistilledConfig {
                source: PairSource::OneOutOfK { k: 5 },
                ..DistilledConfig::default()
            }),
        ),
        (
            "c",
            "overlap chain",
            AttackKind::DistillerPairing(DistilledConfig {
                source: PairSource::OverlappingChain,
                ..DistilledConfig::default()
            }),
        ),
    ];

    for (tag, label, attack) in variants {
        let campaign = Campaign {
            attack,
            fleet: FleetSpec {
                dims,
                devices,
                master_seed,
            },
            threads,
            early_exit: false,
            detector: None,
        };
        let report = campaign.run();
        print_variant(tag, label, &report);
        if let Some(dir) = json_dir {
            let slug = label.replace(' ', "-");
            write_artifact(&format!("{dir}/fig6-{slug}.json"), &report.to_json(false));
            write_artifact(&format!("{dir}/fig6-{slug}.csv"), &report.to_csv(false));
        }
    }
    println!(
        "\nshape check: all three attacks achieve (near-)full key recovery, as claimed in §VI-C/D."
    );
}
