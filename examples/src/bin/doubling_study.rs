//! Doubling study (the paper's Figure 2 motivation): double one parameter
//! of the baseline at a time and report the PPA deltas — which resources
//! pay their way, and which only burn power and area.
//!
//! ```sh
//! cargo run -p archx-examples --release --bin doubling_study
//! ```

use archexplorer::dse::space::ParamId;
use archexplorer::prelude::*;

fn main() {
    let cfg = CampaignConfig {
        instrs_per_workload: 10_000,
        ..CampaignConfig::default()
    };
    let suite = truncate_suite(spec17_suite(), 5);
    let evaluator = build_evaluator_in(&suite, &cfg, TraceStore::global());
    let baseline = MicroArch::baseline();
    let base = evaluator.evaluate(&baseline).expect("evaluates").ppa;
    println!(
        "baseline: IPC {:.4}, power {:.4} W, area {:.4} mm², trade-off {:.4}\n",
        base.ipc,
        base.power_w,
        base.area_mm2,
        base.tradeoff()
    );
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8}",
        "doubled", "perf%", "power%", "area%", "PPA%"
    );

    let doubled = [
        (ParamId::Rob, "ROB"),
        (ParamId::IntRf, "IntRF"),
        (ParamId::FpRf, "FpRF"),
        (ParamId::Iq, "IQ"),
        (ParamId::Lq, "LQ"),
        (ParamId::Sq, "SQ"),
        (ParamId::FpAlu, "FpALU"),
        (ParamId::IntMultDiv, "IntMultDiv"),
        (ParamId::FetchQueue, "FetchQueue"),
        (ParamId::DCacheKb, "D-cache"),
        (ParamId::ICacheKb, "I-cache"),
    ];
    for (param, label) in doubled {
        let mut arch = baseline;
        param.set(&mut arch, param.get(&baseline) * 2);
        if arch.validate().is_err() {
            continue;
        }
        let ppa = evaluator.evaluate(&arch).expect("evaluates").ppa;
        println!(
            "{label:<16} {:>+7.2}% {:>+7.2}% {:>+7.2}% {:>+7.2}%",
            100.0 * (ppa.ipc / base.ipc - 1.0),
            100.0 * (ppa.power_w / base.power_w - 1.0),
            100.0 * (ppa.area_mm2 / base.area_mm2 - 1.0),
            100.0 * (ppa.tradeoff() / base.tradeoff() - 1.0),
        );
    }
    println!("\nreading: resources whose perf% ≈ 0 but power/area% > 0 are over-provisioned;");
    println!("the paper's Figure 2 highlights IntRF (helps) vs FpALU (pure cost).");
}
