//! Yield analysis with area redundancy — the paper's §VI future-work
//! direction, runnable: how many spare rows buy how much mapping yield, and
//! why stuck-at-closed defects need a different remedy.
//!
//! Run with `cargo run --release --example yield_analysis`.

use memristive_xbar_repro::core::{
    estimate_yield, redundancy_sweep, Campaign, FunctionMatrix, MapperKind, YieldConfig,
};
use memristive_xbar_repro::logic::bench_reg::find;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let info = find("sqrt8")?;
    let cover = info.mapping_cover(0);
    let fm = FunctionMatrix::from_cover(&cover);
    println!(
        "circuit: sqrt8 ({} products, optimum {} rows x {} cols)",
        cover.len(),
        fm.num_rows(),
        fm.num_cols()
    );

    let base = YieldConfig {
        campaign: Campaign {
            samples: 300,
            seed: 99,
            defect_rate: 0.15,
            ..Campaign::default()
        },
        mapper: MapperKind::Hybrid,
        spare_rows: 0,
        stuck_closed_fraction: 0.0,
    };

    println!("\nstuck-open only, 15% defect rate (HBA):");
    println!("spare rows | success % | area overhead");
    for (spare, result) in redundancy_sweep(&fm, &base, &[0, 1, 2, 4, 8, 16]) {
        println!(
            "    {spare:>3}    |   {:>5.1}   |    {:.2}x",
            result.success_rate * 100.0,
            result.area_overhead
        );
    }

    println!("\nmixed defects (25% of defects stuck-closed), 8% defect rate (EA):");
    println!("spare rows | success %   (note: spares do NOT recover column kills)");
    for spare in [0usize, 4, 8, 16] {
        let result = estimate_yield(
            &fm,
            &YieldConfig {
                campaign: Campaign {
                    defect_rate: 0.08,
                    ..base.campaign
                },
                mapper: MapperKind::Exact,
                spare_rows: spare,
                stuck_closed_fraction: 0.25,
            },
        );
        println!("    {spare:>3}    |   {:>5.1}", result.success_rate * 100.0);
    }
    println!(
        "\nconclusion: row redundancy recovers stuck-open yield cheaply, but every\n\
         added row enlarges each column's stuck-closed cross-section — dedicated\n\
         column redundancy (future work in the paper, Ext-A in EXPERIMENTS.md)\n\
         is required for stuck-at-closed tolerance."
    );
    Ok(())
}
