//! Regenerates paper Fig. 4 (throughput under repeated bug triggers:
//! First-Aid vs Rx vs restart, Apache and Squid). Also writes the raw
//! series to `results/fig4.json`.

use fa_bench::fig4;
use serde::Serialize;

#[derive(Serialize)]
struct Results {
    figures: Vec<fig4::Fig4>,
}

fn main() {
    let results = Results {
        figures: fig4::figures(),
    };
    for fig in &results.figures {
        print!("{}", fig4::render_with_series(fig));
    }
    match serde_json::to_string_pretty(&results) {
        Ok(json) => {
            std::fs::create_dir_all("results").ok();
            match std::fs::write("results/fig4.json", json) {
                Ok(()) => println!("wrote results/fig4.json"),
                Err(e) => eprintln!("failed to write results/fig4.json: {e}"),
            }
        }
        Err(e) => eprintln!("failed to serialize results: {e}"),
    }
}
