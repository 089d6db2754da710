//! Table 5: wall-clock time to select compression strategies, Espresso vs
//! brute force (extrapolated).

use espresso::decision::brute;
use espresso::Espresso;
use espresso_bench::{runner, Table, Testbed};
use espresso_gc::GcAlgorithm;
use espresso_models::Model;
use espresso_sim::SimConfig;
use espresso_strategy::OptionSpace;

fn main() {
    let mut table = Table::new(&[
        "Model",
        "# tensors",
        "Espresso (Alg.1)",
        "Brute force (extrapolated)",
    ]);
    for m in Model::ALL {
        let job = runner::job(m, Testbed::Nvlink100G, 8, GcAlgorithm::randomk_1pct());
        let esp = Espresso::new(job.clone());
        let (_, report) = esp.select_strategy();
        let space = OptionSpace::enumerate(&job.cluster);
        let est = brute::estimate_full_search_seconds(
            &job,
            space.gpu_compressed(),
            &SimConfig::default(),
            20,
        );
        let brute_str = if est > 86_400.0 {
            "> 24h".to_string()
        } else {
            format!("{est:.1} s")
        };
        table.row(vec![
            m.name().to_string(),
            format!("{}", job.num_tensors()),
            format!("{:.0} ms", report.gpu_decision_seconds * 1e3),
            brute_str,
        ]);
    }
    println!("Table 5: strategy-selection time, 8 NVLink machines (paper Espresso row:");
    println!("17/179/84/125/99/1 ms; brute force > 24h everywhere)\n");
    print!("{}", table.render());
}
