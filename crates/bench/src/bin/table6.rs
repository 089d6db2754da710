//! Table 6: wall-clock time to find the best CPU offloading, Espresso
//! (Lemma 1 product space) vs brute force (2^|T_gpu|, extrapolated).

use espresso::decision::{brute, gpu, offload};
use espresso_bench::{runner, Table, Testbed};
use espresso_gc::GcAlgorithm;
use espresso_models::Model;
use espresso_sim::{SimConfig, Simulator};
use espresso_strategy::OptionSpace;

fn main() {
    let mut table = Table::new(&[
        "Model",
        "# tensors for offloading",
        "Espresso (Alg.2)",
        "Combos",
        "Brute force (extrapolated)",
    ]);
    for m in Model::ALL {
        let job = runner::job(m, Testbed::Nvlink100G, 8, GcAlgorithm::randomk_1pct());
        let sim = Simulator::new(job.clone(), SimConfig::default());
        let space = OptionSpace::enumerate(&job.cluster);
        let g = gpu::decide_with_simulator(&sim, space.gpu_compressed());
        let n_off = g.strategy.num_compressed();
        let t0 = std::time::Instant::now();
        let off = offload::decide_with_simulator(&sim, &g.strategy, 150_000);
        let secs = t0.elapsed().as_secs_f64();
        // Brute force over 2^n subsets: one timed simulation extrapolated.
        let per_sim = {
            let t = std::time::Instant::now();
            for _ in 0..20 {
                let _ = sim.iteration_time(&g.strategy);
            }
            t.elapsed().as_secs_f64() / 20.0
        };
        let est = per_sim * 2f64.powi(n_off as i32);
        let brute_str = if est > 86_400.0 {
            "> 24h".to_string()
        } else if est > 1.0 {
            format!("{est:.1} s")
        } else {
            format!("{:.0} ms", est * 1e3)
        };
        let _ = brute::estimate_full_search_seconds; // See Table 5 for the strategy-space analogue.
        table.row(vec![
            m.name().to_string(),
            format!("{n_off}"),
            format!("{:.0} ms", secs * 1e3),
            format!("{}", off.combinations),
            brute_str,
        ]);
    }
    println!("Table 6: CPU-offloading search time, 8 NVLink machines (paper Espresso row:");
    println!("1/30/12/44/18/1 ms; brute force up to > 24h)\n");
    print!("{}", table.render());
}
