//! Regenerate the paper's evaluation section. `figures <id>` prints one
//! experiment (`fig1` … `fig9`, `table1`, `ablation_threshold`,
//! `ablation_bcast`, `ablation_credit`), `figures all` every one in paper
//! order; `--quick` shrinks the sweeps. Exits 1 if a PASS/FAIL shape check
//! failed, 2 on an unknown id.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let id = args.iter().find(|a| !a.starts_with("--"));
    let experiments = lmpi_bench::all_experiments();
    let chosen: Vec<_> = experiments
        .iter()
        .filter(|(name, _)| id.is_some_and(|id| id == "all" || id == name))
        .collect();
    if chosen.is_empty() {
        let ids: Vec<&str> = experiments.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: figures <id>|all [--quick]\nids: {}", ids.join(" "));
        std::process::exit(2);
    }
    let mut failed = Vec::new();
    for (name, f) in chosen {
        let r = f(quick);
        println!("{}", r.render());
        if !r.passed() {
            failed.push(name);
        }
    }
    if failed.is_empty() {
        println!("ALL SHAPE CHECKS PASSED");
    } else {
        println!("FAILED: {failed:?}");
        std::process::exit(1);
    }
}
