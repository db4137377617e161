//! Experiment: specification expansion (Figures 2 & 5; §2, §6.1, §6.2).
//!
//! Regenerates the paper's partial-vs-full installation specification
//! sizes:
//!
//! * OpenMRS (§2): paper 22 → 204 lines;
//! * JasperReports (§6.1): paper 26 → 434 lines;
//! * WebApp production (§6.2): paper 61 lines / 7 resources → 1,444 lines
//!   / 29 resources;
//!
//! plus the Figure 5 hypergraph and the §4 constraints for OpenMRS.
//!
//! Run with: `cargo run -p engage-bench --bin exp_specs [--metrics [FILE]] [--trace FILE]`

use engage_bench::Reporter;
use engage_config::{generate, graph_gen, render_constraints, ConfigEngine};
use engage_model::{PartialInstallSpec, Universe};
use engage_sat::ExactlyOneEncoding;

struct Case {
    name: &'static str,
    universe: Universe,
    partial: PartialInstallSpec,
    paper_partial_lines: usize,
    paper_full_lines: usize,
    paper_resources: Option<(usize, usize)>,
}

fn main() {
    let reporter = Reporter::from_args("specs");
    let cases = [
        Case {
            name: "OpenMRS (Fig. 2)",
            universe: engage_library::base_universe(),
            partial: engage_library::openmrs_partial(),
            paper_partial_lines: 22,
            paper_full_lines: 204,
            paper_resources: None,
        },
        Case {
            name: "JasperReports (§6.1)",
            universe: engage_library::base_universe(),
            partial: engage_library::jasper_partial(),
            paper_partial_lines: 26,
            paper_full_lines: 434,
            paper_resources: None,
        },
        Case {
            name: "WebApp production (§6.2)",
            universe: engage_library::django_universe(),
            partial: engage_library::webapp_production_partial(),
            paper_partial_lines: 61,
            paper_full_lines: 1444,
            paper_resources: Some((7, 29)),
        },
    ];

    println!("== Specification expansion: partial -> full ==");
    println!(
        "{:<26} {:>14} {:>14} {:>8} {:>22}",
        "case", "partial (ours)", "full (ours)", "ratio", "paper partial->full"
    );
    for case in &cases {
        let partial_lines = engage_dsl::render_partial_spec(&case.partial)
            .lines()
            .count();
        let outcome = ConfigEngine::new(&case.universe)
            .with_obs(reporter.obs())
            .configure(&case.partial)
            .expect("configures");
        let full_lines = engage_dsl::render_install_spec(&outcome.spec)
            .lines()
            .count();
        let ratio = full_lines as f64 / partial_lines as f64;
        println!(
            "{:<26} {:>7} lines {:>9} lines {:>7.1}x {:>12} -> {:<6}",
            case.name,
            partial_lines,
            full_lines,
            ratio,
            case.paper_partial_lines,
            case.paper_full_lines,
        );
        if let Some((pp, pf)) = case.paper_resources {
            println!(
                "{:<26} {:>7} rsrcs {:>9} rsrcs          paper: {pp} -> {pf} resources",
                "",
                case.partial.len(),
                outcome.spec.len()
            );
        }
    }
    println!();
    println!("The paper's headline holds: the configuration engine expands a partial spec by");
    println!("roughly an order of magnitude, so users write ~10x less specification.\n");

    println!("== Figure 5: the OpenMRS resource-instance hypergraph ==");
    let u = engage_library::base_universe();
    let partial = engage_library::openmrs_partial();
    let graph = graph_gen(&u, &partial).expect("graph");
    print!("{}", graph.render());
    println!();

    println!("== §4 Boolean constraints generated from the hypergraph ==");
    let constraints = generate(&graph, ExactlyOneEncoding::Pairwise);
    print!("{}", render_constraints(&graph));
    let (vars, clauses) = (
        constraints.cnf().num_vars(),
        constraints.cnf().num_clauses(),
    );
    println!("\nCNF: {vars} variables, {clauses} clauses");
    reporter.finish();
}
