//! Regenerate the evaluation: `figures <id|all>`.
//!
//! One id regenerates that figure or sweep under `ACTORPROF_OUT/<id>/`;
//! `all` runs the paper's eleven figures, fig03…fig13, in paper order on
//! one shared input (the sequence EXPERIMENTS.md records). The sweeps
//! beyond the paper (`scaling_strong`, `scaling_weak`,
//! `topology_ablation`, `trace_size_growth`) run only by id.

use std::process::ExitCode;

use fabsp_bench::{figures, FigureCtx};

/// One figure of §IV or one sweep: its id (also its output directory),
/// the header it prints, and the `figures.rs` builder that renders it.
struct Figure {
    id: &'static str,
    title: &'static str,
    paper_ref: &'static str,
    run: fn(&FigureCtx, &str),
}

#[rustfmt::skip]
static FIGURES: [Figure; 15] = [
    Figure { id: "fig03", title: "Figure 3", paper_ref: "logical trace heatmap, 1 node x PEs",
        run: |c, id| figures::logical_heatmap_figure(c, id, c.one_node, "1 node") },
    Figure { id: "fig04", title: "Figure 4", paper_ref: "logical trace heatmap, 2 nodes",
        run: |c, id| figures::logical_heatmap_figure(c, id, c.two_node, "2 nodes") },
    Figure { id: "fig05", title: "Figure 5", paper_ref: "violin plot for logical trace",
        run: |c, id| figures::violin_figure(c, id, false) },
    Figure { id: "fig06", title: "Figure 6", paper_ref: "(L) observation verifier",
        run: figures::l_observation_figure },
    Figure { id: "fig07", title: "Figure 7", paper_ref: "violin plot for physical trace",
        run: |c, id| figures::violin_figure(c, id, true) },
    Figure { id: "fig08", title: "Figure 8", paper_ref: "physical trace heatmap, 1 node",
        run: |c, id| figures::physical_heatmap_figure(c, id, c.one_node, "1node") },
    Figure { id: "fig09", title: "Figure 9", paper_ref: "physical trace heatmap, 2 nodes",
        run: |c, id| figures::physical_heatmap_figure(c, id, c.two_node, "2node") },
    Figure { id: "fig10", title: "Figure 10", paper_ref: "PAPI_TOT_INS per PE, 1 node",
        run: |c, id| figures::papi_figure(c, id, c.one_node, "1node") },
    Figure { id: "fig11", title: "Figure 11", paper_ref: "PAPI_TOT_INS per PE, 2 nodes",
        run: |c, id| figures::papi_figure(c, id, c.two_node, "2node") },
    Figure { id: "fig12", title: "Figure 12", paper_ref: "overall profiling, 1 node",
        run: |c, id| figures::overall_figure(c, id, c.one_node, "1node") },
    Figure { id: "fig13", title: "Figure 13", paper_ref: "overall profiling, 2 nodes",
        run: |c, id| figures::overall_figure(c, id, c.two_node, "2node") },
    Figure { id: "scaling_strong", title: "Strong scaling", paper_ref: "§I motivation, fixed graph",
        run: figures::strong_scaling_figure },
    Figure { id: "scaling_weak", title: "Weak scaling", paper_ref: "§I motivation, +1 scale per PE doubling",
        run: figures::weak_scaling_figure },
    Figure { id: "topology_ablation", title: "Topology ablation", paper_ref: "§III-C 1D / 2D mesh / 3D cube",
        run: figures::topology_figure },
    Figure { id: "trace_size_growth", title: "Trace-size growth", paper_ref: "§IV-E / §VI trace bloat",
        run: figures::trace_size_figure },
];

/// How many of `FIGURES`, from the first, are the paper's — what `all` runs.
const PAPER_FIGURES: usize = 11;

/// The figures `arg` names: the paper's eleven for `all`, one for a known
/// id. Anything else is the caller's mistake — the error lists what is
/// valid.
fn select(arg: Option<&str>) -> Result<&'static [Figure], String> {
    if arg == Some("all") {
        return Ok(&FIGURES[..PAPER_FIGURES]);
    }
    match FIGURES.iter().position(|f| Some(f.id) == arg) {
        Some(i) => Ok(&FIGURES[i..=i]),
        None => {
            let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
            Err(format!(
                "unknown figure id {:?}\nusage: figures <id|all>\nvalid ids: {}",
                arg.unwrap_or(""),
                ids.join(" ")
            ))
        }
    }
}

fn main() -> ExitCode {
    let selected = match select(std::env::args().nth(1).as_deref()) {
        Ok(selected) => selected,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    let ctx = match selected {
        [one] => FigureCtx::init(one.title, one.paper_ref),
        _ => FigureCtx::init("All figures", "full evaluation sweep"),
    };
    for figure in selected {
        (figure.run)(&ctx, figure.id);
    }
    if selected.len() > 1 {
        println!("\nall figures regenerated; see target/actorprof-figures/");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_resolves_fifteen_unique_ids_and_rejects_the_rest() {
        let mut expected: Vec<String> = (3..=13).map(|n| format!("fig{n:02}")).collect();
        let sweeps = ["scaling_strong", "scaling_weak", "topology_ablation", "trace_size_growth"];
        expected.extend(sweeps.map(String::from));
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        assert_eq!(ids, expected, "fig03..fig13 in paper order, then the sweeps, once each");
        for id in &ids {
            let selected = select(Some(id)).expect("known id resolves");
            assert_eq!(selected.len(), 1);
            assert_eq!(selected[0].id, *id);
        }
        let all: Vec<&str> = select(Some("all")).unwrap().iter().map(|f| f.id).collect();
        assert_eq!(all, ids[..PAPER_FIGURES], "all runs exactly fig03..fig13");

        for bad in [Some("nope"), Some("fig14"), Some(""), None] {
            let err = select(bad).err().expect("rejected, not run");
            assert!(err.contains(&format!("{:?}", bad.unwrap_or(""))), "{err:?} names the argument");
            assert!(ids.iter().all(|id| err.contains(id)), "{err:?} lists every id");
        }
    }
}
