//! `sti-bench <name> [flags]`: every table, figure, ablation and micro
//! timing of the evaluation, looked up by name in [`ENTRIES`]. The flags
//! after the name are the [`Scale`] flags; run with no name it lists the
//! entries, one per line.
//!
//! Each entry prints what its table in `results/<name>.txt` holds (see
//! `DESIGN.md` for the experiment index); `scripts/run_all_figures.sh`
//! regenerates every entry that has such a file.

use sti_bench::{Scale, DEFAULT_SIZES, IO_SIZES};

mod ablations;
mod figures;
mod micro;
mod throughput;

/// A registry entry: its name, its default size ladder, the experiment.
type Entry = (&'static str, &'static [usize], fn(Scale));

/// The registry.
const ENTRIES: &[Entry] = &[
    ("table1", &DEFAULT_SIZES, figures::table1),
    ("table2", &DEFAULT_SIZES, figures::table2),
    ("fig11", &DEFAULT_SIZES, figures::fig11),
    ("fig12", &DEFAULT_SIZES, figures::fig12),
    ("fig13", &DEFAULT_SIZES, figures::fig13),
    ("fig14", &DEFAULT_SIZES, figures::fig14),
    ("fig15", &IO_SIZES, figures::fig15),
    ("fig16", &IO_SIZES, figures::fig16),
    ("fig17", &IO_SIZES, figures::fig17),
    ("fig18", &IO_SIZES, figures::fig18),
    ("railway", &IO_SIZES, figures::railway),
    ("tuning", &DEFAULT_SIZES, ablations::tuning),
    ("ablation_motion", &IO_SIZES, ablations::motion),
    ("ablation_online", &IO_SIZES, ablations::online),
    ("ablation_orbits", &IO_SIZES, ablations::orbits),
    ("ablation_packing", &IO_SIZES, ablations::packing),
    ("build_cost", &IO_SIZES, ablations::build_cost),
    ("throughput", &IO_SIZES, throughput::throughput),
    ("node_scan", &DEFAULT_SIZES, micro::node_scan),
    ("node_write", &DEFAULT_SIZES, micro::node_write),
    ("bulk_pack", &DEFAULT_SIZES, micro::bulk_pack),
];

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(name) = args.next() else {
        for (name, _, _) in ENTRIES {
            println!("{name}");
        }
        return;
    };
    match ENTRIES.iter().find(|(n, _, _)| *n == name) {
        Some((_, sizes, run)) => run(Scale::parse(sizes, args.collect())),
        None => {
            eprintln!("unknown entry {name:?}; the entries are:");
            for (name, _, _) in ENTRIES {
                eprintln!("  {name}");
            }
            std::process::exit(2);
        }
    }
}
